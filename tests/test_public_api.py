"""The package's public surface: every exported name exists, once, and
only the grid module loads numpy when the package is imported."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

import nckit
from nckit.suites import SERIES_TOL


def test_all_names_resolve_and_are_unique():
    assert len(nckit.__all__) == len(set(nckit.__all__))
    missing = [name for name in nckit.__all__ if not hasattr(nckit, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from nckit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(nckit.__all__)


def _import_time_modules(tree: ast.Module) -> set[str]:
    """Top-level module names that the module imports when it is loaded:
    every import outside a function body, class bodies included."""
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_only_grid_imports_numpy_at_module_level():
    src = pathlib.Path(nckit.__file__).parent
    files = sorted(src.glob("*.py"))
    assert "grid.py" in [f.name for f in files]
    offenders = [f.name for f in files if f.name != "grid.py"
                 and "numpy" in _import_time_modules(
                     ast.parse(f.read_text(encoding="utf-8")))]
    assert offenders == []
    assert "numpy" in _import_time_modules(
        ast.parse((src / "grid.py").read_text(encoding="utf-8")))


def test_grid_imports_no_nckit_module():
    # the grid oracle is an independent route: it reaches neither star.py
    # nor any other nckit module, at import time or inside a function
    tree = ast.parse(pathlib.Path(nckit.__file__).with_name("grid.py")
                     .read_text(encoding="utf-8"))
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names]
    imported += ["." * n.level + (n.module or "") for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom)]
    assert "numpy" in imported
    assert [m for m in imported
            if m.startswith(".") or m.split(".")[0] == "nckit"] == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of tree that nothing else in
    the module reads; `from __future__` imports are directives."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a dotted use such as `np.fft` reads the bound name `np` as a Name
    return sorted(name for name in bound if name not in used)


def test_every_module_level_import_is_used():
    # the package's __init__ imports to re-export: those are its surface
    src = pathlib.Path(nckit.__file__).parent
    root = pathlib.Path(__file__).resolve().parents[1]
    files = [f for f in sorted(src.glob("*.py")) if f.name != "__init__.py"]
    files += sorted(root.glob("tests/*.py")) + sorted(root.glob("demos/*.py"))
    unused = {str(f): names for f in files
              if (names := _unused_imports(
                  ast.parse(f.read_text(encoding="utf-8"))))}
    assert unused == {}


def _defaulted_parameters(tree: ast.Module) -> dict[str, dict[str, int | None]]:
    """{function: {parameter: position or None if keyword-only}} for every
    parameter with a default of the module-level functions of tree."""
    found = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        params = {p.arg: i for i, p in enumerate(positional)
                  if i >= len(positional) - len(a.defaults)}
        params.update({p.arg: None for p, v in zip(a.kwonlyargs, a.kw_defaults)
                       if v is not None})
        if params:
            found[node.name] = params
    return found


def _passed_parameters(tree: ast.Module, defaulted) -> set[tuple[str, str]]:
    """(function, parameter) pairs that some call in tree passes, by keyword
    or by position; a callee is known by its name or attribute, with import
    aliases (`main as cli_main`) resolved."""
    alias = {a.asname: a.name for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) for a in n.names if a.asname}
    passed = set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        params = defaulted.get(alias.get(name, name), {})
        keywords = {k.arg for k in call.keywords}
        for param, pos in params.items():
            if param in keywords or (pos is not None and pos < len(call.args)):
                passed.add((alias.get(name, name), param))
    return passed


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no caller overrides is a constant: write it as one
    src = pathlib.Path(nckit.__file__).parent
    root = pathlib.Path(__file__).resolve().parents[1]
    defaulted = {}
    for f in sorted(src.glob("*.py")):
        defaulted.update(_defaulted_parameters(
            ast.parse(f.read_text(encoding="utf-8"))))
    assert ("cross_validate_symbolic" in defaulted
            and "n" in defaulted["cross_validate_symbolic"])
    passed = set()
    for f in [*src.glob("*.py"), *(root / "tests").glob("*.py"),
              *(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]:
        passed |= _passed_parameters(ast.parse(f.read_text(encoding="utf-8")),
                                     defaulted)
    unused = sorted((fn, p) for fn, params in defaulted.items()
                    for p in params if (fn, p) not in passed)
    assert unused == []


def test_only_cli_main_prints_or_writes_reports():
    # every subcommand returns its lines, JSON body and verdict; main alone
    # prints them, writes the report and picks the exit code
    tree = ast.parse(pathlib.Path(nckit.__file__).with_name("cli.py")
                     .read_text(encoding="utf-8"))
    callers = {getattr(top, "name", "<module>")
               for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) in ("print", "_write_json")}
    assert callers == {"main"}


def _tracing_module():
    """perfbench/tracing.py, loaded by path and left unregistered."""
    root = pathlib.Path(__file__).resolve().parents[1]
    path = root / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_module_level_functions():
    # the benchmark's tracer wraps each name by rebinding it wherever the
    # function object is bound, so each must stay a plain function defined
    # at the top of its module
    spans = _tracing_module().SPANS
    assert "nckit.expr" in spans and "nckit.cli" in spans
    missing = []
    for modname, names in spans.items():
        module = importlib.import_module(modname)
        for name in names:
            fn = vars(module).get(name)
            if not (inspect.isfunction(fn) and fn.__module__ == modname
                    and fn.__qualname__ == name):
                missing.append(f"{modname}.{name}")
    assert missing == []
    from nckit.poly import BasePoly
    from nckit.rationals import CRat
    # the operators it counts are the classes' own
    assert all(inspect.isfunction(vars(CRat).get(op))
               for op in ("__mul__", "__add__", "__sub__"))
    assert inspect.isfunction(vars(BasePoly).get("__mul__"))


def test_star_takes_f_g_ctx_first():
    # the tracer's star hook reads its operands and context by position
    from nckit.star import star
    params = list(inspect.signature(star).parameters.values())[:3]
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for name in ("f", "g", "ctx")]


def test_cross_validation_inputs_are_pinned():
    # a faster series cross-check must not come from a cheaper one: a
    # coarser grid, fewer orders, a looser truncation or a narrower guard
    empty = inspect.Parameter.empty
    params = inspect.signature(nckit.cross_validate_symbolic).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("poly_f", empty), ("poly_g", empty), ("n", 128), ("theta", 0.02),
        ("max_terms", 24), ("series_tol", 1e-12)]
    # the guard refuses 2 |theta| >= sigma^2, sigma = 2 pi / 16: theta up
    # to about 0.07711 runs
    for theta in (0.077, -0.077):
        assert nckit.cross_validate_symbolic(
            {(0, 0): 1.0}, {(0, 0): 1.0}, n=32, theta=theta) < SERIES_TOL
    for theta in (0.078, -0.078):
        with pytest.raises(ValueError, match="series diverges"):
            nckit.cross_validate_symbolic({(0, 0): 1.0}, {(0, 0): 1.0},
                                          n=32, theta=theta)


def test_traced_runs_make_the_rationals_calls_the_tracer_counts(monkeypatch):
    # perfbench/run.py's traced self-check fails a calculus-cli,
    # gauge-order2 or wave-algebra run whose `rationals` layer counts no
    # CRat `*`, `+` or `-` (the operators perfbench/tracing.py patches, with
    # the reflected ones bound to the same counters).  These are the calls
    # where those runs make them: folding their constants into int pairs
    # would read as a broken run with every output right.  This check goes
    # when the benchmark's self-check drops that rule.
    from nckit.forms import DifferentialForm, form_mul
    from nckit.gauge import (GaugePotential, action_density,
                             complete_time_component, covariance_defect,
                             field_strength, invariance_witness)
    from nckit.planewave import PlaneWaveSpec, build_ansatz
    from nckit.poly import t, x1, x2, x3
    from nckit.rationals import CRat
    from nckit.star import StarContext, ThetaProfile, star_exp

    calls = [0]

    def counted(fn):
        def wrapped(a, b):
            calls[0] += 1
            return fn(a, b)
        return wrapped

    def count(run):
        calls[0] = 0
        run()
        return calls[0]

    i = CRat(0, 1)
    ctx = StarContext(ThetaProfile({(1, 2): t, (2, 3): t * t}))
    gauge_ctx = StarContext(ctx.theta, eps_cutoff=2)
    pot = complete_time_component(
        GaugePotential(i * x2, i * x1 * x3, i * t * x1), gauge_ctx)
    u = star_exp(i * x1 * x2 + i * x3, 2, gauge_ctx)
    spec = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(1, 2, 0, 1),
                         profile=(0, 0, 1))
    mul, add = counted(CRat.__mul__), counted(CRat.__add__)
    for op, fn in (("__mul__", mul), ("__rmul__", mul), ("__add__", add),
                   ("__radd__", add), ("__sub__", counted(CRat.__sub__))):
        monkeypatch.setattr(CRat, op, fn)
    # calculus-cli: the dx term of the left form meets the right one's
    # coefficient in forms.move_left
    assert count(lambda: form_mul(DifferentialForm({2: x1 + t}),
                                  DifferentialForm({4: x2 * x3}), ctx))
    # gauge-order2
    assert count(lambda: (covariance_defect(pot, u, gauge_ctx),
                          invariance_witness(pot, u, gauge_ctx)))
    # wave-algebra: the plane-wave direct route
    assert count(lambda: action_density(
        field_strength(build_ansatz(spec, ctx), ctx), ctx))

"""Command surface and config files: exit codes, reports, round trips."""

import itertools
import json
import pathlib
import shlex
import struct
import time

import numpy as np
import pytest

from nckit.cli import _build_parser, _occupied_band, main
from nckit.config import ConfigError, GridParams, load_config, load_theta
from nckit.expr import MAX_DEGREE, MAX_NESTING, MAX_TERMS
from nckit.grid import MAGIC, band_limited_field, save_grid
from nckit.poly import Poly, t
from nckit.star import ThetaProfile


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- config files ---------------------------------------------------------------

def test_theta_config(tmp_path):
    from fractions import Fraction
    p = write(tmp_path / "th.ini", "[theta]\nt12 = t^2\nt23 = 1/2\n")
    profile = load_theta(p)
    assert profile.entry(1, 2) == t * t
    assert profile.entry(2, 3) == Poly.const(Fraction(1, 2))
    assert profile.entry(1, 3).is_zero()


def test_theta_config_rejects_bad_entries(tmp_path):
    for body in (
        "[theta]\nt12 = x1\n",          # not t-only
        "[theta]\nt12 = i*t\n",         # not real
        "[theta]\nt21 = t\n",           # unknown key
        "[theta]\nt12 = t +\n",         # parse error
        "[theta]\nt12 = dt\n",          # not scalar
    ):
        p = write(tmp_path / "bad.ini", body)
        with pytest.raises(ConfigError):
            load_theta(p)


def test_missing_file_and_sections(tmp_path):
    with pytest.raises(ConfigError, match="no such config"):
        load_config(tmp_path / "absent.ini")
    p = write(tmp_path / "odd.ini", "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(p)
    # a theta-less file yields the flat profile
    p = write(tmp_path / "empty.ini", "")
    assert load_theta(p).is_zero()


def test_planewave_config(tmp_path):
    p = write(tmp_path / "w.ini",
              "[planewave]\nomega = 3\nk = 1 2 2\np = 1 2 0 1\nprofile = cos\n")
    cfg = load_config(p)
    assert cfg.planewave.omega == 3
    assert cfg.planewave.is_null()
    assert cfg.planewave.profile == "cos"
    p2 = write(tmp_path / "w2.ini",
               "[planewave]\nomega = 1\nk = 1 0 0\np = 0 0 1 0\nprofile = 0 0 1\n")
    from fractions import Fraction
    assert load_config(p2).planewave.profile == (
        Fraction(0), Fraction(0), Fraction(1))


def test_planewave_config_errors(tmp_path):
    bodies = (
        "[planewave]\nomega = 3\nk = 1 2\np = 1 2 0 1\n",      # short k
        "[planewave]\nomega = 3\nk = 1 2 2\n",                 # missing p
        "[planewave]\nomega = x\nk = 1 2 2\np = 1 2 0 1\n",    # bad omega
        "[planewave]\nomega = 3\nk = 1 2 2\np = 1 2 0 1\nq = 1\n",
    )
    for body in bodies:
        p = write(tmp_path / "pw.ini", body)
        with pytest.raises(ConfigError):
            load_config(p)


def test_grid_config(tmp_path):
    p = write(tmp_path / "g.ini", "[grid]\nn = 64\ntheta = 0.25\nseed = 3\n")
    grid = load_config(p).grid
    assert grid == GridParams(n=64, theta=0.25, seed=3)
    p2 = write(tmp_path / "g2.ini", "[grid]\nn = 63\n")
    with pytest.raises(ConfigError, match="power of two"):
        load_config(p2)


# -- reduce ------------------------------------------------------------------------

def test_reduce_pinned_commutator(tmp_path, capsys):
    prof = write(tmp_path / "p.ini", "[theta]\nt12 = t\n")
    assert main(["reduce", "x1*x2 - x2*x1", "--theta", prof]) == 0
    assert capsys.readouterr().out == "i*t\n"


def test_reduce_is_deterministic(tmp_path, capsys):
    prof = write(tmp_path / "p.ini", "[theta]\nt12 = t\nt23 = t^2\n")
    outs = []
    for _ in range(2):
        assert main(["reduce", "~ (x1*(x2*x3))", "--theta", prof]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_reduce_flat_default(capsys):
    assert main(["reduce", "x1*x2 - x2*x1"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_reduce_exit_codes(capsys):
    assert main(["reduce", "x1*"]) == 2
    assert "column 4" in capsys.readouterr().err
    assert main(["reduce", "dt.dx1"]) == 2
    assert "pointwise" in capsys.readouterr().err


def test_reduce_deep_nesting_is_bad_input(capsys):
    assert main(["reduce", "(" * 3000 + "x1" + ")" * 3000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nckit: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_reduce_nesting_limit(capsys):
    assert MAX_NESTING == 100
    assert main(["reduce", "(" * 100 + "x1" + ")" * 100]) == 0
    assert capsys.readouterr().out == "x1\n"
    assert main(["reduce", "D1(" * 100 + "x1^2" + ")" * 100]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["reduce", "(" * 101 + "x1" + ")" * 101]) == 2
    err = capsys.readouterr().err
    assert err == ("nckit: line 1, column 101: parentheses nested deeper "
                   "than the limit of 100\n")
    # the depth counts open parentheses, not their total
    wide = "+".join(["(" * 100 + "x1" + ")" * 100] * 3)
    assert main(["reduce", wide]) == 0
    assert capsys.readouterr().out == "3*x1\n"


def test_reduce_long_flat_sum(capsys):
    # a flat chain is walked in a loop, whatever its length
    for n in (1000, 3000):
        assert main(["reduce", "+".join(["x1"] * n)]) == 0
        assert capsys.readouterr().out == f"{n}*x1\n"


def test_reduce_long_prefix_sign_runs(capsys):
    # runs of prefix signs are folded in a loop by the parser and the
    # evaluator, so they cost no depth of their own
    assert main(["reduce", "--", "----(" * 100 + "x1" + ")" * 100]) == 0
    assert capsys.readouterr().out == "x1\n"
    assert main(["reduce", "--", "-" * 3000 + "x1"]) == 0
    assert capsys.readouterr().out == "x1\n"
    assert main(["reduce", "--", "-" * 3001 + "~" * 3001 + "(i*x1*dx2)"]) == 0
    assert capsys.readouterr().out == "i*x1*dx2\n"
    # a sign after '~' is still an error, as the grammar says
    assert main(["reduce", "~-x1"]) == 2
    assert "column 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, want", [
    (["-x1"], "-x1"),
    (["-x1*x2"], "-x1.x2"),
    (["-1/2*x1", "--order", "1"], "-1/2*x1"),
    (["--order", "1", "-1/2*x1"], "-1/2*x1"),
    (["--", "-x1"], "-x1"),
])
def test_reduce_expression_with_leading_minus(argv, want, capsys):
    assert main(["reduce", *argv]) == 0
    assert capsys.readouterr().out == want + "\n"


def test_reduce_usage_errors_still_exit_2(capsys):
    for argv in (["reduce"], ["reduce", "-x1", "-x2"], ["reduce", "x1", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_reduce_size_limit_exits_before_work(capsys):
    start = time.perf_counter()
    assert main(["reduce", "(x1+x2+x3+t)^200"]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("nckit: line 1, column 13: ") and "degree 200" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    # the limits the README states, checked on the operands of each
    # product or power: degree, term pairs, multisets of a power's terms
    assert (MAX_DEGREE, MAX_TERMS) == (16, 1000)
    cubic = "+".join(f"t^{a}.x1^{b}.x2^{c}.x3^{d}"
                     for a, b, c, d in itertools.product(range(4), repeat=4)
                     if a + b + c + d <= 3)  # 35 terms
    for expr, what in (("x1^8*x2^9", "degree 17"),
                       ("2^17", "degree 17"),
                       (f"({cubic})*({cubic})", "1225 terms"),
                       ("(t+x1+x2+x3+eps)^10", "1001 terms")):
        assert main(["reduce", expr]) == 2, expr
        assert what in capsys.readouterr().err
    for expr in ("x1^8*x2^8", "2^16", f"({cubic})*(x1+x2+x3)", "0^0"):
        assert main(["reduce", expr]) == 0, expr
    capsys.readouterr()


def test_reduce_json_and_order(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["reduce", "eps^3 + eps", "--order", "2",
                 "--json", str(out)]) == 0
    assert capsys.readouterr().out == "eps\n"
    doc = json.loads(out.read_text())
    assert doc["schema"] == "nckit-report/1"
    assert doc["kind"] == "reduce"
    assert doc["result"] == "eps"
    assert doc["order"] == 2


# -- verify ------------------------------------------------------------------------

def test_verify_star_suite(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["verify", "star", "--seed", "4", "--cases", "6",
                 "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "suite star: pass" in text
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["suite"] == "star"


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "star", "--cases", "-3"],
    ["verify", "star", "--cases", "0"],
    ["verify", "gauge", "--order", "-1"],
    ["reduce", "x1*x2", "--order", "-1"],
    ["reduce", "--order", "-2", "x1"],
])
def test_counts_and_orders_that_check_nothing_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err


def test_smallest_counts_and_orders_still_run(capsys):
    assert main(["verify", "star", "--cases", "1"]) == 0
    assert main(["reduce", "x1*x2", "--order", "0"]) == 0
    assert capsys.readouterr().out.endswith("x1.x2\n")
    with pytest.raises(SystemExit):
        main(["reduce", "x1", "--order", "x"])
    assert "invalid int value: 'x'" in capsys.readouterr().err


def _readme_command_lines():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("nckit ")]


def test_readme_command_examples_parse():
    lines = _readme_command_lines()
    commands = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        args = _build_parser().parse_args(argv)
        commands.add(args.command)
    assert commands == {"reduce", "verify", "planewave", "grid-check"}, lines


def test_verify_pinned_theta(tmp_path, capsys):
    prof = write(tmp_path / "p.ini", "[theta]\nt12 = t\n")
    assert main(["verify", "calculus", "--cases", "4",
                 "--theta", prof]) == 0
    capsys.readouterr()


# -- planewave ----------------------------------------------------------------------

WAVE_INI = """[theta]
t12 = t^2
t23 = t

[planewave]
omega = 3
k = 1 2 2
p = 1 2 0 1
profile = cos
"""


def test_planewave_report(tmp_path, capsys):
    spec = write(tmp_path / "w.ini", WAVE_INI)
    out = tmp_path / "pw.json"
    assert main(["planewave", spec, "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "result: pass" in text
    doc = json.loads(out.read_text())
    assert doc["kind"] == "planewave"
    assert doc["quad_matches_reference"] is True
    assert doc["cubic_relative_sign"] == -1
    assert doc["quad_value"] == "1"
    assert doc["cubic_contracted"] == "-176*t + 44"
    assert doc["polarised"] is False
    assert doc["harmonics"] == {"1": "1/4", "3": "-1/4"}
    assert doc["passed"] is True
    names = {d["name"] for d in doc["diagnostics"]}
    assert "action-quadratic-orientation" in names


_PINNED_TAIL = """\
diagnostic          action-quadratic-orientation: reported coefficients follow the action orientation, the negative of the literal density integrand; the integrand field carries the unflipped value
diagnostic          mixed-strength-correction-sign: the derived cubic coefficient is the negative of the listed reference; the discrepancy is an overall transposition of the contraction in the reference's mixed correction term, and the derivation is kept
result: pass
"""


def _pinned_report(profile, harmonics):
    return f"""\
omega               3
k                   1 2 2
p                   1 2 0 1
profile             {profile}
null wave           yes
quadratic identity  pass
cubic sign          -1
quad value          1
cubic contracted    -176*t + 44
polarised           no
harmonics           {harmonics}
""" + _PINNED_TAIL


@pytest.mark.parametrize("profile, harmonics", [
    ("cos", "1: 1/4, 3: -1/4"),
    ("0 0 1", "unavailable (harmonic analysis requires the cosine profile "
              "(or a constant))"),
])
def test_planewave_stdout_is_pinned(profile, harmonics, tmp_path, capsys):
    spec = write(tmp_path / "w.ini",
                 WAVE_INI.replace("profile = cos", f"profile = {profile}"))
    assert main(["planewave", spec]) == 0
    assert capsys.readouterr().out == _pinned_report(profile, harmonics)


def test_planewave_zero_polarization(tmp_path, capsys):
    spec = write(tmp_path / "z.ini",
                 "[planewave]\nomega = 1\nk = 1 0 0\np = 0 0 0 0\n")
    out = tmp_path / "z.json"
    assert main(["planewave", spec, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["quad_value"] == "0"
    assert doc["cubic_contracted"] == "0"
    assert doc["polarised"] is True
    capsys.readouterr()


def test_planewave_theta_override(tmp_path, capsys):
    spec = write(tmp_path / "w.ini", WAVE_INI)
    flat = write(tmp_path / "flat.ini", "[theta]\n")
    assert main(["planewave", spec, "--theta", flat]) == 0
    text = capsys.readouterr().out
    assert "polarised          yes" in text.replace("  ", " ") or \
        "polarised" in text  # flat profile cannot couple
    doc_path = tmp_path / "o.json"
    assert main(["planewave", spec, "--theta", flat,
                 "--json", str(doc_path)]) == 0
    capsys.readouterr()
    assert json.loads(doc_path.read_text())["polarised"] is True


def test_planewave_config_error(tmp_path, capsys):
    bare = write(tmp_path / "bare.ini", "[theta]\nt12 = t\n")
    assert main(["planewave", bare]) == 2
    assert "planewave" in capsys.readouterr().err


# -- grid-check -------------------------------------------------------------------

def test_grid_check_pass(tmp_path, capsys):
    field = band_limited_field(32, 6.283185307179586, 7, seed=2)
    path = tmp_path / "f.ncg"
    save_grid(path, field, 0.3)
    out = tmp_path / "g.json"
    assert main(["grid-check", str(path), "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "result: pass" in text
    doc = json.loads(out.read_text())
    assert doc["kind"] == "grid-check"
    assert doc["n"] == 32
    assert doc["band_within_quarter"] is True
    assert doc["passed"] is True
    assert len(doc["checks"]) == 4


def _occupied_band_loop(values):
    n = values.shape[0]
    spec = np.abs(np.fft.fft2(values))
    idx = np.abs(np.fft.fftfreq(n, d=1.0 / n).astype(int))
    live = spec > 1e-12 * spec.max()
    band = 0
    for a1 in range(n):
        for a2 in range(n):
            if live[a1, a2]:
                band = max(band, int(idx[a1]), int(idx[a2]))
    return band


@pytest.mark.parametrize("n, modes, want", [
    (16, [(0, 0)], 0),
    (16, [(3, -1)], 3),
    (16, [(0, -5), (1, 2)], 5),
    (16, [(-7, 0), (2, 2)], 7),
    (15, [(-7, 3), (0, 1)], 7),
    (12, [(6, 0)], 6),
    (12, [(-2, -4), (1, 0), (0, 0)], 4),
])
def test_occupied_band_matches_loop(n, modes, want):
    rng = np.random.default_rng(n + len(modes))
    spec = np.zeros((n, n), dtype=np.complex128)
    for a1, a2 in modes:
        spec[a1 % n, a2 % n] = rng.standard_normal() + 1j
    values = np.fft.ifft2(spec)
    assert _occupied_band(values) == _occupied_band_loop(values) == want


def test_occupied_band_zero_and_nonfinite_fields():
    zero = np.zeros((8, 8), dtype=np.complex128)
    assert _occupied_band(zero) == _occupied_band_loop(zero) == 0
    bad = zero.copy()
    bad[1, 2] = np.nan
    assert _occupied_band(bad) == _occupied_band_loop(bad) == 0


def test_grid_check_bad_file(tmp_path, capsys):
    path = tmp_path / "junk.ncg"
    path.write_bytes(b"not a grid file at all")
    assert main(["grid-check", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n, box, theta", [
    (32, 6.283185307179586, float("nan")),
    (32, 6.283185307179586, float("inf")),
    (32, float("inf"), 0.3),
    (32, float("nan"), 0.3),
    (0, 6.283185307179586, 0.3),
])
def test_grid_check_rejects_bad_header(tmp_path, capsys, n, box, theta):
    path = tmp_path / "h.ncg"
    path.write_bytes(struct.pack("<8sI4xdd", MAGIC, n, box, theta)
                     + b"\0" * (16 * n * n))
    assert main(["grid-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nckit: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_grid_check_rejects_non_finite_samples(tmp_path, capsys, bad):
    # an inf sample once read as a zero product and passed the cyclicity check
    field = band_limited_field(32, 6.283185307179586, 7, seed=2)
    values = field.values.copy()
    values[3, 4] = bad
    path = tmp_path / "f.ncg"
    save_grid(path, field.with_values(values), 0.3)
    assert main(["grid-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nckit: ") and err.count("\n") == 1
    assert "finite" in err


"""Command surface.

    nckit reduce "x1*x2 - x2*x1" --theta profile.ini
    nckit verify star --seed 42 --cases 200
    nckit planewave wave.ini --json report.json
    nckit grid-check field.ncg

Each subcommand is a function args -> (lines, doc, passed): the lines of
its human-readable report, the body of its JSON report and its verdict.
`main` alone prints the lines, writes {"schema": "nckit-report/1", "kind":
<subcommand name>, **doc} to the --json path when one is given, and exits.
Exit codes: 0 all checks pass, 1 a verification failed, 2 usage, parse,
or file-format error.  Exact rationals are serialized as strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import (ConfigError, load_config, load_theta, planewave_items,
                     theta_to_text)
from .expr import (GradingError, ParseError, poly_to_expr,
                   reduce_expression)
from .grid import (PHASE_TOL, SERIES_TOL, TRACE_TOL, _SERIES_POOL,
                   _trace_defects, band_limited_field, cross_validate_symbolic,
                   load_grid, phase_law_defect)
from .planewave import effective_action, harmonic_spectrum
from .poly import EXP_LIMIT
from .star import StarContext, ThetaProfile
from .suites import REPORT_SCHEMA, SUITE_NAMES, run_suite


def _write_json(path: str, doc: dict) -> None:
    """Encode the whole report before opening the file, so a failed encode
    leaves no file, then write it in one call."""
    text = json.dumps(doc, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _mark(ok: bool) -> str:
    return "pass" if ok else "FAIL"


# -- reduce -----------------------------------------------------------------

def _cmd_reduce(args) -> tuple[list[str], dict, bool]:
    theta = load_theta(args.theta) if args.theta else ThetaProfile.zero()
    ctx = StarContext(theta, eps_cutoff=args.order)
    result = reduce_expression(args.expression, ctx)
    return [result], {"input": args.expression, "theta": theta_to_text(theta),
                      "order": args.order, "result": result}, True


# -- verify -----------------------------------------------------------------

def _cmd_verify(args) -> tuple[list[str], dict, bool]:
    if args.suite == "gauge" and args.order >= EXP_LIMIT:  # eps^N overflows
        raise ValueError(f"verify gauge: --order {args.order} reaches the "
                         f"eps exponent limit of {EXP_LIMIT}")
    theta = load_theta(args.theta) if args.theta else None
    report = run_suite(args.suite, seed=args.seed, cases=args.cases,
                       order=args.order, theta=theta)
    return report.table(), report.to_json_dict(), report.passed


# -- planewave --------------------------------------------------------------

def _cmd_planewave(args) -> tuple[list[str], dict, bool]:
    cfg = load_config(args.specfile)
    if cfg.planewave is None:
        raise ConfigError(f"{args.specfile} has no [planewave] section")
    spec = cfg.planewave
    theta = load_theta(args.theta) if args.theta else cfg.theta
    if theta is None:
        theta = ThetaProfile.zero()
    report = effective_action(spec, StarContext(theta))
    try:
        spectrum = harmonic_spectrum(spec, report)
        harmonics = {str(n): str(c) for n, c in sorted(spectrum.items())}
        harmonics_text = ", ".join(f"{n}: {c}" for n, c in harmonics.items())
    except ValueError as exc:
        harmonics, harmonics_text = None, f"unavailable ({exc})"
    null, sign = spec.is_null(), report.cubic_relative_sign
    quad = str(report.quad_value)
    cubic = poly_to_expr(report.cubic_contracted)
    # (label, JSON key, JSON value, text), in report order
    facts = [
        ("null wave", "null", null, "yes" if null else "no"),
        ("quadratic identity", "quad_matches_reference",
         report.quad_matches_reference, _mark(report.quad_matches_reference)),
        ("cubic sign", "cubic_relative_sign", sign,
         "n/a" if sign is None else str(sign)),
        ("quad value", "quad_value", quad, quad),
        ("cubic contracted", "cubic_contracted", cubic, cubic),
        ("polarised", "polarised", report.polarised,
         "yes" if report.polarised else "no"),
        ("harmonics", "harmonics", harmonics, harmonics_text or "none"),
    ]
    items = planewave_items(spec)
    doc = {
        # config.planewave_items' values, every list split into its words
        "spec": {key: text if key == "omega" or text == "cos" else text.split()
                 for key, text in items},
        "theta": theta_to_text(theta),
        **{key: value for _, key, value, _ in facts},
        "diagnostics": list(report.diagnostics),
        "passed": report.passed,
    }
    rows = [*items, *((label, text) for label, _, _, text in facts),
            *(("diagnostic", f"{d['name']}: {d['detail']}")
              for d in report.diagnostics)]
    width = max(len(label) for label, _ in rows)
    lines = [f"{label:<{width}}  {text}" for label, text in rows]
    return [*lines, f"result: {_mark(report.passed)}"], doc, report.passed


# -- grid-check ---------------------------------------------------------------

def _cmd_grid_check(args) -> tuple[list[str], dict, bool]:
    field, theta = load_grid(args.gridfile)
    n, box = field.n, field.box_length
    if n < 4:
        raise ValueError(f"{args.gridfile}: grid size n = {n} is below the "
                         "minimum of 4 for grid-check")
    phase = phase_law_defect(n, box, theta, (3, -2), (5, 7))
    partner = band_limited_field(n, box, max(1, n // 4 - 1), seed=args.seed)
    band, trace, cyclicity = _trace_defects(field, partner, theta)
    in_quarter = band <= n // 4
    checks = [
        {"name": name, "value": value, "tolerance": tol, "passed": value <= tol}
        for name, value, tol in (
            ("phase-law defect", phase, PHASE_TOL),
            ("trace defect", trace, TRACE_TOL),
            ("cyclicity defect", cyclicity, TRACE_TOL),
            ("series defect", cross_validate_symbolic(*_SERIES_POOL[1]),
             SERIES_TOL),
        )
    ]
    passed = all(c["passed"] for c in checks)
    rows = [("grid file", args.gridfile), ("n", n), ("box length", repr(box)),
            ("theta", repr(theta)),
            ("occupied band", f"{band} ({'within' if in_quarter else 'beyond'}"
                              f" n/4 = {n // 4})"),
            *((c["name"], f"{c['value']:.3e}  (tol {c['tolerance']:.0e})  "
                          f"{_mark(c['passed'])}") for c in checks)]
    lines = [f"{label:<16} {text}" for label, text in rows]
    doc = {"gridfile": args.gridfile, "n": n, "box_length": box,
           "theta": theta, "occupied_band": band,
           "band_within_quarter": in_quarter, "checks": checks,
           "passed": passed}
    return [*lines, f"result: {_mark(passed)}"], doc, passed


# -- argument plumbing ----------------------------------------------------------

def _int_at_least(low: int):
    """argparse type: an int no smaller than low (a usage error otherwise)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nckit",
        description="Exact star-product algebra with a time-dependent "
                    "deformation: reductions, verification suites, plane "
                    "wave reports, and the numerical grid oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_red = sub.add_parser("reduce", help="canonicalize an expression")
    p_red.add_argument("expression", nargs="?")
    p_red.add_argument("--theta", metavar="FILE",
                       help="config file with a [theta] section")
    p_red.add_argument("--order", type=_int_at_least(0), default=None,
                       metavar="N",
                       help="eps truncation order")
    p_red.set_defaults(fn=_cmd_reduce)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=SUITE_NAMES)
    p_ver.add_argument("--theta", metavar="FILE",
                       help="pin the deformation profile for every case")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--cases", type=_int_at_least(1), default=50)
    p_ver.add_argument("--order", type=_int_at_least(0), default=2, metavar="N",
                       help="eps truncation order for the gauge sector")
    p_ver.set_defaults(fn=_cmd_verify)

    p_pw = sub.add_parser("planewave",
                          help="report on a plane wave spec file")
    p_pw.add_argument("specfile")
    p_pw.add_argument("--theta", metavar="FILE",
                      help="override the spec file's [theta] section")
    p_pw.set_defaults(fn=_cmd_planewave)

    p_gc = sub.add_parser("grid-check",
                          help="validate a saved grid field file")
    p_gc.add_argument("gridfile")
    p_gc.add_argument("--seed", type=int, default=0,
                      help="seed for the band-limited partner field")
    p_gc.set_defaults(fn=_cmd_grid_check)
    for p in sub.choices.values():
        p.add_argument("--json", metavar="PATH",
                       help="also write a JSON report here")
    return parser


_PARSER = _build_parser()  # built once: main may run many times in a process


def main(argv: list[str] | None = None) -> int:
    args, extra = _PARSER.parse_known_args(argv)
    if args.command == "reduce" and args.expression is None:
        # argparse takes an expression that starts with '-' (-x1, -1/2*x1)
        # for an unknown option; the first such word is the expression
        if not extra:
            _PARSER.error("reduce: the following arguments are required: "
                          "expression")
        args.expression = extra.pop(0)
    if extra:
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        lines, doc, passed = args.fn(args)
        for line in lines:
            print(line)
        if args.json:
            _write_json(args.json,
                        {"schema": REPORT_SCHEMA, "kind": args.command, **doc})
        return 0 if passed else 1
    except (ParseError, GradingError, ConfigError, ValueError, OSError) as exc:
        print(f"nckit: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("nckit: input is nested too deeply", file=sys.stderr)
        return 2

"""Command surface.

    nckit reduce "x1*x2 - x2*x1" --theta profile.ini
    nckit verify star --seed 42 --cases 200
    nckit planewave wave.ini --json report.json
    nckit grid-check field.ncg

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage, parse,
or file-format error.  --json <path> writes a structured report (schema
"nckit-report/1") next to the human-readable output; exact rationals are
serialized as strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import (ConfigError, load_config, load_theta, planewave_items,
                     theta_to_text)
from .expr import (GradingError, ParseError, poly_to_expr,
                   reduce_expression)
from .grid import (_occupied_band, band_limited_field,
                   cross_validate_symbolic, grid_cyclicity_defect,
                   grid_trace_defect, load_grid, phase_law_defect)
from .planewave import effective_action, harmonic_spectrum
from .star import StarContext, ThetaProfile
from .suites import REPORT_SCHEMA, SUITE_NAMES, run_suite

PHASE_TOL = 1e-8
TRACE_TOL = 1e-10
SERIES_TOL = 1e-6


def _write_json(path: str, doc: dict) -> None:
    """Encode the whole report before opening the file, so a failed encode
    leaves no file, then write it in one call."""
    text = json.dumps(doc, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- reduce -----------------------------------------------------------------

def _cmd_reduce(args) -> int:
    theta = load_theta(args.theta) if args.theta else ThetaProfile.zero()
    ctx = StarContext(theta, eps_cutoff=args.order)
    result = reduce_expression(args.expression, ctx)
    print(result)
    if args.json:
        _write_json(args.json, {
            "schema": REPORT_SCHEMA,
            "kind": "reduce",
            "input": args.expression,
            "theta": theta_to_text(theta),
            "order": args.order,
            "result": result,
        })
    return 0


# -- verify -----------------------------------------------------------------

def _cmd_verify(args) -> int:
    theta = load_theta(args.theta) if args.theta else None
    report = run_suite(args.suite, seed=args.seed, cases=args.cases,
                       order=args.order, theta=theta)
    for line in report.table():
        print(line)
    if args.json:
        _write_json(args.json, report.to_json_dict())
    return 0 if report.passed else 1


# -- planewave --------------------------------------------------------------

def _cmd_planewave(args) -> int:
    cfg = load_config(args.specfile)
    if cfg.planewave is None:
        raise ConfigError(f"{args.specfile} has no [planewave] section")
    spec = cfg.planewave
    if args.theta:
        theta = load_theta(args.theta)
    elif cfg.theta is not None:
        theta = cfg.theta
    else:
        theta = ThetaProfile.zero()
    ctx = StarContext(theta)

    report = effective_action(spec, ctx)
    try:
        spectrum = harmonic_spectrum(spec, report)
        harmonics = {str(n): str(c) for n, c in sorted(spectrum.items())}
    except ValueError as exc:
        harmonics, spectrum_note = None, str(exc)
    items = planewave_items(spec)
    doc = {
        "schema": REPORT_SCHEMA,
        "kind": "planewave",
        # config.planewave_items' values, every list split into its words
        "spec": {key: text if key == "omega" or text == "cos" else text.split()
                 for key, text in items},
        "theta": theta_to_text(theta),
        "null": spec.is_null(),
        "quad_matches_reference": report.quad_matches_reference,
        "cubic_relative_sign": report.cubic_relative_sign,
        "quad_value": str(report.quad_value),
        "cubic_contracted": poly_to_expr(report.cubic_contracted),
        "polarised": report.polarised,
        "harmonics": harmonics,
        "diagnostics": [dict(d) for d in report.diagnostics],
        "passed": report.passed,
    }

    sign = doc["cubic_relative_sign"]
    rows = [
        *items,
        ("null wave", "yes" if doc["null"] else "no"),
        ("quadratic identity", "pass" if doc["quad_matches_reference"]
                               else "FAIL"),
        ("cubic sign", "n/a" if sign is None else str(sign)),
        ("quad value", doc["quad_value"]),
        ("cubic contracted", doc["cubic_contracted"]),
        ("polarised", "yes" if doc["polarised"] else "no"),
        ("harmonics", f"unavailable ({spectrum_note})" if harmonics is None
         else ", ".join(f"{n}: {c}" for n, c in harmonics.items()) or "none"),
    ]
    rows += [("diagnostic", f"{d['name']}: {d['detail']}")
             for d in doc["diagnostics"]]
    width = max(len(k) for k, _ in rows)
    for key, val in rows:
        print(f"{key:<{width}}  {val}")
    print(f"result: {'pass' if report.passed else 'FAIL'}")
    if args.json:
        _write_json(args.json, doc)
    return 0 if report.passed else 1


# -- grid-check ---------------------------------------------------------------

def _cmd_grid_check(args) -> int:
    field, theta = load_grid(args.gridfile)
    n, box = field.n, field.box_length
    if n < 4:
        raise ValueError(f"{args.gridfile}: grid size n = {n} is below the "
                         "minimum of 4 for grid-check")
    band = _occupied_band(field.values)
    in_quarter = band <= n // 4

    phase = phase_law_defect(n, box, theta, (3, -2), (5, 7))
    partner = band_limited_field(n, box, max(1, n // 4 - 1), seed=args.seed)
    trace = grid_trace_defect(field, partner, theta)
    cyclic = grid_cyclicity_defect(field, partner, theta)
    series = cross_validate_symbolic({(1, 0): 1.0, (0, 1): 0.5},
                                     {(0, 2): 1.0, (0, 0): -0.25})

    checks = [
        ("phase-law defect", phase, PHASE_TOL),
        ("trace defect", trace, TRACE_TOL),
        ("cyclicity defect", cyclic, TRACE_TOL),
        ("series defect", series, SERIES_TOL),
    ]
    passed = all(v <= tol for _, v, tol in checks)

    print(f"grid file        {args.gridfile}")
    print(f"n                {n}")
    print(f"box length       {box!r}")
    print(f"theta            {theta!r}")
    print(f"occupied band    {band} "
          f"({'within' if in_quarter else 'beyond'} n/4 = {n // 4})")
    for name, value, tol in checks:
        mark = "pass" if value <= tol else "FAIL"
        print(f"{name:<16} {value:.3e}  (tol {tol:.0e})  {mark}")
    print(f"result: {'pass' if passed else 'FAIL'}")

    if args.json:
        _write_json(args.json, {
            "schema": REPORT_SCHEMA,
            "kind": "grid-check",
            "gridfile": args.gridfile,
            "n": n,
            "box_length": box,
            "theta": theta,
            "occupied_band": band,
            "band_within_quarter": in_quarter,
            "checks": [
                {"name": name, "value": value, "tolerance": tol,
                 "passed": value <= tol}
                for name, value, tol in checks
            ],
            "passed": passed,
        })
    return 0 if passed else 1


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
    p_red.add_argument("--json", metavar="PATH",
                       help="also write a JSON report here")
    p_red.set_defaults(fn=_cmd_reduce)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=SUITE_NAMES)
    p_ver.add_argument("--theta", metavar="FILE",
                       help="pin the deformation profile for every case")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--cases", type=_int_at_least(1), default=50)
    p_ver.add_argument("--order", type=_int_at_least(0), default=2, metavar="N",
                       help="eps truncation order for the gauge sector")
    p_ver.add_argument("--json", metavar="PATH")
    p_ver.set_defaults(fn=_cmd_verify)

    p_pw = sub.add_parser("planewave",
                          help="report on a plane wave spec file")
    p_pw.add_argument("specfile")
    p_pw.add_argument("--theta", metavar="FILE",
                      help="override the spec file's [theta] section")
    p_pw.add_argument("--json", metavar="PATH")
    p_pw.set_defaults(fn=_cmd_planewave)

    p_gc = sub.add_parser("grid-check",
                          help="validate a saved grid field file")
    p_gc.add_argument("gridfile")
    p_gc.add_argument("--seed", type=int, default=0,
                      help="seed for the band-limited partner field")
    p_gc.add_argument("--json", metavar="PATH")
    p_gc.set_defaults(fn=_cmd_grid_check)
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
        return args.fn(args)
    except (ParseError, GradingError, ConfigError, ValueError, OSError) as exc:
        print(f"nckit: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("nckit: input is nested too deeply", file=sys.stderr)
        return 2

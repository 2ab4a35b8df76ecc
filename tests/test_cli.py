"""Command surface and config files: exit codes, reports, round trips."""

import configparser
import dataclasses
import itertools
import json
import pathlib
import re
import shlex
import struct
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from nckit import cli, config
from nckit.cli import _build_parser, main
from nckit.config import (ConfigError, load_config, load_theta,
                          planewave_items, theta_to_text)
from nckit.expr import MAX_DEGREE, MAX_NESTING, MAX_TERMS
from nckit.grid import (MAGIC, GridField, _occupied_band, band_limited_field,
                        grid_cyclicity_defect, grid_trace_defect, save_grid)
from nckit.planewave import PlaneWaveSpec
from nckit.poly import Poly, t
from nckit.star import ThetaProfile


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- config files ---------------------------------------------------------------

def test_theta_config(tmp_path):
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
        "[theta]\nt12 = 50%\n",         # % is no interpolation
        "[theta]\nt12 = %(x)s\n",
        "[DEFAULT]\nt12 = t\n",        # no default section
        "[DEFAULT]\nt12 = t\n[theta]\n",
    ):
        p = write(tmp_path / "bad.ini", body)
        with pytest.raises(ConfigError):
            load_theta(p)


def test_theta_size_limit_names_section_and_key(tmp_path, capsys):
    p = write(tmp_path / "big.ini", "[theta]\nt12 = t^100000\n")
    with pytest.raises(ConfigError, match=r"^\[theta\] t12: .*degree 100000"):
        load_theta(p)
    assert main(["reduce", "x1*x2", "--theta", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nckit: [theta] t12: line 1, column 2: ")
    assert err.count("\n") == 1


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
    assert load_config(p2).planewave.profile == (
        Fraction(0), Fraction(0), Fraction(1))


def test_planewave_config_errors(tmp_path):
    bodies = (
        "[planewave]\nomega = 3\nk = 1 2\np = 1 2 0 1\n",      # short k
        "[planewave]\nomega = 3\nk = 1 2 2\n",                 # missing p
        "[planewave]\nomega = x\nk = 1 2 2\np = 1 2 0 1\n",    # bad omega
        "[planewave]\nomega = 3\nk = 1 2 2\np = 1 2 0 1\nq = 1\n",
        "[planewave]\nomega = 3\nk = 1 2 2\np = 1 2 0 1\n"
        "profile = %(omega)s\n",
        "[DEFAULT]\nomega = 3\n[planewave]\nk = 1 2 2\np = 1 2 0 1\n",
        "[planewave]\nomega = 3\nk = 1 2 2\np = 1 2 0 1\nprofile =\n",
    )
    for body in bodies:
        p = write(tmp_path / "pw.ini", body)
        with pytest.raises(ConfigError):
            load_config(p)
    empty = write(tmp_path / "empty.ini", bodies[-1])
    with pytest.raises(ConfigError, match="expected 'cos' or at least one"):
        load_config(empty)
    p = write(tmp_path / "zero.ini",
              "[planewave]\nomega = 3\nk = 1 2 2\np = 1 2 0 1\nprofile = 0\n")
    assert load_config(p).planewave.profile == (0,)


@pytest.mark.parametrize("value", ["٣", "1_000", "1e3", "0.5", "1e400",
                                   "1e3000000", "1/0", "1" * 5000, "+-1",
                                   "1/-2", "3/", "50%", "%(omega)s"])
@pytest.mark.parametrize("key", ["omega", "k", "profile"])
def test_planewave_numbers_are_ascii_rationals(tmp_path, capsys, key, value):
    # Fraction(str) also takes Python's literal syntax; 1e3000000 took
    # seconds to expand before an error that named no key
    fields = {"omega": "3", "k": "1 2 2", "p": "1 2 0 1", "profile": "0 1"}
    fields[key] = {"omega": value, "k": f"{value} 2 2",
                   "profile": f"0 {value}"}[key]
    p = write(tmp_path / "pw.ini", "[planewave]\n" + "".join(
        f"{k} = {v}\n" for k, v in fields.items()))
    assert main(["planewave", p]) == 2
    assert capsys.readouterr().err == (
        f"nckit: [planewave] {key}: not a rational: {value!r}\n")


def test_planewave_numbers_keep_signs_and_fractions(tmp_path):
    p = write(tmp_path / "pw.ini", "[planewave]\nomega = +3\n"
              "k = -1 2/4 007\np = 1 -2/3 0 1\nprofile = 0 -1/2\n")
    wave = load_config(p).planewave
    assert (wave.omega, wave.k) == (3, (-1, Fraction(1, 2), 7))
    assert wave.p[1] == Fraction(-2, 3) and wave.profile == (0, Fraction(-1, 2))


@pytest.mark.parametrize("spec", [
    PlaneWaveSpec(Fraction(5, 2), (Fraction(-1, 2), 0, 3),
                  (0, -1, Fraction(2, 3), 1), (1, Fraction(-1, 2), 0)),
    PlaneWaveSpec(Fraction(5, 2), (Fraction(-1, 2), 0, 3),
                  (0, -1, Fraction(2, 3), 1), "cos"),
], ids=["polynomial", "cos"])
def test_written_sections_read_back(spec, tmp_path):
    theta = ThetaProfile({(1, 2): t * t - Fraction(1, 3),
                          (1, 3): Fraction(-5, 2),
                          (2, 3): 3 * t - 2 * t * t * t})
    theta_lines = [f"{k} = {v}" for k, v in theta_to_text(theta).items()]
    wave_lines = [f"{k} = {v}" for k, v in planewave_items(spec)]
    text = "\n".join(["[theta]", *theta_lines, "[planewave]", *wave_lines])
    cfg = load_config(write(tmp_path / "w.ini", text + "\n"))
    assert cfg.theta == theta
    assert cfg.planewave == spec


@pytest.mark.parametrize("body, err", [
    ("[theta]\nt12 = 50%\n",
     "nckit: [theta] t12: line 1, column 3: unexpected character '%'\n"),
    ("[theta]\nt12 = %(t12)s\n",
     "nckit: [theta] t12: line 1, column 1: unexpected character '%'\n"),
    ("[DEFAULT]\nt12 = t\n", "nckit: unknown section [DEFAULT]\n"),
    ("[DEFAULT]\nt12 = t\n[theta]\n", "nckit: unknown section [DEFAULT]\n"),
], ids=["percent", "interpolation", "default", "default-and-theta"])
def test_config_percent_and_default_are_usage_errors(tmp_path, capsys, body,
                                                      err):
    # configparser's defaults would interpolate % and merge [DEFAULT]
    # into every section
    prof = write(tmp_path / "p.ini", body)
    assert main(["reduce", "x1*x2 - x2*x1", "--theta", prof]) == 2
    assert capsys.readouterr() == ("", err)


def test_grid_section_is_unknown(tmp_path, capsys):
    # no command reads grid parameters from a config file
    p = write(tmp_path / "g.ini",
              WAVE_INI + "\n[grid]\nn = 64\ntheta = 0.25\nseed = 3\n")
    with pytest.raises(ConfigError, match=r"unknown section \[grid\]"):
        load_config(p)
    assert main(["planewave", p]) == 2
    assert capsys.readouterr().err == "nckit: unknown section [grid]\n"



# -- one INI reader per process ---------------------------------------------------

# In load order: a good [theta]; files that fail after a section has been
# read, on a missing header, a duplicate key or section, or a bad value; a
# [planewave]-only file; and the verdicts that configparser's defaults
# would change ([DEFAULT], a literal %, case-sensitive keys).
REUSE_FILES = {
    "theta.ini": "[theta]\nt12 = t^2\nt23 = 1/2\n",
    "no-header.ini": "t12 = t\n",
    "dup-key.ini": "[theta]\nt12 = t\nt13 = 1\nt13 = 2\n",
    "dup-section.ini": "[theta]\nt12 = t\n[theta]\nt23 = 1\n",
    "bad-value.ini": ("[theta]\nt13 = 1\n[planewave]\nomega = x\n"
                      "k = 1 2 2\np = 1 2 0 1\n"),
    "planewave.ini": "[planewave]\nomega = 3\nk = 1 2 2\np = 1 2 0 1\n",
    "default.ini": "[DEFAULT]\nt12 = t\n",
    "percent.ini": "[theta]\nt12 = 50%\n",
    "upper.ini": "[theta]\nT12 = t\n",
    "theta-again.ini": "[theta]\nt23 = t\n",
}


def _load_outcome(path):
    try:
        return load_config(path)
    except ConfigError as exc:
        return str(exc).replace(path, "<path>")


def test_reused_reader_reads_like_a_fresh_one(tmp_path, monkeypatch):
    paths = [write(tmp_path / name, body) for name, body in REUSE_FILES.items()]
    reused = [_load_outcome(p) for p in paths]
    assert not config._READER.sections()  # nothing held between calls
    fresh = []
    for p in paths:
        cp = configparser.ConfigParser(interpolation=None, default_section="\n")
        cp.optionxform = str
        monkeypatch.setattr(config, "_READER", cp)
        fresh.append(_load_outcome(p))
    assert reused == fresh
    theta = ThetaProfile({(1, 2): t * t, (2, 3): Fraction(1, 2)})
    assert reused[0] == config.Config(theta, None)
    assert reused[1].startswith("<path>: File contains no section headers")
    assert "option 't13' in section 'theta' already exists" in reused[2]
    assert "section 'theta' already exists" in reused[3]
    assert reused[4] == "[planewave] omega: not a rational: 'x'"
    assert reused[5] == config.Config(None, PlaneWaveSpec(
        Fraction(3), (1, 2, 2), (1, 2, 0, 1), "cos"))
    assert reused[6:9] == ["unknown section [DEFAULT]",
                           "[theta] t12: line 1, column 3: unexpected "
                           "character '%'", "unknown key 'T12' in [theta]"]
    assert reused[9] == config.Config(ThetaProfile({(2, 3): t}), None)


def test_concurrent_loads_each_get_their_own_config(tmp_path):
    bodies = [f"[theta]\nt12 = {n}*t\n" if n % 2 else
              f"[planewave]\nomega = {n}\nk = 1 2 2\np = 1 2 0 1\n"
              for n in range(1, 5)]
    paths = [write(tmp_path / f"c{n}.ini", b) for n, b in enumerate(bodies)]
    want = [load_config(p) for p in paths]
    got: dict = {}

    def worker(k):
        got[k] = [load_config(paths[k]) for _ in range(40)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(paths))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == {k: [want[k]] * 40 for k in range(len(paths))}
    assert not config._READER.sections()


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


@pytest.mark.parametrize("expr, col", [("x1^\u00b2", 4), ("\u0661+x1", 1)])
def test_reduce_rejects_non_ascii_digits(capsys, expr, col):
    assert main(["reduce", expr]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"nckit: line 1, column {col}: unexpected character")


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


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_recursion_error_is_a_usage_error(capsys):
    # an input within MAX_NESTING, under a recursion limit too low for its
    # parse but high enough for argparse, reaches main's RecursionError arm
    nested = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        code = main(["reduce", nested])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nckit: input is nested too deeply\n"
    assert main(["reduce", nested]) == 0
    assert capsys.readouterr().out == "x1\n"


# (id, expression of n links, expected output); n is even
FLAT_CHAINS = [
    ("sum", lambda n: "+".join(["x1"] * n), lambda n: f"{n}*x1"),
    ("difference", lambda n: "-x1" * n, lambda n: f"-{n}*x1"),
    ("star", lambda n: "x1" + "*1" * n, lambda n: "x1"),
    ("pointwise", lambda n: "x1" + " .1" * n, lambda n: "x1"),
    ("power", lambda n: "x1" + "^1" * n, lambda n: "x1"),
    ("signs", lambda n: "-" * n + "~" * (n + 1) + "i", lambda n: "-i"),
    ("negated-power", lambda n: "-x1" + "^1" * n, lambda n: "-x1"),
    ("call-power", lambda n: "D1(x1^2)" + "^1" * n, lambda n: "2*x1"),
]


@pytest.mark.parametrize("n", [1000, 3000])
@pytest.mark.parametrize("expr, want", [c[1:] for c in FLAT_CHAINS],
                         ids=[c[0] for c in FLAT_CHAINS])
def test_reduce_long_flat_chains(expr, want, n, capsys):
    # every flat chain is walked in a loop, whatever its length; only
    # parentheses nest
    assert main(["reduce", "--", expr(n)]) == 0
    assert capsys.readouterr() == (want(n) + "\n", "")


@pytest.mark.parametrize("expr, err", [
    ("dx1^1^1", "line 1, column 4: power of a differential form"),
    ("x1^2^2^2^2^2", "line 1, column 11: result could reach degree 32, "
                     "above the limit of 16"),
    ("x1+" * 1500 + "dx1^1^1", "line 1, column 4504: power of a "
                                "differential form"),
], ids=["form-power", "degree", "deep-in-a-sum"])
def test_reduce_error_deep_in_a_chain_keeps_its_position(expr, err, capsys):
    assert main(["reduce", expr]) == 2
    assert capsys.readouterr() == ("", f"nckit: {err}\n")


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


def test_json_reports_are_indented_dumps_byte_for_byte(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["reduce", "~(x1*x2)", "--json", str(out)]) == 0
    spec = write(tmp_path / "w.ini", WAVE_INI)
    assert main(["planewave", spec, "--json", str(tmp_path / "w.json")]) == 0
    capsys.readouterr()
    for name in ("r.json", "w.json"):
        data = (tmp_path / name).read_bytes()
        doc = json.loads(data)
        assert data == (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def test_failed_json_encode_leaves_no_file(tmp_path):
    from nckit.cli import _write_json

    out = tmp_path / "o.json"
    with pytest.raises(TypeError):
        _write_json(str(out), {"schema": "nckit-report/1",
                               "value": Fraction(1, 2)})
    assert not out.exists()


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



GAUGE_127_SEED_3 = """\
PASS  time-component-reality        1 cases    0 failures     <t>
PASS  field-strength-covariance     1 cases    0 failures     <t>
PASS  action-invariance-witness     1 cases    0 failures     <t>
PASS  pure-gauge-flatness           1 cases    0 failures     <t>
suite gauge: pass (4 properties, <t>)
"""


def test_gauge_order_127_still_runs(capsys):
    assert main(["verify", "gauge", "--order", "127", "--cases", "1",
                 "--seed", "3"]) == 0
    out = re.sub(r"\d+\.\d\ds", "<t>", capsys.readouterr().out)
    assert out == GAUGE_127_SEED_3
    # the other suites take no eps order from --order
    assert main(["verify", "star", "--order", "128", "--cases", "1"]) == 0


@pytest.mark.parametrize("order", ["128", "1000"])
def test_gauge_order_at_the_eps_limit_exits_before_any_case(order, capsys):
    # eps^order cannot be stored once order reaches the exponent limit
    # 128, so every case with a nonzero lambda would fail there
    start = time.monotonic()
    assert main(["verify", "gauge", "--order", order, "--cases", "3"]) == 2
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr() == ("", f"nckit: verify gauge: --order {order} "
                                   "reaches the eps exponent limit of 128\n")

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
    ("2", "none"),
    ("2 0", "none"),
    ("0 0 1", "unavailable (harmonic analysis requires the cosine profile "
              "(or a constant))"),
])
def test_planewave_stdout_is_pinned(profile, harmonics, tmp_path, capsys):
    spec = write(tmp_path / "w.ini",
                 WAVE_INI.replace("profile = cos", f"profile = {profile}"))
    assert main(["planewave", spec]) == 0
    assert capsys.readouterr().out == _pinned_report(profile, harmonics)


def test_fractional_planewave_stdout_is_pinned(tmp_path, capsys):
    spec = write(tmp_path / "w.ini", WAVE_INI.split("[planewave]")[0] + """\
[planewave]
omega = 5/2
k = -1/2 0 3
p = 0 -1 2/3 1
profile = 1 -1/2 0
""")
    assert main(["planewave", spec]) == 0
    assert capsys.readouterr().out == """\
omega               5/2
k                   -1/2 0 3
p                   0 -1 2/3 1
profile             1 -1/2 0
null wave           no
quadratic identity  pass
cubic sign          -1
quad value          59/12
cubic contracted    -220/27*t - 220/9
polarised           no
harmonics           unavailable (harmonic analysis requires the cosine profile (or a constant))
""" + _PINNED_TAIL


@pytest.mark.parametrize("change", [
    {"cubic_relative_sign": None},  # matches under neither sign
    {"cubic_relative_sign": 1},
    {"quad_matches_reference": False},
])
def test_planewave_fails_off_the_documented_signs(change, tmp_path, capsys,
                                                  monkeypatch):
    real = cli.effective_action
    monkeypatch.setattr(cli, "effective_action", lambda spec, ctx: (
        dataclasses.replace(real(spec, ctx), **change)))
    spec = write(tmp_path / "w.ini", WAVE_INI)
    out = tmp_path / "pw.json"
    assert main(["planewave", spec, "--json", str(out)]) == 1
    assert capsys.readouterr().out.endswith("result: FAIL\n")
    assert json.loads(out.read_text())["passed"] is False


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
    # a flat profile cannot couple; rows are padded to "quadratic identity"
    assert f"{'polarised':<18}  yes" in text.splitlines()
    doc_path = tmp_path / "o.json"
    assert main(["planewave", spec, "--theta", flat,
                 "--json", str(doc_path)]) == 0
    capsys.readouterr()
    assert json.loads(doc_path.read_text())["polarised"] is True


def test_planewave_config_error(tmp_path, capsys):
    bare = write(tmp_path / "bare.ini", "[theta]\nt12 = t\n")
    assert main(["planewave", bare]) == 2
    assert "planewave" in capsys.readouterr().err


# -- --json targets that cannot be written ----------------------------------------

def _json_argv(cmd, tmp_path):
    if cmd == "reduce":
        return ["reduce", "x1*x2"]
    if cmd == "verify":
        return ["verify", "star", "--cases", "1"]
    if cmd == "planewave":
        return ["planewave", write(tmp_path / "w.ini", WAVE_INI)]
    path = tmp_path / "f.ncg"
    save_grid(path, band_limited_field(16, 6.283185307179586, 3, seed=1), 0.3)
    return ["grid-check", str(path)]


@pytest.mark.parametrize("cmd", ["reduce", "verify", "planewave", "grid-check"])
def test_unwritable_json_path_is_a_usage_error(tmp_path, capsys, cmd):
    argv = _json_argv(cmd, tmp_path)
    for target in (tmp_path / "absent" / "o.json", tmp_path):
        assert main([*argv, "--json", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nckit: ") and err.count("\n") == 1, err
        assert str(target) in err


# -- report layout ----------------------------------------------------------------

REPORT_KEYS = {
    "reduce": ["schema", "kind", "input", "theta", "order", "result"],
    "verify": ["schema", "kind", "suite", "seed", "cases", "order", "theta",
               "passed", "elapsed", "properties"],
    "planewave": ["schema", "kind", "spec", "theta", "null",
                  "quad_matches_reference", "cubic_relative_sign",
                  "quad_value", "cubic_contracted", "polarised", "harmonics",
                  "diagnostics", "passed"],
    "grid-check": ["schema", "kind", "gridfile", "n", "box_length", "theta",
                   "occupied_band", "band_within_quarter", "checks",
                   "passed"],
}


@pytest.mark.parametrize("cmd, profile", [
    ("reduce", None), ("verify", None), ("planewave", "cos"),
    ("planewave", "0 0 1"), ("grid-check", None),
])
def test_report_key_order_is_pinned(tmp_path, capsys, cmd, profile):
    argv = _json_argv(cmd, tmp_path)
    if profile is not None:  # rewrite _json_argv's spec file
        write(tmp_path / "w.ini",
              WAVE_INI.replace("profile = cos", f"profile = {profile}"))
    out = tmp_path / "o.json"
    assert main([*argv, "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert list(doc) == REPORT_KEYS[cmd]
    assert (doc["schema"], doc["kind"]) == ("nckit-report/1", cmd)
    if cmd == "verify":
        assert list(doc["properties"][0]) == ["name", "cases", "failures",
                                              "passed", "elapsed",
                                              "counterexamples"]
    if cmd == "grid-check":
        assert [list(c) for c in doc["checks"]] == [
            ["name", "value", "tolerance", "passed"]] * 4


# -- grid-check -------------------------------------------------------------------

def test_grid_check_stdout_is_pinned(tmp_path, capsys):
    path = tmp_path / "f.ncg"
    save_grid(path, band_limited_field(32, 6.283185307179586, 7, seed=2), 0.3)
    assert main(["grid-check", str(path)]) == 0
    defect = r"\d\.\d{3}e[+-]\d{2}"
    text = capsys.readouterr().out
    assert re.sub(rf"(?m)^(.{{17}}){defect}  ", r"\1<defect>  ", text) == f"""\
grid file        {path}
n                32
box length       6.283185307179586
theta            0.3
occupied band    7 (within n/4 = 8)
phase-law defect <defect>  (tol 1e-08)  pass
trace defect     <defect>  (tol 1e-10)  pass
cyclicity defect <defect>  (tol 1e-10)  pass
series defect    <defect>  (tol 1e-06)  pass
result: pass
"""


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


@pytest.mark.parametrize("n, box, theta, seed", [
    (32, 6.283185307179586, 0.3, 0),
    (24, 1.0, 0.7, 3),  # N not a power of two
    (48, 6.283185307179586, -2.5, 1),
])
def test_grid_check_defects_match_the_public_functions(n, box, theta, seed,
                                                       tmp_path, capsys):
    # the two defects share one pair of spectra and one integral, and keep
    # the bytes each public function gives
    rng = np.random.default_rng(n)
    fields = (band_limited_field(n, box, n // 4, seed=seed),  # within n/4
              GridField(rng.standard_normal((n, n))  # full band
                        + 1j * rng.standard_normal((n, n)), box))
    for k, field in enumerate(fields):
        path, out = tmp_path / f"f{k}.ncg", tmp_path / f"f{k}.json"
        save_grid(path, field, theta)
        main(["grid-check", str(path), "--seed", str(seed), "--json", str(out)])
        text = capsys.readouterr().out
        partner = band_limited_field(n, box, max(1, n // 4 - 1), seed=seed)
        want = {"trace defect": grid_trace_defect(field, partner, theta),
                "cyclicity defect": grid_cyclicity_defect(field, partner,
                                                          theta)}
        checks = {c["name"]: c["value"]
                  for c in json.loads(out.read_text())["checks"]}
        assert {name: checks[name] for name in want} == want
        for name, value in want.items():
            assert f"{name:<16} {value:.3e}  (tol 1e-10)" in text


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grid_check_minimum_size(n, tmp_path, capsys):
    path = tmp_path / "small.ncg"
    save_grid(path, GridField(np.ones((n, n), dtype=np.complex128),
                              6.283185307179586), 0.3)
    if n >= 4:
        assert main(["grid-check", str(path)]) == 0
        assert "result: pass" in capsys.readouterr().out
        return
    assert main(["grid-check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"nckit: {path}: grid size n = {n} is below the "
                            "minimum of 4 for grid-check\n")


def test_grid_check_bad_file(tmp_path, capsys):
    path = tmp_path / "junk.ncg"
    path.write_bytes(b"not a grid file at all")
    assert main(["grid-check", str(path)]) == 2
    capsys.readouterr()


def test_grid_check_rejects_a_long_tail(tmp_path, capsys):
    path = tmp_path / "tail.ncg"
    save_grid(path, band_limited_field(4, 6.283185307179586, 1, seed=1), 0.3)
    with open(path, "r+b") as fh:
        fh.truncate(32 + 256 + (64 << 20))  # a sparse 64 MiB tail
    assert main(["grid-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nckit: ") and "expected 256" in err


@pytest.mark.parametrize("box, scale", [(6.283185307179586, 1e200),
                                        (1e300, 1.0), (1e-300, 1.0)])
def test_grid_check_rejects_overflowing_scales(tmp_path, capsys, box, scale):
    # the squared norm, the cell area or the twist phase leaves the float
    # range; the normalised defects would then read 0 and pass
    field = band_limited_field(8, 6.283185307179586, 1, seed=1)
    path = tmp_path / "f.ncg"
    save_grid(path, GridField(field.values * scale, box), 0.3)
    assert main(["grid-check", str(path)]) == 2
    assert "overflows its norm or twist phase" in capsys.readouterr().err


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


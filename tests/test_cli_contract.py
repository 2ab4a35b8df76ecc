"""The CLI's exit-code contract on a seeded sample of generated inputs.

About 200 in-process ``cli.main`` calls across the four subcommands, drawn
with stdlib ``random`` at fixed seeds: random expressions over the
expression language's tokens (a fifth of them flat chains of 1,000 to
3,000 links), mutated ``[theta]`` and ``[planewave]`` files, and mutated
binary grid files, each with an occasional ``--json`` path that cannot be
written.  Every call must exit 0, 1 or 2, only ``verify`` may exit 1 (a
failed verification), no call may raise, leave a traceback on stderr or
report its input nested too deeply, and each must return within
CASE_LIMIT_S.
A failing case reports its argv and the text of every file it reads, so
it replays.
"""

import contextlib
import random
import shlex
import signal
import struct
import traceback

import pytest

from nckit.cli import main
from nckit.grid import MAGIC, band_limited_field, save_grid
from nckit.suites import SUITE_NAMES

CASES = 50  # per subcommand
CASE_LIMIT_S = 20.0  # generous: the slowest case takes about 0.1 s

TOKENS = ["(", ")", "+", "-", "*", ".", "^", "~", "/", ",", " ", "d(", "D2("]


def _pick(rng, good, bad, p_bad=0.15):
    """Mostly one of the valid choices, sometimes one of the invalid."""
    return rng.choice(bad if rng.random() < p_bad else good)


def _chain(rng):
    """A flat chain of 1,000 to 3,000 links: long, but with no nesting."""
    n = rng.randint(1000, 3000)
    link = rng.choice(["+x1", "-x2", "*1", " .1", "^1", "-", "~"])
    return link * n + "x1" if link in ("-", "~") else "x1" + link * n


def _expr(rng, depth=0):
    """A random expression, mostly well formed, sometimes a flat chain."""
    if depth == 0 and rng.random() < 0.2:
        return _chain(rng)
    r = rng.random()
    if depth > 3 or r < 0.3:
        return _pick(rng, ["t", "x1", "x2", "x3", "eps", "i", "dt", "dx1",
                           "dx3", "0", "1", "2", "1/2", "-3/4"],
                     ["x4", "1/0", "", "@"], 0.03)
    sub = _expr(rng, depth + 1)
    if r < 0.6:
        return f"{sub} {rng.choice('+-**.')} {_expr(rng, depth + 1)}"
    if r < 0.7:
        return f"({sub})^{_pick(rng, ['0', '2', '3'], ['17', '-1', '99'], 0.1)}"
    if r < 0.85:
        return f"{_pick(rng, ['d', 'D0', 'D1', 'D3'], ['D4', 'd d'], 0.05)}({sub})"
    return rng.choice(["-", "~", "--", "-~"]) + sub


def _mutate(rng, text):
    """text, or text with one or two random token insertions or
    deletions."""
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        k = rng.randint(0, len(text))
        if text and rng.random() < 0.5:
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k] + rng.choice(TOKENS) + text[k:]
    return text


def _theta_text(rng):
    lines = [_pick(rng, ["[theta]"], ["[grid]", "", "[DEFAULT]"])]
    for key in rng.sample(["t12", "t13", "t23"], rng.randint(0, 3)):
        value = _pick(rng, ["t", "t^2 - 1/2", "1/3", "0", _mutate(rng, "t")],
                      ["x1", "i*t", "t^100000", "dt", "t +", "", "(t",
                       "50%", "%(t12)s"])
        lines.append(f"{_pick(rng, [key], ['t21', 'x', key.upper()])} = {value}")
    return "\n".join(lines) + "\n"


def _wave_text(rng):
    fields = {"omega": (["3", "0", "-1/2"], ["x", "1/0", "10^3", "50%"]),
              "k": (["1 2 2", "0 0 0", "1 -2 1/3"], ["1 2", "1 2 2 2", "a b c"]),
              "p": (["1 2 0 1", "0 0 0 0", "1/2 0 0 1"], ["1 2 0"]),
              "profile": (["cos", "0 0 1", "1", "2 0", "0 1/2 0 3"],
                          ["", "sin", "%(omega)s", "%(t12)s"])}
    lines = ["[planewave]"]
    for key, (good, bad) in fields.items():
        if rng.random() < 0.97:
            lines.append(f"{key} = {_pick(rng, good, bad)}")
    lines.append(_pick(rng, ["", "[theta]\nt12 = t\nt23 = 1/2"],
                       ["extra = 1", "[other]", "[DEFAULT]\nomega = 3"]))
    return "\n".join(lines) + "\n"


def _grid_bytes(rng, tmp_path):
    n = rng.choice([2, 3, 4, 8])
    path = tmp_path / "g.ncg"
    field = band_limited_field(n, 6.283185307179586, min(1, n // 2 - 1), seed=n)
    save_grid(path, field, 0.3)
    data = bytearray(path.read_bytes())
    r = rng.random()
    if r < 0.1:
        data = data[:rng.randint(0, len(data) - 1)]
    elif r < 0.2:
        head = struct.pack("<8sI4xdd", MAGIC, rng.choice([0, n, 2 ** 31]),
                           rng.choice([6.28, 0.0, -1.0, float("inf")]),
                           rng.choice([0.3, float("nan"), -2.0]))
        data[:len(head)] = head
    elif r < 0.3:
        k = rng.randrange(len(data))
        data[k] = rng.randrange(256)
    elif r < 0.35:
        data += b"\0" * rng.choice([1, 16])
    return bytes(data)


def _json_flag(rng, tmp_path):
    if rng.random() < 0.8:
        return []
    return ["--json", str(_pick(rng, [tmp_path / "o.json"],
                                [tmp_path, tmp_path / "absent" / "o.json"]))]


def _case(cmd, rng, tmp_path):
    """(argv, {file name: contents}) for one generated call."""
    files = {}
    if rng.random() < 0.3:
        files["th.ini"] = _theta_text(rng)
    theta = ["--theta", str(tmp_path / "th.ini")] if files else []
    if cmd == "reduce":
        order = rng.choice([[], [], ["--order", _pick(rng, ["0", "2"], ["-1"])]])
        argv = ["reduce", _mutate(rng, _expr(rng)), *order, *theta]
    elif cmd == "verify":
        argv = ["verify", _pick(rng, SUITE_NAMES, ["nope"]),
                "--cases", _pick(rng, ["1", "2"], ["0", "x"]),
                "--seed", str(rng.randrange(100)),
                "--order", _pick(rng, ["0", "1", "2"], ["-1"]), *theta]
    elif cmd == "planewave":
        files["w.ini"] = _wave_text(rng)
        argv = ["planewave", str(tmp_path / "w.ini"), *theta]
    else:
        files["g.ncg"] = _grid_bytes(rng, tmp_path)
        argv = ["grid-check", str(tmp_path / "g.ncg"),
                "--seed", str(rng.randrange(10))]
    return argv + _json_flag(rng, tmp_path), files


@contextlib.contextmanager
def _alarm(seconds, replay):
    """Fail the running case, with its replay text, after seconds."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds:g} s\n{replay}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _replay(argv, files):
    text = [f"argv: {shlex.join(argv)}"]
    for name, body in files.items():
        shown = body.hex() if isinstance(body, bytes) else body
        text.append(f"--- {name} ---\n{shown}")
    return "\n".join(text)


@pytest.mark.parametrize("cmd", ["reduce", "verify", "planewave",
                                 "grid-check"])
def test_exit_codes_on_generated_inputs(tmp_path, capsys, cmd):
    rng = random.Random(f"cli-contract-{cmd}")
    power_chains = 0
    for _ in range(CASES):
        argv, files = _case(cmd, rng, tmp_path)
        power_chains += "^1" * 100 in argv[1]
        for name, body in files.items():
            target = tmp_path / name
            if isinstance(body, bytes):
                target.write_bytes(body)
            else:
                target.write_text(body, encoding="utf-8")
        replay = _replay(argv, files)
        try:
            with _alarm(CASE_LIMIT_S, replay):
                code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception:
            pytest.fail(f"raised:\n{traceback.format_exc()}\n{replay}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), f"exit {code}\n{replay}"
        assert code != 1 or cmd == "verify", f"exit 1\n{replay}"
        assert "Traceback" not in err, f"{err}\n{replay}"
        # flat chains cost no depth, and parentheses nest at most
        # MAX_NESTING deep: the RecursionError fallback is never reached
        assert "nested too deeply" not in err, f"{err}\n{replay}"
    assert cmd != "reduce" or power_chains, "no '^1' chain in the sample"


@pytest.mark.parametrize("body", ["[theta]\nT12 = t\n",
                                  "[theta]\nt12 = t\nT12 = t\n"],
                         ids=["upper", "after-lower"])
def test_config_keys_are_case_sensitive(tmp_path, capsys, body):
    # configparser's default lower-casing would read T12 as t12, or
    # report t12 then T12 as a duplicate
    (tmp_path / "th.ini").write_text(body, encoding="utf-8")
    argv = ["reduce", "x1*x2", "--theta", str(tmp_path / "th.ini")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "nckit: unknown key 'T12' in [theta]\n")

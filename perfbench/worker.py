"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --pass K
                                --trace 0|1 --work DIR [--setup-only]

The launcher (run.py) starts one worker per pass, so no cache carries
over from one pass to the next and every worker measures a set-up.  The
worker imports numpy and nckit from the checkout's ``src``, runs the
workload's warm-up cases untimed, then visits the pool in the order drawn
from (seed, pass) and times each case from its inputs to its verdict.
The last line of its output is one JSON object for the launcher.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import sys
from fractions import Fraction
from time import perf_counter

T_START = perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Tracing slows cases down; the cap stretches so the same cases finish.
TRACE_CAP_FACTOR = 3

# Host contention slows a shared 2-core VM by up to 60% for seconds at a
# time.  A fixed calibration kernel measures that slowdown around and during
# every case, and times are reported divided by it: seconds at the kernel's
# quiet speed on that VM (CALIB_NOMINAL_S, Python 3.11).  The samples taken
# during a case come from SIGPROF; numpy's BLAS threads are started with
# SIGPROF and SIGALRM blocked (see _import_nckit), because SIGPROF
# interrupting them slows their matrix products tenfold.
CALIB_NOMINAL_S = 0.0025
CALIB_EVERY_S = 0.02
SAMPLE_EVERY_S = 0.1


def _calibration_kernel():
    """Exact-arithmetic work in the style of nckit, with no nckit code."""
    acc = {}
    for i in range(400):
        key = (i % 5, i % 7)
        v = (Fraction(i % 9 + 1, i % 4 + 2) * Fraction(3, i % 11 + 1)
             + Fraction(i % 5, 7))
        acc[key] = acc.get(key, 0) + v
    return acc


def _kernel_seconds() -> float:
    t0 = perf_counter()
    _calibration_kernel()
    return perf_counter() - t0


def slowdown() -> float:
    """How much slower than nominal the machine runs right now: the faster
    of two kernel runs, over the nominal time."""
    return min(_kernel_seconds(), _kernel_seconds()) / CALIB_NOMINAL_S


class CaseTimeout(Exception):
    """Raised inside a case that outlives its workload's cap."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


class Clock:
    """Times cases, and converts the times to the nominal machine speed.

    A case's slowdown is the mean of the calibration before it, the
    samples SIGPROF takes every SAMPLE_EVERY_S of CPU time while it runs,
    and the calibration after it; each is a ``slowdown()``.  The time the
    samples took is not counted.  Calibrations between cases run at most
    every CALIB_EVERY_S.
    """

    def __init__(self):
        self.records = []
        self._pending = []
        self._inside = None
        self._spent = 0.0
        self._t_cal = None
        self._last = None
        signal.signal(signal.SIGPROF, self._on_prof)
        self.calibrate()

    def _on_prof(self, signum, frame):
        if self._inside is not None:
            t0 = perf_counter()
            self._inside.append(slowdown())
            self._spent += perf_counter() - t0

    def calibrate(self):
        self._last = slowdown()
        self._t_cal = perf_counter()
        for rec in self._pending:
            rec["factors"].append(self._last)
        self._pending = []

    def time(self, fn, cap):
        """Run fn under the cap; returns (result, censored).

        The cap is in calibrated seconds: the alarm is set to the cap
        times the slowdown measured just before the case, so contention
        or a slower machine censors no more cases than a quiet one.
        """
        if perf_counter() - self._t_cal > CALIB_EVERY_S:
            self.calibrate()
        self._inside, self._spent = [self._last], 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        signal.setitimer(signal.ITIMER_REAL, cap * self._last)
        t0 = perf_counter()
        try:
            result, censored = fn(), False
        except CaseTimeout:
            result, censored = None, True
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.setitimer(signal.ITIMER_PROF, 0)
        rec = {"raw": elapsed - self._spent, "factors": self._inside,
               "cap": cap if censored else None}
        self._inside = None
        self.records.append(rec)
        self._pending.append(rec)
        return result, censored

    def seconds(self):
        """[(uncalibrated, calibrated)] per timed case; a censored case
        counts as its cap."""
        self.calibrate()
        return [(r["raw"], r["cap"] if r["cap"] is not None
                 else r["raw"] * len(r["factors"]) / sum(r["factors"]))
                for r in self.records]


class Raised:
    """A case's exception, kept as its verdict: the case failed."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def _guarded(run):
    try:
        return run()
    except CaseTimeout:
        raise
    except Exception as exc:  # a program error fails the case, not the run
        return Raised(exc)


def _import_nckit():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # threads numpy's BLAS starts inherit this mask, so the timer signals
    # reach only the main thread
    timers = {signal.SIGALRM, signal.SIGPROF}
    signal.pthread_sigmask(signal.SIG_BLOCK, timers)
    import numpy
    signal.pthread_sigmask(signal.SIG_UNBLOCK, timers)
    import nckit
    if not os.path.realpath(nckit.__file__).startswith(os.path.realpath(src)):
        raise SystemExit(f"nckit was not imported from {src}")
    return numpy


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_references(workload):
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _setup(args):
    """Import, then run the warm-up cases; returns (workloads, report)."""
    slow_start = slowdown()
    numpy = _import_nckit()
    import workloads
    signal.signal(signal.SIGALRM, _on_alarm)
    for case in workloads.WORKLOADS[args.workload][1](args.work):
        signal.setitimer(signal.ITIMER_REAL, workloads.CAP_S[args.workload])
        try:
            ok = case.check(case.run())[0]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not ok:
            raise SystemExit(f"warm-up case {case.cid} failed")
    setup_raw = perf_counter() - T_START
    report = {"setup_raw_s": setup_raw,
              "setup_s": setup_raw / ((slow_start + slowdown()) / 2),
              "python": sys.version.split()[0], "numpy": numpy.__version__}
    return workloads, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_idx", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads, report = _setup(args)
    if args.setup_only:
        print(json.dumps(report))
        return 0

    build_pool, _, has_refs = workloads.WORKLOADS[args.workload]
    cap = workloads.CAP_S[args.workload]
    pool = build_pool(args.work, args.seed)
    random.Random(args.seed * 100003 + args.pass_idx).shuffle(pool)
    refs = _load_references(args.workload) if has_refs else None

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(workloads)
        cap *= TRACE_CAP_FACTOR

    clock = Clock()
    outcomes = []
    for case in pool:
        if tracer is not None:
            tracer.begin_case(case.cid)
        result, censored = clock.time(lambda: _guarded(case.run), cap)
        if tracer is not None:
            tracer.end_case(keep=not censored)
        if censored:
            expected = case.cid in workloads.CENSORED_OK.get(args.workload, ())
            outcomes.append(("censored" if expected else "over-cap", None))
            continue
        if isinstance(result, Raised):
            outcomes.append(("fail", _digest(result.text)))
            continue
        ok, text = case.check(result)
        digest = _digest(text)
        if refs is not None and refs.get(case.cid) != digest:
            ok = False
        outcomes.append(("ok" if ok else "fail", digest))
    report["cases"] = [[case.cid, raw, sec, status, digest]
                       for case, (raw, sec), (status, digest)
                       in zip(pool, clock.seconds(), outcomes)]
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        report["layers"] = tracer.layer_stats()
        report["counts"] = dict(tracer.counts,
                                **{"star.distinct_pairs": len(tracer.pairs)})
        spans_dir = os.path.join(ROOT, ".perfbench", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write_spans(os.path.join(
            spans_dir,
            f"{args.workload}-seed{args.seed}-pass{args.pass_idx}.jsonl.gz"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

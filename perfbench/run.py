"""Benchmark launcher: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: gauge-order2, wave-algebra, calculus-cli, grid-oracle (see
RATIONALE.md).  Each is a closed loop of one caller.  The launcher starts
one fresh worker process per pass over the workload's case pool, as many
passes as fit S seconds at the workload's nominal pass time (at least
one).  It then prints every metric by name and unit and, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

--workload all runs the four workloads in turn and ends with one JSON
object over all of them.  --trace 0 reports the end-to-end metrics.
--trace 1 alternates untraced and traced passes over the same inputs,
reports the per-layer metrics and the tracing overhead, and runs the
completeness self-check.  The launcher caps the BLAS, OpenMP and FFT
thread pools of its workers at nproc.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# workload -> (layers that must report calls, layers that must stay idle)
LAYER_DECLARATIONS = {
    "gauge-order2": (("rationals", "poly", "star", "gauge"), ("grid",)),
    "wave-algebra": (("rationals", "poly", "star", "gauge", "scalar",
                      "planewave"), ("grid",)),
    "calculus-cli": (("rationals", "poly", "star", "forms", "expr", "cli",
                      "planewave"), ("grid",)),
    "grid-oracle": (("grid", "cli"), ("star",)),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_SAMPLES = 5
RUN_LIMIT_S = 150.0

# Rough seconds one pass takes, worker set-up included, on a shared 2-core
# VM; a run makes --seconds // this many passes, and at least one.
NOMINAL_PASS_S = {"gauge-order2": 15.0, "wave-algebra": 7.0,
                  "calculus-cli": 2.0, "grid-oracle": 5.0}

# Per-layer metric -> its source: ("calls"|"self", span name), ("count",
# counter name), or a name computed in per_layer().  Names and units come
# from BENCHMARK.json.
LAYER_SOURCES = {
    "rationals.mul_calls": ("count", "rationals.mul_calls"),
    "rationals.add_calls": ("count", "rationals.add_calls"),
    "rationals.max_coeff_bits": ("count", "rationals.max_coeff_bits"),
    "poly.mul.calls": ("calls", "poly.mul"),
    "poly.mul.self_s": ("self", "poly.mul"),
    "poly.mul.term_pairs": ("count", "poly.mul.term_pairs"),
    "star.calls": ("calls", "star.star"),
    "star.self_s": ("self", "star.star"),
    "star.term_pairs": ("count", "star.term_pairs"),
    "star.distinct_pairs": ("count", "star.distinct_pairs"),
    "star.pair_reuse": "pair_reuse",
    "star.max_out_terms": ("count", "star.max_out_terms"),
    "star.star_exp.self_s": ("self", "star.star_exp"),
    "forms.move_left.calls": ("calls", "forms.move_left"),
    "forms.move_left.self_s": ("self", "forms.move_left"),
    "forms.form_mul.calls": ("calls", "forms.form_mul"),
    "forms.form_mul.self_s": ("self", "forms.form_mul"),
    "forms.d.self_s": ("self", "forms.d"),
    "gauge.field_strength.calls": ("calls", "gauge.field_strength"),
    "gauge.field_strength.self_s": ("self", "gauge.field_strength"),
    "gauge.covariance_defect.self_s": ("self", "gauge.covariance_defect"),
    "gauge.invariance_witness.self_s": ("self", "gauge.invariance_witness"),
    "gauge.action_density.calls": ("calls", "gauge.action_density"),
    "gauge.action_density.self_s": ("self", "gauge.action_density"),
    "scalar.phase_subalgebra_defects.self_s":
        ("self", "scalar.phase_subalgebra_defects"),
    "planewave.pw_substitute.self_s": ("self", "planewave.pw_substitute"),
    "planewave.build_ansatz.self_s": ("self", "planewave.build_ansatz"),
    "planewave.effective_action.self_s": ("self", "planewave.effective_action"),
    "grid.grid_star.calls": ("calls", "grid.grid_star"),
    "grid.grid_star.self_s": ("self", "grid.grid_star"),
    "grid.grid_star.bytes_computed": ("count", "grid.grid_star.bytes_computed"),
    "grid.cross_validate_symbolic.self_s":
        ("self", "grid.cross_validate_symbolic"),
    "expr.parse_expression.self_s": ("self", "expr.parse_expression"),
    "expr.evaluate.self_s": ("self", "expr.evaluate"),
    "cli.main.calls": ("calls", "cli.main"),
    "cli.main.self_s": ("self", "cli.main"),
    "trace.overhead_ratio": "overhead",
}

# worker case statuses of a case stopped at the cap; "over-cap" is one
# that workloads.CENSORED_OK does not allow, and it fails the run
CAPPED = ("censored", "over-cap")


def per_layer_units():
    """[(name, unit)] of the per-layer metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


class BenchError(Exception):
    pass


def thread_env():
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env, nproc


def git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_worker(env, work, args, pass_idx, trace, setup_only=False):
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--pass", str(pass_idx),
           "--trace", str(trace), "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {RUN_LIMIT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples):
    """(value, percentile, n): the highest percentile with ten samples beyond."""
    s = sorted(samples)
    n = len(s)
    return s[n - 11], 100.0 * (n - 10) / n, n


def pass_count(workload, seconds, trace):
    """Passes per run: fixed for a given --seconds, so every run of a
    workload takes the same number of samples per case.  A traced run
    makes half as many pairs of passes, so it takes about as long."""
    passes = int(seconds // NOMINAL_PASS_S[workload])
    return max(1, passes // 2 if trace else passes)


def collect(env, work, args):
    """Run the passes (pairs of untraced and traced passes when tracing)."""
    passes, setups = [], []
    for k in range(pass_count(args.workload, args.seconds, args.trace)):
        if args.trace:
            passes.append((run_worker(env, work, args, k, 0),
                           run_worker(env, work, args, k, 1)))
        else:
            passes.append(run_worker(env, work, args, k, 0))
    if not args.trace:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(env, work, args, 0, 0, True)["setup_s"])
    return passes, setups


def end_to_end(passes, setups):
    per_case: dict = {}
    samples, raw = [], []
    for p in passes:
        for cid, raw_s, sec, _, _ in p["cases"]:
            per_case.setdefault(cid, []).append(sec)
            samples.append(sec)
            raw.append(raw_s)
    tail, pct, n = tail_percentile(samples)
    metrics = {
        "wall_s": (sum(statistics.median(v) for v in per_case.values()), "s"),
        "case_ms.p50": (1000.0 * statistics.median(samples), "ms"),
        "case_ms.tail": (1000.0 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
    }
    notes = {
        "wall_s": f"sum over {len(per_case)} cases of each case's median "
                  f"over {len(passes)} pass(es); uncalibrated "
                  f"{sum(raw) / len(passes):.6g} s per pass",
        "case_ms.p50": f"uncalibrated {1000.0 * statistics.median(raw):.6g} ms",
        "case_ms.tail": f"p{pct:.1f} of {n} samples",
        "setup_s": f"median of {len(setups)} fresh processes",
        "peak_rss_mb": f"median over {len(passes)} pass process(es)",
    }
    return metrics, notes


def per_layer(pairs, workload):
    """Per-layer metrics from traced passes, plus the completeness check."""
    problems = []
    overhead = []
    for untraced, traced in pairs:
        base = {c[0]: c for c in untraced["cases"]}
        t_sum = u_sum = 0.0
        for cid, _, sec, status, digest in traced["cases"]:
            ref = base[cid]
            if status in CAPPED or ref[3] in CAPPED:
                continue
            if digest != ref[4]:
                problems.append(f"traced output of {cid} differs from untraced")
            t_sum += sec
            u_sum += ref[2]
        overhead.append(t_sum / u_sum)
    traced = [t for _, t in pairs]
    first = traced[0]

    def value(source):
        if source == "pair_reuse":
            distinct = first["counts"]["star.distinct_pairs"]
            return first["counts"]["star.term_pairs"] / distinct if distinct else 0.0
        if source == "overhead":
            return statistics.median(overhead)
        kind, name = source
        if kind == "count":
            return first["counts"][name]
        if kind == "calls":
            return first["layers"].get(name, [0, 0.0])[0]
        return statistics.median(t["layers"].get(name, [0, 0.0])[1]
                                 for t in traced)

    metrics = {name: (value(LAYER_SOURCES[name]), unit)
               for name, unit in per_layer_units()}

    def layer_calls(layer):
        if layer == "rationals":
            return (first["counts"]["rationals.mul_calls"]
                    + first["counts"]["rationals.add_calls"])
        return sum(calls for name, (calls, _) in first["layers"].items()
                   if name.split(".", 1)[0] == layer)

    busy, idle = LAYER_DECLARATIONS[workload]
    for layer in busy:
        if not layer_calls(layer):
            problems.append(f"declared layer {layer} reported no calls")
    for layer in idle:
        if layer_calls(layer):
            problems.append(f"layer {layer} should be bypassed but was called")
    notes = {"star.pair_reuse":
             f"star.term_pairs / star.distinct_pairs = "
             f"{first['counts']['star.term_pairs']} / "
             f"{first['counts']['star.distinct_pairs']}",
             "trace.overhead_ratio":
             f"traced / untraced case time, median of {len(pairs)} pair(s)"}
    return metrics, notes, problems


def report(args, env, nproc, passes, setups):
    """Print one workload's metrics by name and unit; returns its result."""
    workers = [w for p in passes for w in (p if args.trace else (p,))]
    statuses = [c[3] for w in workers for c in w["cases"]]
    attempted = len(statuses)
    failed = statuses.count("fail") + statuses.count("over-cap")
    lines = [f"failed_ratio  {failed / attempted:.6g}  ({failed} failed / "
             f"{attempted} attempted; {statuses.count('censored')} censored "
             f"at the case cap as expected)"]
    for status, label in (("fail", "failed cases"),
                          ("over-cap", "failed, stopped at the case cap")):
        cids = {c[0] for w in workers for c in w["cases"] if c[3] == status}
        if cids:
            lines.append(f"{label}: " + " ".join(sorted(cids)))
    if args.trace:
        metrics, notes, problems = per_layer(passes, args.workload)
        lines += [f"self-check: {p}" for p in problems] or ["self-check: pass"]
    else:
        metrics, notes = end_to_end(passes, setups)
        problems = []
    sample = workers[0]

    caps = " ".join(f"{v}={env[v]}" for v in THREAD_VARS)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}")
    print(f"env python {sample['python']}  numpy {sample['numpy']}  "
          f"nproc {nproc}  commit {git_commit()}  threads {caps}")
    width = max(len(k) for k in metrics)
    for name, (val, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<{width}}  {val:.6g} {unit}{note}")
    for line in lines:
        print(line)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit}
                    for name, (val, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*LAYER_DECLARATIONS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # on SIGTERM, unwind so the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env, nproc = thread_env()
    names = list(LAYER_DECLARATIONS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        wargs = argparse.Namespace(**dict(vars(args), workload=name))
        work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        try:
            passes, setups = collect(env, work, wargs)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        results[name] = report(wargs, env, nproc, passes, setups)
        print(json.dumps(results[name]))
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

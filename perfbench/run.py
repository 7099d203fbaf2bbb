"""cfedit benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload explain-ref --seed 1 --seconds 10 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
runs a fixed number of operations, each untraced and then traced, and
reports the per-layer metrics: calls and self time of the traced cfedit functions,
exact work counts, per-layer kernel times, and the tracing overhead. Spans go
to perfbench/out/trace/<workload>.jsonl. Outputs are checked outside the
timed region in both modes; the last stdout line is the JSON result.

Workload names, metric names and units come from BENCHMARK.json, which must
name exactly the metrics computed here. `--smoke` shrinks every workload to
a few operations, for perfbench/smoke.py. `--setup-only` times one set-up
and prints it; the measured run uses it to time set-ups in fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import common

SETUP_REPEATS = 5
LAYER_REPS = 15


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------


class Run:
    """Executions of pool operations, their determinism and their checks."""

    def __init__(self, wl):
        self.wl = wl
        self.times = []  # seconds per execution
        self.executed = []  # pool index per execution
        self.first = {}  # pool index -> (output, fingerprint)
        self.failed = set()  # execution numbers that failed
        self.problems = []

    def execute(self, k):
        n = len(self.executed)
        self.executed.append(k)
        t0 = time.perf_counter()
        try:
            out = self.wl.run_op(k)
        except Exception:
            self.times.append(time.perf_counter() - t0)
            self.fail(n, f"op {k} raised:\n{traceback.format_exc()}")
            return
        self.times.append(time.perf_counter() - t0)
        fp = self.wl.fingerprint(k, out)
        if k not in self.first:
            self.first[k] = (out, fp)
        elif fp != self.first[k][1]:
            self.fail(n, f"op {k} repeat is not byte-identical to its first run")

    def extra(self, fn):
        """One more attempted operation that is not a pool operation; fn returns problems."""
        n = len(self.executed)
        self.executed.append(None)
        try:
            problems = fn()
        except Exception:
            problems = [f"raised:\n{traceback.format_exc()}"]
        for p in problems:
            self.fail(n, p)

    def fail(self, n, why):
        self.failed.add(n)
        self.problems.append(why)

    def check(self):
        """Check each operation's first output; a failed check fails every execution of it."""
        for k, (out, _) in sorted(self.first.items()):
            try:
                problems = self.wl.check(k, out)
            except Exception:
                problems = [f"check raised:\n{traceback.format_exc()}"]
            for p in problems:
                self.problems.append(f"op {k}: {p}")
            if problems:
                self.failed.update(n for n, kk in enumerate(self.executed) if kk == k)

    def quality(self):
        if len(self.first) < len(self.wl.pool):
            self.problems.append(f"only {len(self.first)} of {len(self.wl.pool)} operations succeeded")
            return float("nan"), float("nan")
        return self.wl.quality({k: out for k, (out, _) in self.first.items()})


def timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def cold_setup(args) -> float:
    """Seconds of one set-up that is the first in a fresh process.

    A set-up repeated in one process finds the model files read, numpy's
    kernels loaded and every one-off initialisation done; a fresh process
    pays for all of that, as a user's first call does.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv + ["--setup-only"], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process exited with {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def warm_up(wl):
    """Run the first operation once, untimed; a failure shows again when it is timed."""
    try:
        wl.run_op(0)
    except Exception:
        pass


def measure(wl, args):
    """End-to-end metrics: closed loop over the pool for `args.seconds`, at least one cycle.

    Set-up and operation times are calibrated by the machine-speed probe
    taken around them (see calibrate.py); the raw times are printed beside them.
    """
    import calibrate

    wl.prepare()
    t0 = time.perf_counter()
    raw = timed_setup(wl)
    setups = [(raw, t0, t0 + raw)]  # (raw seconds, interval the probe calibrates it by)
    probe = calibrate.Probe()  # created after the first set-up, so that one stays cold
    for _ in range(SETUP_REPEATS - 1):
        t0 = time.perf_counter()
        raw = cold_setup(args)
        setups.append((raw, t0, time.perf_counter()))
        probe()
    warm_up(wl)
    run = Run(wl)
    starts = []
    n = len(wl.pool)
    start = time.perf_counter()
    while len(run.executed) < n or time.perf_counter() - start < args.seconds:
        if probe.due():
            probe()
        starts.append(time.perf_counter())
        run.execute(len(run.executed) % n)
    probe()
    run.check()
    goal_rate, goal_cost = run.quality()
    cal_setups = [raw * probe.scale(lo, hi) for raw, lo, hi in setups]
    cal_ms = sorted(1000 * t * probe.scale(s, s + t) for t, s in zip(run.times, starts))
    raw_ms = sorted(1000 * t for t in run.times)
    print(
        f"perfbench: raw setup s {statistics.median(raw for raw, _, _ in setups):.6g}, "
        f"op ms p50 {statistics.median(raw_ms):.6g} p90 {_p90(raw_ms):.6g}, "
        f"items/s {1000 * wl.items_per_op * len(raw_ms) / sum(raw_ms):.6g}, "
        f"probe ms median {1000 * statistics.median(probe.samples):.4g} over {len(probe.samples)} samples"
    )
    print(f"perfbench: set-ups s {' '.join(f'{raw:.4g}' for raw, _, _ in setups)} (raw; the first in-process)")
    return run, {
        "setup_s": statistics.median(cal_setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ops_ratio": 1 - len(run.failed) / len(run.executed),
        "op_cal_ms_p50": statistics.median(cal_ms),
        "op_cal_ms_p90": _p90(cal_ms),
        "items_per_cal_s": 1000 * wl.items_per_op * len(cal_ms) / sum(cal_ms),
        "goal_rate": goal_rate,
        "goal_cost": goal_cost,
    }


def _p90(sorted_values):
    return statistics.quantiles(sorted_values, n=10, method="inclusive")[-1]


def traced(wl, seed, functions):
    """Per-layer metrics over a fixed number of operations, so counts repeat exactly.

    `functions` are the traced cfedit functions ("search.candidate_scores")
    whose calls and self time are reported.

    Each operation runs untraced and then traced, back to back, so the two
    see the same machine speed; the tracing overhead is the difference.
    """
    import tracing
    import workloads

    wl.prepare()
    wl.setup()
    warm_up(wl)
    tracer = tracing.Tracer()
    with tracer:
        wl.setup()
    run = Run(wl)
    untraced_s = traced_s = 0.0
    for k in range(min(wl.trace_ops, len(wl.pool))):
        run.execute(k)
        untraced_s += run.times[-1]
        with tracer:
            tracer.op = k
            run.execute(k)
            tracer.op = None
        traced_s += run.times[-1]
    with tracer:
        run.extra(lambda: wl.extra_traced({k: out for k, (out, _) in run.first.items()}))
    run.check()
    tracer.write_jsonl(os.path.join(common.OUT_DIR, "trace", f"{wl.name}.jsonl"))

    c = tracer.counters
    metrics = {}
    for fn in functions:
        metrics[f"{fn}.calls"] = tracer.calls.get(fn, 0)
        metrics[f"{fn}.self_ms"] = tracer.self_ms(fn)
    greedy = tracer.calls.get("search.greedy_counterfactual", 0)
    metrics.update(
        {
            "network.head_logprobs_batch.rows": c["head_rows"],
            "search.committed_edits": c["committed_edits"],
            "search.head_evals_per_edit": c["head_rows"] / c["committed_edits"] if c["committed_edits"] else 0,
            "search.steps_per_pair": tracer.calls.get("search.best_edit_exhaustive", 0) / greedy if greedy else 0,
            "search.candidate_bytes_per_step_computed": (
                c["candidate_bytes"] / c["candidate_steps"] if c["candidate_steps"] else 0
            ),
            "relaxed.steps_per_call": c["relaxed_steps"] / c["relaxed_calls"] if c["relaxed_calls"] else 0,
            "relaxed.converged_ratio": c["relaxed_converged"] / c["relaxed_calls"] if c["relaxed_calls"] else 0,
            "render.bytes_written": c["bytes_written"],
            "trace.spans": len(tracer.spans),
            "trace.overhead_ms": 1000 * (traced_s - untraced_s),
            "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        }
    )
    metrics.update(workloads.layer_times(seed, LAYER_REPS))
    summary = {
        "workload": wl.name,
        "seed": seed,
        "blas_threads": common.BLAS_THREADS,
        "ops_traced": len(run.first),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "counters": dict(c),
        "functions": tracer.table(),
    }
    with open(os.path.join(common.OUT_DIR, "trace", f"{wl.name}.summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return run, metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few operations per workload")
    p.add_argument("--setup-only", action="store_true", help="print the seconds of one set-up and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    threads = common.pin_blas()
    try:
        common.import_cfedit()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    if args.setup_only:
        print(timed_setup(wl))
        return 0
    defs = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        functions = [m["name"][: -len(".calls")] for m in defs if m["name"].endswith(".calls")]
        run, metrics = traced(wl, args.seed, functions)
    else:
        run, metrics = measure(wl, args)
    differ = set(metrics) ^ {m["name"] for m in defs}
    if differ:
        raise RuntimeError(f"metrics computed and metrics in BENCHMARK.json differ: {sorted(differ)}")

    print(
        f"perfbench: workload={wl.name} seed={args.seed} trace={args.trace} blas_threads={threads} "
        f"executions={len(run.executed)} distinct={len(run.first)} failed={len(run.failed)}"
    )
    for problem in run.problems:
        print(f"perfbench: FAIL {problem}")
    for m in defs:
        print(f"perfbench:   {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": not run.problems,
        "attempted": len(run.executed),
        "failed": len(run.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in defs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

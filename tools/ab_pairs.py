"""Alternating A/B pairs of the benchmark: a parent revision against this checkout.

    python3 tools/ab_pairs.py --rev HEAD --workload train --seeds 101-110 --seconds 10

Each pair runs `perfbench/run.py --trace 0` on the same seed in three arms,
back to back: the parent's tree (A), a second export of the parent (A′, the
control) and the change's tree (B). The order of the arms rotates from pair
to pair, so each runs first, second and third alike and drift in machine
speed falls on all of them. All three trees are temporary exports, made
alike so that no arm runs from a different kind of tree or a path of
another length: the parent's and the control's are `--rev` exported with
`git archive` into `ab-parent-*` and `ab-control*` directories, and the
change's is this checkout as it is on disk (its tracked files with their
uncommitted edits, and its untracked files that are not ignored) copied
into an `ab-change-*` directory. All are removed afterwards, also when a
SIGINT or SIGTERM stops the run: the signal kills the running benchmark,
the three trees are removed, and the tool then ends by that signal.
Nothing is added to the repository. Nothing under `perfbench/` is
changed: each arm runs its own copy.

Every run also carries an environment variable that nothing reads,
`AB_PAIRS_PAD`, whose length each pair draws from its seed, from 0 to
`PAD_MAX` bytes. The three arms of a pair get the same length, so the
environment's size, and with it the layout of the stack, varies from pair
to pair alike for all of them, and no arm keeps a layout that happens to
be lucky (Mytkowicz et al., ASPLOS 2009).

After each pair it compares the records and rasters the parent and the
change wrote under `perfbench/out/<workload>/records`, byte for byte, and
prints "records identical" or the files that differ, so every pair also
checks that the change writes what the parent writes.  It also prints
whether both sides' `goal_rate` and `goal_cost` are equal, with the relative
gap of each that is not, so a workload that writes no records (`train`,
`fidelity`) still shows on every pair whether its results held.

For every end-to-end metric of BENCHMARK.json it prints the parent's and the
change's medians and quartiles, the relative gap B − A of the medians, the
pairs the change won (ties count for neither side), and whether the change
clears the 9-in-10 rule: it wins at least 9 of every 10 pairs, and its median
beats the parent's by more than the parent's interquartile range. Beside it
stands the control's gap A′ − A and the pairs the control won: the same code
run twice, so a B − A gap no larger than it is noise. The line also says
whether the change's gap lies beyond the control's spread: whether the
median of the per-pair gaps B − A lies outside the range of the per-pair
gaps A′ − A. It also says whether the change stays within the metric's
`bound`: whether its median is worse than the parent's by no more than that
fraction of the parent's median, the no-regression rule every metric must
keep. `--out` also writes every pair's metrics, all three arms, and its pad
length as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ARMS = ("parent", "control", "change")

# the prefixes of the arms' temporary trees, all of one length
PREFIXES = {"parent": "ab-parent-", "control": "ab-control", "change": "ab-change-"}


# the variable that pads each run's environment, and its longest value in bytes
PAD_VAR = "AB_PAIRS_PAD"
PAD_MAX = 4096


def pad_length(seed: int) -> int:
    """The length of `PAD_VAR` in every arm of the pair run on `seed`."""
    return random.Random(seed).randint(0, PAD_MAX)


def arm_order(k: int) -> tuple:
    """The order the arms of pair `k` run in, rotated one place per pair."""
    return ARMS[k % 3 :] + ARMS[: k % 3]


def parse_seeds(text: str) -> list[int]:
    """'101-110' or '3,5,8' (or a mix) as a list of seeds; a reversed range
    such as '5-3' is a usage error, not an empty run."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"seed range {part!r} runs backwards")
        seeds.extend(range(lo, hi + 1))
    return seeds


def export_tree(rev: str, dest: str) -> str:
    """Write the tree of `rev` into `dest` and return the commit it names."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tempfile.TemporaryFile() as fh:
        fh.write(archive.stdout)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")
    return commit


def export_checkout(dest: str) -> None:
    """Copy this checkout into `dest` as it is on disk: its tracked files
    with their uncommitted edits, and its untracked files that are not
    ignored. A tracked file deleted on disk is left out."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT, capture_output=True, check=True
    ).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src, out = os.path.join(ROOT, rel), os.path.join(dest, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(out), exist_ok=True)
            shutil.copy2(src, out)


def run_side(tree: str, workload: str, seed: int, seconds: float, pad: int) -> dict:
    """The end-to-end metrics of one benchmark run in `tree`, with `correct`
    and `failed`; its environment carries `PAD_VAR` of `pad` bytes."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, env=dict(os.environ, **{PAD_VAR: "x" * pad}),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics.update(correct=result["correct"], failed=result["failed"])
    return metrics


def _files(root: str) -> dict:
    """{path relative to `root`: full path} of every file under `root` (none if it is absent)."""
    return {
        os.path.relpath(os.path.join(d, f), root): os.path.join(d, f) for d, _, files in os.walk(root) for f in files
    }


def differing_records(parent_tree: str, change_tree: str, workload: str) -> tuple[int, list[str]]:
    """(how many files either tree wrote under perfbench/out/<workload>/records,
    the relative paths of those whose bytes differ or that only one tree has)."""
    parent, change = (
        _files(os.path.join(tree, "perfbench", "out", workload, "records")) for tree in (parent_tree, change_tree)
    )
    differ = []
    for rel in sorted(parent.keys() | change.keys()):
        if rel not in parent or rel not in change:
            differ.append(rel)
            continue
        with open(parent[rel], "rb") as a, open(change[rel], "rb") as b:
            if a.read() != b.read():
                differ.append(rel)
    return len(parent.keys() | change.keys()), differ


def records_line(count: int, differ: list[str]) -> str:
    """The verdict on `differing_records` printed after each pair, naming at
    most 10 of the files that differ (`--out` keeps them all)."""
    if differ:
        more = f" and {len(differ) - 10} more" if len(differ) > 10 else ""
        return f"records differ ({len(differ)} of {count}): {', '.join(differ[:10])}{more}"
    return f"records identical ({count} files)"


def goal_line(parent: dict, change: dict) -> str:
    """Whether the two sides of a pair have equal `goal_rate` and
    `goal_cost`, with the relative gap of each that differs."""
    names = ("goal_rate", "goal_cost")
    differ = [name for name in names if parent[name] != change[name]]
    if not differ:
        return "goal_rate and goal_cost equal"
    parts = [f"{name} equal" if name not in differ else _gap(name, parent[name], change[name]) for name in names]
    return ", ".join(parts)


def _gap(name: str, parent, change) -> str:
    if isinstance(parent, (int, float)) and isinstance(change, (int, float)) and parent:
        return f"{name} gap {(change - parent) / parent:+.3g}"
    return f"{name} {parent!r} -> {change!r}"


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, relative gap, wins, losses and the 9-in-10 verdict
    of one metric over paired runs; `better` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q_parent = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
    q_change = statistics.quantiles(change, n=4, method="inclusive") if len(change) > 1 else change * 3
    med_p, med_c = statistics.median(parent), statistics.median(change)
    return {
        "parent": med_p, "parent_q": (q_parent[0], q_parent[2]),
        "change": med_c, "change_q": (q_change[0], q_change[2]),
        "gap": (med_c - med_p) / med_p if med_p else math.nan,
        "wins": wins, "losses": losses,
        "clears": wins >= math.ceil(0.9 * len(parent)) and sign * (med_p - med_c) > q_parent[2] - q_parent[0],
    }


def beyond_control(parent: list[float], change: list[float], control: list[float]) -> bool:
    """Whether the median of the per-pair gaps B − A lies outside the range
    of the per-pair gaps A′ − A. The control runs the parent's code again,
    so its gaps span what noise alone gives; a gap within them shows nothing."""
    noise = [a - p for p, a in zip(parent, control)]
    gap = statistics.median(c - p for p, c in zip(parent, change))
    return not min(noise) <= gap <= max(noise)


def within_bound(parent: list[float], change: list[float], better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by no more
    than `bound`, a fraction of the parent's median; `better` is "lower" or
    "higher"."""
    sign = 1 if better == "lower" else -1
    med_p = statistics.median(parent)
    return sign * (statistics.median(change) - med_p) <= bound * abs(med_p)


def summarize(pairs: list[dict], spec: dict) -> list[str]:
    """One line per end-to-end metric over the pairs of one workload: the
    change against the parent, whether it stays within the metric's bound,
    whether its gap lies beyond the control's spread, and the control's gap
    and wins."""
    lines = []
    for m in spec["end_to_end"]:
        name = m["name"]
        parent, change, control = ([p[arm][name] for p in pairs] for arm in ("parent", "change", "control"))
        r = compare(parent, change, m["better"])
        c = compare(parent, control, m["better"])
        within = within_bound(parent, change, m["better"], m["bound"])
        lines.append(
            f"  {name:16s} parent {r['parent']:10.4g} [{r['parent_q'][0]:.4g}, {r['parent_q'][1]:.4g}]"
            f"  change {r['change']:10.4g} [{r['change_q'][0]:.4g}, {r['change_q'][1]:.4g}]"
            f"  gap {r['gap']:+7.2%}  wins {r['wins']}/{len(pairs)} losses {r['losses']}"
            f"  9-in-10 {'yes' if r['clears'] else 'no'}"
            f"  within bound {m['bound']:.0%} {'yes' if within else 'no'}"
            f"  beyond control {'yes' if beyond_control(parent, change, control) else 'no'}"
            f"  control gap {c['gap']:+7.2%} wins {c['wins']}/{len(pairs)}"
        )
    return lines


class Stopped(Exception):
    """A SIGINT or SIGTERM, raised where the run is, so that it unwinds:
    `subprocess.run` kills the benchmark it waits on, and each arm's
    `TemporaryDirectory` removes its tree."""


def _stop(signum, frame):
    raise Stopped(signum)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--rev", default="HEAD", help="the parent revision (default HEAD)")
    p.add_argument("--workload", nargs="+", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=parse_seeds, required=True, help="one pair per seed: '101-110' or '3,5,8'")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", help="write every pair's metrics to this JSON file")
    args = p.parse_args(argv)

    handlers = {signum: signal.signal(signum, _stop) for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        commit, results = run_pairs(args, spec)
    except Stopped as stop:  # the trees are gone: end by the signal, as its default action does
        signal.signal(stop.args[0], signal.SIG_DFL)
        os.kill(os.getpid(), stop.args[0])
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"parent": commit, "results": results}, fh, indent=1)
    return 0


def run_pairs(args, spec: dict) -> tuple[str, dict]:
    """Export the three trees, run every pair of every workload in them and
    print each pair and each workload's summary.  Returns the parent's
    commit and {workload: its pairs}."""
    results = {}
    with contextlib.ExitStack() as stack:
        trees = {arm: stack.enter_context(tempfile.TemporaryDirectory(prefix=PREFIXES[arm])) for arm in ARMS}
        commit = export_tree(args.rev, trees["parent"])
        export_tree(commit, trees["control"])
        export_checkout(trees["change"])
        print(
            f"parent {commit} in {trees['parent']} and {trees['control']}; change {ROOT} in {trees['change']}",
            flush=True,
        )
        for workload in args.workload:
            pairs = results[workload] = []
            for k, seed in enumerate(args.seeds):
                order = arm_order(k)
                pair = {"seed": seed, "order": list(order), "pad": pad_length(seed)}
                for arm in order:
                    pair[arm] = run_side(trees[arm], workload, seed, args.seconds, pair["pad"])
                pairs.append(pair)
                bad = [arm for arm in ARMS if not pair[arm]["correct"] or pair[arm]["failed"]]
                count, differ = differing_records(trees["parent"], trees["change"], workload)
                pair["records_differ"] = differ
                verdicts = ([records_line(count, differ)] if count else []) + [goal_line(pair["parent"], pair["change"])]
                print(
                    f"{workload} seed {seed} ({', '.join(order)}): op_cal_ms_p50 "
                    f"{pair['parent']['op_cal_ms_p50']:.4g} -> {pair['change']['op_cal_ms_p50']:.4g}"
                    f" (control {pair['control']['op_cal_ms_p50']:.4g})  {'  '.join(verdicts)}"
                    + (f"  INCORRECT OR FAILED: {', '.join(bad)}" if bad else ""),
                    flush=True,
                )
            print(f"{workload}: {len(pairs)} pairs")
            print("\n".join(summarize(pairs, spec)), flush=True)
    return commit, results


if __name__ == "__main__":
    sys.exit(main())

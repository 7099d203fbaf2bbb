"""Alternating A/B pairs of the benchmark: a parent revision against this checkout.

    python3 tools/ab_pairs.py --rev HEAD --workload train --seeds 101-110 --seconds 10

Each pair runs `perfbench/run.py --trace 0` on the same seed once in the
parent's tree and once in the change's, back to back. The side that runs
first alternates from pair to pair, so drift in machine speed falls on both
sides alike. Both trees are temporary exports, made alike so that neither
side runs from a different kind of tree or a path of another length: the
parent's is `--rev` exported with `git archive` into an `ab-parent-*`
directory, and the change's is this checkout as it is on disk (its tracked
files with their uncommitted edits, and its untracked files that are not
ignored) copied into an `ab-change-*` directory. Both are removed
afterwards; nothing is added to the repository. Nothing under `perfbench/`
is changed: each side runs its own copy.

After each pair it compares the records and rasters the two runs wrote
under `perfbench/out/<workload>/records`, byte for byte, and prints
"records identical" or the files that differ, so every pair also checks that
the change writes what the parent writes.  It also prints whether both
sides' `goal_rate` and `goal_cost` are equal, with the relative gap of each
that is not, so a workload that writes no records (`train`, `fidelity`)
still shows on every pair whether its results held.

For every end-to-end metric of BENCHMARK.json it prints both sides' medians
and quartiles, the relative gap of the medians, the pairs the change won
(ties count for neither side), and whether the change clears the 9-in-10
rule: it wins at least 9 of every 10 pairs, and its median beats the parent's
by more than the parent's interquartile range. `--out` also writes every
pair's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one benchmark run in `tree`, with `correct` and `failed`."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
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


def summarize(pairs: list[dict], spec: dict) -> list[str]:
    """One line per end-to-end metric over the (parent, change) pairs of one workload."""
    lines = []
    for m in spec["end_to_end"]:
        name = m["name"]
        r = compare([p["parent"][name] for p in pairs], [p["change"][name] for p in pairs], m["better"])
        lines.append(
            f"  {name:16s} parent {r['parent']:10.4g} [{r['parent_q'][0]:.4g}, {r['parent_q'][1]:.4g}]"
            f"  change {r['change']:10.4g} [{r['change_q'][0]:.4g}, {r['change_q'][1]:.4g}]"
            f"  gap {r['gap']:+7.2%}  wins {r['wins']}/{len(pairs)} losses {r['losses']}"
            f"  9-in-10 {'yes' if r['clears'] else 'no'}"
        )
    return lines


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

    results = {}
    with (
        tempfile.TemporaryDirectory(prefix="ab-parent-") as parent_tree,
        tempfile.TemporaryDirectory(prefix="ab-change-") as change_tree,
    ):
        commit = export_tree(args.rev, parent_tree)
        export_checkout(change_tree)
        print(f"parent {commit} in {parent_tree}; change {ROOT} in {change_tree}", flush=True)
        for workload in args.workload:
            pairs = results[workload] = []
            for k, seed in enumerate(args.seeds):
                sides = [("parent", parent_tree), ("change", change_tree)]
                if k % 2:
                    sides.reverse()
                pair = {"seed": seed, "first": sides[0][0]}
                for side, tree in sides:
                    pair[side] = run_side(tree, workload, seed, args.seconds)
                pairs.append(pair)
                bad = [s for s in ("parent", "change") if not pair[s]["correct"] or pair[s]["failed"]]
                count, differ = differing_records(parent_tree, change_tree, workload)
                pair["records_differ"] = differ
                verdicts = ([records_line(count, differ)] if count else []) + [goal_line(pair["parent"], pair["change"])]
                print(
                    f"{workload} seed {seed} ({pair['first']} first): op_cal_ms_p50 "
                    f"{pair['parent']['op_cal_ms_p50']:.4g} -> {pair['change']['op_cal_ms_p50']:.4g}"
                    f"  {'  '.join(verdicts)}"
                    + (f"  INCORRECT OR FAILED: {', '.join(bad)}" if bad else ""),
                    flush=True,
                )
            print(f"{workload}: {len(pairs)} pairs")
            print("\n".join(summarize(pairs, spec)), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"parent": commit, "results": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tools/ab_pairs.py on synthetic pairs: seed parsing, per-metric comparison,
the 9-in-10 verdict, the control arm and the rotation of the three arms, the
per-pair environment pad, the byte comparison of the records both trees
wrote and the export of the change's tree from a temporary git repository,
with no benchmark run."""

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("ab_pairs", os.path.join(ROOT, "tools", "ab_pairs.py"))
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

# ten parent runs: median 104.5, quartiles 102.25 and 106.75 (an IQR of 4.5)
PARENT = [float(v) for v in range(100, 110)]


@pytest.mark.parametrize(
    "text, seeds",
    [("101-103,7", [101, 102, 103, 7]), ("5", [5]), ("3,5,8", [3, 5, 8]), ("9-9", [9]), ("1-2,4-5", [1, 2, 4, 5])],
)
def test_parse_seeds(text, seeds):
    assert ab_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize(
    "text, message",
    [("5-3", "runs backwards"), ("1-2,9-7", "runs backwards"), ("", "invalid"), ("3,", "invalid")],
)
def test_seeds_that_name_no_run_are_a_usage_error_before_any_export(text, message, monkeypatch, capsys):
    def export(*args):
        raise AssertionError("a tree was exported for seeds that name no run")

    monkeypatch.setattr(ab_pairs, "export_tree", export)
    monkeypatch.setattr(ab_pairs, "export_checkout", export)
    with pytest.raises(SystemExit) as exit_info:
        ab_pairs.main(["--workload", "train", "--seeds", text])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--seeds" in err and message in err


def test_wins_losses_and_ties():
    r = ab_pairs.compare([10.0, 10.0, 10.0, 10.0, 10.0], [9.0, 11.0, 10.0, 8.0, 10.0], "lower")
    assert (r["wins"], r["losses"]) == (2, 1)  # the two equal pairs count for neither side
    assert r["parent"] == 10.0 and r["change"] == 10.0 and r["gap"] == 0.0
    assert not r["clears"]


def test_higher_is_better_flips_the_sign():
    change = [v + 10 for v in PARENT]
    higher, lower = ab_pairs.compare(PARENT, change, "higher"), ab_pairs.compare(PARENT, change, "lower")
    assert (higher["wins"], higher["losses"], higher["clears"]) == (10, 0, True)
    assert (lower["wins"], lower["losses"], lower["clears"]) == (0, 10, False)
    assert higher["gap"] == lower["gap"] == pytest.approx(10 / 104.5)


def test_quartiles_are_inclusive():
    r = ab_pairs.compare(PARENT, [v - 10 for v in PARENT], "lower")
    assert r["parent"] == 104.5 and r["parent_q"] == (102.25, 106.75)
    assert r["change"] == 94.5 and r["change_q"] == (92.25, 96.75)


@pytest.mark.parametrize(
    "shift, losing_pairs, clears",
    [
        (10.0, 0, True),  # 10 of 10, the gap 10 beyond the parent IQR 4.5
        (10.0, 1, True),  # 9 of 10 is enough
        (10.0, 2, False),  # 8 of 10 is not
        (4.0, 0, False),  # 10 of 10, but the median gap 4 lies inside the parent IQR
        (4.5, 0, False),  # a gap equal to the IQR does not beat it
        (5.0, 0, True),
    ],
)
def test_nine_in_ten_verdict(shift, losing_pairs, clears):
    change = [v - shift for v in PARENT]
    for k in range(losing_pairs):  # pairs far from the median, so that the change's median stays put
        change[k * 9] = PARENT[k * 9] + 1
    r = ab_pairs.compare(PARENT, change, "lower")
    assert (r["wins"], r["losses"]) == (10 - losing_pairs, losing_pairs)
    assert r["clears"] is clears


def test_summarize_prints_one_line_per_metric():
    spec = {"end_to_end": [{"name": "op_ms", "better": "lower"}, {"name": "items", "better": "higher"}]}
    # the control beats the parent in the first three pairs and loses the rest by 1
    control = [p - 1 if k < 3 else p + 1 for k, p in enumerate(PARENT)]
    pairs = [
        {"parent": {"op_ms": p, "items": 1000 / p}, "change": {"op_ms": p - 10, "items": 1000 / (p - 10)},
         "control": {"op_ms": c, "items": 1000 / c}}
        for p, c in zip(PARENT, control)
    ]
    lines = ab_pairs.summarize(pairs, spec)
    assert len(lines) == 2
    assert lines[0].split()[0] == "op_ms" and "wins 10/10 losses 0" in lines[0] and "9-in-10 yes" in lines[0]
    assert lines[1].split()[0] == "items" and "wins 10/10 losses 0" in lines[1]
    assert "gap  -9.57%" in lines[0]
    # the control's median 105.5 against the parent's 104.5
    assert lines[0].endswith("control gap  +0.96% wins 3/10") and lines[1].endswith("wins 3/10")
    # the change's per-pair gaps of -10 lie far outside the control's [-1, +1]
    assert "beyond control yes" in lines[0] and "beyond control yes" in lines[1]


# the control's per-pair gaps A′ − A run from -2 to +3
CONTROL = [p + d for p, d in zip(PARENT, [-2, 1, 0, 3, -1, 2, 0, 1, -2, 3])]


@pytest.mark.parametrize(
    "shifts, beyond",
    [
        ([-1.0] * 10, False),  # a median gap of -1, inside [-2, +3]
        ([-2.0] * 10, False),  # a gap on the range's edge is inside it
        ([-2.5] * 10, True),  # below the control's least gap
        ([4.0] * 10, True),  # above its greatest: a loss beyond noise is flagged too
        ([-9.0] * 4 + [0.0] * 6, False),  # the median of the gaps, 0, not their extremes
    ],
)
def test_beyond_control_reads_the_controls_spread(shifts, beyond):
    change = [p + d for p, d in zip(PARENT, shifts)]
    assert ab_pairs.beyond_control(PARENT, change, CONTROL) is beyond


def test_summarize_prints_a_gap_inside_the_controls_spread():
    spec = {"end_to_end": [{"name": "op_ms", "better": "lower"}]}
    pairs = [{"parent": {"op_ms": p}, "change": {"op_ms": p - 1}, "control": {"op_ms": c}} for p, c in zip(PARENT, CONTROL)]
    (line,) = ab_pairs.summarize(pairs, spec)
    # ten wins, but a gap of -1 that the same code run twice also shows
    assert "wins 10/10" in line and "beyond control no" in line


def test_arms_rotate_from_pair_to_pair():
    orders = [ab_pairs.arm_order(k) for k in range(6)]
    assert orders[0] == ab_pairs.ARMS == ("parent", "control", "change")
    assert orders[:3] == orders[3:]
    for position in range(3):  # over three pairs every arm runs once in every position
        assert sorted(order[position] for order in orders[:3]) == sorted(ab_pairs.ARMS)


def test_every_arm_runs_from_a_path_of_one_length():
    assert sorted(ab_pairs.PREFIXES) == sorted(ab_pairs.ARMS)
    assert len({len(prefix) for prefix in ab_pairs.PREFIXES.values()}) == 1


def test_each_pair_runs_three_arms_in_rotation(tmp_path, monkeypatch, capsys):
    exported, runs, pads = [], [], []

    def export_tree(rev, dest):
        exported.append((rev, os.path.basename(dest)[:10]))
        return "c0ffee"

    def run_side(tree, workload, seed, seconds, pad):
        arm = next(a for a, prefix in ab_pairs.PREFIXES.items() if os.path.basename(tree).startswith(prefix))
        runs.append((seed, arm))
        pads.append((seed, pad))
        metrics = {m: 1.0 for m in ("setup_s", "peak_rss_mb", "ok_ops_ratio", "op_cal_ms_p90", "items_per_cal_s")}
        op = {"parent": 10.0, "control": 10.5, "change": 9.0}[arm] + seed / 100
        return dict(metrics, op_cal_ms_p50=op, goal_rate=1.0, goal_cost=2.0, correct=True, failed=0)

    monkeypatch.setattr(ab_pairs, "export_tree", export_tree)
    monkeypatch.setattr(ab_pairs, "export_checkout", lambda dest: None)
    monkeypatch.setattr(ab_pairs, "run_side", run_side)
    out = tmp_path / "pairs.json"
    assert ab_pairs.main(["--workload", "train", "--seeds", "1-4", "--rev", "HEAD~1", "--out", str(out)]) == 0
    assert exported == [("HEAD~1", "ab-parent-"), ("c0ffee", "ab-control")]
    assert runs == [(seed, arm) for seed in (1, 2, 3, 4) for arm in ab_pairs.arm_order(seed - 1)]
    # the three arms of a pair run with one pad, drawn from the pair's seed
    assert pads == [(seed, ab_pairs.pad_length(seed)) for seed in (1, 2, 3, 4) for _ in range(3)]
    report = capsys.readouterr().out
    assert "train seed 2 (control, change, parent): op_cal_ms_p50 10.02 -> 9.02 (control 10.52)" in report
    summary = next(line for line in report.splitlines() if line.split()[:1] == ["op_cal_ms_p50"])
    assert "wins 4/4 losses 0" in summary and summary.endswith("control gap  +4.99% wins 0/4")
    saved = json.loads(out.read_text())
    assert saved["parent"] == "c0ffee"
    pairs = saved["results"]["train"]
    assert [p["order"] for p in pairs] == [list(ab_pairs.arm_order(k)) for k in range(4)]
    assert [p["control"]["op_cal_ms_p50"] for p in pairs] == [10.51, 10.52, 10.53, 10.54]
    assert [p["pad"] for p in pairs] == [ab_pairs.pad_length(seed) for seed in (1, 2, 3, 4)]


def test_pad_lengths_are_drawn_from_the_seed():
    lengths = [ab_pairs.pad_length(seed) for seed in range(100)]
    assert all(0 <= n <= ab_pairs.PAD_MAX for n in lengths) and len(set(lengths)) > 90


def test_a_run_carries_its_pad_in_its_environment(monkeypatch):
    calls = []

    def run(argv, **kwargs):
        calls.append(kwargs)
        line = json.dumps({"metrics": {"op_cal_ms_p50": {"value": 1.5}}, "correct": True, "failed": 0})
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n", stderr="")

    monkeypatch.setenv("AB_PAIRS_TEST_KEPT", "1")
    monkeypatch.setattr(ab_pairs.subprocess, "run", run)
    for pad in (0, 7, ab_pairs.PAD_MAX):
        metrics = ab_pairs.run_side("tree", "train", 3, 1.0, pad)
        assert metrics == {"op_cal_ms_p50": 1.5, "correct": True, "failed": 0}
        env = calls[-1]["env"]
        assert env[ab_pairs.PAD_VAR] == "x" * pad and env["AB_PAIRS_TEST_KEPT"] == "1"


def test_a_single_pair_has_no_spread():
    r = ab_pairs.compare([10.0], [9.0], "lower")
    assert r["parent_q"] == (10.0, 10.0) and r["wins"] == 1 and r["clears"]


def write_records(tree, workload, files):
    """Write {relative path: bytes} under tree/perfbench/out/<workload>/records."""
    for rel, data in files.items():
        path = tree / "perfbench" / "out" / workload / "records" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_identical_records_are_reported_identical(tmp_path):
    files = {"pair_0000.json": b'{"edits": []}', "pair_0000/query.pgm": b"P5 1 1 255\n\x00"}
    for side in ("parent", "change"):
        write_records(tmp_path / side, "explain-ref", files)
    count, differ = ab_pairs.differing_records(str(tmp_path / "parent"), str(tmp_path / "change"), "explain-ref")
    assert (count, differ) == (2, [])
    assert ab_pairs.records_line(count, differ) == "records identical (2 files)"


def test_differing_and_one_sided_records_are_named(tmp_path):
    write_records(tmp_path / "parent", "explain-wide", {"a.json": b"1", "b.json": b"2", "gone.json": b""})
    write_records(tmp_path / "change", "explain-wide", {"a.json": b"1", "b.json": b"3", "new/c.pgm": b""})
    write_records(tmp_path / "change", "explain-ref", {"a.json": b"9"})  # another workload's records are not read
    count, differ = ab_pairs.differing_records(str(tmp_path / "parent"), str(tmp_path / "change"), "explain-wide")
    assert (count, differ) == (4, ["b.json", "gone.json", os.path.join("new", "c.pgm")])
    line = ab_pairs.records_line(count, differ)
    assert line == f"records differ (3 of 4): b.json, gone.json, {os.path.join('new', 'c.pgm')}"
    many = [f"pair_{k:04d}.json" for k in range(12)]
    assert ab_pairs.records_line(480, many) == f"records differ (12 of 480): {', '.join(many[:10])} and 2 more"


def test_a_workload_without_records(tmp_path):
    count, differ = ab_pairs.differing_records(str(tmp_path / "parent"), str(tmp_path / "change"), "train")
    assert (count, differ) == (0, [])


@pytest.mark.parametrize(
    "change, line",
    [
        ({"goal_rate": 0.75, "goal_cost": 1.25}, "goal_rate and goal_cost equal"),
        ({"goal_rate": 0.75, "goal_cost": 1.25 + 2**-50}, "goal_rate equal, goal_cost gap +7.11e-16"),
        ({"goal_rate": 0.5, "goal_cost": 1.25}, "goal_rate gap -0.333, goal_cost equal"),
        ({"goal_rate": 0.6, "goal_cost": 1.0}, "goal_rate gap -0.2, goal_cost gap -0.2"),
        ({"goal_rate": 0.75, "goal_cost": None}, "goal_rate equal, goal_cost 1.25 -> None"),
    ],
)
def test_goal_line_names_each_quality_metric_that_moved(change, line):
    assert ab_pairs.goal_line({"goal_rate": 0.75, "goal_cost": 1.25}, change) == line


def test_a_zero_goal_rate_has_no_relative_gap():
    line = ab_pairs.goal_line({"goal_rate": 0.0, "goal_cost": 2.0}, {"goal_rate": 0.5, "goal_cost": 2.0})
    assert line == "goal_rate 0.0 -> 0.5, goal_cost equal"


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args], cwd=repo, check=True)


def test_the_change_side_exports_the_checkout_as_it_is_on_disk(tmp_path, monkeypatch):
    repo, dest = tmp_path / "repo", tmp_path / "export"
    (repo / "sub").mkdir(parents=True)
    files = {".gitignore": "*.log\nout/\n", "kept.py": "1\n", "edited.py": "2\n", "gone.py": "3\n", "sub/deep.py": "4\n"}
    for rel, text in files.items():
        (repo / rel).write_text(text)
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "seed")
    (repo / "edited.py").write_text("2 edited\n")  # a tracked file, edited and not committed
    (repo / "gone.py").unlink()  # a tracked file deleted on disk
    (repo / "sub" / "new.py").write_text("5\n")  # untracked, not ignored
    (repo / "run.log").write_text("ignored\n")
    (repo / "out").mkdir()
    (repo / "out" / "record.json").write_text("ignored\n")
    monkeypatch.setattr(ab_pairs, "ROOT", str(repo))
    dest.mkdir()
    ab_pairs.export_checkout(str(dest))
    exported = {rel: (dest / rel).read_text() for rel in ab_pairs._files(str(dest))}
    assert exported == {
        ".gitignore": "*.log\nout/\n", "kept.py": "1\n", "edited.py": "2 edited\n",
        os.path.join("sub", "deep.py"): "4\n", os.path.join("sub", "new.py"): "5\n",
    }

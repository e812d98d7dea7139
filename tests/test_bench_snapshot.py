"""tools/bench_snapshot.py summarises benchmark runs; checked on canned
output, so no benchmark runs here."""

import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_snapshot",
                                               ROOT / "tools" / "bench_snapshot.py")
snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot)


def _run_output(correct, attempted, failed, ops_per_s, p50_ms):
    """What bench/run.py prints: progress lines, then the result as JSON."""
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_p50_ms": {"value": p50_ms, "unit": "ms"}}}
    return f"exact-laws: {attempted} ops\n  ops_per_s = {ops_per_s} 1/s\n{json.dumps(result)}\n"


def test_summary_of_two_canned_runs():
    runs = [(1, snapshot.last_json(_run_output(True, 900, 0, 60.0, 15.5))),
            (2, snapshot.last_json(_run_output(False, 1000, 2, 64.0, 14.5)))]
    summary = snapshot.summarize(runs, ["ops_per_s", "op_p50_ms"])
    assert summary == {
        "runs": [{"seed": 1, "correct": True, "attempted": 900, "failed": 0},
                 {"seed": 2, "correct": False, "attempted": 1000, "failed": 2}],
        "metrics": {
            "ops_per_s": {"unit": "1/s", "q1": 61.0, "median": 62.0, "q3": 63.0},
            "op_p50_ms": {"unit": "ms", "q1": 14.75, "median": 15.0, "q3": 15.25}},
    }


def test_criteria_read_off_the_verify_report():
    lines = [{"detail": "x", "index": 1, "name": "counting", "passed": True, "seconds": 0.5},
             {"detail": "y", "index": 2, "name": "triangle", "passed": False, "seconds": 1.25}]
    report = "".join(json.dumps(r) + "\n" for r in lines)
    assert snapshot.criteria(report) == [
        {"index": 1, "name": "counting", "passed": True, "seconds": 0.5},
        {"index": 2, "name": "triangle", "passed": False, "seconds": 1.25}]


def test_op_times_by_cycle_position_from_canned_reports(tmp_path):
    # two runs of a 3-kind cycle; position i takes ops i, i + 3, ...
    reports = []
    for seed, durations in enumerate([[0.001, 0.010, 0.100, 0.003, 0.030, 0.300, 0.002],
                                      [0.002, 0.020, 0.200, 0.004, 0.040, 0.400]]):
        path = tmp_path / f"draws-small-seed{seed}-trace0.json"
        path.write_text(json.dumps({"workload": "draws-small", "durations_s": durations}))
        reports.append(path)
    # run medians: (2, 20, 200) and (3, 30, 300) ms; their medians interpolate
    assert snapshot.by_position(reports, 3) == pytest.approx([2.5, 25.0, 250.0])


def test_cycle_lengths_are_read_off_the_workload_classes():
    lengths = snapshot.cycle_lengths()
    assert lengths == {"draws-small": 8, "draws-large": 8, "exact-laws": 4, "cli-cold": 10}


def test_bytecode_warm_up_child_may_write_bytecode(monkeypatch):
    # the warm-up child drops PYTHONDONTWRITEBYTECODE, keeps the rest of the
    # environment and puts the checkout's src/ first; nothing else runs
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setenv("SNAPSHOT_TEST_PROBE", "kept")
    calls, run = [], subprocess.run
    monkeypatch.setattr(snapshot.subprocess, "run", lambda cmd, **kw: calls.append((cmd, kw)))
    snapshot.warm_bytecode_cache()
    [(cmd, kw)] = calls
    env = kw["env"]
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPATH"].split(os.pathsep) == [str(ROOT / "src"), "elsewhere"]
    assert env["SNAPSHOT_TEST_PROBE"] == "kept" and kw["cwd"] == ROOT and kw["check"]
    # its command, run here without writing bytecode, imports every module
    # of the package, not only those the CLI loads
    assert cmd[:2] == [sys.executable, "-c"]
    src = str(ROOT / "src")
    report = "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('staircase_tableaux.')))"
    proc = run([*cmd[:2], cmd[2] + report], env={**os.environ, "PYTHONPATH": src},
               capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = pkgutil.iter_modules([os.path.join(src, "staircase_tableaux")])
    assert proc.stdout == f"{sorted('staircase_tableaux.' + m.name for m in modules)}\n"


def _result(ops_per_s, tail_ms):
    return {"correct": True, "attempted": 100, "failed": 0, "metrics": {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_tail_ms": {"value": tail_ms, "unit": "ms"}}}


END_TO_END = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
              {"name": "op_tail_ms", "unit": "ms", "better": "lower", "bound": 0.24}]


def test_against_summary_of_canned_pairs():
    # four (REV, checkout) pairs; the third ties on ops_per_s and the fourth
    # loses on op_tail_ms, so neither counts as a win there
    lines = [(_run_output(True, 100, 0, old, 0.0), _run_output(True, 100, 0, new, 0.0))
             for old, new in [(10.0, 12.0), (11.0, 13.0), (12.0, 12.0), (13.0, 15.0)]]
    pairs = [(snapshot.last_json(a), snapshot.last_json(b)) for a, b in lines]
    for (old, new), tails in zip(pairs, [(20.0, 15.0), (22.0, 16.0), (24.0, 17.0), (18.0, 19.0)]):
        old["metrics"]["op_tail_ms"] = {"value": tails[0], "unit": "ms"}
        new["metrics"]["op_tail_ms"] = {"value": tails[1], "unit": "ms"}
    summary = snapshot.against(pairs, END_TO_END)
    assert summary["ops_per_s"] == {
        "better": "higher", "bound": 0.24,
        "pairs": [(10.0, 12.0), (11.0, 13.0), (12.0, 12.0), (13.0, 15.0)],
        "rev_median": 11.5, "rev_q1": 10.75, "rev_q3": 12.25, "median": 12.5,
        "wins": 3, "relative_change": pytest.approx(1 / 11.5)}
    tail = summary["op_tail_ms"]
    assert (tail["rev_median"], tail["median"], tail["wins"]) == (21.0, 16.5, 3)
    assert (tail["rev_q1"], tail["rev_q3"]) == (19.5, 22.5)
    assert tail["relative_change"] == pytest.approx(-4.5 / 21)


def test_against_alternates_the_trees_pair_by_pair(monkeypatch, tmp_path):
    # every step that would run a process is stubbed: each seed runs both
    # trees, REV first in odd pairs, and the block pairs each seed's results
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 15, "workloads": [{"name": "draws-small"}], "end_to_end": END_TO_END}))
    monkeypatch.setattr(snapshot, "ROOT", tmp_path)
    monkeypatch.setattr(snapshot, "_git", lambda *args: "f" * 40)
    monkeypatch.setattr(snapshot, "cycle_lengths", lambda: {"draws-small": 4})
    extracted, warmed, order = [], [], []
    monkeypatch.setattr(snapshot, "extract", lambda rev, into: extracted.append((rev, into)))
    monkeypatch.setattr(snapshot, "warm_bytecode_cache",
                        lambda root=tmp_path: warmed.append(root))

    def run(root, workload, seed, seconds):
        checkout = root == tmp_path
        order.append((seed, "checkout" if checkout else "rev"))
        # a canned report where bench/run.py writes it: the checkout's op at
        # cycle position i takes i + 1 ms, REV's twice that
        (root / ".bench_out").mkdir(exist_ok=True)
        durations = [(2 - checkout) * 1e-3 * (i % 4 + 1) for i in range(12)]
        (root / ".bench_out" / f"{workload}-seed{seed}-trace0.json").write_text(
            json.dumps({"workload": workload, "durations_s": durations}))
        return _result(100.0 + seed + 10 * checkout, 20.0)

    class Done:
        returncode, stdout = 0, ""

    monkeypatch.setattr(snapshot, "run", run)
    monkeypatch.setattr(snapshot.subprocess, "run", lambda cmd, **kw: Done())
    assert snapshot.main(["--label", "t", "--against", "HEAD~1"]) == 0
    rev_root = extracted[0][1]
    assert extracted == [("f" * 40, rev_root)] and warmed == [rev_root, tmp_path]
    assert order == [(s, t) for s in range(1, snapshot.PAIRS + 1)
                     for t in (("rev", "checkout") if s % 2 else ("checkout", "rev"))]
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["seeds"] == snapshot.PAIRS
    block = out["against"]
    assert block["rev"] == "f" * 40 and block["bench_differs"] is False
    ops = block["workloads"]["draws-small"]["ops_per_s"]
    assert ops["pairs"] == [[100.0 + s, 110.0 + s] for s in range(1, snapshot.PAIRS + 1)]
    assert ops["wins"] == snapshot.PAIRS
    assert block["workloads"]["draws-small"]["op_tail_ms"]["wins"] == 0   # all ties
    # each tree's op times per cycle position, read off its own reports
    small = out["workloads"]["draws-small"]
    assert small["op_ms_by_position"] == pytest.approx([1.0, 2.0, 3.0, 4.0])
    assert small["rev_op_ms_by_position"] == pytest.approx([2.0, 4.0, 6.0, 8.0])
    # without --against: the checkout alone, seeds 1..SEEDS, and no block
    del order[:]
    assert snapshot.main(["--label", "u"]) == 0
    assert order == [(s, "checkout") for s in range(1, snapshot.SEEDS + 1)]
    out = json.loads((tmp_path / "BENCH_u.json").read_text())
    assert out["seeds"] == snapshot.SEEDS and "against" not in out
    assert "rev_op_ms_by_position" not in out["workloads"]["draws-small"]
    assert len(extracted) == 1 and warmed[2:] == [tmp_path]

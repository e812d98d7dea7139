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

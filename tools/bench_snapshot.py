"""Snapshot the benchmark and the desk acceptance timings into one file.

    python3 tools/bench_snapshot.py --label L

Run from anywhere inside a source checkout.  For every workload that
``BENCHMARK.json`` declares and each seed 1..5 it runs

    python3 bench/run.py --workload W --seed s --seconds S --trace 0

with S the ``run_seconds`` that ``BENCHMARK.json`` fixes, so that every
snapshot can be read against its bounds.  The runs go one at a time, and
it reads the JSON object on the last line of each run's output and the
op durations of the run's report in ``.bench_out/``.  Then it runs
``staircase-tableaux verify --level desk --format json`` from ``src/``.
It writes ``BENCH_<L>.json`` at the root of the checkout: the git SHA, the
Python version, the CPU count, ``correct`` per run, the median and
quartiles of every end-to-end metric per workload, the median op time at
each position of the workload's cycle of op kinds, and the seconds of each
acceptance criterion.  Diff two such files, read against the bounds in
``BENCHMARK.json``, to see what a change moved; the per-position times
show which kind of op moved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = 5


def last_json(stdout: str) -> dict:
    """The JSON object that bench/run.py prints as its last line of output."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(runs: list[tuple[int, dict]], metric_names) -> dict:
    """One workload's runs, each (seed, last-line result): ``correct`` and
    the op counts per run, and each end-to-end metric's unit, median and
    quartiles over the runs."""
    metrics = {}
    for name in metric_names:
        values = [result["metrics"][name]["value"] for _, result in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {"unit": runs[0][1]["metrics"][name]["unit"],
                         "q1": q1, "median": median, "q3": q3}
    return {
        "runs": [{"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                  "failed": result["failed"]} for seed, result in runs],
        "metrics": metrics,
    }


def by_position(reports, cycle: int) -> list[float]:
    """The median op time in ms at each position of a cycle of ``cycle``
    op kinds: over the runs' reports, the median of each run's median raw
    (not speed-scaled) ``durations_s`` at that position."""
    runs = [json.loads(path.read_text())["durations_s"] for path in reports]
    return [1e3 * statistics.median(statistics.median(d[i::cycle]) for d in runs)
            for i in range(cycle)]


def cycle_lengths() -> dict[str, int]:
    """Each workload's cycle length, read off its class in bench/workloads.py."""
    for path in (ROOT / "src", ROOT / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads
    return {c.name: c.cycle for c in vars(workloads).values()
            if isinstance(c, type) and hasattr(c, "cycle")}


def criteria(stdout: str) -> list[dict]:
    """Each criterion of a ``verify --format json`` report: index, name,
    passed and seconds."""
    rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    return [{k: r[k] for k in ("index", "name", "passed", "seconds")} for r in rows]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    # read before the runs, so a checkout without git fails at once
    sha = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    names = [m["name"] for m in spec["end_to_end"]]
    cycles = cycle_lengths()
    workloads = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, SEEDS + 1):
            cmd = [sys.executable, "bench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            runs.append((seed, last_json(proc.stdout)))
            print(f"{w} seed {seed}: correct={runs[-1][1]['correct']}", file=sys.stderr)
        workloads[w] = summarize(runs, names)
        # bench/run.py writes each untraced run's report under this name
        workloads[w]["op_ms_by_position"] = by_position(
            [ROOT / ".bench_out" / f"{w}-seed{seed}-trace0.json" for seed, _ in runs], cycles[w])

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "staircase_tableaux.cli", "verify",
                           "--level", "desk", "--format", "json"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    snapshot = {
        "label": args.label,
        "git_sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seeds": SEEDS,
        "seconds": seconds,
        "workloads": workloads,
        "verify_desk": {"exit_code": proc.returncode, "criteria": criteria(proc.stdout)},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Snapshot the benchmark and the desk acceptance timings into one file.

    python3 tools/bench_snapshot.py --label L [--against REV]

Run from anywhere inside a source checkout.  For every workload that
``BENCHMARK.json`` declares and each seed 1..5 it runs

    python3 bench/run.py --workload W --seed s --seconds S --trace 0

with S the ``run_seconds`` that ``BENCHMARK.json`` fixes, so that every
snapshot can be read against its bounds.  The runs go one at a time, and
it reads the JSON object on the last line of each run's output and the
op durations of the run's report in ``.bench_out/``.  Then it runs
``staircase-tableaux verify --level desk --format json`` from ``src/``.
Before the runs it imports every module of the package once in a child
without ``PYTHONDONTWRITEBYTECODE``, so that every run's set-up reads a
fresh bytecode cache (``src/**/__pycache__``, git-ignored) and ``setup_s``
does not depend on what an earlier session left there.
It writes ``BENCH_<L>.json`` at the root of the checkout: the git SHA, the
Python version, the CPU count, ``"bytecode_cache": "warmed"``, ``correct``
per run, the median and
quartiles of every end-to-end metric per workload, the median op time at
each position of the workload's cycle of op kinds, and the seconds of each
acceptance criterion.  The per-position times show which kind of op
moved.

With ``--against REV`` it extracts REV with ``git archive`` into a
temporary directory, warms that tree's bytecode cache too, and runs every
workload on both trees for each seed 1..10, switching which tree goes first
from one pair to the next, so that both sides of a pair see the same host.
The file then holds an ``against`` block: REV's SHA, whether ``bench/`` or
``BENCHMARK.json`` differ between the trees, and per workload and
end-to-end metric the (REV, checkout) value of every pair, each tree's
median, REV's quartiles, the number of pairs the checkout wins (ties count
for neither) and the relative change of the medians beside the metric's
bound.  Each workload's ``rev_op_ms_by_position`` holds REV's median op
time per cycle position beside the checkout's ``op_ms_by_position``, read
off REV's reports before its tree is deleted.  The rest of the file
describes the checkout's runs.  Two files written in two sessions do not
compare this way: the host's speed moves between them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = 5
PAIRS = 10   # seeds of an --against run: a gain claim needs ten pairs


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


def against(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """One workload's pairs, each (REV's, the checkout's) last-line result,
    summarised per end-to-end metric of ``BENCHMARK.json``: the pairs'
    values, each tree's median, REV's quartiles, the checkout's wins and
    the medians' relative change beside the metric's bound."""
    out = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        values = [(old["metrics"][name]["value"], new["metrics"][name]["value"])
                  for old, new in pairs]
        q1, old_median, q3 = statistics.quantiles([v for v, _ in values], n=4,
                                                  method="inclusive")
        new_median = statistics.median(v for _, v in values)
        out[name] = {
            "better": m["better"], "bound": m["bound"], "pairs": values,
            "rev_median": old_median, "rev_q1": q1, "rev_q3": q3, "median": new_median,
            "wins": sum(new < old if lower else new > old for old, new in values),
            "relative_change": (new_median - old_median) / old_median if old_median else None,
        }
    return out


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


def src_env(root: Path = ROOT) -> dict[str, str]:
    """This environment with the tree's ``src/`` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}


# every module the package holds; a module loads only what it imports, so
# naming each one is what compiles them all
WARM_UP = ("import importlib, pkgutil, staircase_tableaux as p\n"
           "for m in pkgutil.iter_modules(p.__path__):\n"
           "    importlib.import_module(f'staircase_tableaux.{m.name}')")


def warm_bytecode_cache(root: Path = ROOT) -> None:
    """Import every module of the tree's package once in a child that may
    write bytecode, so the runs' children all read a fresh cache."""
    env = {k: v for k, v in src_env(root).items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-c", WARM_UP], cwd=root, env=env, check=True)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """The committed files of ``rev``, written under ``into`` by git archive."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)


def run(root: Path, workload: str, seed: int, seconds) -> dict:
    """One untraced bench/run.py run in the tree at ``root``: its last line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} failed\n{proc.stdout}{proc.stderr}")
    return last_json(proc.stdout)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    p.add_argument("--against", metavar="REV",
                   help="alternate every run with one of REV's committed tree")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    # read before the runs, so a checkout without git fails at once
    sha = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    rev = _git("rev-parse", "--verify", f"{args.against}^{{commit}}") if args.against else None
    names = [m["name"] for m in spec["end_to_end"]]
    cycles = cycle_lengths()
    with tempfile.TemporaryDirectory() as tmp:
        old_root = Path(tmp)
        if rev:
            extract(rev, old_root)
            warm_bytecode_cache(old_root)
        warm_bytecode_cache()
        workloads, pairs = {}, {}
        for w in (w["name"] for w in spec["workloads"]):
            runs, pairs[w] = [], []
            for seed in range(1, (PAIRS if rev else SEEDS) + 1):
                # REV first in odd pairs, the checkout first in even ones
                trees = [ROOT] if rev is None else [old_root, ROOT][::1 if seed % 2 else -1]
                try:
                    results = {root: run(root, w, seed, seconds) for root in trees}
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 1
                runs.append((seed, results[ROOT]))
                if rev:
                    pairs[w].append((results[old_root], results[ROOT]))
                print(f"{w} seed {seed}: correct={results[ROOT]['correct']}", file=sys.stderr)
            workloads[w] = summarize(runs, names)
            # bench/run.py writes each untraced run's report under this name
            reports = [Path(".bench_out", f"{w}-seed{seed}-trace0.json") for seed, _ in runs]
            workloads[w]["op_ms_by_position"] = by_position(
                [ROOT / r for r in reports], cycles[w])
            if rev:
                workloads[w]["rev_op_ms_by_position"] = by_position(
                    [old_root / r for r in reports], cycles[w])

    proc = subprocess.run([sys.executable, "-m", "staircase_tableaux.cli", "verify",
                           "--level", "desk", "--format", "json"],
                          cwd=ROOT, env=src_env(), capture_output=True, text=True)
    snapshot = {
        "label": args.label,
        "git_sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "bytecode_cache": "warmed",
        "seeds": PAIRS if rev else SEEDS,
        "seconds": seconds,
        "workloads": workloads,
        "verify_desk": {"exit_code": proc.returncode, "criteria": criteria(proc.stdout)},
    }
    if rev:
        differs = subprocess.run(["git", "diff", "--quiet", rev, "--", "bench", "BENCHMARK.json"],
                                 cwd=ROOT).returncode != 0
        snapshot["against"] = {"rev": rev, "bench_differs": differs,
                               "workloads": {w: against(pr, spec["end_to_end"])
                                             for w, pr in pairs.items()}}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

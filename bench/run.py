"""Benchmark of the staircase_tableaux package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One process runs one workload as a closed loop (one
client, one op at a time) for S seconds of timed ops, gates every op's
output, and prints one JSON object as its last line of output.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from spans recorded around its own calls into the
package.  A full report (and, when traced, the spans) goes to
``.bench_out/``.  ``--setup-only`` sets the workload up and exits; the
untraced run times three such children to measure set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ok_ratio": "ratio", "peak_rss_mb": "MB"}
SPAN_FIELDS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms",
               "failed": "count"}
CLI_FIELDS = ("calls", "busy_s", "p50_ms")


def per_layer_units(functions, cli_commands, counts) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{fn}.{k}": u for fn in functions for k, u in SPAN_FIELDS.items()}
    units.update({f"cli.{c}.{k}": SPAN_FIELDS[k] for c in cli_commands for k in CLI_FIELDS})
    units["cli.failed"] = "count"
    units.update({c: "bits" if c.endswith("_max") else "count" for c in counts})
    units["cli.child_peak_rss_mb"] = "MB"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "staircase_tableaux" / "__init__.py"
    if not package.is_file():
        print(f"error: no package source at {package}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import staircase_tableaux
    import harness
    import workloads

    if Path(staircase_tableaux.__file__).resolve() != package.resolve():
        print(f"error: imported {staircase_tableaux.__file__}, not {package}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.make(args.workload, args.seed, SRC)
        return 0

    setup_raw, setup_s = [], []
    if not args.trace:
        try:
            setup_raw, setup_s = harness.timed_setup(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
                SETUP_REPEATS)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    tracer = harness.Tracer() if args.trace else None
    wl = workloads.make(args.workload, args.seed, SRC, tracer)
    res = harness.closed_loop(wl, args.seconds, tracer)

    attempted, failed = res.attempted, len(res.failed)
    scaled = harness.speed_scaled(res.durations, res.probes)
    tail_pct, tail = harness.tail_percentile(scaled)
    if args.workload == workloads.CliCold.name:
        peak_rss = wl.peak_rss_mb
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = {}
    if args.trace:
        summary = tracer.summary()
        units = per_layer_units(workloads.FUNCTIONS, workloads.CLI_COMMANDS, workloads.COUNTS)
        values = {name: 0 for name in units}
        for name, row in summary.items():
            for key, value in row.items():
                if f"{name}.{key}" in values:
                    values[f"{name}.{key}"] = value
        values.update(res.counts)
        if args.workload == workloads.CliCold.name:
            values["cli.failed"] = failed
            values["cli.child_peak_rss_mb"] = peak_rss
        values["trace.overhead_s"] = tracer.overhead_s()
    else:
        units = END_TO_END
        values = {"setup_s": harness.median(setup_s),
                  "ops_per_s": harness.windowed_rate(scaled, wl.cycle),
                  "op_p50_ms": 1e3 * harness.median(scaled),
                  "op_tail_ms": 1e3 * tail,
                  "ok_ratio": 1 - failed / attempted,
                  "peak_rss_mb": peak_rss}
        raw = {"setup_s": harness.median(setup_raw),
               "ops_per_s": harness.windowed_rate(res.durations, wl.cycle),
               "op_p50_ms": 1e3 * harness.median(res.durations),
               "op_tail_ms": 1e3 * harness.tail_percentile(res.durations)[1]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted, "failures": res.failed,
              "op_tail_percentile": tail_pct, "setup_samples_s": setup_s,
              "setup_samples_raw_s": setup_raw, "counts": dict(res.counts),
              "metrics": metrics, "unscaled": raw, "durations_s": res.durations,
              "probes_s": res.probes}
    if tracer is not None:
        report["spans"] = tracer.dump()
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, default=str))

    for index, reason in sorted(res.failed.items())[:5]:
        print(f"op {index} failed: {reason}")
    print(f"{args.workload}: {attempted} ops in {res.busy_s:.2f} s timed, {failed} failed "
          f"(failed_ratio {failed / attempted}); op_tail_ms is p{tail_pct:.2f}; report {path}")
    if raw:
        print("  unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

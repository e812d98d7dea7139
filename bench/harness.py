"""Workload-independent parts of the benchmark: the closed loop, the speed
probe, the tail statistic, in-memory span tracing and child-process helpers.

Nothing here imports the package under test, so the self-tests can drive
the loop with stand-in workloads.
"""

from __future__ import annotations

import math
import os
import selectors
import subprocess
import time
from collections import Counter
from dataclasses import dataclass, field
from statistics import median

# A percentile counts as the tail only if at least this many ops lie beyond it.
TAIL_BEYOND = 10

# Scaled times are expressed at the machine speed at which one probe()
# takes this long.  On one vCPU of a 2.1 GHz Intel Xeon under Python 3.11
# a probe took 1.0 to 1.4 ms.
PROBE_REFERENCE_S = 1.0e-3

# An op is scaled by the median of this many probes before it and as many after.
PROBE_REACH = 2

# A set-up child is scaled by the median of this many probes before it and as
# many after.
SETUP_PROBES = 9

# ops_per_s is the median rate over this many slices of the run.
RATE_WINDOWS = 8

# trace.overhead_s: repetitions of, and calls per repetition in, the no-op timing.
OVERHEAD_REPS = 5
OVERHEAD_CALLS = 2000

# A child process still running after this many seconds is killed.
CHILD_TIMEOUT_S = 120.0


def probe() -> float:
    """Seconds taken by a fixed piece of integer work that does not touch
    the package: 64-bit mixing in the interpreter and big-integer products
    and gcds.  Its time tracks how fast the machine runs Python right now,
    which on a shared host swings by a factor of up to two within seconds."""
    t0 = time.perf_counter()
    x, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    for _ in range(2000):
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    big = 1
    for i in range(1, 700):
        big = big * (2 * i + 1) + (x >> i % 64)
    for i in range(1, 60):
        x += math.gcd(big, big // (i + 2) + i)
    return time.perf_counter() - t0


def speed_scaled(durations: list[float], probes: list[float]) -> list[float]:
    """Op durations expressed at reference speed.  A probe runs just before
    every op, so op i lies between probes i and i+1; its time is multiplied
    by PROBE_REFERENCE_S over the median of the PROBE_REACH probes before it
    and the PROBE_REACH probes after it."""
    reach = PROBE_REACH
    return [d * PROBE_REFERENCE_S / median(probes[max(0, i + 1 - reach):i + 1 + reach])
            for i, d in enumerate(durations)]


def tail_percentile(durations: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    TAIL_BEYOND ops beyond it: the (TAIL_BEYOND+1)-th slowest op, whose
    rank r = N - TAIL_BEYOND gives the percentile 100 r / N.  With too few
    ops for that, the slowest op is returned as percentile 100."""
    if not durations:
        raise ValueError("no durations")
    ordered = sorted(durations)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return 100.0, ordered[-1]
    return 100.0 * rank / n, ordered[rank - 1]


def windowed_rate(durations: list[float], cycle: int) -> float:
    """Ops per second of timed work, as the median over RATE_WINDOWS
    consecutive slices of the run, each a whole number of interleave
    cycles, so that a transient stall in one slice does not move it."""
    cycles = len(durations) // cycle
    windows = max(1, min(RATE_WINDOWS, cycles))
    rates = []
    for w in range(windows):
        lo, hi = cycle * (cycles * w // windows), cycle * (cycles * (w + 1) // windows)
        rates.append((hi - lo) / sum(durations[lo:hi]))
    return median(rates)


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans recorded in memory around the benchmark's own calls into the
    package.  A span is [name, start, end, parent index, op index, failed];
    spans opened while another is open become its children, so self time
    is a span's duration minus the time its children cover."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s, self_s, p50_ms, failed."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _failed in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {}
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent, _op, failed) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "p50_ms": 0.0, "failed": 0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["failed"] += failed
            durations.setdefault(name, []).append(end - start)
        for name, row in out.items():
            row["p50_ms"] = 1e3 * median(durations[name])
        return out

    def overhead_s(self) -> float:
        """Traced minus untraced wall time of the recorded spans, estimated
        as (number of spans) x (median extra cost of one wrapped call over
        a direct call), measured on a no-op with a throwaway tracer."""

        def noop():
            return None

        throwaway = Tracer()
        wrapped = throwaway.wrap("noop", noop)
        extra = []
        for _ in range(OVERHEAD_REPS):
            t0 = time.perf_counter()
            for _ in range(OVERHEAD_CALLS):
                noop()
            t1 = time.perf_counter()
            for _ in range(OVERHEAD_CALLS):
                wrapped()
            t2 = time.perf_counter()
            throwaway.spans.clear()
            extra.append(((t2 - t1) - (t1 - t0)) / OVERHEAD_CALLS)
        return len(self.spans) * median(extra)

    def dump(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "op": op, "failed": failed}
                for name, start, end, parent, op, failed in self.spans]


def bind(functions: dict, tracer: Tracer | None) -> dict:
    """The callables a workload uses, by layer name: the functions
    themselves when untraced, span-recording wrappers when traced."""
    if tracer is None:
        return dict(functions)
    return {name: tracer.wrap(name, fn) for name, fn in functions.items()}


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class LoopResult:
    durations: list[float] = field(default_factory=list)  # one per attempted op
    probes: list[float] = field(default_factory=list)     # probe() just before each op
    failed: dict[int, str] = field(default_factory=dict)  # op index -> reason
    counts: Counter = field(default_factory=Counter)      # over the first cycle
    busy_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.durations)


def add_counts(total: Counter, counts: dict) -> None:
    """Sum work counts; a count named *_max keeps the maximum instead."""
    for key, value in counts.items():
        total[key] = max(total[key], value) if key.endswith("_max") else total[key] + value


def closed_loop(workload, seconds: float, tracer: Tracer | None = None) -> LoopResult:
    """One client, one op at a time, until the timed ops add up to
    ``seconds`` and the current interleave cycle is complete.

    Only ``workload.run`` is timed.  ``workload.spec`` (input derivation)
    and ``workload.check`` (the correctness gate) run outside the timed
    region.  An op fails if run or check raises; it is counted, never
    retried.  Work counts are summed over the first cycle only, so they
    repeat exactly for a given seed however long the run is."""
    res = LoopResult()
    cycle = workload.cycle
    i = 0
    while res.busy_s < seconds or i % cycle or i < cycle:
        if tracer is not None:
            tracer.op = i
        spec = workload.spec(i)
        res.probes.append(probe())
        t0 = time.perf_counter()
        try:
            out = workload.run(spec)
        except Exception as exc:  # the loop must go on; the op is counted as failed
            res.durations.append(time.perf_counter() - t0)
            res.failed[i] = f"run raised {exc!r}"
        else:
            res.durations.append(time.perf_counter() - t0)
            try:
                counts = workload.check(spec, out)
            except Exception as exc:  # a gate failure of any kind fails the op
                res.failed[i] = f"check failed: {exc!r}"
            else:
                if i < cycle:
                    add_counts(res.counts, counts)
        res.busy_s += res.durations[-1]
        i += 1
    if tracer is not None:
        tracer.op = -1
    for index, reason in workload.final_failures().items():
        res.failed.setdefault(index, reason)
    return res


# ---------------------------------------------------------------------------
# child processes


def timed_setup(argv: list[str], repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of ``repeats`` set-up children run one after another, raw
    and scaled to reference speed by the median of SETUP_PROBES probes run
    just before and just after each child.  Raises if a child fails."""
    raw, scaled = [], []
    for _ in range(repeats):
        before = [probe() for _ in range(SETUP_PROBES)]
        child = run_child(argv, env=None)
        after = [probe() for _ in range(SETUP_PROBES)]
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr.decode()[-2000:]}")
        raw.append(child.wall_s)
        scaled.append(child.wall_s * PROBE_REFERENCE_S / median(before + after))
    return raw, scaled


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_mb: float


def run_child(argv: list[str], env: dict | None) -> ChildResult:
    """Run one child to completion and reap it with wait4, which gives that
    child's own peak RSS.  Both pipes are drained together so neither can
    fill up; a child past CHILD_TIMEOUT_S is killed and reported as failed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + CHILD_TIMEOUT_S
    killed = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(timeout=max(left, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(-9 if killed else proc.returncode, b"".join(chunks[proc.stdout]),
                       b"".join(chunks[proc.stderr]), wall, usage.ru_maxrss / 1024)

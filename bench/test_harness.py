"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench -p "test_*.py"

Run from the root of a source checkout; the workloads import the package
from ``src/``.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_eleventh_slowest_of_a_hundred_is_p90(self):
        self.assertEqual(harness.tail_percentile([float(i) for i in range(1, 101)]),
                         (90.0, 90.0))

    def test_exactly_ten_ops_lie_beyond_the_tail(self):
        rnd = random.Random(1)
        for n in (11, 37, 250):
            durations = [rnd.random() for _ in range(n)]
            pct, value = harness.tail_percentile(durations)
            self.assertEqual(sum(d > value for d in durations), harness.TAIL_BEYOND)
            self.assertAlmostEqual(pct, 100.0 * (n - harness.TAIL_BEYOND) / n)

    def test_too_few_ops_reports_the_slowest_as_p100(self):
        self.assertEqual(harness.tail_percentile([3.0, 1.0, 2.0]), (100.0, 3.0))


class StandIn:
    """A workload whose op 3 raises and whose op 5 fails its gate."""

    cycle = 8

    def spec(self, i):
        return i

    def run(self, i):
        if i == 3:
            raise RuntimeError("boom")
        return i

    def check(self, i, out):
        workloads.gate(out != 5, "wrong output")
        return {"work": 1, "size_max": out}

    def final_failures(self):
        return {7: "run-level gate"}


class ClosedLoopTest(unittest.TestCase):
    def test_failing_ops_are_counted_not_dropped(self):
        res = harness.closed_loop(StandIn(), seconds=0)
        self.assertEqual(res.attempted, 8)          # one whole cycle
        self.assertEqual(sorted(res.failed), [3, 5, 7])
        self.assertEqual(res.counts["work"], 6)     # ops 3 and 5 produced no counts
        self.assertEqual(res.counts["size_max"], 7)

    def test_speed_scaling_uses_the_probes_around_each_op(self):
        ref = harness.PROBE_REFERENCE_S
        self.assertEqual(harness.speed_scaled([0.5, 0.5], [ref, ref]), [0.5, 0.5])
        # op i divides by the median of probes i-1, i (before it) and
        # i+1, i+2 (after it), as far as they exist
        scaled = harness.speed_scaled([1.0] * 4, [ref, 2 * ref, 2 * ref, 4 * ref])
        self.assertEqual(scaled, [0.5, 0.5, 0.5, 1 / 3])

    def test_windowed_rate_is_a_median_over_whole_cycles(self):
        # one cycle of two ops per window: half the windows run at 2 ops/s,
        # a quarter at 4 ops/s and the last quarter stalls
        quarter = 2 * harness.RATE_WINDOWS // 4
        durations = [0.5] * 2 * quarter + [0.25] * quarter + [10.0] * quarter
        self.assertEqual(harness.windowed_rate(durations, cycle=2), 2.0)


class SeedTest(unittest.TestCase):
    """Inputs come from the seed alone: the same seed repeats them (and the
    work counts of the first cycle), another seed changes them but not
    their sizes."""

    CYCLES = 2

    @staticmethod
    def shape(name, spec):
        """The part of an op's input that fixes its size."""
        if name == "draws-small":
            return spec[:2]
        if name == "draws-large":
            return spec[0]
        if name == "exact-laws":
            return spec[:2]
        argv = spec[1]   # the command and its option names
        return spec[0], argv[1::2] if argv[0] != "asep" else argv[2::2]

    def specs(self, name, seed):
        wl = workloads.make(name, seed, SRC)
        return [wl.spec(i) for i in range(self.CYCLES * wl.cycle)]

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.specs(name, 11), self.specs(name, 11))

    def test_other_seed_other_inputs_of_the_same_sizes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, second = self.specs(name, 11), self.specs(name, 12)
                self.assertNotEqual(first, second)
                self.assertEqual([self.shape(name, s) for s in first],
                                 [self.shape(name, s) for s in second])

    def test_same_seed_same_counts(self):
        for name in ("draws-small", "exact-laws"):
            with self.subTest(workload=name):
                runs = [harness.closed_loop(workloads.make(name, 5, SRC), seconds=0)
                        for _ in range(2)]
                self.assertEqual([r.failed for r in runs], [{}, {}])
                self.assertEqual(runs[0].counts, runs[1].counts)
                self.assertTrue(runs[0].counts)


class ExactLawsInputTest(unittest.TestCase):
    """Far more ops than a run holds today: inputs stay distinct, every kind
    meets both edges, and p, q leave 1..9 only once its inputs run out."""

    OPS = 6000

    def test_inputs_never_run_out(self):
        wl = workloads.make("exact-laws", 3, SRC)
        specs = [wl.spec(i) for i in range(self.OPS)]
        self.assertEqual(len({spec[1:] for spec in specs}), self.OPS)
        for kind, _n in workloads.ExactLaws.KINDS:
            with self.subTest(kind=kind):
                ab = [(a, b) for k, _, a, b in specs if k == kind]
                self.assertGreater(sum(a == 0 for a, _ in ab), 50)
                self.assertGreater(sum(b == 0 for _, b in ab), 50)
        first = [x for _, _, a, b in specs[:1000] for x in (a, b)]
        self.assertLessEqual(max(max(x.numerator, x.denominator) for x in first), 9)


if __name__ == "__main__":
    unittest.main()

"""The benchmark's four workloads.

Each workload is a closed loop over an infinite, deterministic sequence of
ops.  ``spec(i)`` derives the inputs of op i from the run seed (outside
the timed region), ``run(spec)`` is the timed call into the package, and
``check(spec, out)`` is the op's correctness gate; it raises on a wrong
output and otherwise returns work counts derived from the output.
``final_failures`` applies gates that need the whole run.  Constructing a
workload is its set-up: oracle laws and warm-up happen there.

Why each workload exists and how its op is defined: see NOTES.md.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

from staircase_tableaux import (asep, distributions, enumeration, eulerian_poly, rng,
                                sampling, tableau)
from staircase_tableaux.sampling import INF, Params
from staircase_tableaux.tableau import Symbol

import harness

# Every package function the benchmark times or checks with, by layer name.
# A traced run wraps each in a span; an untraced run calls it directly.
FUNCTIONS = {
    "sampling.sample_batch": sampling.sample_batch,
    "sampling.sample_ab": sampling.sample_ab,
    "sampling.sample_four": sampling.sample_four,
    "sampling.urn_sample": sampling.urn_sample,
    "rng.derive_seed": rng.derive_seed,
    "enumeration.law_ab": enumeration.law_ab,
    "distributions.chi_square_gof": distributions.chi_square_gof,
    "distributions.dist_A": distributions.dist_A,
    "distributions.DiscreteDist.mean": distributions.DiscreteDist.mean,
    "distributions.DiscreteDist.variance": distributions.DiscreteDist.variance,
    "eulerian_poly.v_triangle": eulerian_poly.v_triangle,
    "distributions.clt_diagnostics": distributions.clt_diagnostics,
    "distributions.bernoulli_decomposition": distributions.bernoulli_decomposition,
    "tableau.validate": tableau.validate,
    "tableau.counts": tableau.counts,
    "distributions.moments_A": distributions.moments_A,
    "eulerian_poly.rising_factorial": eulerian_poly.rising_factorial,
}

# The cli-cold commands, as their span names (cli.<name>).
CLI_COMMANDS = ["sample", "urn", "dist-a", "moments-a", "decompose", "triangle",
                "enumerate", "pairs-n", "asep-z-full", "clt"]

# Work counts derived from outputs over the first interleave cycle.
COUNTS = ["sampling.symbols_placed", "sampling.urn_draws", "eulerian_poly.entry_bits_max",
          "distributions.roots_certified", "cli.stdout_bytes"]


class GateError(Exception):
    """An op's output failed its correctness gate."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def _ratio(rnd: random.Random, hi: int = 9) -> F:
    """p/q with p, q drawn uniformly from 1..hi."""
    return F(rnd.randint(1, hi), rnd.randint(1, hi))


# ---------------------------------------------------------------------------
# draws-small


class Pooled:
    """Exact law prepared for a chi-square test of blocks of ``total`` draws:
    outcomes are pooled in order of decreasing probability until every
    pool expects at least MIN_EXPECTED draws, which keeps the chi-square
    approximation sound far into its tail."""

    MIN_EXPECTED = 20

    def __init__(self, law: dict, total: int):
        gate(sum(law.values()) == 1, "oracle law does not sum to 1")
        self.group: dict = {}
        self.expected: dict[int, F] = {}
        g, mass = 0, F(0)
        for key, p in sorted(law.items(), key=lambda kv: (-kv[1], kv[0])):
            if p == 0:
                continue
            if mass * total >= self.MIN_EXPECTED:
                g, mass = g + 1, F(0)
            self.group[key] = g
            mass += p
            self.expected[g] = self.expected.get(g, F(0)) + p
        if mass * total < self.MIN_EXPECTED and g > 0:
            for key, grp in self.group.items():
                if grp == g:
                    self.group[key] = g - 1
            self.expected[g - 1] += self.expected.pop(g)

    def observed(self, counts: Counter) -> Counter:
        """Observed counts per pool; an outcome outside the law's support
        keeps its own key, which the chi-square turns into a failure."""
        out: Counter = Counter()
        for key, c in counts.items():
            out[self.group.get(key, ("outside", key))] += c
        return out


class DrawsSmall:
    """Blocks of exact draws at n=4 (and the rho tie at n=3), each block
    checked by chi-square against the enumeration oracle."""

    name = "draws-small"
    N = 4
    BLOCK = 1000
    # tableau-side weights (alpha, beta); the last is an infinite-weight limit
    POINTS = [(F(1), F(1)), (F(2), F(1)), (F(2), F(2)), (F(1, 3), F(5)), (INF, F(1))]
    FOUR = (F(2), F(3, 7), F(1, 3), F(5))          # (alpha, beta, gamma, delta)
    TIE_N, TIE_RHO = 3, F(1, 4)
    # per-block significance: with up to 10^4 blocks per run a correct sampler
    # fails a run with probability below 10^-4
    SIGNIFICANCE = 1e-8
    cycle = 8

    def __init__(self, seed: int, fns: dict):
        self.seed, self.f = seed, fns
        self.params = [Params.from_alpha_beta(al, be) for al, be in self.POINTS]
        self.tie_params = Params(0, 0, self.TIE_RHO)
        laws = [fns["enumeration.law_ab"](self.N, al, be) for al, be in self.POINTS]
        self.ab_laws = [Pooled({t.cells: p for t, p in law.items()}, self.BLOCK)
                        for law in laws]
        self.urn_laws = []
        for law in laws[:4]:
            marginal: dict[int, F] = {}
            for t, p in law.items():
                k = fns["tableau.counts"](t).diagonal_alpha
                marginal[k] = marginal.get(k, F(0)) + p
            self.urn_laws.append(Pooled(marginal, self.BLOCK))
        # four-symbol law straight from the enumeration: P(t) ~ weight(t),
        # which depends on t only through its symbol counts
        exponents = {t.cells: tableau.weight_exponents(t)
                     for t in enumeration.enumerate_four(self.N)}
        weights = {e: math.prod(x ** k for x, k in zip(self.FOUR, e))
                   for e in set(exponents.values())}
        z = sum(weights[e] for e in exponents.values())
        self.four_law = Pooled({c: weights[e] / z for c, e in exponents.items()}, self.BLOCK)
        # a = b = 0: uniform over the maximal tableaux, reweighted by rho or
        # 1 - rho according to the symbol in box (1, 1)
        maximal = fns["enumeration.law_ab"](self.TIE_N, INF, INF)
        self.tie_law = Pooled({
            t.cells: p * 2 * (self.TIE_RHO if t.symbol_at(1, 1) is Symbol.ALPHA
                              else 1 - self.TIE_RHO)
            for t, p in maximal.items()}, self.BLOCK)
        # the first chi-square call imports scipy; pay for it here
        fns["distributions.chi_square_gof"]({0: F(1, 2), 1: F(1, 2)}, {0: 5, 1: 5})
        for i in range(self.cycle):  # warm-up, untraced and with small blocks
            kind, arg = self._kind(i)
            self._draw(kind, arg, 1, 20, raw=True)

    def _kind(self, i: int) -> tuple[str, int]:
        pos, c = i % self.cycle, i // self.cycle
        if pos < len(self.POINTS):
            return "batch", pos
        return [("four", 0), ("urn", c % 4), ("tie", 0)][pos - len(self.POINTS)]

    def spec(self, i: int):
        kind, arg = self._kind(i)
        return kind, arg, self.f["rng.derive_seed"](self.seed, i)

    def run(self, spec):
        kind, arg, seed = spec
        return self._draw(kind, arg, seed, self.BLOCK)

    def _draw(self, kind: str, arg: int, seed: int, block: int, raw: bool = False):
        f = FUNCTIONS if raw else self.f
        derive = rng.derive_seed
        if kind == "batch":
            return f["sampling.sample_batch"](self.N, self.params[arg], seed, block)
        if kind == "tie":
            return f["sampling.sample_batch"](self.TIE_N, self.tie_params, seed, block)
        if kind == "four":
            draw = f["sampling.sample_four"]
            return Counter(draw(self.N, *self.FOUR, derive(seed, i)).cells for i in range(block))
        al, be = self.POINTS[arg]
        urn = f["sampling.urn_sample"]
        return [urn(self.N, 1 / al, 1 / be, derive(seed, i)) for i in range(block)]

    def check(self, spec, out) -> dict:
        kind, arg, _seed = spec
        if kind == "urn":
            for res in out:
                gate(len(res.path) == self.N and res.path[-1] == res.added_white
                     and res.added_black == self.N - res.added_white, "inconsistent urn path")
            observed = Counter(res.added_white for res in out)
            self._chi2(self.urn_laws[arg], observed)
            return {"sampling.urn_draws": self.N * len(out)}
        if kind == "four":
            observed, n, law = out, self.N, self.four_law
        else:
            gate(out.count == self.BLOCK, f"batch holds {out.count} draws")
            observed = out.tableau_counts
            n = self.TIE_N if kind == "tie" else self.N
            law = self.tie_law if kind == "tie" else self.ab_laws[arg]
        for cells in observed:
            gate(not self.f["tableau.validate"](tableau.Tableau(n, cells)),
                 f"invalid tableau {cells}")
        self._chi2(law, observed)
        return {"sampling.symbols_placed": sum(len(c) * k for c, k in observed.items())}

    def _chi2(self, law: Pooled, observed: Counter) -> None:
        res = self.f["distributions.chi_square_gof"](law.expected, law.observed(observed))
        gate(res.passes(self.SIGNIFICANCE), f"chi-square rejects the block: {res}")

    def final_failures(self) -> dict[int, str]:
        return {}


# ---------------------------------------------------------------------------
# draws-large


class DrawsLarge:
    """Single large exact draws: sample_ab and sample_four at n=400 and
    Friedman-urn paths at n=2*10^4, checked per draw for validity and per
    run against the exact mean of the diagonal alpha count."""

    name = "draws-large"
    N = 400
    URN_N = 20_000
    POINTS = [(F(1), F(1)), (F(3), F(1, 5))]       # (alpha, beta)
    FOUR = (F(2), F(3, 7), F(1, 3), F(5))           # (alpha, beta, gamma, delta)
    Z_LIMIT = 5
    # op kinds by position in the cycle: (kind, point)
    CYCLE = [("ab", 0), ("ab", 1), ("four", 0), ("urn", 0),
             ("ab", 0), ("ab", 1), ("four", 0), ("urn", 1)]
    cycle = len(CYCLE)

    def __init__(self, seed: int, fns: dict):
        self.seed, self.f = seed, fns
        self.params = [Params.from_alpha_beta(al, be) for al, be in self.POINTS]
        al, be, ga, de = self.FOUR
        inverse = [(1 / al_, 1 / be_) for al_, be_ in self.POINTS]
        # inverse weights (a, b) whose law of A each group's diagonal count follows
        self.group_ab = {("ab", 0): inverse[0], ("ab", 1): inverse[1],
                         ("urn", 0): inverse[0], ("urn", 1): inverse[1],
                         ("four", 0): (1 / (al + ga), 1 / (be + de))}
        self.diag: dict[tuple, list[tuple[int, int]]] = {g: [] for g in self.group_ab}
        sampling.sample_ab(20, self.params[0], 0)  # warm-up
        sampling.urn_sample(200, 1, 1, 0)

    def spec(self, i: int):
        return self.CYCLE[i % self.cycle], self.f["rng.derive_seed"](self.seed, i), i

    def run(self, spec):
        (kind, point), seed, _i = spec
        if kind == "ab":
            return self.f["sampling.sample_ab"](self.N, self.params[point], seed)
        if kind == "four":
            return self.f["sampling.sample_four"](self.N, *self.FOUR, seed)
        a, b = self.group_ab[("urn", point)]
        return self.f["sampling.urn_sample"](self.URN_N, a, b, seed)

    def check(self, spec, out) -> dict:
        group, _seed, i = spec
        if group[0] == "urn":
            path = out.path
            gate(len(path) == self.URN_N and path[-1] == out.added_white
                 and out.added_black == self.URN_N - out.added_white, "inconsistent urn path")
            gate(all(0 <= y - x <= 1 for x, y in zip((0,) + path, path)), "urn path jumps")
            self.diag[group].append((i, out.added_white))
            return {"sampling.urn_draws": self.URN_N}
        gate(out.n == self.N, "wrong size")
        gate(not self.f["tableau.validate"](out), "invalid tableau")
        c = self.f["tableau.counts"](out)
        if group[0] == "four":
            k = sum(s in (Symbol.ALPHA, Symbol.GAMMA) for s in out.diagonal())
        else:
            k = c.diagonal_alpha
        self.diag[group].append((i, k))
        return {"sampling.symbols_placed": c.total}

    def final_failures(self) -> dict[int, str]:
        """Each group's mean diagonal alpha count must lie within Z_LIMIT
        standard errors of the exact mean; otherwise its ops fail."""
        failed = {}
        for group, rows in self.diag.items():
            if not rows:
                continue
            n = self.URN_N if group[0] == "urn" else self.N
            mean, var = self.f["distributions.moments_A"](n, *self.group_ab[group])
            observed = F(sum(k for _, k in rows), len(rows))
            z = float(observed - mean) / math.sqrt(float(var) / len(rows))
            if abs(z) > self.Z_LIMIT:
                for i, _ in rows:
                    failed[i] = f"{group}: mean diagonal count off by {z:.2f} standard errors"
        return failed


# ---------------------------------------------------------------------------
# exact-laws


def urn_law(n: int, a: F, b: F) -> list[F]:
    """Law of A by the Friedman-urn recursion: an oracle independent of the
    triangle code that dist_A and the decomposition are built on."""
    probs = [F(1)]
    for m in range(n):
        den = m + a + b
        nxt = [F(0)] * (m + 2)
        for k, p in enumerate(probs):
            nxt[k] += p * (a + k) / den
            nxt[k + 1] += p * (m - k + b) / den
        probs = nxt
    return probs


class ExactLaws:
    """Exact laws at distinct non-dyadic (a, b): the law of A with its
    moments, CLT diagnostics, the triangle, and the Bernoulli decomposition."""

    name = "exact-laws"
    KINDS = [("dist", 300), ("clt", 400), ("triangle", 175), ("decompose", 16)]
    # Every 9th op sits on an a = 0 or b = 0 edge.  As 9 = 1 mod cycle, edge
    # op m has kind m mod cycle, and a kind's successive edge ops alternate
    # between the two edges.
    EDGE_EVERY = 9
    # Draws of an already seen (n, a, b) before p, q may exceed 9; each further
    # WIDEN_AFTER draws widens their range by one, so a long run never runs
    # out of unseen inputs.
    WIDEN_AFTER = 100
    cycle = len(KINDS)

    def __init__(self, seed: int, fns: dict):
        self.seed, self.f = seed, fns
        self._specs: list[tuple] = []
        self._seen: set = set()
        distributions.bernoulli_decomposition(8, F(1, 3), F(2, 5))  # warm-up
        distributions.dist_A(50, F(1, 3), F(2, 5)).variance()

    def spec(self, i: int):
        while len(self._specs) <= i:
            j = len(self._specs)
            kind, n = self.KINDS[j % self.cycle]
            rnd = random.Random(self.f["rng.derive_seed"](self.seed, j))
            edge = j // self.EDGE_EVERY if j % self.EDGE_EVERY == self.EDGE_EVERY - 1 else None
            tries = 0
            while True:  # no (n, a, b) repeats within a run
                hi = 9 + tries // self.WIDEN_AFTER
                a, b = _ratio(rnd, hi), _ratio(rnd, hi)
                if edge is not None:
                    a, b = (F(0), b) if (edge // self.cycle) % 2 else (a, F(0))
                if (n, a, b) not in self._seen:
                    break
                tries += 1
            self._seen.add((n, a, b))
            self._specs.append((kind, n, a, b))
        return self._specs[i]

    def run(self, spec):
        kind, n, a, b = spec
        f = self.f
        if kind == "dist":
            d = f["distributions.dist_A"](n, a, b)
            return f["distributions.DiscreteDist.mean"](d), f["distributions.DiscreteDist.variance"](d)
        if kind == "clt":
            return f["distributions.clt_diagnostics"](n, a, b)
        if kind == "triangle":
            return f["eulerian_poly.v_triangle"](n, a, b)
        return f["distributions.bernoulli_decomposition"](n, a, b)

    def check(self, spec, out) -> dict:
        kind, n, a, b = spec
        f = self.f
        if kind == "triangle":
            # every entry of row m is an integer over d^m; summing over that
            # common denominator keeps the check cheaper than the op
            d = math.lcm(a.denominator, b.denominator)
            bits, rise = 0, F(1)   # rise = (a+b)^(rise m), built up row by row
            for m in range(n + 1):
                row, den = out.row(m), d ** m
                total = sum(x.numerator * (den // x.denominator) for x in row)
                gate(F(total, den) == rise, f"row {m} does not sum to (a+b)^(rise {m})")
                bits = max(bits, *(x.numerator.bit_length() for x in row),
                           *(x.denominator.bit_length() for x in row))
                if m < n:
                    rise *= a + b + m
            gate(rise == f["eulerian_poly.rising_factorial"](a + b, n),
                 "running product differs from rising_factorial")
            return {"eulerian_poly.entry_bits_max": bits}
        mean, var = f["distributions.moments_A"](n, a, b)
        if kind == "dist":
            gate(out == (mean, var), "law moments differ from the closed forms")
            return {}
        if kind == "clt":
            gate(math.isclose(out.mean, float(mean), rel_tol=1e-12)
                 and math.isclose(out.sd, math.sqrt(float(var)), rel_tol=1e-12),
                 "CLT diagnostics disagree with the exact moments")
            gate(0 <= out.ks_to_normal <= 1 and math.isfinite(out.llt_max_residual),
                 "CLT diagnostics out of range")
            return {}
        xi = out.xi
        gate(len(xi) == n and all(x >= 0 for x in xi)
             and all(x < y for x, y in zip(xi, xi[1:])),
             "need n strictly increasing xi >= 0")
        gate(abs(sum(out.p) - float(mean)) < 1e-9, "sum of p differs from E A")
        law = urn_law(n, a, b)
        tv = 0.5 * sum(abs(r - float(p)) for r, p in zip(out.reconstruction(), law))
        gate(tv < 1e-9, f"reconstruction TV {tv:.3g}")
        return {"distributions.roots_certified": sum(1 for x in xi if 0 < x < math.inf)}

    def final_failures(self) -> dict[int, str]:
        return {}


# ---------------------------------------------------------------------------
# cli-cold

# Equivalent to the installed ``staircase-tableaux`` entry point.
CLI_BOOT = "import sys; from staircase_tableaux.cli import main; sys.exit(main())"


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


class CliCold:
    """One ``staircase-tableaux`` command per op, each in a fresh
    interpreter; the parsed output must equal the in-process result."""

    name = "cli-cold"
    cycle = len(CLI_COMMANDS)

    def __init__(self, seed: int, fns: dict, src: Path, tracer=None):
        self.seed, self.f = seed, fns
        self.env = {"PYTHONPATH": str(src)}
        self.spans = {name: tracer.wrap(f"cli.{name}", self._child) if tracer else self._child
                      for name in CLI_COMMANDS}
        self.peak_rss_mb = 0.0
        warm = self._child(["moments-a", "--n", "10", "--a", "1", "--b", "1"])
        gate(warm.returncode == 0, f"warm-up child failed: {warm.stderr[-500:]!r}")

    def _child(self, argv: list[str]) -> harness.ChildResult:
        return harness.run_child([sys.executable, "-c", CLI_BOOT, *argv], self.env)

    def spec(self, i: int):
        rnd = random.Random(self.f["rng.derive_seed"](self.seed, i))
        name = CLI_COMMANDS[i % self.cycle]
        return name, getattr(self, "_args_" + name.replace("-", "_"))(rnd)

    def run(self, spec):
        name, argv = spec
        return self.spans[name](argv)

    def check(self, spec, out: harness.ChildResult) -> dict:
        name, argv = spec
        self.peak_rss_mb = max(self.peak_rss_mb, out.peak_rss_mb)
        gate(out.returncode == 0, f"exit {out.returncode}: {out.stderr[-300:]!r}")
        first = 2 if name == "asep-z-full" else 1   # "asep z-full" is two words
        opts = dict(zip(argv[first::2], argv[first + 1::2]))
        text = out.stdout.decode()
        getattr(self, "_check_" + name.replace("-", "_"))(opts, text)
        return {"cli.stdout_bytes": len(out.stdout)}

    # argument makers: each gets a per-op Random seeded from the run seed

    @staticmethod
    def _ab(rnd) -> list[str]:
        return ["--a", str(_ratio(rnd)), "--b", str(_ratio(rnd))]

    def _args_sample(self, rnd):
        return ["sample", "--n", str(rnd.randint(3, 6)), "--alpha", str(_ratio(rnd)),
                "--beta", str(_ratio(rnd)), "--seed", str(rnd.getrandbits(32)),
                "--samples", "2000", "--format", "csv"]

    def _args_urn(self, rnd):
        return ["urn", "--n", str(rnd.randint(20, 50)), *self._ab(rnd),
                "--seed", str(rnd.getrandbits(32)), "--samples", "500"]

    def _args_dist_a(self, rnd):
        return ["dist-a", "--n", "300", *self._ab(rnd), "--format", "json"]

    def _args_moments_a(self, rnd):
        return ["moments-a", "--n", str(rnd.randint(10, 1000)), *self._ab(rnd)]

    def _args_decompose(self, rnd):
        return ["decompose", "--n", "16", *self._ab(rnd)]

    def _args_triangle(self, rnd):
        return ["triangle", "--n-max", "60", *self._ab(rnd), "--format", "csv"]

    def _args_enumerate(self, rnd):
        return ["enumerate", "--n", "6", "--count-only"]

    def _args_pairs_n(self, rnd):
        return ["pairs-n", "--n", str(rnd.randint(10, 60)), *self._ab(rnd)]

    def _args_asep_z_full(self, rnd):
        args = ["asep", "z-full", "--n", "3"]
        for opt in ("--alpha", "--beta", "--gamma", "--delta", "--q", "--u"):
            args += [opt, str(_ratio(rnd))]
        return args

    def _args_clt(self, rnd):
        return ["clt", "--n", "300", *self._ab(rnd)]

    # output checks against the in-process result for the same arguments

    def _check_sample(self, o, text):
        n = int(o["--n"])
        params = Params.from_alpha_beta(F(o["--alpha"]), F(o["--beta"]))
        rows = _rows(text)
        gate(rows[0] == ["index", "A", "B", "n_alpha", "n_beta", "r", "diagonal"], "bad header")
        gate(len(rows) == 1 + int(o["--samples"]), "wrong number of rows")
        for i, row in enumerate(rows[1:]):
            s = sampling.tableau_stats(sampling.sample_ab(
                n, params, rng.derive_seed(int(o["--seed"]), i)))
            gate(row == [str(i), str(s.diagonal_alpha), str(s.diagonal_beta), str(s.n_alpha),
                         str(s.n_beta), str(s.alpha_indexed_rows), s.diagonal_word],
                 f"sample row {i} differs")

    def _check_urn(self, o, text):
        n, a, b, seed = int(o["--n"]), F(o["--a"]), F(o["--b"]), int(o["--seed"])
        want = Counter(sampling.urn_sample(n, a, b, rng.derive_seed(seed, i)).added_white
                       for i in range(int(o["--samples"])))
        rows = _rows(text)
        gate(rows[0] == ["added_white", "count"], "bad header")
        gate({int(k): int(c) for k, c in rows[1:]} == dict(want), "urn counts differ")

    def _check_dist_a(self, o, text):
        d = distributions.dist_A(int(o["--n"]), F(o["--a"]), F(o["--b"]))
        doc = json.loads(text)
        gate(doc["pmf"] == {str(k): str(d.pmf(k)) for k in d.support()}, "pmf differs")

    def _check_moments_a(self, o, text):
        mean, var = distributions.moments_A(int(o["--n"]), F(o["--a"]), F(o["--b"]))
        gate(_rows(text) == [["mean", "variance"], [str(mean), str(var)]], "moments differ")

    def _check_decompose(self, o, text):
        bd = distributions.bernoulli_decomposition(int(o["--n"]), F(o["--a"]), F(o["--b"]))
        want = [["i", "p", "xi"]] + [[str(i + 1), repr(p), repr(x)]
                                     for i, (p, x) in enumerate(zip(bd.p, bd.xi))]
        gate(_rows(text) == want, "decomposition differs")

    def _check_triangle(self, o, text):
        n_max = int(o["--n-max"])
        tri = eulerian_poly.v_triangle(n_max, F(o["--a"]), F(o["--b"]))
        want = [["n", "k", "v"]] + [[str(n), str(k), str(tri.v(n, k))]
                                    for n in range(n_max + 1) for k in range(n + 1)]
        gate(_rows(text) == want, "triangle differs")

    def _check_enumerate(self, o, text):
        want = sum(1 for _ in enumeration.enumerate_ab(int(o["--n"])))
        gate(text.strip() == str(want), f"count {text.strip()} != {want}")

    def _check_pairs_n(self, o, text):
        law = distributions.dist_N_pairs(int(o["--n"]), F(o["--a"]), F(o["--b"]))
        pairs, summary = text.split("\n\n")
        want = [["i", "p10", "p01", "p11"]] + [[str(i), str(p.p10), str(p.p01), str(p.p11)]
                                             for i, p in enumerate(law.pairs)]
        gate(_rows(pairs) == want, "pair laws differ")
        values = [law.mean_alpha, law.var_alpha, law.mean_beta, law.var_beta, law.cov]
        gate(_rows(summary)[1] == [str(v) for v in values], "pair-law moments differ")

    def _check_asep_z_full(self, o, text):
        want = asep.z_full(int(o["--n"]), *(F(o[k]) for k in
                                            ("--alpha", "--beta", "--gamma", "--delta",
                                             "--q", "--u")))
        gate(text.strip() == str(want), "z-full differs")

    def _check_clt(self, o, text):
        d = distributions.clt_diagnostics(int(o["--n"]), F(o["--a"]), F(o["--b"]))
        gate(json.loads(text) == {"n": d.n, "mean": d.mean, "sd": d.sd,
                                  "ks_to_normal": d.ks_to_normal,
                                  "llt_max_residual": d.llt_max_residual}, "clt differs")

    def final_failures(self) -> dict[int, str]:
        return {}


WORKLOADS = {cls.name: cls for cls in (DrawsSmall, DrawsLarge, ExactLaws, CliCold)}


def make(name: str, seed: int, src: Path, tracer: harness.Tracer | None = None):
    """Set up workload ``name`` for ``seed``; with a tracer, its calls into
    the package are recorded as spans."""
    fns = harness.bind(FUNCTIONS, tracer)
    if name == CliCold.name:
        return CliCold(seed, fns, src, tracer)
    return WORKLOADS[name](seed, fns)

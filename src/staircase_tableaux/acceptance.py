"""The acceptance suite: every headline identity of the package checked at
desk scale, one named criterion per check.

Each criterion is exact (bit-level rational equality) wherever the
underlying statement is exact; the limit statements are checked as
finite-size diagnostics with pinned bounds.  ``run()`` executes them all
and reports one pass/fail record per criterion; the CLI ``verify`` command
and the pytest acceptance module are both thin wrappers over it.

Sampling criteria use fixed seeds so the whole suite is deterministic.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from fractions import Fraction as F
from typing import NamedTuple

from . import asep, distributions as dist, enumeration as enum_, eulerian_poly as eul
from . import sampling, tableau as tb
from .rng import _derived_seeds

__all__ = ["CheckResult", "run", "CRITERIA", "SHOWCASE_TABLEAU"]


# The size-8 tableau and its u/q filling used as the rendering fixture.
SHOWCASE_TABLEAU = tb.Tableau.of(8, [
    (1, 2, tb.Symbol.ALPHA), (1, 8, tb.Symbol.GAMMA),
    (2, 2, tb.Symbol.BETA), (2, 5, tb.Symbol.ALPHA), (2, 7, tb.Symbol.GAMMA),
    (3, 3, tb.Symbol.ALPHA), (3, 6, tb.Symbol.GAMMA),
    (4, 5, tb.Symbol.DELTA),
    (5, 2, tb.Symbol.DELTA), (5, 4, tb.Symbol.ALPHA),
    (6, 3, tb.Symbol.DELTA),
    (7, 2, tb.Symbol.BETA),
    (8, 1, tb.Symbol.ALPHA),
])

SHOWCASE_FILLED_RENDER = "\n".join([
    "uauuuqqg",
    "ubuuaqg",
    "uuauug",
    "qqqqd",
    "qdua",
    "qqd",
    "ub",
    "a",
])

# parameter grids (tableau-side weights and inverse weights)
GRID_AB_WEIGHTS = [(F(1), F(1)), (F(2), F(1)), (F(2), F(2)), (F(1, 3), F(5))]
GRID_INV = [(F(1), F(1)), (F(1, 2), F(1)), (F(1, 2), F(1, 2)), (F(1, 3), F(5))]
GRID_ROWSUM = [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)),
               (F(1, 2), F(1, 2)), (F(2), F(3, 7))]
GRID_FOUR = [
    (F(1), F(1), F(1), F(1)),
    (F(2), F(1), F(0), F(0)),
    (F(1), F(1), F(0), F(0)),
    (F(0), F(1), F(1), F(0)),
    (F(1, 2), F(3), F(2), F(0)),
    (F(2), F(3, 7), F(1, 3), F(5)),
]

CHI2_SIGNIFICANCE = 1e-3
SAMPLER_SEED = 20120908
URN_SEED = 43067


def _product_form(n: int, al: F, be: F, ga: F, de: F) -> F:
    out = F(1)
    for i in range(n):
        out *= al + be + de + ga + i * (al + ga) * (be + de)
    return out


def _enum_law_of_A(n: int, al: F, be: F) -> dist.DiscreteDist:
    pm: dict[int, F] = {}
    for t, p in enum_.law_ab(n, al, be).items():
        k = tb.counts(t).diagonal_alpha
        pm[k] = pm.get(k, F(0)) + p
    return dist.DiscreteDist.from_map(pm)


# ---------------------------------------------------------------------------
# criteria


def check_counting(level: str) -> str:
    n_ab = 7 if level == "desk" else 5
    n_four = 4 if level == "desk" else 3
    for n in range(1, n_ab + 1):
        got = sum(1 for _ in enum_.enumerate_ab(n))
        assert got == math.factorial(n + 1), f"ab count at n={n}: {got}"
    for n in range(1, n_four + 1):
        got = sum(1 for _ in enum_.enumerate_four(n))
        assert got == 4**n * math.factorial(n), f"four count at n={n}: {got}"
    for n in range(1, n_ab + 1):
        split = Counter(tb.counts(t).n_alpha for t in enum_.max_symbol_tableaux(n))
        want = math.factorial(n - 1)
        assert split == Counter({n: want, n - 1: want}), f"max split at n={n}: {split}"
    return f"(n+1)! to n={n_ab}, 4^n n! to n={n_four}, 2(n-1)! split to n={n_ab}"


def check_partition_functions(level: str) -> str:
    n_max = 4 if level == "desk" else 3
    for n in range(1, n_max + 1):
        for al, be, ga, de in GRID_FOUR:
            z = enum_.partition_function(n, al, be, ga, de)
            assert z == _product_form(n, al, be, ga, de), (n, al, be, ga, de)
            assert z == enum_.partition_function(n, al + ga, be + de)
    for n in range(1, 8):
        z = enum_.partition_function(n, 2, 1)
        fact2 = math.prod(range(2 * n + 1, 0, -2))
        assert z == fact2, f"Z_{n}(2,1) = {z}, expected {fact2}"
    return f"product form + relabelling identity to n={n_max}; (2n+1)!! to n=7"


def check_triangle(level: str) -> str:
    coeff_table = {
        (0, 0): {(0, 0): 1},
        (1, 0): {(1, 0): 1},
        (1, 1): {(0, 1): 1},
        (2, 0): {(2, 0): 1},
        (2, 1): {(1, 0): 1, (0, 1): 1, (1, 1): 2},
        (2, 2): {(0, 2): 1},
        (3, 0): {(3, 0): 1},
        (3, 1): {(1, 0): 1, (0, 1): 1, (2, 0): 3, (1, 1): 3, (2, 1): 3},
        (3, 2): {(1, 0): 1, (0, 1): 1, (1, 1): 3, (0, 2): 3, (1, 2): 3},
        (3, 3): {(0, 3): 1},
    }
    for (n, k), coeffs in coeff_table.items():
        got = eul.v_symbolic(n, k)
        assert got.coeffs == coeffs, f"v_symbolic({n},{k}) = {got}"
    n_max = 200 if level == "desk" else 60
    for a, b in GRID_ROWSUM:
        tri = eul.v_triangle(n_max, a, b)
        for n in range(n_max + 1):
            assert tri.row_sum(n) == eul.rising_factorial(a + b, n), (a, b, n)
    return f"bivariate coefficient table exact; row sums to n={n_max} on {len(GRID_ROWSUM)} grid points"


def check_law_of_A(level: str) -> str:
    n_enum = 6 if level == "desk" else 4
    for n in range(1, n_enum + 1):
        for al, be in GRID_AB_WEIGHTS:
            assert _enum_law_of_A(n, al, be) == dist.dist_A(n, 1 / al, 1 / be), (n, al, be)
    for n in range(1, 8):
        d = dist.dist_A(n, 1, 1)
        fact = math.factorial(n + 1)
        for k in range(n + 1):
            assert d.pmf(k) == F(eul.eulerian(n + 1, k), fact), (n, k)
        d = dist.dist_A(n, 0, 1)
        fact = math.factorial(n)
        for k in range(n + 1):
            assert d.pmf(k) == F(eul.eulerian(n, k - 1), fact), (n, k)
    n_shift = 50 if level == "desk" else 20
    for n in range(2, n_shift + 1):
        assert dist.dist_A(n, 0, 1) == dist.dist_A(n - 1, 1, 1).shifted(1), n
        assert dist.dist_A(n, 0, 0) == dist.dist_A(n - 2, 1, 1).shifted(1), n
    return (f"law == enumeration to n={n_enum}; Eulerian specializations to n=7; "
            f"shift identities to n={n_shift}")


def check_moments(level: str) -> str:
    n_max = 200 if level == "desk" else 60
    grid = [(F(1), F(1)), (F(1, 2), F(1)), (F(1, 2), F(1, 2)), (F(0), F(1)),
            (F(2), F(3, 7)), (F(0), F(0))]
    for a, b in grid:
        if a == b == 0:
            laws = [(n, dist.dist_A(n, a, b)) for n in range(2, n_max + 1)]
        else:
            laws = enumerate(dist.DiscreteDist(0, row) for row, _d in eul.scaled_rows(n_max, a, b))
        for n, d in laws:
            mean, var = dist.moments_A(n, a, b)
            assert mean == d.mean() and var == d.variance(), (a, b, n)
    for n in range(1, 51):
        if n >= 2:
            # (n+1)/12 needs n >= 2: at n = 1 the closed form is 0/0 and
            # the true variance is ab/(a+b)^2 = 1/4
            _, var = dist.moments_A(n, F(1, 2), F(1, 2))
            assert var == F(n + 1, 12), n
        _, var = dist.moments_A(n, 1, 1)
        assert var == F(n + 2, 12), n
    return f"closed forms == law moments to n={n_max} on 6 grid points; (n+1)/12 and (n+2)/12 variances to n=50"


def check_gf_identities(level: str) -> str:
    n_max = 5 if level == "desk" else 4
    xs = [F(k) for k in range(n_max + 2)]
    zs = [F(2 * k + 1, 2) for k in range(n_max + 2)]
    for al, be in [(F(1), F(1)), (F(2), F(1)), (F(1, 3), F(5))]:
        a, b = 1 / al, 1 / be
        polys = [enum_.joint_poly_A_r(n, al, be) for n in range(n_max + 1)]
        for n in range(1, n_max + 1):
            # recursion D_n(x,z) = alpha z (x-1) D_{n-1}(x,z)
            #                      + (alpha z + beta) D_{n-1}(x, z+beta):
            # grids larger than the degree prove polynomial identity
            for x in xs:
                for z in zs:
                    lhs = polys[n].evaluate(x, z)
                    rhs = (al * z * (x - 1) * polys[n - 1].evaluate(x, z)
                           + (al * z + be) * polys[n - 1].evaluate(x, z + be))
                    assert lhs == rhs, (al, be, n, x, z)
            # D_n(x, 1) = (alpha beta)^n P_{n,a,b}(x), coefficient by coefficient
            by_A: dict[int, F] = {}
            for (A, _r), c in polys[n].coeffs.items():
                by_A[A] = by_A.get(A, F(0)) + c
            scale = (al * be) ** n
            row = eul.v_row(n, a, b)
            for k in range(n + 1):
                assert by_A.get(k, F(0)) == scale * row[k], (al, be, n, k)
    for b in (F(0), F(1), F(1, 2), F(7, 3)):
        ct = eul.c_table(50, b)
        for n in range(51):
            assert ct.c(n, n) == 1
            if n >= 1:
                assert ct.c(n, n - 1) == F(n, 2) * (n + 2 * b - 1), (b, n)
    return f"D_n recursion + marginal-polynomial identity to n={n_max} (3 weights); c-table to n=50"


def _sampler_chi2(n: int, al: F, be: F, samples: int, seed: int):
    law = {t.cells: p for t, p in enum_.law_ab(n, al, be).items()}
    params = sampling.Params.from_alpha_beta(al, be)
    return dist.chi_square_gof(law, sampling.sample_batch(n, params, seed, samples).tableau_counts)


def check_sampler_exactness(level: str) -> str:
    samples = 100_000 if level == "desk" else 20_000
    details = []
    for al, be in [(F(1), F(1)), (F(2), F(1)), (F(2), F(2))]:
        res = _sampler_chi2(4, al, be, samples, SAMPLER_SEED)
        assert res.passes(CHI2_SIGNIFICANCE), (al, be, res)
        details.append(f"p={res.p_value:.3f}")
    return f"chi-square over all 120 tableaux at n=4, {samples} draws: " + ", ".join(details)


def check_urn(level: str) -> str:
    n_max = 50 if level == "desk" else 25
    for a, b in [(F(1), F(1)), (F(1, 2), F(1)), (F(2), F(3, 7)), (F(0), F(0))]:
        probs: dict[int, F] = {0: F(1)}
        for m in range(n_max):
            nxt: dict[int, F] = {}
            den = m + a + b
            for k, p in probs.items():
                if den == 0:
                    nxt[k] = nxt.get(k, F(0)) + p / 2
                    nxt[k + 1] = nxt.get(k + 1, F(0)) + p / 2
                else:
                    nxt[k] = nxt.get(k, F(0)) + p * (a + k) / den
                    nxt[k + 1] = nxt.get(k + 1, F(0)) + p * (m - k + b) / den
            probs = nxt
            n = m + 1
            if n >= 2 or (a, b) != (F(0), F(0)):
                d = dist.DiscreteDist.from_map(probs)
                assert d == dist.dist_A(n, a, b), (a, b, n)
    samples = 100_000 if level == "desk" else 20_000
    details = []
    for al, be in [(F(1), F(1)), (F(2), F(1)), (F(2), F(2))]:
        a, b = 1 / al, 1 / be
        law = {k: dist.dist_A(4, a, b).pmf(k) for k in range(5)}
        obs: Counter = Counter()
        for s in _derived_seeds(URN_SEED, samples):
            obs[sampling.urn_sample(4, a, b, s).added_white] += 1
        res = dist.chi_square_gof(law, obs)
        assert res.passes(CHI2_SIGNIFICANCE), (al, be, res)
        details.append(f"p={res.p_value:.3f}")
    return f"recursion == triangle to n={n_max}; simulation chi-square: " + ", ".join(details)


def check_decomposition(level: str) -> str:
    n_root = 30 if level == "desk" else 12
    for a, b in GRID_INV:
        bd = dist.bernoulli_decomposition(n_root, a, b)
        assert len(bd.p) == n_root
        assert all(x >= 0 for x in bd.xi)
        assert all(x < y for x, y in zip(bd.xi, bd.xi[1:])), "roots must be simple"
        mean, _ = dist.moments_A(n_root, a, b)
        assert abs(sum(bd.p) - float(mean)) < 1e-9
        for n in (10, n_root):
            bd_n = dist.bernoulli_decomposition(n, a, b)
            rec = bd_n.reconstruction()
            d = dist.dist_A(n, a, b)
            tv = 0.5 * sum(abs(rec[k] - float(d.pmf(k))) for k in range(n + 1))
            assert tv < 1e-9, (a, b, n, tv)
    n_lc = 200 if level == "desk" else 60
    for a, b in GRID_ROWSUM:
        for m, (row, _) in enumerate(eul.scaled_rows(n_lc, a, b)):
            for k in range(1, m):
                assert row[k] * row[k] >= row[k - 1] * row[k + 1], (a, b, m, k)
    return (f"roots real/nonpositive/simple + TV(reconstruction) < 1e-9 at n={n_root}; "
            f"log-concavity to n={n_lc}")


def check_positions(level: str) -> str:
    n_max = 5 if level == "desk" else 4
    weights = [(F(1), F(1)), (F(2), F(1))]
    for n in range(2, n_max + 1):
        for al, be in weights:
            a, b = 1 / al, 1 / be
            law = enum_.law_ab(n, al, be)

            def freq(event) -> F:
                return sum((p for t, p in law.items() if event(t)), F(0))

            for i in range(1, n + 1):
                got = freq(lambda t, i=i: t.symbol_at(i, n + 1 - i) is tb.Symbol.ALPHA)
                assert got == dist.diag_prob(n, a, b, i), ("diag", n, i)
            for i in range(1, n):
                for j in range(1, n + 1 - i):
                    pa, pb, pf = dist.cell_prob(n, a, b, i, j)
                    fa = freq(lambda t, i=i, j=j: t.symbol_at(i, j) is tb.Symbol.ALPHA)
                    fb = freq(lambda t, i=i, j=j: t.symbol_at(i, j) is tb.Symbol.BETA)
                    assert (fa, fb, fa + fb) == (pa, pb, pf), ("cell", n, i, j)
            for ell in range(1, n + 1):
                for pos in itertools.combinations(range(1, n + 1), ell):
                    got = freq(lambda t, pos=pos: all(
                        t.symbol_at(n + 1 - j, j) is tb.Symbol.ALPHA for j in pos))
                    assert got == dist.joint_diag_alpha(n, a, b, pos), ("joint", n, pos)
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    pj = dist.diag_prob(n, a, b, n + 1 - j)
                    pk = dist.diag_prob(n, a, b, n + 1 - k)
                    joint = dist.joint_diag_alpha(n, a, b, (j, k))
                    assert dist.diag_cov(n, a, b, j, k) == joint - pj * pk, ("cov", n, j, k)
    assert dist.diag_cov(2, 1, 1, 1, 2) == F(-1, 18)
    return f"diagonal/cell/joint/covariance formulas == exhaustive frequencies to n={n_max}; -1/18 reproduced"


def check_subtableaux(level: str) -> str:
    n_max = 5 if level == "desk" else 4
    count = 0
    for n in range(2, n_max + 1):
        for a, b in [(F(1), F(1)), (F(1, 2), F(2))]:
            for i in range(1, n + 1):
                for j in range(1, n + 2 - i):
                    rep = dist.subtableau_law_check(n, a, b, i, j)
                    assert rep.equal, (n, a, b, i, j, rep.first_difference)
                    count += 1
    return f"exact law equality for {count} (n, a, b, i, j) combinations"


def check_pair_laws(level: str) -> str:
    n_max = 5 if level == "desk" else 4
    for n in range(1, n_max + 1):
        for al, be in [(F(1), F(1)), (F(2), F(1)), (F(1, 3), F(5))]:
            lhs = enum_.joint_poly_N(n, al, be).normalized().coeffs
            rhs = dist.dist_N_pairs(n, 1 / al, 1 / be).joint_law()
            assert lhs == rhs, (n, al, be)
    for n in range(1, 8):
        law = dist.dist_N_pairs(n, 1, 1).alpha_law()
        conv: dict[int, F] = {0: F(1)}
        for i in range(2, n + 2):
            p = F(1, i)
            nxt: dict[int, F] = {}
            for k, w in conv.items():
                nxt[k] = nxt.get(k, F(0)) + w * (1 - p)
                nxt[k + 1] = nxt.get(k + 1, F(0)) + w * p
            conv = nxt
        shifted = {n - k: v for k, v in conv.items()}
        assert dist.DiscreteDist.from_map(shifted) == law, n
    return f"pair-product law == enumeration joint to n={n_max}; harmonic Bernoulli representation to n=7"


def check_asep(level: str) -> str:
    assert asep.wtx(SHOWCASE_TABLEAU) == (5, 2, 3, 3, 13, 10)
    assert asep.render_filled(asep.fill_uq(SHOWCASE_TABLEAU)) == SHOWCASE_FILLED_RENDER
    n_max = 4 if level == "desk" else 3
    for n in range(1, n_max + 1):
        for t in enum_.enumerate_four(n):
            vec = asep.wtx(t)
            assert sum(vec) == n * (n + 1) // 2, (n, t)
    for n in range(1, n_max + 1):
        for al, be, ga, de in GRID_FOUR:
            z = asep.z_full(n, al, be, ga, de, 1, 1)
            assert z == _product_form(n, al, be, ga, de), (n, al, be, ga, de)
    z2 = asep.z_full(3, 2, 2, 2, 2, 2, 2)
    z1 = asep.z_full(3, 1, 1, 1, 1, 1, 1)
    assert z2 == 2 ** (3 * 4 // 2) * z1, "homogeneity of degree n(n+1)/2"
    return f"showcase filling bit-exact; degree identity + q=u=1 product form to n={n_max}"


def check_limit_diagnostics(level: str) -> str:
    # the 0.02 bound needs n = 2000 at either level: at n = 400 the largest
    # atom alone is 0.069, so the KS distance (0.0345) cannot meet it
    n_big = 2000
    d = dist.clt_diagnostics(n_big, F(1, 2), F(1, 2))
    assert d.ks_to_normal < 0.02, d
    r100 = dist.clt_diagnostics(100, F(1, 2), F(1, 2)).llt_max_residual
    r1000 = dist.clt_diagnostics(1000, F(1, 2), F(1, 2)).llt_max_residual
    assert r1000 < r100, (r100, r1000)
    n_growth = 10_000 if level == "desk" else 1_000
    rows = dist.n_alpha_growth_check([10, 100, 1000, n_growth], 1, 1)
    for row in rows:
        assert abs(row.var_deviation) <= 2, row
        assert abs(row.mean_deviation) <= 2, row
        assert abs(float(row.cov)) <= 2, row
    return (f"KS(n={n_big}) = {d.ks_to_normal:.4f} < 0.02; residual {r1000:.4f} < {r100:.4f}; "
            f"|Var N_a - log n| <= 2 up to n={n_growth}")


def check_maximal(level: str) -> str:
    n_max = 6 if level == "desk" else 4
    for n in range(2, n_max + 1):
        for t in enum_.max_symbol_tableaux(n):
            top = t.symbol_at(1, 1)
            assert top is not None, f"box (1,1) empty in {t}"
            rest = [(r, c, s) for r, c, s in t.cells if (r, c) != (1, 1)]
            cols = Counter(c for _, c, s in rest if s is tb.Symbol.ALPHA)
            rows = Counter(r for r, _, s in rest if s is not tb.Symbol.ALPHA)
            assert cols == Counter({c: 1 for c in range(2, n + 1)}), (n, t)
            assert rows == Counter({r: 1 for r in range(2, n + 1)}), (n, t)
    samples = 100_000 if level == "desk" else 20_000
    rho = F(1, 4)
    params = sampling.Params(0, 0, rho)
    draws = sampling.sample_batch(3, params, SAMPLER_SEED + 1, samples).tableau_counts
    hits = sum(m for cells, m in draws.items() if (1, 1, tb.Symbol.ALPHA) in cells)
    freq = hits / samples
    sigma = math.sqrt(float(rho * (1 - rho)) / samples)
    assert abs(freq - float(rho)) <= 3 * sigma, (freq, float(rho), sigma)
    return (f"corner box filled + one-per-line structure to n={n_max}; "
            f"box-(1,1) frequency {freq:.4f} vs rho=0.25 within 3 sigma")


CRITERIA = [
    (1, "counting", check_counting),
    (2, "partition-functions", check_partition_functions),
    (3, "triangle", check_triangle),
    (4, "law-of-A", check_law_of_A),
    (5, "moments", check_moments),
    (6, "gf-identities", check_gf_identities),
    (7, "sampler-exactness", check_sampler_exactness),
    (8, "urn-equivalence", check_urn),
    (9, "bernoulli-decomposition", check_decomposition),
    (10, "positions", check_positions),
    (11, "subtableaux", check_subtableaux),
    (12, "pair-laws", check_pair_laws),
    (13, "asep", check_asep),
    (14, "limit-diagnostics", check_limit_diagnostics),
    (15, "maximal-case", check_maximal),
]


class CheckResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def run(level: str = "desk", indices=None) -> list[CheckResult]:
    """Run the acceptance criteria (all, or the listed indices); under
    ``python -O``, which strips their asserts, each is reported failed."""
    results = []
    for index, name, fn in CRITERIA:
        if indices and index not in indices:
            continue
        start = time.monotonic()
        try:
            if not __debug__:
                raise AssertionError("not checked, python -O strips the criteria's asserts")
            detail = fn(level)
            passed = True
        except AssertionError as exc:
            detail = f"FAILED: {exc}"
            passed = False
        results.append(CheckResult(index, name, passed, detail,
                                   time.monotonic() - start))
    return results

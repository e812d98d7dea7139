import hashlib
import math
from collections import Counter
from fractions import Fraction as F

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux import counts
from staircase_tableaux.distributions import (
    DiscreteDist,
    PairDist,
    _chi2_sf,
    _isolate_roots,
    bernoulli_decomposition,
    cell_prob,
    chi_square_gof,
    clt_diagnostics,
    diag_cov,
    diag_prob,
    dist_A,
    dist_N_pairs,
    joint_diag_alpha,
    moments_A,
    n_alpha_growth_check,
    subtableau_law_check,
)
from staircase_tableaux.enumeration import law_ab
from staircase_tableaux.errors import DomainError, ParameterError, RootFindingError
from staircase_tableaux.eulerian_poly import (
    c_table,
    eulerian,
    p_at_one,
    p_eval,
    rising_factorial,
    scaled_row,
    scaled_rows,
    tilde_row,
    v_row,
    v_symbolic,
    v_triangle,
)
from staircase_tableaux.sampling import urn_sample

RATIONAL_1_9 = st.builds(F, st.integers(1, 9), st.integers(1, 9))


def test_discrete_dist_trims_and_checks():
    d = DiscreteDist.from_map({0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(0)})
    assert d.offset == 1 and d.probs == (F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        DiscreteDist.from_map({0: F(1, 2), 1: F(1, 3)})
    with pytest.raises(ValueError):
        DiscreteDist(0, (1, -1, 2))
    assert d.pmf(1) == F(1, 2) and d.pmf(5) == 0
    assert d.mean() == F(3, 2) and d.variance() == F(1, 4)
    assert d.shifted(2).support() == range(3, 5)


def law_of_n_minus(d: DiscreteDist, n: int) -> DiscreteDist:
    """The law of n - X when d is the law of X."""
    return DiscreteDist(n - d.support()[-1], d.weights[::-1])


def test_dist_A_examples():
    assert dist_A(2, 1, 1).probs == (F(1, 6), F(2, 3), F(1, 6))
    d = dist_A(3, 0, 0)
    assert d.offset == 1 and d.probs == (F(1, 2), F(1, 2))
    for n in range(1, 8):
        d = dist_A(n, 1, 1)
        for k in range(n + 1):
            assert d.pmf(k) == F(eulerian(n + 1, k), math.factorial(n + 1))
    with pytest.raises(DomainError):
        dist_A(1, 0, 0)
    with pytest.raises(ParameterError):
        dist_A(3, -1, 1)


def test_dist_A_total_and_b_symmetry():
    for n in range(1, 51):
        for a, b in [(F(1), F(1)), (F(1, 2), F(3)), (F(0), F(1))]:
            d = dist_A(n, a, b)
            assert sum(d.probs) == 1
            w = d.weights
            assert all(w[k] * w[k] >= w[k - 1] * w[k + 1] for k in range(1, len(w) - 1))
            # law of B = n - A equals law of A with parameters swapped
            assert law_of_n_minus(d, n) == dist_A(n, b, a)


@pytest.mark.parametrize("call, error, message", [
    (lambda: dist_A(3, 1, 1).shifted(0.5), DomainError, "delta must be an integer, got 0.5"),
    (lambda: DiscreteDist(0.5, (1,)), DomainError, "offset must be an integer, got 0.5"),
    (lambda: DiscreteDist(0, (1.5,)), ParameterError, "each weight must be an integer, got 1.5"),
    (lambda: DiscreteDist(0, (1, F(1, 2))), ParameterError,
     "each weight must be an integer, got Fraction(1, 2)"),
    (lambda: DiscreteDist(0, (1, -1, 2)), ParameterError, "each weight must be >= 0, got -1"),
    (lambda: DiscreteDist(0, ()), ParameterError, "weights must hold a weight > 0"),
    (lambda: DiscreteDist(3, [0, 0]), ParameterError, "weights must hold a weight > 0"),
    (lambda: DiscreteDist.from_map({}), ParameterError, "the probabilities must sum to 1, got 0"),
    (lambda: DiscreteDist.from_map({0: F(1, 2), 1: F(1, 3)}), ParameterError,
     "the probabilities must sum to 1, got 5/6"),
    (lambda: DiscreteDist.from_map({0: F(3, 2), 1: -0.5}), ParameterError,
     "the probability of outcome 1 must be >= 0, got -1/2"),
    (lambda: DiscreteDist.from_map({0: "x"}), ParameterError,
     "the probability of outcome 0 must be a finite rational >= 0, got 'x'"),
    (lambda: DiscreteDist.from_map({0.5: F(1)}), DomainError,
     "each outcome must be an integer, got 0.5"),
], ids=["shifted-float", "offset-float", "weight-float", "weight-fraction", "weight-negative",
        "empty", "all-zero", "from_map-empty", "from_map-sum", "from_map-negative",
        "from_map-text", "from_map-outcome"])
def test_discrete_dist_arguments_raise_named_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_discrete_dist_reads_integer_and_rational_spellings():
    assert DiscreteDist.from_map({0: 0.5, 1: 0.5}) == DiscreteDist(0, (1, 1))
    law = DiscreteDist(numpy.int64(2), [0, numpy.int64(4), True, 0])
    assert repr(law) == "DiscreteDist(offset=3, weights=(4, 1))"
    assert law.shifted(numpy.int64(-3)) == DiscreteDist(0, (4, 1))


def test_moments_examples():
    mean, var = moments_A(10, F(1, 2), F(1, 2))
    assert (mean, var) == (5, F(11, 12))
    _, var = moments_A(10, 1, 1)
    assert var == F(12, 12)
    mean, var = moments_A(10, 0, 1)     # alpha = infinity, beta = 1
    assert (mean, var) == (F(11, 2), F(11, 12))
    assert moments_A(0, 1, 1) == (0, 0)
    assert moments_A(1, F(1, 2), F(1, 2)) == (F(1, 2), F(1, 4))
    assert moments_A(2, 0, 0) == (1, 0)
    with pytest.raises(DomainError):
        moments_A(1, 0, 0)


def test_moments_match_law_on_range():
    for a, b in [(F(1), F(1)), (F(1, 2), F(1)), (F(0), F(1)), (F(2), F(3, 7))]:
        for n in range(0, 60):
            d = dist_A(n, a, b)
            mean, var = moments_A(n, a, b)
            assert (mean, var) == (d.mean(), d.variance()), (a, b, n)


PIN_AB = [F(0), F(1), F(1, 2), F(2, 3), F(7, 5), F(3), F(1, 7), F(5, 2)]


def _outcome(f, *args) -> str:
    try:
        return repr(f(*args))
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def test_exact_law_singular_points_are_pinned():
    # SHA-256 over the repr, or the error type and message, of moments_A,
    # p_at_one and diag_prob on a grid that holds every singular point of
    # their closed forms: n = 0, 1 at a + b in {1, 2}, a = b = 0 at n = 0, 1,
    # 2, and i = 0, n + 1.  Of diag_prob(1, 0, 0, 1) only the type is pinned.
    h = hashlib.sha256()
    for n in range(25):
        for a in PIN_AB:
            for b in PIN_AB:
                h.update(_outcome(moments_A, n, a, b).encode())
                h.update(_outcome(p_at_one, n, a, b).encode())
                for i in range(n + 2):
                    if (n, a, b, i) == (1, 0, 0, 1):
                        with pytest.raises(DomainError):
                            diag_prob(n, a, b, i)
                        continue
                    h.update(_outcome(diag_prob, n, a, b, i).encode())
    # malformed arguments, some with two faults: the first check's error wins
    for n, a, b, i in [(-1, 1, 1, 1), (F(5, 2), 1, 1, 1), (3, -1, 1, 9),
                       (1, 0, 0, 5), (2, 1, "x", 0)]:
        for f, args in ((moments_A, (n, a, b)), (p_at_one, (n, a, b)),
                        (diag_prob, (n, a, b, i))):
            h.update(_outcome(f, *args).encode())
    assert h.hexdigest()[:16] == "4bd558f1514bcaa9"


def test_decomposition_n2():
    bd = bernoulli_decomposition(2, 1, 1)
    assert len(bd.p) == 2
    assert abs(bd.p[0] - (3 + math.sqrt(3)) / 6) < 1e-10
    assert abs(bd.p[1] - (3 - math.sqrt(3)) / 6) < 1e-10
    assert abs(sum(bd.p) - 1.0) < 1e-12


def test_decomposition_linear():
    bd = bernoulli_decomposition(1, 2, 3)
    assert abs(bd.p[0] - 0.6) < 1e-12 and abs(bd.xi[0] - 2 / 3) < 1e-12


def test_decomposition_structure_edges():
    bd = bernoulli_decomposition(6, 1, 0)
    assert bd.p[-1] == 0.0 and math.isinf(bd.xi[-1]) and len(bd.p) == 6
    bd = bernoulli_decomposition(6, 0, 1)
    assert bd.p[0] == 1.0 and bd.xi[0] == 0.0
    bd = bernoulli_decomposition(6, 0, 0)
    assert bd.p[0] == 1.0 and bd.p[-1] == 0.0
    with pytest.raises(DomainError):
        bernoulli_decomposition(0, 1, 1)


def _convolved_bernoullis(ps):
    """The law of a sum of independent Bernoulli(p) over the ps, as floats, by
    adding each outcome's two branches into the next law one at a time."""
    dist = [1.0]
    for p in ps:
        nxt = [0.0] * (len(dist) + 1)
        for k, w in enumerate(dist):
            nxt[k] += w * (1 - p)
            nxt[k + 1] += w * p
        dist = nxt
    return dist


@pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(1, 2), F(1, 2)), (F(1, 3), F(5))])
def test_decomposition_reconstruction(a, b):
    n = 18
    bd = bernoulli_decomposition(n, a, b)
    assert all(x >= 0 for x in bd.xi)
    assert all(x < y for x, y in zip(bd.xi, bd.xi[1:]))
    rec = bd.reconstruction()
    assert rec == _convolved_bernoullis(bd.p)
    d = dist_A(n, a, b)
    tv = 0.5 * sum(abs(rec[k] - float(d.pmf(k))) for k in range(n + 1))
    assert tv < 1e-9
    mean, _ = moments_A(n, a, b)
    assert abs(sum(bd.p) - float(mean)) < 1e-10


GOLDEN_AB = [(F(1, 3), F(5)), (F(2, 3), F(7, 5)), (F(3), F(1, 7)), (F(5, 9), F(5, 9)),
             (F(7, 2), F(2, 9)), (F(9, 7), F(4, 3)), (F(0), F(3, 7)), (F(2, 3), F(0)),
             (F(0), F(0))]


def test_decomposition_golden_digest():
    # SHA-256 over repr of every p and xi, recorded when every root moved
    # onto the fixed 2^-40 dyadic grid: any change to a root shows up here
    # as a changed float
    h = hashlib.sha256()
    for n in (1, 2, 5, 16, 30):
        for a, b in GOLDEN_AB:
            if a == b == 0 and n < 2:
                continue
            bd = bernoulli_decomposition(n, a, b)
            h.update(repr((n, a, b, bd.p, bd.xi)).encode())
    assert h.hexdigest() == "a236f11b278afcb7743aa87548c93d31c6ceb2b0c05f1e27e425fcf2ee89af82"


def test_decomposition_edges_golden_digest():
    # the a = 0, b = 0 and a = b = 0 edges at every n up to 40, where a root
    # sits at 0 or a p = 0 is padded
    edges = [(a, b) for x in (F(1), F(3, 7), F(5, 2)) for a, b in ((F(0), x), (x, F(0)))]
    h = hashlib.sha256()
    for n in range(1, 41):
        for a, b in edges + [(F(0), F(0))] * (n >= 2):
            h.update(repr((n, a, b, bernoulli_decomposition(n, a, b))).encode())
    assert h.hexdigest() == "c856774391e90348381a4eba709ae4429a0b4e6971a0b1991a902960d9af9e67"


def _pgf_sign(weights, x: F) -> int:
    acc = F(0)
    for w in reversed(weights):
        acc = acc * x + w
    return (acc > 0) - (acc < 0)


def _golden_roots():
    """(exact pgf sign function, finite xi) for every xi on the golden grid;
    the pgf carries the law's offset, so a root at 0 is a root of it."""
    for n in (1, 2, 5, 16, 30):
        for a, b in GOLDEN_AB:
            if a == b == 0 and n < 2:
                continue
            d = dist_A(n, a, b)
            weights = (0,) * d.offset + d.weights
            for xi in bernoulli_decomposition(n, a, b).xi:
                if not math.isinf(xi):
                    yield (lambda x, w=weights: _pgf_sign(w, -x)), F(xi)


def test_golden_roots_change_sign_within_2_to_minus_40():
    # every reported xi is a root of the exact pgf to relative 2^-40
    tol = F(1, 2**40)
    for sign, xi in _golden_roots():
        assert sign(xi) == 0 or sign(xi * (1 - tol)) * sign(xi * (1 + tol)) == -1, xi


def test_golden_roots_sit_on_the_canonical_grid():
    # xi is an exact root, or (2k+1) 2^(j-41) with 2^j <= xi < 2^(j+1): the
    # midpoint of a cell of the fixed grid k 2^(j-40), across which the pgf
    # changes sign; so the output cannot depend on how the root was isolated
    for sign, xi in _golden_roots():
        if sign(xi) == 0:
            continue
        j = math.frexp(xi)[1] - 1
        assert 2**j <= xi < 2 ** (j + 1)
        half = F(2) ** (j - 41)
        odd = xi / half
        assert odd.denominator == 1 and odd.numerator % 2 == 1, xi
        assert sign(xi - half) * sign(xi + half) == -1, xi


@given(RATIONAL_1_9, RATIONAL_1_9, st.integers(min_value=1, max_value=20))
@settings(max_examples=30, deadline=None)
def test_decomposition_roots_certified_independently(a, b, n):
    # each returned xi brackets an exact sign change of the pgf of A within
    # relative 1e-9, and the n brackets are disjoint, so together they
    # account for all n roots
    weights = dist_A(n, a, b).weights
    tol = F(1, 10**9)
    xis = [F(x) for x in bernoulli_decomposition(n, a, b).xi]
    assert len(xis) == n
    for xi in xis:
        assert _pgf_sign(weights, -xi * (1 - tol)) * _pgf_sign(weights, -xi * (1 + tol)) == -1
    assert all(x * (1 + tol) < y * (1 - tol) for x, y in zip(xis, xis[1:]))


@pytest.mark.parametrize("coeffs, message", [
    ([1, 2, 1], "found 1 real roots, expected 2"),
    ([1, 1, 1], "found 0 real roots, expected 2"),
    ([1, 0, 1], "the polynomial must have positive coefficients"),
    ([1, 6, 9], "a multiple or non-real root near -341/1024"),
    ([2, 1, 1], "found 0 real roots, expected 2"),
    ([1, 2, 2], "found 0 real roots, expected 2"),
    ([4, 4, 1], "found 1 real roots, expected 2"),
], ids=["double-root", "complex-pair", "zero-coefficient", "non-dyadic-double-root",
        "complex-pair-2-1-1", "complex-pair-1-2-2", "double-root-at-2"])
def test_interlacing_roots_failures_are_typed(coeffs, message):
    # (3x + 1)^2 has its double root at -1/3, which no midpoint hits: the
    # halving depth limit must raise instead of looping
    with pytest.raises(RootFindingError) as info:
        _isolate_roots(coeffs)
    assert str(info.value) == message


def _poly_with_roots(rs) -> list[int]:
    """Integer coefficients, ascending, of a positive multiple of prod (x + r)."""
    p = [F(1)]
    for r in rs:
        p = [r * x + y for x, y in zip(p + [0], [0] + p)]
    den = math.lcm(*(c.denominator for c in p))
    return [int(c * den) for c in p]


def _on_grid_cell_of(xi: F, r: F) -> bool:
    """xi is r, or the midpoint (2k+1) 2^(j-41), 2^j <= xi < 2^(j+1), of the
    cell of the fixed grid k 2^(j-40) that holds r."""
    if xi == r:
        return True
    j = math.frexp(xi)[1] - 1
    half = F(2) ** (j - 41)
    odd = xi / half
    return (2**j <= xi < 2 ** (j + 1) and odd.denominator == 1
            and odd.numerator % 2 == 1 and abs(xi - r) < half)


@pytest.mark.parametrize("rs", [
    [F(1, 2), F(3, 4), F(1), F(3)],
    [F(1, 1024), F(1), F(1000)],
], ids=["dyadic", "wide-dyadic"])
def test_isolate_roots_finds_dyadic_roots_exactly(rs):
    # every root is a cell midpoint of the search, so each comes out exact
    assert _isolate_roots(_poly_with_roots(rs)) == rs


def test_isolate_roots_puts_other_roots_on_the_grid():
    xis = _isolate_roots(_poly_with_roots([F(1, 3), F(2, 7), F(5)]))
    assert xis == [F(2513169434917, 2**43), F(2932031007403, 2**43), F(5)]
    assert _on_grid_cell_of(xis[0], F(2, 7)) and _on_grid_cell_of(xis[1], F(1, 3))


@given(st.sets(st.builds(F, st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_isolate_roots_of_random_root_sets(rs):
    # close rationals such as 29/30 and 28/29 force deep subdivisions
    rs = sorted(rs)
    xis = _isolate_roots(_poly_with_roots(rs))
    assert len(xis) == len(rs)
    assert all(_on_grid_cell_of(xi, r) for xi, r in zip(xis, rs)), (rs, xis)


def test_pairs_marginals_and_moments():
    law = dist_N_pairs(5, F(1, 2), F(1))
    a, b = F(1, 2), F(1)
    for i, pd in enumerate(law.pairs):
        den = a + b + i
        assert pd.p10 == b / den and pd.p01 == a / den and pd.p11 == F(i) / den
    assert law.mean_alpha == 5 - sum(a / (a + b + i) for i in range(5))
    assert tuple(pd.p10 + pd.p11 for pd in law.pairs) == tuple(1 - a / (a + b + i) for i in range(5))


def test_pairs_zero_zero_rule():
    law = dist_N_pairs(3, 0, 0)
    assert law.pairs[0].p10 == F(1, 2) and law.pairs[0].p01 == F(1, 2)
    assert law.pairs[1].p11 == 1 and law.pairs[2].p11 == 1
    joint = law.joint_law()
    assert joint == {(3, 2): F(1, 2), (2, 3): F(1, 2)}


def _convolved_joint_laws(pairs):
    """The joint law of (N_alpha, N_beta) after each prefix of the pairs,
    from the empty one on, by convolving the pair laws one at a time: each
    pair over its own denominator, the running law as integer weights over
    one total."""
    law, total = {(0, 0): 1}, 1
    yield {(0, 0): F(1)}
    for pd in pairs:
        den = math.lcm(pd.p10.denominator, pd.p01.denominator, pd.p11.denominator)
        steps = [(dx, dy, q.numerator * (den // q.denominator))
                 for (dx, dy), q in (((1, 0), pd.p10), ((0, 1), pd.p01), ((1, 1), pd.p11))
                 if q]
        nxt: dict[tuple[int, int], int] = {}
        for (x, y), w in law.items():
            for dx, dy, q in steps:
                key = (x + dx, y + dy)
                nxt[key] = nxt.get(key, 0) + w * q
        law, total = nxt, total * den
        yield {key: F(w, total) for key, w in law.items()}


def _summed_pair_moments(pairs):
    """(E N_alpha, Var N_alpha, E N_beta, Var N_beta, Cov) after each prefix
    of the pairs, from the empty one on, summed step by step: the alpha
    indicator of a pair is 1 with chance p10 + p11, the beta one with chance
    p01 + p11, and both are 1 with chance p11."""
    mean_a = var_a = mean_b = var_b = cov = F(0)
    yield mean_a, var_a, mean_b, var_b, cov
    for pd in pairs:
        pa, pb = pd.p10 + pd.p11, pd.p01 + pd.p11
        mean_a += pa
        var_a += pa * (1 - pa)
        mean_b += pb
        var_b += pb * (1 - pb)
        cov += pd.p11 - pa * pb
        yield mean_a, var_a, mean_b, var_b, cov


@pytest.mark.parametrize("a, b", [(1, 1), (F(1, 2), 1), (F(2, 3), F(7, 5)), (3, F(1, 7)),
                                  (0, F(5, 3)), (F(5, 3), 0), (0, 0)],
                         ids=["1,1", "1/2,1", "2/3,7/5", "3,1/7", "a=0", "b=0", "a=b=0"])
def test_joint_weights_equal_the_convolution(a, b):
    pairs = dist_N_pairs(60, a, b).pairs
    reference = zip(_convolved_joint_laws(pairs), _summed_pair_moments(pairs))
    for n, (expected, moments) in enumerate(reference):
        law = dist_N_pairs(n, a, b)
        assert law.joint_law() == expected, n
        assert (law.mean_alpha, law.var_alpha, law.mean_beta, law.var_beta, law.cov) == moments, n
        marginal: dict[int, F] = {}
        for (x, _y), p in expected.items():
            marginal[x] = marginal.get(x, F(0)) + p
        alpha = law.alpha_law()
        assert dict(zip(alpha.support(), alpha.probs)) == marginal, n


def test_pair_dist_reads_its_probabilities_exactly():
    # a float is the double it spells, so 0.5 is exactly 1/2
    pd = PairDist(0.5, numpy.int64(0), "1/2")
    assert (pd.p10, pd.p01, pd.p11) == (F(1, 2), 0, F(1, 2))
    assert all(type(p) is F for p in (pd.p10, pd.p01, pd.p11))


@pytest.mark.parametrize("probs, message", [
    ((-1, 1, 1), "p10 must be >= 0, got -1"),
    ((F(1, 2), F(-1, 2), 1), "p01 must be >= 0, got -1/2"),
    ((0, 1, math.inf), "p11 must be a finite rational >= 0, got inf"),
    ((0, 1, "x"), "p11 must be a finite rational >= 0, got 'x'"),
    ((F(1, 3), F(1, 3), F(1, 2)), "the pair probabilities must sum to 1, got 7/6"),
    ((0.1, 0.2, 0.7), "the pair probabilities must sum to 1, got .*"),
], ids=["negative-p10", "negative-p01", "infinite", "junk", "sum-7/6", "floats-off-by-2^-55"])
def test_pair_dist_rejects_bad_probabilities(probs, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        PairDist(*probs)


def test_pairs_eoo1_harmonic_representation():
    # alpha = inf, beta = 1: n - N_beta distributed as sum of Be(1/i), i=1..n
    n = 6
    law = dist_N_pairs(n, 0, 1)
    pm: dict[int, F] = {}
    for (_na, nb), w in law.joint_law().items():
        pm[n - nb] = pm.get(n - nb, F(0)) + w
    conv = {0: F(1)}
    for i in range(1, n + 1):
        p = F(1, i)
        nxt: dict[int, F] = {}
        for k, w in conv.items():
            nxt[k] = nxt.get(k, F(0)) + w * (1 - p)
            nxt[k + 1] = nxt.get(k + 1, F(0)) + w * p
        conv = nxt
    assert pm == {k: v for k, v in conv.items() if v}


def test_diag_prob():
    assert diag_prob(2, 1, 1, 1) == F(2, 3)
    assert diag_prob(5, 0, 1, 5) == F(1, 5)   # i=n, a=0, b=1
    n, a = 6, F(3, 2)
    assert sum(diag_prob(n, a, a, i) for i in range(1, n + 1)) == F(n, 2)
    with pytest.raises(DomainError):
        diag_prob(3, 1, 1, 4)
    with pytest.raises(DomainError):
        diag_prob(1, 0, 0, 1)


def test_cell_prob():
    pa, pb, pf = cell_prob(4, 1, 1, 1, 1)
    assert (pa, pf) == (F(1, 6), F(1, 3))
    assert pa + pb == pf
    # line sums: sum over i+j=k of P(filled) = (k-1)/(k+a+b-1)
    n, a, b = 6, F(1, 2), F(2)
    for k in range(2, n + 1):
        total = sum(cell_prob(n, a, b, i, k - i)[2] for i in range(1, k))
        assert total == F(k - 1) / (k + a + b - 1)
    assert cell_prob(4, 0, 0, 1, 1) == (F(1, 2), F(1, 2), 1)
    with pytest.raises(DomainError):
        cell_prob(4, 1, 1, 2, 3)   # diagonal box


def test_joint_diag_alpha():
    assert joint_diag_alpha(2, 1, 1, (1, 2)) == F(1, 6)
    n, a, b = 7, F(1, 3), F(4)
    assert joint_diag_alpha(n, a, b, (n,)) == F(n - 1 + b) / (n - 1 + a + b)
    assert joint_diag_alpha(n, a, b, ()) == 1
    with pytest.raises(DomainError):
        joint_diag_alpha(4, 1, 1, (2, 2))
    with pytest.raises(DomainError):
        joint_diag_alpha(4, 1, 1, (3, 1))
    with pytest.raises(DomainError):
        joint_diag_alpha(2, 0, 0, (1, 2))   # zero denominator at k = n


def test_diag_cov():
    assert diag_cov(2, 1, 1, 1, 2) == F(-1, 18)
    assert diag_cov(5, 0, F(1, 2), 2, 5) == 0   # k = n, a = 0
    for j, k in [(1, 2), (2, 4), (1, 5)]:
        assert diag_cov(5, F(1, 3), F(2), j, k) <= 0
    with pytest.raises(DomainError):
        diag_cov(5, 1, 1, 3, 3)
    with pytest.raises(DomainError):
        diag_cov(2, 0, 0, 1, 2)   # n + a + b = 2


def test_joint_vs_single_column_convention():
    # the diagonal box in column j is row i = n+1-j
    n, a, b = 5, F(1, 2), F(2)
    for j in range(1, n + 1):
        assert joint_diag_alpha(n, a, b, (j,)) == diag_prob(n, a, b, n + 1 - j)


def test_subtableau_law_check_examples():
    rep = subtableau_law_check(3, 1, 1, 1, 2)
    assert rep.equal and rep.sub_size == 2 and rep.b_hat == 2
    rep = subtableau_law_check(4, F(1, 2), F(2), 2, 2)
    assert rep.equal
    rep = subtableau_law_check(3, 1, 1, 1, 1)
    assert rep.equal and rep.sub_size == 3
    with pytest.raises(DomainError):
        subtableau_law_check(3, 1, 1, 2, 3)
    with pytest.raises(DomainError, match=r"^n must be >= 0, got -1$"):
        subtableau_law_check(-1, 1, 1, 1, 1)


def test_clt_diagnostics_sane():
    d = clt_diagnostics(400, F(1, 2), F(1, 2))
    assert 0 < d.ks_to_normal < 0.05
    assert d.llt_max_residual < 0.01
    with pytest.raises(DomainError):
        clt_diagnostics(5, 1, 1)


def test_growth_check():
    rows = n_alpha_growth_check([10, 100], 1, 1)
    assert [r.n for r in rows] == [10, 100]
    h = sum(F(1, 2 + i) for i in range(100))
    assert rows[1].mean_alpha == 100 - h
    rows = n_alpha_growth_check([5, 50], 0, 2)   # alpha = infinity
    assert all(r.mean_alpha == r.n for r in rows)
    assert all(r.var_alpha == 0 for r in rows)
    with pytest.raises(ParameterError):
        n_alpha_growth_check([10], 0, 0)
    with pytest.raises(DomainError, match="^n_list must hold integers >= 1$"):
        n_alpha_growth_check([], 1, 1)
    # the running sums restate the pair law's moments: each row must match it
    for a, b in [(F(2, 3), F(7, 5)), (0, 1), (1, 0), (3, F(1, 7))]:
        for row in n_alpha_growth_check([1, 2, 7, 40], a, b):
            law = dist_N_pairs(row.n, a, b)
            assert (row.mean_alpha, row.var_alpha, row.cov) == (law.mean_alpha, law.var_alpha, law.cov)
    # and each row equals the step-by-step sums at its n, whatever the order
    # and repeats of n_list
    for a, b in [(F(2, 3), F(7, 5)), (0, 1), (1, 0), (1, 1)]:
        reference = list(_summed_pair_moments(dist_N_pairs(200, a, b).pairs))
        for n_list in ([40, 7, 1, 7, 2], range(1, 201)):
            rows = n_alpha_growth_check(n_list, a, b)
            assert [row.n for row in rows] == sorted(set(n_list))
            for row in rows:
                mean_a, var_a, _, _, cov = reference[row.n]
                assert (row.mean_alpha, row.var_alpha, row.cov) == (mean_a, var_a, cov), (a, b, row.n)


def test_chi_square_gof_helper():
    expected = {0: F(1, 2), 1: F(1, 2)}
    res = chi_square_gof(expected, Counter({0: 5000, 1: 5000}))
    assert res.statistic == 0 and res.p_value == 1
    res = chi_square_gof(expected, Counter({0: 9000, 1: 1000}))
    assert res.p_value < 1e-6
    res = chi_square_gof(expected, Counter({2: 10}))
    assert math.isinf(res.statistic) and res.p_value == 0
    res = chi_square_gof({0: F(1), 1: F(0)}, {1: 3})   # observed outcome of probability 0
    assert math.isinf(res.statistic) and (res.df, res.p_value) == (1, 0)
    with pytest.raises(ParameterError):
        chi_square_gof(expected, Counter())
    res = chi_square_gof({0: F(1)}, Counter({0: 100}))   # one outcome: df = 0
    assert (res.statistic, res.df, res.p_value) == (0, 0, 1.0) and res.passes()
    res = chi_square_gof(expected, {0: numpy.int64(3), 1: numpy.int64(5)})
    assert res == chi_square_gof(expected, {0: 3, 1: 5})
    # the record holds the checked ints, not the NumPy scalars
    assert type(res.total) is int and type(res.statistic) is float


def test_chi_square_gof_impossible_outcome_is_one_rule():
    # an outcome counted 0 times adds nothing, whether the law omits it or
    # gives it probability 0; counted once, either way is impossible
    half = {0: F(1, 2), 1: F(1, 2)}
    assert chi_square_gof(half, {0: 5, 1: 5, 2: 0}) == (0.0, 1, 1.0, 10)
    assert chi_square_gof({**half, 2: F(0)}, {0: 5, 1: 5, 2: 0}) == (0.0, 2, 1.0, 10)
    impossible = (math.inf, 2, 0.0, 11)
    assert chi_square_gof({**half, 2: F(0)}, {0: 5, 1: 5, 2: 1}) == impossible
    assert chi_square_gof({**half, 3: F(0)}, {0: 5, 1: 5, 2: 1}) == impossible
    assert chi_square_gof({0: F(1)}, {0: 4, 1: 1}) == (math.inf, 1, 0.0, 5)


@pytest.mark.parametrize("observed, message", [
    ({0: -5, 1: 10}, "the count of outcome 0 must be >= 0, got -5"),
    ({0: 2.5, 1: 2.5}, "the count of outcome 0 must be an integer, got 2.5"),
    ({0: 3, "x": 2.0}, "the count of outcome 'x' must be an integer, got 2.0"),
], ids=["negative", "half", "float"])
def test_chi_square_gof_rejects_counts_that_are_not_integers(observed, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        chi_square_gof({0: F(1, 2), 1: F(1, 2)}, observed)



@pytest.mark.parametrize("expected, message", [
    ({0: F(-1, 2), 1: F(3, 2)}, "the probability of outcome 0 must be >= 0, got -1/2"),
    ({0: F(1, 2), 1: -0.5, 2: 1}, "the probability of outcome 1 must be >= 0, got -1/2"),
    ({0: F(3, 2)}, "the probabilities must sum to 1, got 3/2"),
    ({0: F(7, 10), 1: F(7, 10)}, "the probabilities must sum to 1, got 7/5"),
    ({0: F(1, 3), 1: F(1, 3)}, "the probabilities must sum to 1, got 2/3"),
    ({}, "the probabilities must sum to 1, got 0"),
    ({0: "x", 1: F(1)}, "the probability of outcome 0 must be a finite rational >= 0, got 'x'"),
    ({0: F(1, 2), "y": math.nan}, "the probability of outcome 'y' must be a finite rational >= 0, got nan"),
    ({0: math.inf}, "the probability of outcome 0 must be a finite rational >= 0, got inf"),
], ids=["negative", "negative-float", "above-one", "sum-above", "sum-below", "empty", "text",
        "nan", "inf"])
def test_chi_square_gof_rejects_laws_that_are_not_probabilities(expected, message):
    with pytest.raises(ParameterError) as exc:
        chi_square_gof(expected, {0: 3, 1: 5})
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: chi_square_gof([1], {0: 1}), "expected must be a mapping, got [1]"),
    (lambda: chi_square_gof({0: 1}, [1]), "observed must be a mapping, got [1]"),
    (lambda: joint_diag_alpha(3, 1, 1, 2), "positions must be an iterable of integers, got 2"),
    (lambda: n_alpha_growth_check(5, 1, 1), "n_list must be an iterable of integers, got 5"),
    (lambda: DiscreteDist.from_map([1]), "pm must be a mapping of outcomes to probabilities, got [1]"),
    (lambda: DiscreteDist(0, 5), "weights must be an iterable of integers, got 5"),
], ids=["chi-square-expected", "chi-square-observed", "joint-diag-positions", "growth-n-list",
        "discrete-dist-from-map", "discrete-dist-weights"])
def test_arguments_of_the_wrong_type_raise_named_errors(call, message):
    with pytest.raises(ParameterError) as exc:
        call()
    assert str(exc.value) == message


def test_chi_square_gof_reads_rationals_of_any_type():
    exact = chi_square_gof({0: F(1, 4), 1: F(3, 4)}, {0: 3, 1: 5})
    assert chi_square_gof({0: 0.25, 1: "3/4"}, {0: 3, 1: 5}) == exact
    point = chi_square_gof({0: F(1), 1: F(0)}, {0: 3})
    assert chi_square_gof({0: numpy.int64(1), 1: 0}, {0: 3}) == point

# (x, P(X > x)) per df, recorded from scipy 1.17.1: chi2.sf at x = chi2.ppf(q, df)
# for q = 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9
CHI2_SF_REFERENCE = {
    1: [(1.5707963267957187e-12, 0.999999), (1.5707971492624921e-06, 0.999),
        (0.01579077409343122, 0.8999999999999999), (0.454936423119572, 0.5000000000000002),
        (2.705543454095404, 0.10000000000000103), (10.827566170662733, 0.0010000000000000007),
        (37.32489310651872, 9.999999717180685e-10)],
    2: [(2.0000010000006676e-06, 0.999999), (0.002001000667167068, 0.999),
        (0.21072103131565273, 0.8999999999999999), (1.386294361119891, 0.5),
        (4.605170185988092, 0.09999999999999996), (13.815510557964274, 0.0010000000000000002),
        (41.446531730456684, 9.999999717180692e-10)],
    3: [(0.00024181048720124264, 0.999999), (0.024297585815692732, 0.999),
        (0.5843743741551835, 0.9), (2.3659738843753377, 0.5),
        (6.251388631170325, 0.10000000000000006), (16.26623619623813, 0.0010000000000000007),
        (44.841275388361254, 9.999999717180706e-10)],
    4: [(0.0028297613229586872, 0.999999), (0.09080403553897909, 0.999),
        (1.063623216779224, 0.9), (3.3566939800333224, 0.5),
        (7.779440339734858, 0.09999999999999999), (18.46682695290317, 0.001000000000000001),
        (47.87945579007457, 9.999999717180683e-10)],
    119: [(59.45587669763604, 0.999999), (76.95466918220383, 0.999),
          (99.7067333606213, 0.8999999999999999), (118.334001382597, 0.5000000000000001),
          (139.14946437730342, 0.09999999999999981), (172.41768160217916, 0.0009999999999999352),
          (235.94006659742337, 9.999999717180925e-10)],
    1000: [(801.6244376068657, 0.9999990000000001), (867.479082607277, 0.999),
           (943.132562342892, 0.8999999999999999), (999.333412403381, 0.49999999999999994),
           (1057.723901381614, 0.10000000000000003), (1143.9170926196791, 0.0010000000000000041),
           (1291.9578664788812, 9.99999971718068e-10)],
    6143: [(5630.440874048691, 0.999999), (5806.163288521969, 0.999),
           (6001.3850957829745, 0.8999999999999996), (6142.333346197038, 0.5000000000000004),
           (6285.471397665908, 0.09999999999999963), (6491.235570774236, 0.0009999999999999946),
           (6831.297026022153, 9.99999971718052e-10)],
}


@pytest.mark.parametrize("df", sorted(CHI2_SF_REFERENCE))
def test_chi2_sf_matches_reference_table(df):
    assert _chi2_sf(0.0, df) == 1.0 and _chi2_sf(math.inf, df) == 0.0
    for x, p in CHI2_SF_REFERENCE[df]:
        assert _chi2_sf(x, df) == pytest.approx(p, rel=1e-10, abs=0)


def test_dist_A_matches_enumeration_spot():
    for al, be in [(F(2), F(1)), (F(1, 3), F(5))]:
        pm: dict[int, F] = {}
        for t, p in law_ab(4, al, be).items():
            k = counts(t).diagonal_alpha
            pm[k] = pm.get(k, F(0)) + p
        assert DiscreteDist.from_map(pm) == dist_A(4, 1 / al, 1 / be)


@pytest.mark.parametrize("call,error", [
    (lambda: scaled_rows(-1, 1, 1), DomainError),
    (lambda: scaled_row(-3, 1, 1), DomainError),
    (lambda: v_row(-1, 1, 1), DomainError),
    (lambda: p_eval(-2, 1, 1, 2), DomainError),
    (lambda: dist_A(-1, 1, 1), DomainError),
    (lambda: moments_A(-3, 1, 1), DomainError),
    (lambda: dist_N_pairs(-1, 1, 1), DomainError),
    (lambda: urn_sample(-1, 1, 1, 0), ParameterError),
], ids=["scaled_rows", "scaled_row", "v_row", "p_eval", "dist_A", "moments_A",
        "dist_N_pairs", "urn_sample"])
def test_negative_n_rejected(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [
    lambda n: moments_A(n, 1, 1),
    lambda n: dist_A(n, 1, 1),
    lambda n: dist_A(n, 0, 0),
    lambda n: bernoulli_decomposition(n, 1, 1),
    lambda n: scaled_row(n, 1, 1),
    lambda n: v_triangle(n, 1, 1),
    lambda n: v_row(n, 1, 1),
    lambda n: p_eval(n, 1, 1, 2),
    lambda n: dist_N_pairs(n, 1, 1),
    lambda n: clt_diagnostics(n, 1, 1),
    lambda n: n_alpha_growth_check([10, n], 1, 1),
    lambda n: rising_factorial(2, n),
    lambda n: v_symbolic(n, 1),
    lambda n: eulerian(n, 1),
    lambda n: tilde_row(n),
    lambda n: c_table(n, 1),
], ids=["moments_A", "dist_A", "dist_A-00", "bernoulli_decomposition", "scaled_row",
        "v_triangle", "v_row", "p_eval", "dist_N_pairs", "clt_diagnostics",
        "n_alpha_growth_check", "rising_factorial", "v_symbolic", "eulerian",
        "tilde_row", "c_table"])
@pytest.mark.parametrize("n", [2.5, 3.0, "3", None], ids=["2.5", "3.0", "str", "None"])
def test_non_integer_n_is_a_named_domain_error(call, n):
    with pytest.raises(DomainError, match=r"^n(_max)? must be an integer, got "):
        call(n)


def test_integer_like_n_is_accepted():
    assert moments_A(numpy.int64(3), 1, 1) == moments_A(3, 1, 1)
    assert dist_A(numpy.int64(12), 1, 1) == dist_A(12, 1, 1)


@pytest.mark.parametrize("call, name", [
    (lambda: diag_prob(3, 1, 1, 1.5), "i"),
    (lambda: diag_prob(3.5, 1, 1, 1), "n"),
    (lambda: cell_prob(4, 1, 1, 1.5, 1), "i"),
    (lambda: cell_prob(4, 1, 1, 1, F(2)), "j"),
    (lambda: cell_prob(4.0, 1, 1, 1, 1), "n"),
    (lambda: joint_diag_alpha(3, 1, 1, [1.5]), "each position"),
    (lambda: joint_diag_alpha(3, 1, 1, [1, "2"]), "each position"),
    (lambda: joint_diag_alpha(3.0, 1, 1, [1]), "n"),
    (lambda: diag_cov(3.0, 1, 1, 1, 2), "n"),
    (lambda: diag_cov(3, 1, 1, 1, 2.5), "k"),
    (lambda: diag_cov(3, 1, 1, None, 2), "j"),
    (lambda: subtableau_law_check(3, 1, 1, 1.5, 1), "i"),
    (lambda: subtableau_law_check(3, 1, 1, 1, 1.5), "j"),
    (lambda: subtableau_law_check(3.5, 1, 1, 1, 1), "n"),
    (lambda: subtableau_law_check("3", 1, 1, 1, 1), "n"),
], ids=["diag_prob-i", "diag_prob-n", "cell_prob-i", "cell_prob-j", "cell_prob-n",
        "joint-position", "joint-str-position", "joint-n", "diag_cov-n", "diag_cov-k",
        "diag_cov-j", "subcheck-i", "subcheck-j", "subcheck-n", "subcheck-str-n"])
def test_position_formulas_reject_non_integers(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
        call()


def test_position_formulas_accept_integer_like_arguments():
    i3, i1, i2 = numpy.int64(3), numpy.int64(1), numpy.int64(2)
    assert diag_prob(i3, 1, 1, i1) == diag_prob(3, 1, 1, 1)
    assert cell_prob(numpy.int64(4), 1, 1, i1, i2) == cell_prob(4, 1, 1, 1, 2)
    assert joint_diag_alpha(i3, 1, 1, [i1, i2]) == joint_diag_alpha(3, 1, 1, [1, 2])
    assert diag_cov(i3, 1, 1, i1, i2) == diag_cov(3, 1, 1, 1, 2)


@given(RATIONAL_1_9, RATIONAL_1_9, st.integers(min_value=0, max_value=25))
@settings(max_examples=60, deadline=None)
def test_dist_A_matches_urn_recursion(a, b, n):
    # opposite-colour urn started at (a white, b black): after m draws with
    # k white balls added, the next draw adds a white ball with probability
    # (m - k + b)/(m + a + b); A is the number of white balls added
    probs = {0: F(1)}
    for m in range(n):
        nxt: dict[int, F] = {}
        den = m + a + b
        for k, p in probs.items():
            nxt[k] = nxt.get(k, F(0)) + p * (a + k) / den
            nxt[k + 1] = nxt.get(k + 1, F(0)) + p * (m - k + b) / den
        probs = nxt
    assert dist_A(n, a, b) == DiscreteDist.from_map(probs)


@given(RATIONAL_1_9, RATIONAL_1_9, st.integers(min_value=0, max_value=6))
@settings(max_examples=15, deadline=None)
def test_dist_A_is_the_enumeration_marginal(a, b, n):
    pm: dict[int, F] = {}
    for t, p in law_ab(n, 1 / a, 1 / b).items():
        k = counts(t).diagonal_alpha
        pm[k] = pm.get(k, F(0)) + p
    assert dist_A(n, a, b) == DiscreteDist.from_map(pm)


RATIONAL_0_9 = st.builds(F, st.integers(0, 9), st.integers(1, 9))


@given(RATIONAL_0_9, RATIONAL_0_9, st.integers(min_value=2, max_value=40))
@settings(max_examples=40, deadline=None)
def test_dist_A_dagger_symmetry(a, b, n):
    # the dagger involution swaps alpha and beta, so B = n - A under (a, b)
    # has the law of A under (b, a)
    assert law_of_n_minus(dist_A(n, a, b), n) == dist_A(n, b, a)


@given(RATIONAL_0_9, RATIONAL_0_9, st.integers(min_value=2, max_value=40))
@settings(max_examples=40, deadline=None)
def test_dist_A_weights_are_canonical(a, b, n):
    d = dist_A(n, a, b)
    assert math.gcd(*d.weights) == 1 and d.weights[0] and d.weights[-1]
    assert d.total == sum(d.weights)
    assert DiscreteDist.from_map({k: d.pmf(k) for k in d.support()}) == d


def _inverse_weight(x: F):
    return math.inf if x == 0 else 1 / x


@given(st.one_of(st.just(F(0)), RATIONAL_0_9), st.one_of(st.just(F(0)), RATIONAL_0_9),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=30, deadline=None)
def test_pair_laws_match_enumeration(a, b, n):
    # the (N_alpha, N_beta) law read off the exhaustive enumeration at
    # alpha = 1/a, beta = 1/b (a = 0 or b = 0 is an infinite weight)
    joint: dict[tuple[int, int], F] = {}
    alpha: dict[int, F] = {}
    for t, p in law_ab(n, _inverse_weight(a), _inverse_weight(b)).items():
        c = counts(t)
        joint[c.n_alpha, c.n_beta] = joint.get((c.n_alpha, c.n_beta), F(0)) + p
        alpha[c.n_alpha] = alpha.get(c.n_alpha, F(0)) + p
    law = dist_N_pairs(n, a, b)
    assert law.joint_law() == joint
    marginal = law.alpha_law()
    assert {k: p for k, p in zip(marginal.support(), marginal.probs) if p} == alpha


@st.composite
def _size_and_box(draw):
    n = draw(st.integers(1, 5))
    i = draw(st.integers(1, n))
    return n, i, draw(st.integers(1, n + 1 - i))


@given(RATIONAL_0_9, RATIONAL_0_9, _size_and_box())
@settings(max_examples=25, deadline=None)
def test_subtableau_shift_identity(a, b, box):
    # the (i, j)-subtableau of the size-n tableau at (a, b) has the law of
    # the size n-i-j+2 tableau at (a+i-1, b+j-1); a = 0 or b = 0 is an
    # infinite weight
    n, i, j = box
    assert subtableau_law_check(n, a, b, i, j).equal

import math
from collections import Counter
from fractions import Fraction as F

import pytest

from staircase_tableaux import Symbol, Tableau, counts, validate
from staircase_tableaux.distributions import chi_square_gof, dist_A
from staircase_tableaux.enumeration import enumerate_four, law_ab, max_symbol_tableaux
from staircase_tableaux.errors import ParameterError
from staircase_tableaux.rng import SplitMix64, bernoulli, derive_seed
from staircase_tableaux.sampling import (
    INF,
    BatchSummary,
    Params,
    sample_ab,
    sample_batch,
    sample_four,
    urn_sample,
)

A, B = Symbol.ALPHA, Symbol.BETA


def test_splitmix_reference_values():
    # SplitMix64 of seed 0: first outputs of the reference implementation
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    g = SplitMix64(0x123456789ABCDEF)
    vals = {g.next_u64() for _ in range(1000)}
    assert len(vals) == 1000


def test_exact_bernoulli_bounds():
    g = SplitMix64(1)
    assert bernoulli(g, F(0)) is False
    assert bernoulli(g, F(1)) is True
    with pytest.raises(ValueError):
        bernoulli(g, F(3, 2))
    draws = [bernoulli(g, F(1, 3)) for _ in range(30_000)]
    freq = sum(draws) / len(draws)
    assert abs(freq - 1 / 3) < 3 * math.sqrt(2 / 9 / 30_000)


def test_params_conversions():
    p = Params.from_alpha_beta(2, 1)
    assert (p.a, p.b) == (F(1, 2), F(1))
    p = Params.from_alpha_beta(INF, F(1, 3))
    assert (p.a, p.b) == (0, 3)
    p = Params.from_alpha_beta(0, 1)
    assert p.a == INF
    assert Params(F(1, 2), F(1)).alpha == 2
    with pytest.raises(ParameterError):
        Params(-1, 0)
    with pytest.raises(ParameterError):
        Params(1, 1, rho=2)


def test_sample_determinism():
    params = Params.from_alpha_beta(2, 2)
    t1 = sample_ab(6, params, 99)
    t2 = sample_ab(6, params, 99)
    assert t1 == t2
    assert sample_ab(6, params, 100) != t1 or True  # different seed may differ


def test_sample_empty():
    assert sample_ab(0, Params(1, 1), 5) == Tableau(0, ())


def test_samples_always_valid():
    for a, b in [(F(0), F(1)), (F(1), F(0)), (F(1, 3), F(5)), (F(0), F(0))]:
        params = Params(a, b)
        for i in range(200):
            t = sample_ab(5, params, derive_seed(4, i))
            assert validate(t) == []
            c = counts(t)
            assert 5 <= c.total <= 9


def test_single_box_symmetric():
    params = Params.from_alpha_beta(1, 1)
    hits = sum(
        sample_ab(1, params, derive_seed(7, i)).symbol_at(1, 1) is A
        for i in range(20_000)
    )
    assert abs(hits / 20_000 - 0.5) < 3 * math.sqrt(0.25 / 20_000)


def test_step_one_marginal_is_diag_prob():
    # the first constructed box is the NE diagonal box (1, n);
    # P(alpha there) = (n-1+b)/(n+a+b-1)
    from staircase_tableaux.distributions import diag_prob

    n, a, b = 5, F(1, 2), F(2)
    params = Params(a, b)
    want = float(diag_prob(n, a, b, 1))
    hits = sum(
        sample_ab(n, params, derive_seed(11, i)).symbol_at(1, n) is A
        for i in range(40_000)
    )
    freq = hits / 40_000
    assert abs(freq - want) < 3 * math.sqrt(want * (1 - want) / 40_000)


def test_deterministic_extremes():
    t = sample_ab(4, Params(1, INF), 3)      # beta = 0
    assert all(s is A for s in t.diagonal()) and len(t.cells) == 4
    t = sample_ab(4, Params(INF, 1), 3)      # alpha = 0
    assert all(s is B for s in t.diagonal()) and len(t.cells) == 4


def test_all_infinite_uses_rho():
    hits = Counter()
    for i in range(30_000):
        t = sample_ab(2, Params(INF, INF, rho=F(1, 4)), derive_seed(13, i))
        assert len(t.cells) == 2
        hits[t.diagonal()[0] is A] += 1
    freq = hits[True] / 30_000
    assert abs(freq - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 30_000)


def test_alpha_infinite_maximizes_alphas():
    for i in range(300):
        t = sample_ab(4, Params(0, 1), derive_seed(17, i))
        assert counts(t).n_alpha == 4


@pytest.mark.parametrize("alpha,beta", [(F(1), F(1)), (F(2), F(1)), (F(1, 3), F(5))])
def test_sampler_matches_law_chi_square(alpha, beta):
    n, samples = 3, 30_000
    law = law_ab(n, alpha, beta)
    params = Params.from_alpha_beta(alpha, beta)
    obs = Counter()
    for i in range(samples):
        obs[sample_ab(n, params, derive_seed(23, i))] += 1
    res = chi_square_gof(law, obs)
    assert res.p_value > 1e-3, res


def test_maximal_sampler_structure_and_rho():
    params = Params(0, 0, rho=F(1, 3))
    hits = 0
    samples = 30_000
    for i in range(samples):
        t = sample_ab(3, params, derive_seed(29, i))
        c = counts(t)
        assert c.total == 5
        assert t.symbol_at(1, 1) is not None
        if t.symbol_at(1, 1) is A:
            hits += 1
    freq = hits / samples
    assert abs(freq - 1 / 3) < 3 * math.sqrt(2 / 9 / samples)


def test_maximal_sampler_law():
    # P(t) = rho / (n-1)! for t with alpha at (1,1), else (1-rho)/(n-1)!
    rho = F(1, 3)
    law = {}
    for t in max_symbol_tableaux(3):
        law[t] = (rho if t.symbol_at(1, 1) is A else 1 - rho) / 2
    obs = Counter()
    for i in range(30_000):
        obs[sample_ab(3, Params(0, 0, rho=rho), derive_seed(31, i))] += 1
    assert chi_square_gof(law, obs).p_value > 1e-3


def test_sample_four_reduces_to_ab():
    t = sample_four(4, 2, 3, 0, 0, seed=55)
    assert all(s in (A, B) for *_ , s in t.cells)
    base = sample_ab(4, Params.from_alpha_beta(2, 3), derive_seed(55, 0))
    assert t == base


def test_sample_four_uniform():
    law = {t: F(1, 32) for t in enumerate_four(2)}
    obs = Counter()
    for i in range(30_000):
        obs[sample_four(2, 1, 1, 1, 1, derive_seed(59, i))] += 1
    assert chi_square_gof(law, obs).p_value > 1e-3


def test_sample_four_equals_doubled_ab_model():
    # an alpha/beta draw at weights (2,2) with fair relabel coins is the
    # uniform four-symbol model
    law = {t: F(1, 32) for t in enumerate_four(2)}
    params = Params.from_alpha_beta(2, 2)
    obs = Counter()
    for i in range(30_000):
        base = sample_ab(2, params, derive_seed(61, 2 * i))
        coins = SplitMix64(derive_seed(61, 2 * i + 1))
        cells = []
        for r, c, s in base.cells:
            if bernoulli(coins, F(1, 2)):
                s = Symbol.GAMMA if s is A else Symbol.DELTA
            cells.append((r, c, s))
        obs[Tableau(2, tuple(cells))] += 1
    assert chi_square_gof(law, obs).p_value > 1e-3


def test_sample_four_rejects_bad_params():
    with pytest.raises(ParameterError):
        sample_four(2, 0, 1, 0, 1, seed=1)


def test_urn_basic():
    res = urn_sample(1, 1, 1, 3)
    assert res.added_white + res.added_black == 1
    assert res.path[-1] == res.added_white
    hits = sum(urn_sample(1, 1, 1, derive_seed(37, i)).added_white for i in range(20_000))
    assert abs(hits / 20_000 - 0.5) < 3 * math.sqrt(0.25 / 20_000)


def test_urn_matches_dist_A():
    n, a, b = 4, F(1, 2), F(1)
    law = {k: dist_A(n, a, b).pmf(k) for k in range(n + 1)}
    obs = Counter()
    for i in range(30_000):
        obs[urn_sample(n, a, b, derive_seed(41, i)).added_white] += 1
    assert chi_square_gof(law, obs).p_value > 1e-3


def test_urn_empty_start():
    for i in range(200):
        res = urn_sample(3, 0, 0, derive_seed(43, i))
        assert res.path[1] == 1   # composition (1,1) at time 2
    with pytest.raises(ParameterError):
        urn_sample(2, -1, 1, 0)


def test_batch_summary():
    params = Params.from_alpha_beta(2, 2)
    s = sample_batch(10, params, 321, 5000)
    assert s.count == 5000
    assert abs(float(s.mean_diag_alpha()) - 5) < 3 * math.sqrt(11 / 12 / 5000)
    s2 = sample_batch(10, params, 321, 5000)
    assert s == s2
    merged = sample_batch(10, params, 321, 2000)
    rest = BatchSummary()
    for i in range(2000, 5000):
        rest.add(sample_ab(10, params, derive_seed(321, i)))
    assert merged.merge(rest) == s


def test_batch_variance_near_theory():
    # Var A at (alpha,beta)=(2,2), n=11 is (n+1)/12 = 1
    s = sample_batch(11, Params.from_alpha_beta(2, 2), 77, 20_000)
    assert abs(float(s.var_diag_alpha()) - 1.0) < 0.05


def test_batch_workers_equivalence():
    params = Params.from_alpha_beta(1, 2)
    seq = sample_batch(4, params, 9, 400)
    par = sample_batch(4, params, 9, 400, workers=2)
    assert seq == par


def rejection_sample_ab(law, seed: int) -> Tableau:
    """Reference sampler: exact inverse CDF over an enumeration law, so it
    only reaches sizes the oracle can enumerate."""
    rng = SplitMix64(seed)
    items = sorted(law.items(), key=lambda kv: kv[0].cells)
    # reveal 64-bit chunks of a uniform u until u < cdf is decided
    cdf = F(0)
    u_num = 0
    u_bits = 0
    for t, p in items:
        cdf += p
        while True:
            lo = F(u_num, 1 << u_bits) if u_bits else F(0)
            hi = lo + (F(1, 1 << u_bits) if u_bits else F(1))
            if hi <= cdf:
                return t
            if lo >= cdf:
                break
            u_num = (u_num << 64) | rng.next_u64()
            u_bits += 64
    return items[-1][0]


def test_rejection_sampler_agrees():
    law = law_ab(2, 2, 1)
    obs = Counter()
    for i in range(20_000):
        obs[rejection_sample_ab(law, derive_seed(47, i))] += 1
    assert chi_square_gof(law, obs).p_value > 1e-3
    # and the sequential sampler against the same frozen expectations
    obs2 = Counter()
    for i in range(20_000):
        obs2[sample_ab(2, Params.from_alpha_beta(2, 1), derive_seed(53, i))] += 1
    assert chi_square_gof(law, obs2).p_value > 1e-3

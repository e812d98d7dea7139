import hashlib
import math
import re
import sys
import warnings
from collections import Counter
from fractions import Fraction as F
from itertools import chain

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from staircase_tableaux import Symbol, Tableau, counts, serialize, validate
from staircase_tableaux.distributions import (
    cell_prob,
    chi_square_gof,
    dist_A,
    dist_N_pairs,
    joint_diag_alpha,
    n_alpha_growth_check,
)
from staircase_tableaux.enumeration import (
    AB_CAP,
    enumerate_ab,
    enumerate_four,
    law_ab,
    max_symbol_tableaux,
)
from staircase_tableaux import rng, sampling
from staircase_tableaux.errors import ParameterError
from staircase_tableaux.rng import (
    SplitMix64,
    _derived_seeds,
    _draw_chunks,
    bernoulli,
    bernoulli_ratio,
    derive_seed,
    first_passage,
)
from staircase_tableaux.sampling import (
    INF,
    Params,
    sample_ab,
    sample_batch,
    sample_four,
    UrnResult,
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


TAKE_SEEDS = [0, 5, 2**64 - 1, 2**64 - 10**6]   # the last two wrap within a block
TAKE_SIZES = [0, 1, 2, 1023, 1024, 1025, 3000]


@pytest.mark.parametrize("seed", TAKE_SEEDS)
@pytest.mark.parametrize("k", TAKE_SIZES)
def test_take_is_the_next_u64_loop(seed, k):
    g, lanes = SplitMix64(seed), SplitMix64(seed)
    assert lanes.take(k) == [g.next_u64() for _ in range(k)]
    assert lanes.state == g.state
    assert lanes.take(5) == [g.next_u64() for _ in range(5)]   # and the stream goes on


def test_take_lane_path_of_the_other_byte_order(monkeypatch):
    # the read-back of the byte order this host does not have: to_bytes in
    # that order puts each lane's low word where a host of that order reads
    # it, so here every output comes out in its place with its 8 bytes reversed
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(rng, "_BYTE_ORDER", other)
    for seed in TAKE_SEEDS:
        for k in (1, 2, 1025, 3000):
            g, lanes = SplitMix64(seed), SplitMix64(seed)
            swapped = [int.from_bytes(u.to_bytes(8, "little"), "big") for u in lanes.take(k)]
            assert swapped == [g.next_u64() for _ in range(k)]
            assert lanes.state == g.state


@pytest.mark.parametrize("count", [0, 1, 3, 1024, 1025, 2100, 3001])
def test_batch_seeds_in_blocks_are_derive_seed(count):
    for seed in TAKE_SEEDS + [-3]:
        assert list(_derived_seeds(seed, count)) == [derive_seed(seed, i) for i in range(count)]


@pytest.mark.parametrize("coins", [0, 1, 8, rng._BLOCKS_FROM - 1, rng._BLOCKS_FROM, 40])
def test_batch_chunk_sources_are_each_draws_stream(coins):
    # draw i's source hands out SplitMix64(derive_seed(seed, i))'s outputs
    # in order, past the `coins` outputs expanded for the whole group too;
    # 1030 draws cross a group of _BLOCK seeds
    for seed in (5, 2**64 - 1):
        sources = list(_draw_chunks(seed, 1030, coins))
        assert len(sources) == 1030
        for i, chunk in enumerate(sources):
            g = SplitMix64(derive_seed(seed, i))
            assert [chunk() for _ in range(coins + 5)] == [g.next_u64() for _ in range(coins + 5)]


def test_batch_chunk_sources_of_the_other_byte_order(monkeypatch):
    # as in test_take_lane_path_of_the_other_byte_order, each seed and each
    # expanded output is read back in its place with its 8 bytes reversed;
    # the seeds, read from take blocks, come reversed too, so every lane
    # holds its own seed and each expanded output is draw i's, reversed
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(rng, "_BYTE_ORDER", other)
    for coins in (1, 8):
        for i, chunk in enumerate(_draw_chunks(9, 1030, coins)):
            g = SplitMix64(derive_seed(9, i))
            swapped = [int.from_bytes(chunk().to_bytes(8, "little"), "big") for _ in range(coins)]
            assert swapped == [g.next_u64() for _ in range(coins)]


SEED_CALLS = {
    "sample_ab": lambda seed: sample_ab(3, Params(1, 1), seed),
    "sample_four": lambda seed: sample_four(3, 1, 1, 1, 1, seed),
    "urn_sample": lambda seed: urn_sample(5, 1, 1, seed),
    "sample_batch": lambda seed: sample_batch(3, Params(1, 1), seed, 5),
    "derive_seed": lambda seed: derive_seed(seed, 3),
}


@pytest.mark.parametrize("call", SEED_CALLS.values(), ids=SEED_CALLS.keys())
@pytest.mark.parametrize("kind", [numpy.int64, numpy.int32, numpy.uint64])
def test_numpy_integer_seed_draws_as_the_equal_int(call, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no wrapping uint64 arithmetic
        assert call(kind(5)) == call(5)


@pytest.mark.parametrize("call", SEED_CALLS.values(), ids=SEED_CALLS.keys())
@pytest.mark.parametrize("seed", [1.5, "7", None], ids=["1.5", "str", "None"])
def test_non_integer_seed_is_a_named_parameter_error(call, seed):
    with pytest.raises(ParameterError, match=f"^seed must be an integer, got {seed!r}$"):
        call(seed)


def test_seed_and_index_are_any_integer_mod_2_64():
    assert derive_seed(5, numpy.int64(1)) == derive_seed(5, 1)
    assert derive_seed(-1, -2) == derive_seed(2**64 - 1, 2**64 - 2)
    assert derive_seed(numpy.uint64(2**64 - 1), 3) == derive_seed(-1, 3)
    with pytest.raises(ParameterError, match=r"^index must be an integer, got 1\.0$"):
        derive_seed(5, 1.0)


def test_exact_bernoulli_bounds():
    g = SplitMix64(1)
    assert bernoulli(g, F(0)) is False
    assert bernoulli(g, F(1)) is True
    with pytest.raises(ValueError):
        bernoulli(g, F(3, 2))
    draws = [bernoulli(g, F(1, 3)) for _ in range(30_000)]
    freq = sum(draws) / len(draws)
    assert abs(freq - 1 / 3) < 3 * math.sqrt(2 / 9 / 30_000)


@given(p=st.integers(0, 10**6), extra=st.integers(0, 10**6),
       k=st.integers(1, 10**12), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_bernoulli_ratio_agrees_with_bernoulli(p, extra, k, seed):
    # the ratio need not be reduced: same decisions, same chunks consumed
    q = p + extra
    if q == 0:
        return
    g1, g2 = SplitMix64(seed), SplitMix64(seed)
    for _ in range(20):
        assert bernoulli_ratio(g1, k * p, k * q) == bernoulli(g2, F(p, q))
        assert g1.state == g2.state


def test_exact_coins_reject_bad_arguments():
    g = SplitMix64(1)
    for num, den in [(-1, 2), (3, 2), (0, 0), (1, -1)]:
        with pytest.raises(ValueError):
            bernoulli_ratio(g, num, den)
    for w, d, steps in [(5, 0, 1), (5, 1, -1), (5, 2, 3)]:
        with pytest.raises(ValueError):
            first_passage(g, w, d, steps)
    with pytest.raises(ValueError, match="^need k >= 0 outputs, got -1$"):
        g.take(-1)


@pytest.mark.parametrize("call, match", [
    (lambda g: bernoulli(g, F(3, 2)), r"^p must be a rational in \[0, 1\], got 3/2$"),
    (lambda g: bernoulli(g, -0.5), r"^p must be a rational in \[0, 1\], got -1/2$"),
    (lambda g: bernoulli(g, "x"), r"^p must be a rational in \[0, 1\], got 'x'$"),
    (lambda g: bernoulli(g, math.inf), r"^p must be a rational in \[0, 1\], got inf$"),
    (lambda g: bernoulli_ratio(g, 1.5, 2), r"^num must be an integer, got 1\.5$"),
    (lambda g: bernoulli_ratio(g, -1, 2), r"^num must be >= 0, got -1$"),
    (lambda g: bernoulli_ratio(g, 1, 0), r"^den must be >= 1, got 0$"),
    (lambda g: bernoulli_ratio(g, 3, 2), r"^need num <= den, got 3/2$"),
    (lambda g: first_passage(g, 1, 0, 1), r"^d must be >= 1, got 0$"),
    (lambda g: first_passage(g, 5, 1, -1), r"^steps must be >= 0, got -1$"),
    (lambda g: first_passage(g, 5.0, 1, 1), r"^w must be an integer, got 5\.0$"),
    (lambda g: first_passage(g, 5, 2, 3), r"^need w >= steps \* d, got w=5, d=2, steps=3$"),
    (lambda g: g.take(-1), r"^need k >= 0 outputs, got -1$"),
    (lambda g: g.take(2.0), r"^k must be an integer, got 2\.0$"),
])
def test_public_coins_raise_named_parameter_errors(call, match):
    g = SplitMix64(1)
    with pytest.raises(ParameterError, match=match):
        call(g)
    assert g.state == SplitMix64(1).state   # and read no chunk


def test_public_coins_read_any_rational_and_integer_exactly():
    # p is read exactly as the weights are: 0.5 is 1/2 and 0.1 is the
    # double nearest 1/10, not 1/10
    for p, exact in [(0.5, F(1, 2)), (0.1, F(0.1)), ("2/3", F(2, 3)),
                     (numpy.float64(0.25), F(1, 4))]:
        g1, g2 = SplitMix64(8), SplitMix64(8)
        assert [bernoulli(g1, p) for _ in range(50)] == [bernoulli(g2, exact) for _ in range(50)]
    g1, g2 = SplitMix64(8), SplitMix64(8)
    i64, i32 = numpy.int64, numpy.int32
    assert bernoulli_ratio(g1, i64(1), i64(3)) == bernoulli_ratio(g2, 1, 3)
    assert first_passage(g1, i32(9), i32(2), i32(4)) == first_passage(g2, 9, 2, 4)
    assert g1.take(i64(3)) == g2.take(3)


class Chunks:
    """A stream that yields the given 64-bit chunks first, then SplitMix64
    output, and records every chunk it hands out."""

    def __init__(self, first, seed=0):
        self.first = list(first)
        self.rest = SplitMix64(seed)
        self.used = []

    def next_u64(self) -> int:
        u = self.first.pop(0) if self.first else self.rest.next_u64()
        self.used.append(u)
        return u


def test_coins_straddling_first_chunk():
    # U in [u1, u1 + 1) / 2^64 with u1 = (2^64 - 1)/3 holds 1/3, so neither
    # coin can decide on the first chunk; the second one decides
    third = 0x5555555555555555
    for second, want_c, want_coin in [(0, 0, True), ((1 << 64) - 1, 1, False)]:
        g = Chunks([third, second])
        assert first_passage(g, 3, 1, 2) == want_c   # floor(3U) against 1/3
        assert len(g.used) == 2
        g = Chunks([third, second])
        assert bernoulli_ratio(g, 1, 3) is want_coin
        assert len(g.used) == 2


@given(d=st.integers(1, 10**30), steps=st.integers(1, 50), extra=st.integers(0, 10**30),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_first_passage_is_floor_of_revealed_uniform(d, steps, extra, data):
    # start the stream on the chunk that holds the boundary U = i*d/w, so
    # the multi-chunk path runs; the answer must be min(steps, floor(U*w/d))
    # for every U the consumed chunks allow
    w = steps * d + extra
    i = data.draw(st.integers(1, steps))
    first = min((i * d << 64) // w, (1 << 64) - 1)   # i*d = w is the point U = 1
    g = Chunks([first], seed=data.draw(st.integers(0, 2**64 - 1)))
    c = first_passage(g, w, d, steps)
    v = 0
    for u in g.used:
        v = (v << 64) | u
    scale = 1 << (64 * len(g.used))
    lo = min(steps, v * w // (d * scale))
    hi = min(steps, -(-(v + 1) * w // (d * scale)) - 1)
    assert c == lo == hi


@pytest.mark.parametrize("w,d,steps", [(7, 2, 3), (29, 5, 5), (12, 3, 4),
                                       (5 * 2**70 + 3, 2**70 + 1, 4)])
def test_first_passage_law_chi_square(w, d, steps):
    # P(C >= i) = (w - i d)/w; (12, 3, 4) is the b = 0 edge w = steps * d,
    # where C = steps has probability 0
    law = {i: F(d, w) for i in range(steps)}
    law[steps] = F(w - steps * d, w)
    g = SplitMix64(20240531 + w)
    obs = Counter(first_passage(g, w, d, steps) for _ in range(30_000))
    if w == steps * d:
        assert obs[steps] == 0
        del law[steps]
    assert chi_square_gof(law, obs).p_value > 1e-3


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


GOLDEN_STREAM = "ffff31ab00317f7ce2413a0191757c68d2d81590442a417cf40777f8a2a495f7"


def test_golden_stream():
    # one digest over serialised draws pins the coin stream: every weight
    # regime of sample_ab (finite, a = 0, b = 0, one or both weights
    # infinite, the rho tie), sample_four and a sample_batch summary.  A
    # change to the sampler must leave every draw byte-identical per seed.
    h = hashlib.sha256()
    regimes = [Params(F(1, 3), F(5, 7)), Params(F(7, 3), F(3, 5)), Params(F(0), F(2, 3)),
               Params(F(5, 3), F(0)), Params(INF, F(2, 3)), Params(F(3, 7), INF),
               Params(INF, INF, F(1, 4)), Params(F(0), F(0), F(1, 4)), Params(F(0), F(0))]
    for k, params in enumerate(regimes):
        for n in (0, 1, 2, 3, 4, 5, 9, 17, 40):
            for i in range(12):
                h.update(serialize(sample_ab(n, params, derive_seed(1000 + k, 100 * n + i))))
    for weights in [(F(2), F(3, 7), F(1, 3), F(5)), (1, 1, 1, 1), (F(1, 2), 0, 0, 3)]:
        for n in (1, 4, 11):
            for i in range(12):
                h.update(serialize(sample_four(n, *weights, derive_seed(2000 + n, i))))
    s = sample_batch(4, Params(F(1, 2), F(1, 3)), 3000, 400)
    h.update(repr((s.count, s.sum_diag_alpha, s.sum_diag_alpha_sq,
                   sorted(s.diag_alpha_counts.items()),
                   sorted((tuple((r, c, x.value) for r, c, x in t), m)
                          for t, m in s.tableau_counts.items()))).encode())
    assert h.hexdigest() == GOLDEN_STREAM


GOLDEN_LARGE = "7ccd74d8120a88a52432e374929c8c57bac2fc9b500ee431780f53fad7b0b66a"


def test_golden_stream_large():
    # test_golden_stream stops at n = 40; this digest pins the coins of
    # large draws, where the sampler may read its chunks in blocks: sample_ab
    # in the finite, a = 0, b = 0 and rho-tie regimes, sample_four with
    # relabel coins that read chunks and ones that are certain, and a batch
    h = hashlib.sha256()
    regimes = [Params(F(1, 3), F(5, 7)), Params(F(0), F(2, 3)), Params(F(5, 3), F(0)),
               Params(F(0), F(0), F(1, 4))]
    for k, params in enumerate(regimes):
        for n in (64, 400):
            for i in range(3):
                h.update(serialize(sample_ab(n, params, derive_seed(3000 + k, 1000 * n + i))))
    for weights in [(F(2), F(3, 7), F(1, 3), F(5)), (F(1, 2), 0, 0, 3)]:
        for n in (64, 400):
            for i in range(3):
                h.update(serialize(sample_four(n, *weights, derive_seed(4000 + n, i))))
    s = sample_batch(64, Params(F(7, 3), F(3, 5)), 5000, 20)
    h.update(repr((s.count, s.sum_diag_alpha, s.sum_diag_alpha_sq,
                   sorted(s.diag_alpha_counts.items()))).encode())
    assert h.hexdigest() == GOLDEN_LARGE


GOLDEN_EDGES = "8ae9980677c540310efd4216f94c692704925295aa388d705bde7032f904ebe1"


def _repr_or_error(f, *args) -> str:
    try:
        return repr(f(*args))
    except ValueError as e:
        return repr(e)


def test_weight_edges_are_pinned():
    # the outputs where a weight is infinite or zero, or a = b = 0 ties: the
    # diagonal draws at a or b = inf, the pair laws and growth sums, and
    # every off-diagonal box and diagonal product up to n = 7, with their
    # errors.  Recorded before these edges were folded into the general rules
    h = hashlib.sha256()
    regimes = [Params(INF, INF, rho) for rho in (F(0), F(1, 4), F(1))]
    regimes += [Params(INF, INF), Params(INF, F(2, 3)), Params(F(3, 7), INF),
                Params(INF, F(0)), Params(F(0), INF)]
    for params in regimes:
        for n in range(30):
            for seed in range(25):
                h.update(repr(sample_ab(n, params, seed)).encode())
    points = [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(2, 3), F(5, 2))]
    for a, b in points:
        for n in range(25):
            law = dist_N_pairs(n, a, b)
            h.update(repr((law, sorted(law.joint_law().items()), law.alpha_law())).encode())
        if (a, b) != (0, 0):
            h.update(repr(n_alpha_growth_check([1, 2, 3, 7, 7, 40, 100], a, b)).encode())
        for n in range(8):
            for i in range(1, n):
                for j in range(1, n + 1 - i):
                    h.update(_repr_or_error(cell_prob, n, a, b, i, j).encode())
            for js in [(), (1,), (1, n), tuple(range(1, n + 1))]:
                h.update(_repr_or_error(joint_diag_alpha, n, a, b, js).encode())
    assert h.hexdigest() == GOLDEN_EDGES


def test_sample_determinism():
    params = Params.from_alpha_beta(2, 2)
    t1 = sample_ab(6, params, 99)
    t2 = sample_ab(6, params, 99)
    assert t1 == t2
    assert any(sample_ab(6, params, seed) != t1 for seed in range(100, 120))


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


@pytest.mark.parametrize("call", [
    lambda params: sample_ab(4, params, 0),
    lambda params: sample_ab(0, params, 0),
    lambda params: sample_batch(4, params, 0, 10),
], ids=["sample_ab", "sample_ab-n=0", "sample_batch"])
@pytest.mark.parametrize("params", [(1, 1), None, F(1)], ids=["tuple", "None", "Fraction"])
def test_params_that_is_not_a_params_is_a_named_parameter_error(call, params):
    want = f"^params must be a Params, got {re.escape(repr(params))}$"
    with pytest.raises(ParameterError, match=want):
        call(params)


def test_sample_four_rejects_bad_params():
    with pytest.raises(ParameterError):
        sample_four(2, 0, 1, 0, 1, seed=1)


@pytest.mark.parametrize("call, name", [
    (lambda: sample_four(3, math.inf, 1, 0, 0, seed=1), "alpha"),
    (lambda: sample_four(3, 1, 1, 0, math.inf, seed=1), "delta"),
    (lambda: sample_four(3, 1, 1, -1, 0, seed=1), "gamma"),
    (lambda: urn_sample(3, math.inf, 1, 1), "a"),
    (lambda: urn_sample(3, 1, -math.inf, 1), "b"),
    (lambda: urn_sample(3, 1, -1, 1), "b"),
])
def test_infinite_or_negative_weight_is_a_named_parameter_error(call, name):
    with pytest.raises(ParameterError, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: Params(-1, 0), "a"),
    (lambda: Params(1, F(-1, 2)), "b"),
    (lambda: Params("x", 1), "a"),
    (lambda: Params(1, -math.inf), "b"),
    (lambda: Params(1, math.nan), "b"),
    (lambda: Params(1, 1, rho="x"), "rho"),
    (lambda: Params(1, 1, rho=math.inf), "rho"),
    (lambda: Params(1, 1, rho=F(-1, 3)), "rho"),
    (lambda: Params.from_alpha_beta(-1, 1), "alpha"),
    (lambda: Params.from_alpha_beta(1, "x"), "beta"),
])
def test_bad_params_weight_or_rho_is_a_named_parameter_error(call, name):
    with pytest.raises(ParameterError, match=f"^{name} must "):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: sample_four(-1, 1, 1, 0, 0, seed=1), "^n must be >= 0"),
])
def test_sample_four_guards_n_and_rho(call, match):
    with pytest.raises(ParameterError, match=match):
        call()


N_CALLS = {
    "sample_ab": (lambda n: sample_ab(n, Params(1, 1), 0), "n"),
    "sample_four": (lambda n: sample_four(n, 1, 1, 1, 1, 0), "n"),
    "urn_sample": (lambda n: urn_sample(n, 1, 1, 0), "n"),
    "sample_batch-n": (lambda n: sample_batch(n, Params(1, 1), 0, 3), "n"),
    "sample_batch-count": (lambda n: sample_batch(3, Params(1, 1), 0, n), "count"),
    "law_ab": (lambda n: law_ab(n, 1, 1), "n"),
    "enumerate_ab": (lambda n: list(enumerate_ab(n)), "n"),
}


@pytest.mark.parametrize("call, name", N_CALLS.values(), ids=N_CALLS.keys())
@pytest.mark.parametrize("n", [2.5, 3.0, "3", None], ids=["2.5", "3.0", "str", "None"])
def test_non_integer_n_is_a_named_parameter_error(call, name, n):
    with pytest.raises(ParameterError, match=f"^{name} must be an integer, got "):
        call(n)


@pytest.mark.parametrize("call, name", N_CALLS.values(), ids=N_CALLS.keys())
def test_numpy_integer_n_is_accepted(call, name):
    assert call(numpy.int64(3)) == call(3)


def spellings(x: F) -> list:
    """The ways a caller may pass the rational x: a Fraction, a "p/q"
    string, and an int, a NumPy int or a float where x is one exactly."""
    out = [x, f"{x.numerator}/{x.denominator}"]
    if x.denominator == 1:
        out += [int(x), numpy.int64(x)]
    if x.denominator & (x.denominator - 1) == 0:
        out.append(float(x))
    return out


def respelled(args: tuple):
    """Each way of passing ``args`` with one argument spelled otherwise."""
    for k, x in enumerate(args):
        for spelled in spellings(x):
            yield args[:k] + (spelled,) + args[k + 1:]


@pytest.mark.parametrize("args", [(F(2), F(3, 7), F(1, 2), F(0)),
                                  (F(0), F(5), F(3), F(1, 2))])
def test_sample_four_weight_spellings_draw_alike(args):
    # Fractions skip the Fraction(x) conversion; every other spelling of
    # the same weights must give the same draw per seed
    seeds = [derive_seed(97, i) for i in range(20)]
    want = [serialize(sample_four(4, *args, s)) for s in seeds]
    for spelled in respelled(args):
        assert [serialize(sample_four(4, *spelled, s)) for s in seeds] == want, spelled


@pytest.mark.parametrize("args", [(F(3, 7), F(2)), (F(1, 2), F(0)), (F(0), F(0))])
def test_urn_weight_spellings_draw_alike(args):
    seeds = [derive_seed(101, i) for i in range(20)]
    want = [urn_sample(12, *args, s) for s in seeds]
    for spelled in respelled(args):
        assert [urn_sample(12, *spelled, s) for s in seeds] == want, spelled


@pytest.mark.parametrize("args", [(F(1, 2), F(2), F(1, 4)), (F(0), F(3, 7), F(1)),
                                  (F(0), F(0), F(0))])
def test_params_weight_spellings_draw_alike(args):
    params = Params(*args)
    seeds = [derive_seed(103, i) for i in range(20)]
    want = [serialize(sample_ab(5, params, s)) for s in seeds]
    for spelled in respelled(args):
        assert Params(*spelled) == params
        assert [serialize(sample_ab(5, Params(*spelled), s)) for s in seeds] == want


BAD_WEIGHT_CALLS = {
    "sample_four-alpha": (lambda w: sample_four(3, w, 1, 0, 0, 1), "alpha must be >= 0"),
    "sample_four-delta": (lambda w: sample_four(3, 1, 1, 0, w, 1), "delta must be >= 0"),
    "urn_sample-a": (lambda w: urn_sample(3, w, 1, 1), "a must be >= 0"),
    "urn_sample-b": (lambda w: urn_sample(3, 1, w, 1), "b must be >= 0"),
    "Params-a": (lambda w: Params(w, 1), "a must be a rational >= 0 or inf"),
    "Params-rho": (lambda w: Params(1, 1, w), "rho must be a rational in [0, 1]"),
    "from_alpha_beta-beta": (lambda w: Params.from_alpha_beta(1, w),
                             "beta must be a rational >= 0 or inf"),
}


@pytest.mark.parametrize("call, rule", BAD_WEIGHT_CALLS.values(), ids=BAD_WEIGHT_CALLS.keys())
def test_negative_weight_in_any_spelling_keeps_its_message(call, rule):
    for bad in spellings(F(-1, 2)) + spellings(F(-1)):
        with pytest.raises(ParameterError) as info:
            call(bad)
        assert str(info.value) == f"{rule}, got {F(bad)}"


@pytest.mark.parametrize("call", [lambda w: Params(1, 1, w)], ids=["Params"])
def test_rho_above_one_in_any_spelling_keeps_its_message(call):
    for bad in spellings(F(3, 2)):
        with pytest.raises(ParameterError) as info:
            call(bad)
        assert str(info.value) == "rho must be a rational in [0, 1], got 3/2"


SAMPLERS = {
    "finite": lambda n, seed: sample_ab(n, Params(F(1, 3), F(5, 7)), seed),
    "a=0": lambda n, seed: sample_ab(n, Params(F(0), F(2, 3)), seed),
    "b=0": lambda n, seed: sample_ab(n, Params(F(5, 3), F(0)), seed),
    "rho-tie": lambda n, seed: sample_ab(n, Params(F(0), F(0), F(1, 4)), seed),
    "a=inf": lambda n, seed: sample_ab(n, Params(INF, F(2, 3)), seed),
    "b=inf": lambda n, seed: sample_ab(n, Params(F(3, 7), INF), seed),
    "a=b=inf": lambda n, seed: sample_ab(n, Params(INF, INF, F(1, 4)), seed),
    "four": lambda n, seed: sample_four(n, F(2), F(3, 7), F(1, 3), F(5), seed),
}


@pytest.mark.parametrize("draw", SAMPLERS.values(), ids=SAMPLERS.keys())
def test_sampled_tableau_equals_its_public_construction(draw):
    # the samplers build their tableaux without the public constructor's
    # checks; the result must be the very value the public one makes
    for n in (1, 2, 3, 5, 17):
        for i in range(10):
            t = draw(n, derive_seed(107, 100 * n + i))
            public = Tableau(t.n, t.cells)
            assert t == public and hash(t) == hash(public)
            assert isinstance(t.cells, tuple) and list(t.cells) == sorted(t.cells)
            assert validate(t) == []


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


def test_urn_golden_path():
    # the path drawn for a given seed is pinned: reproducible urn runs rely on it
    assert urn_sample(30, F(2, 3), F(5, 7), 12345).path == (
        0, 0, 0, 1, 2, 2, 2, 3, 4, 5, 5, 5, 6, 7, 8, 8, 9, 9,
        10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10)


GOLDEN_URN_LARGE = "4cb16afff462d530098e1e786cfa299667d0014f81ceea9fcf363f4ea5e61fd2"


def test_urn_golden_paths_large():
    # test_urn_golden_path stops at n = 30; this digest pins long paths, past
    # one and two blocks of chunks, in every start: both weights positive,
    # a = 0, b = 0, the a = b = 0 tie, and huge denominators
    h = hashlib.sha256()
    for n in (3, 33, 1025, 2049, 20000):
        for a, b in [(F(1), F(1)), (F(1, 3), F(5)), (F(0), F(5, 7)), (F(2, 3), F(0)),
                     (F(0), F(0)), (F(2**63 + 12345, 3), F(7, 2**61 + 1))]:
            for seed in (7, 2**64 - 3):
                h.update(repr(urn_sample(n, a, b, seed).path).encode())
    assert h.hexdigest() == GOLDEN_URN_LARGE


def per_coin_urn(n, a, b, stream):
    """The reference urn: one ``bernoulli_ratio`` coin per draw, read from
    ``stream`` chunk by chunk; urn_sample must draw the same path."""
    a, b = F(a), F(b)
    d = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    white_added, path = 0, []
    for k in range(n):
        if A + B == 0 and k == 0:
            white_added += bernoulli_ratio(stream, 1, 2)
        elif not bernoulli_ratio(stream, A + white_added * d, A + B + k * d):
            white_added += 1
        path.append(white_added)
    return UrnResult(white_added, n - white_added, tuple(path))


weights = st.fractions(min_value=0, max_value=20, max_denominator=50)


@given(n=st.integers(0, 300), a=weights, b=weights, seed=st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_urn_equals_the_per_coin_reference(n, a, b, seed):
    assert urn_sample(n, a, b, seed) == per_coin_urn(n, a, b, SplitMix64(seed))


@pytest.mark.parametrize("n", [1, 2, 5, 1023, 1024, 1025, 2049])
@pytest.mark.parametrize("a, b", [(F(0), F(5, 7)), (F(2, 3), F(0)), (F(0), F(0)),
                                  (F(2**63 + 12345, 3), F(7, 2**61 + 1))],
                         ids=["a=0", "b=0", "a=b=0", "huge-denominators"])
def test_urn_equals_the_per_coin_reference_at_block_edges(n, a, b):
    for seed in (5, 2**64 - 1):
        assert urn_sample(n, a, b, seed) == per_coin_urn(n, a, b, SplitMix64(seed))


class Scripted(SplitMix64):
    """SplitMix64 that hands out the given chunks first, through next_u64
    and take alike, and counts every chunk it hands out and every take."""

    def __init__(self, seed, first):
        super().__init__(seed)
        self.first, self.handed, self.takes = list(first), 0, 0

    def next_u64(self):
        self.handed += 1
        return self.first.pop(0) if self.first else super().next_u64()

    def take(self, k):
        head, self.first = self.first[:k], self.first[k:]
        self.handed += k
        self.takes += 1
        return head + super().take(k - len(head))


def straddling_chunks(num, den, depth):
    """``depth`` chunks that each leave the coin U < num/den undecided: every
    one is the next base-2^64 digit of num/den itself."""
    chunks = []
    for _ in range(depth):
        u, num = divmod(num << 64, den)
        chunks.append(u)
    return chunks


@pytest.mark.parametrize("n", [1, 2, 5, 1025])
@pytest.mark.parametrize("depth", [2, 3])
def test_urn_multi_chunk_coins_with_huge_denominators(monkeypatch, n, depth):
    # the first coin is P(white) = a/(a + b); its first `depth` chunks are
    # the digits of a/(a + b), so it needs one chunk more, and at n <= depth
    # the urn must refill its block in the middle of that coin
    a, b = F(2**63 + 12345, 3), F(7, 2**61 + 1)
    first = straddling_chunks(a.numerator * b.denominator,
                              a.numerator * b.denominator + b.numerator * a.denominator, depth)
    reference = Scripted(11, first)
    want = per_coin_urn(n, a, b, reference)
    assert reference.handed > n   # the reference coin did take several chunks
    streams = []

    def scripted(seed):
        streams.append(Scripted(seed, first))
        return streams[-1]

    monkeypatch.setattr(sampling, "SplitMix64", scripted)
    assert urn_sample(n, a, b, 11) == want
    assert streams[0].handed > n   # so did the urn: it took a block more than n draws need


def scripted_streams(monkeypatch, scripts):
    """Make the sampler's i-th SplitMix64 a Scripted stream that hands out
    scripts[i] first; returns the list of streams made so far."""
    streams = []

    def make(seed):
        script = scripts[len(streams)] if len(streams) < len(scripts) else ()
        streams.append(Scripted(seed, script))
        return streams[-1]

    monkeypatch.setattr(sampling, "SplitMix64", make)
    return streams


# (a, b, k, n): draw k of n opens.  Draw 2 of the a = b = 0 urn is the
# dyadic coin 1/2, which no chunk leaves open, so that urn opens at draw 3
OPEN_DRAWS = {
    "finite-k=2": (F(1, 3), F(5), 2, 40),
    "finite-k=5": (F(1, 3), F(5), 5, 40),
    "finite-k=5-last-of-block": (F(1, 3), F(5), 5, 6),
    "a=0-k=2": (F(0), F(5, 7), 2, 40),
    "a=0-k=5": (F(0), F(5, 7), 5, 40),
    "a=0-k=5-last-of-block": (F(0), F(5, 7), 5, 6),
    "a=b=0-k=3": (F(0), F(0), 3, 40),
    "a=b=0-k=5": (F(0), F(0), 5, 40),
    "a=b=0-k=5-last-of-block": (F(0), F(0), 5, 6),
}


@pytest.mark.parametrize("a, b, k, n", OPEN_DRAWS.values(), ids=OPEN_DRAWS.keys())
@pytest.mark.parametrize("depth", [2, 3])
def test_urn_open_chunk_at_a_later_draw(monkeypatch, a, b, k, n, depth):
    # chunks of 0 draw white, so w stays what draws 0 and 1 leave it: 1 after
    # a certain black at a = 0 or the a = b = 0 tie's chunk of 0; draw k's first
    # `depth` chunks are the digits of its P(white), so it reads one chunk
    # more.  At k = n - 1 its first chunk is the last of the urn's first block,
    # so the coin reads on in the refill
    d = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    w = 1 if A == 0 else 0
    script = [0] * (k - w) + straddling_chunks(A + w * d, A + B + k * d, depth)
    reference = Scripted(23, script)
    want = per_coin_urn(n, a, b, reference)
    assert want.path[k - 1] == w and reference.handed == n - w + depth
    streams = scripted_streams(monkeypatch, [script])
    assert urn_sample(n, a, b, 23) == want
    assert streams[0].takes == 2   # the first block holds one chunk per draw, then a refill


WIDE = Params(F(1, 3), F(5, 7))   # A = 7, B = 15, d = 21: no coin of it is dyadic


# Each script gives the chunks the sampler's streams hand out first and
# the public coins that read the last stream's script as the draw does.

def sigma_script(n, depth):
    # the step-1 sigma coin b_1/(A + b_1), undecided for `depth` chunks
    A, B, d = WIDE._scaled
    b_1 = B + (n - 1) * d
    return [straddling_chunks(b_1, A + b_1, depth)], lambda g: bernoulli_ratio(g, b_1, A + b_1)


def passage_script(n, depth):
    # chunk 0 makes the step-1 sigma coin Alpha; the first-passage draw of
    # row 1 then sits on its boundary U = d/w for `depth` chunks
    A, B, d = WIDE._scaled
    b_1 = B + (n - 1) * d
    return ([[0] + straddling_chunks(d, b_1, depth)],
            lambda g: bernoulli_ratio(g, b_1, A + b_1) and first_passage(g, b_1, d, n - 1))


def relabel_script(n, depth):
    # the base draw reads plain chunks; the first relabel coin, 2/7 for
    # either symbol at weights (1, 1, 2/5, 2/5), is undecided for `depth`
    # chunks (2/7 repeats every third chunk, so a dropped chunk shows)
    return [[], straddling_chunks(2, 7, depth)], lambda g: bernoulli_ratio(g, 2, 7)


def rho_script(n, depth):
    # both weights infinite: the first box's rho coin 2/7, undecided for
    # `depth` chunks
    return [straddling_chunks(2, 7, depth)], lambda g: bernoulli_ratio(g, 2, 7)


SCRIPTED_DRAWS = {
    "sigma": (sigma_script, lambda n: sample_ab(n, WIDE, 17)),
    "passage": (passage_script, lambda n: sample_ab(n, WIDE, 17)),
    "relabel": (relabel_script, lambda n: sample_four(n, 1, 1, F(2, 5), F(2, 5), 17)),
    "rho": (rho_script, lambda n: sample_ab(n, Params(INF, INF, F(2, 7)), 17)),
}


@pytest.mark.parametrize("coin", SCRIPTED_DRAWS)
@pytest.mark.parametrize("size", ["below", "at", "above"])
@pytest.mark.parametrize("depth", ["short", "past-the-first-block"])
def test_block_fed_draws_equal_next_u64_fed_on_multi_chunk_coins(monkeypatch, coin, size, depth):
    # a draw's chunks come from next_u64 or from take blocks by its coin
    # count; either way it reads the same chunks in the same order.  The
    # scripted coin reads depth + 1 chunks, and past the first block (which
    # holds at most 2n chunks) a refill falls inside it.  Random seeds never
    # reach these paths: a coin reads a second chunk with probability ~2^-60
    script, draw = SCRIPTED_DRAWS[coin]
    n = {"below": rng._BLOCKS_FROM // 2 - 1, "at": rng._BLOCKS_FROM // 2,
         "above": rng._BLOCKS_FROM}[size]
    scripts, read = script(n, {"short": 2, "past-the-first-block": 2 * n + 3}[depth])
    g = Chunks(scripts[-1])
    read(g)
    assert len(g.used) == len(scripts[-1]) + 1   # every scripted chunk and one more
    monkeypatch.setattr(rng, "_BLOCKS_FROM", math.inf)
    reference = scripted_streams(monkeypatch, scripts)
    want = draw(n)
    monkeypatch.undo()
    fed = scripted_streams(monkeypatch, scripts)
    assert draw(n) == want
    # the scripted stream read blocks exactly when its draw has enough coins
    coins = {"relabel": len(want.cells), "rho": n}.get(coin, 2 * n)
    assert reference[-1].takes == 0
    assert (fed[-1].takes > 0) == (coins >= rng._BLOCKS_FROM)


def test_urn_empty_start():
    for i in range(200):
        res = urn_sample(3, 0, 0, derive_seed(43, i))
        assert res.path[1] == 1   # composition (1,1) at time 2
    with pytest.raises(ParameterError):
        urn_sample(2, -1, 1, 0)


@pytest.mark.parametrize("n, a, b, path", [(1, 0, 1, (1,)), (1, F(2, 3), 0, (0,)),
                                           (2, 0, 0, None)])
def test_urn_certain_draws_read_no_chunk(monkeypatch, n, a, b, path):
    # the leading draws flip the kernel's own coin: a certain one reads no
    # chunk, and the a = b = 0 tie one fair coin from next_u64
    made = []
    monkeypatch.setattr(sampling, "SplitMix64", lambda seed: made.append(Scripted(seed, [])) or made[-1])
    for i in range(64):
        seed = derive_seed(47, i)
        res = urn_sample(n, a, b, seed)
        reads = 1 if path is None else 0
        assert (made[-1].handed, made[-1].takes) == (reads, 0)
        assert res.path == (path or (bernoulli_ratio(SplitMix64(seed), 1, 2), 1))


def test_large_draws_are_valid():
    for alpha, beta in [(F(1), F(1)), (F(3), F(1, 5))]:
        t = sample_ab(2000, Params.from_alpha_beta(alpha, beta), 2000)
        assert validate(t) == []
        assert 2000 <= counts(t).total <= 3999


def pooled_chi_square(law, obs, min_expected=20):
    """Chi-square of ``obs`` against ``law`` after pooling outcomes, in order
    of decreasing probability, until each pool expects ``min_expected``
    draws; an outcome outside the law's support fails the test."""
    total = sum(obs.values())
    pools, pool_of = [F(0)], {}
    for t in sorted(law, key=lambda t: (-law[t], t.cells)):
        if pools[-1] * total >= min_expected:
            pools.append(F(0))
        pool_of[t] = len(pools) - 1
        pools[-1] += law[t]
    if len(pools) > 1 and pools[-1] * total < min_expected:
        last = pools.pop()   # pools[-2] += pools.pop() would add to the wrong pool
        pools[-1] += last
        pool_of = {t: min(i, len(pools) - 1) for t, i in pool_of.items()}
    observed = Counter()
    for t, k in obs.items():
        observed[pool_of.get(t, -1)] += k
    return chi_square_gof(dict(enumerate(pools)), observed)


@pytest.mark.parametrize("n,a,b", [
    (5, F(1, 3), F(5, 7)),
    (6, F(7, 3), F(3, 5)),
    (5, F(0), F(2, 3)),      # a = 0: alpha = inf
    (6, F(5, 3), F(0)),      # b = 0: beta = inf
])
def test_sampler_audit_against_law(n, a, b):
    params = Params(a, b)
    law = law_ab(n, params.alpha, params.beta)
    obs = Counter(sample_ab(n, params, derive_seed(67, i)) for i in range(40_000))
    assert pooled_chi_square(law, obs).p_value > 1e-3


@pytest.mark.parametrize("a,b", [(INF, F(2, 3)), (F(3, 7), INF)])
def test_sampler_audit_one_infinite_weight(a, b):
    # a = inf (alpha = 0) or b = inf (beta = 0): the law is one tableau
    params = Params(a, b)
    law = law_ab(5, params.alpha, params.beta)
    assert len(law) == 1
    obs = Counter(sample_ab(5, params, derive_seed(71, i)) for i in range(200))
    assert obs == Counter({next(iter(law)): 200})


def test_sampler_audit_both_weights_infinite():
    # a = b = inf: each diagonal box independently Alpha with probability rho
    n, rho = 5, F(1, 4)
    law = {}
    for word in range(1 << n):
        alphas = bin(word).count("1")
        cells = tuple((i, n + 1 - i, A if word >> (i - 1) & 1 else B) for i in range(1, n + 1))
        law[Tableau(n, cells)] = rho ** alphas * (1 - rho) ** (n - alphas)
    obs = Counter(sample_ab(n, Params(INF, INF, rho), derive_seed(73, i)) for i in range(40_000))
    assert pooled_chi_square(law, obs).p_value > 1e-3


def test_sampler_audit_rho_tie():
    # a = b = 0: uniform over the maximal tableaux, reweighted by rho or
    # 1 - rho according to the symbol in box (1, 1)
    n, rho = 5, F(1, 4)
    maximal = list(max_symbol_tableaux(n))
    law = {t: (rho if t.symbol_at(1, 1) is A else 1 - rho) * 2 / len(maximal)
           for t in maximal}
    assert sum(law.values()) == 1
    obs = Counter(sample_ab(n, Params(0, 0, rho), derive_seed(79, i)) for i in range(40_000))
    assert pooled_chi_square(law, obs).p_value > 1e-3


def test_batch_summary():
    params = Params.from_alpha_beta(2, 2)
    s = sample_batch(10, params, 321, 5000)
    assert s.count == 5000
    assert abs(s.sum_diag_alpha / s.count - 5) < 3 * math.sqrt(11 / 12 / 5000)
    s2 = sample_batch(10, params, 321, 5000)
    assert s == s2
    # sample i of a batch is the draw at derive_seed(seed, i): a shorter
    # batch extended by the missing draws is the longer batch
    extended = sample_batch(10, params, 321, 2000)
    for i in range(2000, 5000):
        extended.add(sample_ab(10, params, derive_seed(321, i)))
    assert extended == s


# the weight regimes of test_golden_stream
BATCH_REGIMES = {
    "finite": Params(F(1, 3), F(5, 7)), "finite-a>b": Params(F(7, 3), F(3, 5)),
    "a=0": Params(F(0), F(2, 3)), "b=0": Params(F(5, 3), F(0)),
    "a=inf": Params(INF, F(2, 3)), "b=inf": Params(F(3, 7), INF),
    "a=b=inf": Params(INF, INF, F(1, 4)), "rho-tie": Params(F(0), F(0), F(1, 4)),
    "rho-tie-1/2": Params(F(0), F(0)),
}


@pytest.mark.parametrize("params", BATCH_REGIMES.values(), ids=BATCH_REGIMES.keys())
def test_batch_is_the_fold_of_its_draws(params):
    # a batch draws from one expansion of its seeds and tallies each
    # distinct tableau once; it must equal one BatchSummary.add per draw.
    # 1030 draws cross a group of 1024 seeds; finite-weight draws read
    # blocks at n = 16 and 17, and n > AB_CAP tallies diagonal counts only
    for n in range(18):
        want = sampling.BatchSummary()
        for i in range(1030):
            want.add(sample_ab(n, params, derive_seed(61 + n, i)))
        assert sample_batch(n, params, 61 + n, 1030) == want, n


@pytest.mark.parametrize("n, params", [
    (4, Params(F(1, 2), F(1, 3))),
    (AB_CAP + 3, Params(F(7, 3), F(3, 5))),
    (5, Params(INF, F(2, 3))),
    (6, Params(INF, INF, F(1, 4))),
    (5, Params(0, 0, F(1, 4))),
])
def test_batch_diagonal_alpha_tallies_match_counts(n, params):
    # BatchSummary.add counts diagonal alphas from the cells directly; it
    # must agree with tableau.counts on the same draws
    s = sample_batch(n, params, 89, 300)
    want = Counter(counts(sample_ab(n, params, derive_seed(89, i))).diagonal_alpha
                   for i in range(300))
    assert s.diag_alpha_counts == want
    assert s.sum_diag_alpha == sum(k * c for k, c in want.items())
    assert s.sum_diag_alpha_sq == sum(k * k * c for k, c in want.items())


def test_batch_summary_is_read_off_its_diagonal_counts():
    # count and the sums are read off diag_alpha_counts, by add and by a
    # batch alike, below AB_CAP and above it; no field can be reassigned
    empty = sampling.BatchSummary()
    assert (empty.count, empty.sum_diag_alpha, empty.sum_diag_alpha_sq) == (0, 0, 0)
    for field in ("count", "diag_alpha_counts"):
        with pytest.raises(AttributeError):
            setattr(empty, field, getattr(empty, field))
    params = Params(F(1, 3), F(5, 7))
    for n in (4, AB_CAP + 2):
        draws = [sample_ab(n, params, derive_seed(29, i)) for i in range(200)]
        alphas = [counts(t).diagonal_alpha for t in draws]
        added = sampling.BatchSummary()
        for t in draws:
            added.add(t)
        for s in (added, sample_batch(n, params, 29, 200)):
            assert s.diag_alpha_counts == Counter(alphas)
            assert s.count == len(alphas) == sum(s.diag_alpha_counts.values())
            assert s.sum_diag_alpha == sum(alphas)
            assert s.sum_diag_alpha_sq == sum(x * x for x in alphas)


def test_batch_variance_near_theory():
    # Var A at (alpha,beta)=(2,2), n=11 is (n+1)/12 = 1
    s = sample_batch(11, Params.from_alpha_beta(2, 2), 77, 20_000)
    mean = F(s.sum_diag_alpha, s.count)
    assert abs(float(F(s.sum_diag_alpha_sq, s.count) - mean * mean) - 1.0) < 0.05


def test_batch_summary_beyond_enumeration_cap():
    n = AB_CAP + 1
    params = Params.from_alpha_beta(2, 1)
    s = sample_batch(n, params, 83, 300)
    assert s.tableau_counts == Counter()
    assert sum(s.diag_alpha_counts.values()) == 300
    assert isinstance(s.sum_diag_alpha, int) and isinstance(s.sum_diag_alpha_sq, int)
    assert s.sum_diag_alpha == sum(k * c for k, c in s.diag_alpha_counts.items())
    extended = sample_batch(n, params, 83, 100)
    for i in range(100, 300):
        extended.add(sample_ab(n, params, derive_seed(83, i)))
    assert extended == s


EDGE_WEIGHTS = st.sampled_from([F(0), F(1, 3), F(1), F(7, 2)])


@given(n=st.integers(0, 5), a=EDGE_WEIGHTS, b=EDGE_WEIGHTS,
       rho=st.fractions(0, 1, max_denominator=12), seed=st.integers(0, 2**64 - 1),
       count=st.integers(1, 3000))
@example(n=4, a=F(1), b=F(1), rho=F(1, 2), seed=5, count=3000)
@example(n=3, a=F(0), b=F(0), rho=F(2, 7), seed=6, count=2100)
@example(n=4, a=F(0), b=F(1, 3), rho=F(1, 2), seed=7, count=479)
@example(n=5, a=F(7, 2), b=F(0), rho=F(1, 2), seed=8, count=3000)
@settings(max_examples=30, deadline=None)
def test_batch_equals_the_fold_of_per_seed_draws(n, a, b, rho, seed, count):
    # up to 3000 draws reach both sides of the walk's rule (4·(n+1)! seeds
    # per group) and cross the 1024-seed group boundary, at the a = 0 and
    # b = 0 edges and the a = b = 0 tie at a random rho
    params = Params(a, b, rho)
    want = sampling.BatchSummary()
    for i in range(count):
        want.add(sample_ab(n, params, derive_seed(seed, i)))
    assert sample_batch(n, params, seed, count) == want


LAST = 2**64 - 1


def walk_scripts():
    """(n, params, round, chunks): the scripted columns hold ``chunks`` from
    ``round`` on.  Each straddling run leaves its coin open; the chunk after
    it, 0 or 2^64 - 1, then decides the coin one way or the other."""
    A, B, d = WIDE._scaled
    b_1 = B + 3 * d   # n = 4
    sigma = straddling_chunks(b_1, A + b_1, 2)
    mark = [0] + straddling_chunks(d, b_1, 2)   # chunk 0 draws Alpha at step 1
    tie = straddling_chunks(2, 7, 2)   # a = b = 0 at n = 3 flips rho at round 2
    return {
        "sigma-inexact-then-alpha": (4, WIDE, 0, sigma + [0]),
        "sigma-inexact-then-beta": (4, WIDE, 0, sigma + [LAST]),
        "sigma-inexact-past-the-rounds": (4, WIDE, 0, straddling_chunks(b_1, A + b_1, 8)),
        # b_1/(A + b_1) = 3/6 and the passage bounds 1/2 and 1 of (1, 0)
        "sigma-exact": (3, Params(3, 1), 0, [2**63]),
        "passage-exact": (3, Params(1, 0), 0, [0, 2**63]),
        "passage-inexact-then-low": (4, WIDE, 0, mark + [0]),
        "passage-inexact-then-high": (4, WIDE, 0, mark + [LAST]),
        # b > 2^64: every passage bound i·d/b_1 lies inside the first chunk
        "passage-bounds-in-one-chunk": (3, Params(1, 2**70), 0, [0, 0]),
        "rho-tie-exact": (3, Params(0, 0, F(1, 4)), 2, [2**62]),
        "rho-tie-inexact-then-alpha": (3, Params(0, 0, F(2, 7)), 2, tie + [0]),
        "rho-tie-inexact-then-beta": (3, Params(0, 0, F(2, 7)), 2, tie + [LAST]),
    }


@pytest.mark.parametrize("n, params, start, script", walk_scripts().values(),
                         ids=walk_scripts().keys())
def test_walk_on_scripted_columns_equals_each_draw(n, params, start, script):
    # the walk splits each node's draws by one threshold per coin; a chunk on
    # an inexact one leaves its coin open, and only _draw_ab on the draw's
    # own column and tail may decide it.  Random seeds almost never reach
    # that, so the columns of draws 0..7 are scripted alike: together they
    # never make a lone node, which _draw_ab would redraw and so mend.  The
    # past-the-rounds script straddles to the last round, so its coin reads
    # on into each draw's tail
    seeds = list(rng._derived_seeds(37, 300))
    rounds = [r.tolist() for r in rng._rounds(seeds, 2 * n)]
    column = [r[0] for r in rounds]
    column[start:] = script
    for r, u in zip(rounds, column):
        r[:8] = [u] * 8
    args = (n, *params._scaled, params.rho)
    walked = Counter()
    sampling._walk(*args, rounds, seeds, walked)
    want = Counter()
    for i, seed in enumerate(seeds):
        chunk = chain([r[i] for r in rounds], rng._tail(seed, 2 * n)).__next__
        want[tuple(sorted(sampling._draw_ab(*args, chunk)))] += 1
    assert walked == want


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

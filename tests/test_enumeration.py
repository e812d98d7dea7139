import hashlib
import math
from fractions import Fraction as F

import pytest

from staircase_tableaux import Symbol, Tableau, counts, dagger, enumeration, subtableau, validate
from staircase_tableaux.asep import z_full
from staircase_tableaux.enumeration import (
    enumerate_ab,
    enumerate_four,
    enumerate_naive,
    joint_poly_A_r,
    joint_poly_N,
    law_ab,
    max_symbol_tableaux,
    partition_function,
)
from staircase_tableaux.errors import CapExceededError, ParameterError
from staircase_tableaux.eulerian_poly import BivarPoly, p_eval


@pytest.mark.parametrize("n,count", [(1, 2), (2, 6), (3, 24), (4, 120), (6, 5040), (8, 362880)])
def test_ab_counts(n, count):
    assert sum(1 for _ in enumerate_ab(n)) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_four_counts(n):
    assert sum(1 for _ in enumerate_four(n)) == 4**n * math.factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_streams_valid_and_distinct(n):
    seen = set()
    for t in enumerate_four(n) if n <= 3 else enumerate_ab(n):
        assert validate(t) == []
        assert t.cells not in seen
        seen.add(t.cells)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_matches_naive_generator(n):
    assert sorted(t.cells for t in enumerate_ab(n)) == sorted(
        t.cells for t in enumerate_naive(n))
    assert sorted(t.cells for t in enumerate_four(n)) == sorted(
        t.cells for t in enumerate_naive(n, four=True))


def test_naive_generator_capped():
    # bounded from above only: size 0 is the one empty tableau
    assert list(enumerate_naive(0)) == list(enumerate_naive(0, four=True)) == [Tableau(0, ())]
    with pytest.raises(CapExceededError, match=r"^naive enumeration is restricted to n <= 3$"):
        list(enumerate_naive(4))


@pytest.mark.parametrize("n", [2.5, "2", None])
def test_naive_generator_rejects_non_integer_size(n):
    with pytest.raises(ParameterError, match="^n must be an integer"):
        list(enumerate_naive(n))


def _assert_public_value(t):
    """t, built unchecked, is the very value the public constructor makes."""
    public = Tableau(t.n, t.cells)
    assert t == public and hash(t) == hash(public)
    assert isinstance(t.cells, tuple) and list(t.cells) == sorted(t.cells)
    assert validate(t) == []


def test_streams_and_their_transforms_equal_their_public_construction():
    # enumeration, subtableau and dagger build without the public
    # constructor's checks; every result must be what the public one makes
    stream = [t for n in range(6) for t in enumerate_ab(n)]
    stream += [t for n in range(4) for t in enumerate_four(n)]
    for t in stream:
        _assert_public_value(t)
        _assert_public_value(dagger(t))
        for i in range(1, t.n + 1):
            for j in range(1, t.n + 2 - i):
                _assert_public_value(subtableau(t, i, j))


def test_cap_guard_and_override():
    with pytest.raises(CapExceededError):
        next(enumerate_ab(9))
    with pytest.raises(CapExceededError):
        next(enumerate_four(6))
    # override exists; just prove the stream starts
    assert next(iter(enumerate_ab(9, allow_large=True))) is not None


def test_stream_order_deterministic():
    first = [t.cells for t in enumerate_ab(4)]
    second = [t.cells for t in enumerate_ab(4)]
    assert first == second


def test_stream_order_is_pinned():
    # SHA-256 prefix over every tableau's cells, in stream order, of each
    # enumeration stream: the column rules may be rewritten, but every
    # stream must list the same tableaux in the same order
    streams = [enumerate_ab(n) for n in range(8)]
    streams += [enumerate_four(n) for n in range(5)]
    streams += [max_symbol_tableaux(n) for n in range(1, 8)]
    h = hashlib.sha256()
    for stream in streams:
        for t in stream:
            h.update(repr(t.cells).encode())
    assert h.hexdigest()[:16] == "ed4fdde255b4c0f0"


def test_partition_function_examples():
    assert partition_function(3, 1, 1, 1, 1) == 384
    assert partition_function(3, 2, 1) == 105
    assert partition_function(4, 1, 1) == 120
    assert partition_function(0, 5, 7) == 1


def test_partition_function_rejects_negative():
    with pytest.raises(ParameterError):
        partition_function(2, -1, 1)


def test_joint_poly_A_r_small():
    d1 = joint_poly_A_r(1, 1, 1)
    assert d1.coeffs == {(1, 1): F(1), (0, 0): F(1)}   # alpha x z + beta
    for n in range(1, 6):
        for al, be in [(F(1), F(1)), (F(2), F(3, 7))]:
            dn = joint_poly_A_r(n, al, be)
            assert dn.evaluate(1, 1) == partition_function(n, al, be)


def test_joint_poly_A_r_marginal_is_polynomial():
    # D_2(x, 1) = (alpha beta)^2 P_{2,a,b}(x) at alpha = beta = 1
    d2 = joint_poly_A_r(2, 1, 1)
    by_a: dict = {}
    for (i, _r), c in d2.coeffs.items():
        by_a[(i,)] = by_a.get((i,), 0) + c
    by_a = BivarPoly(by_a)
    assert by_a.coeffs == {(0,): F(1), (1,): F(4), (2,): F(1)}
    for x in (F(0), F(1), F(2), F(7, 3)):
        assert by_a.evaluate(x) == p_eval(2, 1, 1, x)


def test_joint_poly_N_small():
    jp = joint_poly_N(1, 1, 1)
    assert jp.coeffs == {(1, 0): F(1), (0, 1): F(1)}
    norm = joint_poly_N(3, 2, 1).normalized()
    assert norm.total() == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_joint_poly_N_product_form(n):
    for al, be in [(F(1), F(1)), (F(2), F(1))]:
        jp = joint_poly_N(n, al, be).normalized()
        # product over steps of (beta x + alpha y + i alpha beta x y) / (...)
        law = {(0, 0): F(1)}
        for i in range(n):
            den = al + be + i * al * be
            nxt: dict[tuple[int, int], F] = {}
            for (x, y), w in law.items():
                for (dx, dy), num in (((1, 0), al), ((0, 1), be), ((1, 1), i * al * be)):
                    if num:
                        key = (x + dx, y + dy)
                        nxt[key] = nxt.get(key, F(0)) + w * num / den
            law = nxt
        assert jp.coeffs == law, (n, al, be)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 2), (3, 4), (5, 48)])
def test_max_symbol_counts(n, count):
    tableaux = list(max_symbol_tableaux(n))
    assert len(tableaux) == count
    for t in tableaux:
        c = counts(t)
        assert c.n_alpha + c.n_beta == 2 * n - 1


def test_max_symbol_tableaux_at_zero():
    # the one size-0 tableau, the empty one, has the most cells of its size
    assert list(max_symbol_tableaux(0)) == [Tableau(0, ())]


def test_max_symbol_split_by_alpha():
    for n in (2, 3, 4, 5):
        split: dict[int, int] = {}
        for t in max_symbol_tableaux(n):
            na = counts(t).n_alpha
            split[na] = split.get(na, 0) + 1
        want = math.factorial(n - 1)
        assert split == {n: want, n - 1: want}


def test_one_alpha_per_column_generating_function():
    # sum of beta^{N_beta} over tableaux with one alpha in each column
    # equals prod_{i<n} (1 + i beta)
    for n in range(1, 7):
        for beta in (F(1), F(2), F(1, 3)):
            total = F(0)
            for t in enumerate_ab(n):
                c = counts(t)
                if c.n_alpha == n:
                    total += beta ** c.n_beta
            assert total == math.prod((1 + i * beta for i in range(n)), start=F(1))


def test_fixed_alpha_count_is_factorial():
    for n in range(1, 7):
        assert sum(1 for t in enumerate_ab(n) if counts(t).n_alpha == n) == math.factorial(n)


def test_law_ab_normalizes():
    law = law_ab(3, 2, 1)
    assert sum(law.values()) == 1
    t_max = max(law, key=lambda t: law[t])
    assert counts(t_max).n_alpha == 3


def test_law_ab_infinite_weights():
    inf = float("inf")
    law = law_ab(3, inf, 1)
    assert all(counts(t).n_alpha == 3 for t in law)
    assert len(law) == 6 and sum(law.values()) == 1
    law = law_ab(3, inf, inf)
    assert len(law) == 4
    assert all(counts(t).total == 5 for t in law)
    law = law_ab(3, 1, 0)     # beta = 0: single all-alpha-diagonal tableau
    assert len(law) == 1
    (t,) = law
    assert all(s is Symbol.ALPHA for s in t.diagonal())


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("alpha, beta, symbol", [
    (math.inf, 0, Symbol.ALPHA),
    (0, math.inf, Symbol.BETA),
], ids=["alpha-inf-beta-0", "alpha-0-beta-inf"])
def test_law_ab_infinite_weight_beside_zero_is_one_diagonal(n, alpha, beta, symbol):
    diagonal = Tableau(n, tuple((i, n + 1 - i, symbol) for i in range(1, n + 1)))
    assert law_ab(n, alpha, beta) == {diagonal: 1}


def _law_ab_text(n, alpha, beta) -> str:
    """Items of law_ab in order, as cells and exact p, or the error raised."""
    try:
        law = law_ab(n, alpha, beta)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    assert all(type(p) is F for p in law.values())
    return ";".join(f"{[(i, j, s.value) for i, j, s in t.cells]}={p.numerator}/{p.denominator}"
                    for t, p in law.items())


# SHA-256 prefixes over n = 0..6, recorded when law_ab still had one branch
# per infinite weight: the single maximise-then-weigh rule must reproduce
# the items, their order, every Fraction and every error message
@pytest.mark.parametrize("alpha, beta, digest", [
    (F(1), F(1), "735cd4716d200a95"),
    (F(2), F(1), "e2058f8942cc79be"),
    (F(1, 3), F(5), "ab88474257df0a77"),
    (F(1), F(0), "4691d932257ee0df"),
    (F(0), F(1), "381bdafbaa75f94a"),
    (math.inf, F(0), "4691d932257ee0df"),
    (F(0), math.inf, "381bdafbaa75f94a"),
    (math.inf, math.inf, "2972aa294ff6e573"),
    (math.inf, F(2, 3), "f16cdf2c2329ff15"),
    (F(3, 2), math.inf, "bf696e308755f37e"),
    (F(0), F(0), "5dcd7d6ffb3c289b"),
    (math.inf, F(-1, 2), "dfdc4846c04db4e8"),
])
def test_law_ab_weight_grid_is_pinned(alpha, beta, digest):
    text = "|".join(_law_ab_text(n, alpha, beta) for n in range(7))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_law_ab_rejects_both_zero():
    with pytest.raises(ParameterError):
        law_ab(2, 0, 0)


def test_law_ab_checks_its_arguments_before_enumerating(monkeypatch):
    def enumerate_ab(*args, **kwargs):
        raise AssertionError("law_ab enumerated before checking its arguments")

    monkeypatch.setattr(enumeration, "enumerate_ab", enumerate_ab)
    with pytest.raises(ParameterError, match="^alpha must be"):
        law_ab(8, -1, 1)
    with pytest.raises(ParameterError, match="not both zero"):
        law_ab(8, 0, 0)
    # the cap is checked first, as before
    with pytest.raises(CapExceededError):
        law_ab(9, -1, 1)
    with pytest.raises(ParameterError, match="^n must be an integer"):
        law_ab(2.5, -1, 1)


@pytest.mark.parametrize("call, name", [
    (lambda: law_ab(3, -1, math.inf), "alpha"),
    (lambda: law_ab(3, math.inf, F(-1, 2)), "beta"),
    (lambda: law_ab(3, float("nan"), 1), "alpha"),
    (lambda: law_ab(3, math.inf, float("nan")), "beta"),
    (lambda: law_ab(3, 1, -math.inf), "beta"),
], ids=["negative-alpha-beside-inf", "negative-beta-beside-inf", "nan-alpha",
        "nan-beta-beside-inf", "minus-inf-beta"])
def test_law_ab_checks_the_finite_weight(call, name):
    with pytest.raises(ParameterError, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: partition_function(2, math.inf, 1), "alpha"),
    (lambda: partition_function(2, 1, 1, 1, math.inf), "delta"),
    (lambda: partition_function(2, 1, 1, -1, 0), "gamma"),
    (lambda: joint_poly_A_r(2, 1, math.inf), "beta"),
    (lambda: joint_poly_N(2, math.inf, 1), "alpha"),
    (lambda: joint_poly_N(2, -1, 1), "alpha"),
], ids=["partition_function-inf", "partition_function-inf-delta",
        "partition_function-negative", "joint_poly_A_r-inf", "joint_poly_N-inf",
        "joint_poly_N-negative"])
def test_weights_follow_the_one_rule(call, name):
    with pytest.raises(ParameterError, match=f"^{name} must be"):
        call()


def _sum_text(f, ns, *args) -> str:
    """repr of f(n, *args) for each n (a polynomial's coefficient dict in
    insertion order), or the error it raised."""
    out = []
    for n in ns:
        try:
            value = f(n, *args)
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        out.append(repr(value.coeffs if hasattr(value, "coeffs") else value))
    return "|".join(out)


# SHA-256 prefixes recorded while every enumeration sum still took its
# Fraction powers once per tableau: a sum that tallies exponent vectors
# first must reproduce every value, every coefficient dict (keys in the
# same order) and every error, the 0**0 edges included
_AB_SUMS = range(7)
_FOUR_SUMS = range(5)


@pytest.mark.parametrize("f, ns, args, digest", [
    (partition_function, _AB_SUMS, (F(1), F(1)), "8a769aabe21ee9a1"),
    (partition_function, _AB_SUMS, (F(2), F(3, 7)), "24c279afeb26b3bc"),
    (partition_function, _AB_SUMS, (F(0), F(1)), "6712dd8f8e0a663c"),
    (partition_function, _AB_SUMS, (F(5, 2), F(0)), "c03c096d8c545ede"),
    (partition_function, _AB_SUMS, (F(0), F(0)), "fc227c842ac9759c"),
    (partition_function, _FOUR_SUMS, (F(2), F(3, 7), F(1, 3), F(5)), "907dbd186a9d7f6f"),
    (partition_function, _FOUR_SUMS, (F(0), F(1), F(0), F(2)), "396b72ed69ebb5d5"),
    (partition_function, _FOUR_SUMS, (F(3), F(0), F(1, 2), F(0)), "42031ed131f68b07"),
    (partition_function, _FOUR_SUMS, (F(1), F(2), F(0), F(1, 3)), "a8d80340224bce76"),
    (z_full, _FOUR_SUMS, (F(2), F(3, 7), F(1, 3), F(5), F(2, 5), F(3)), "ba4b9bd0d0ae18ee"),
    (z_full, _FOUR_SUMS, (F(1), F(2), F(0), F(1, 3), F(0), F(1)), "c6856e93db90b94e"),
    (z_full, _FOUR_SUMS, (F(0), F(1), F(1, 2), F(2), F(3), F(0)), "a988c1de65b4e5a0"),
    (z_full, _FOUR_SUMS, (F(1), F(0), F(0), F(0), F(1), F(1)), "b3a9482420bb7d4f"),
    (joint_poly_A_r, _AB_SUMS, (F(1), F(1)), "37b9fa450492ccc3"),
    (joint_poly_A_r, _AB_SUMS, (F(2), F(3, 7)), "08cda0210b50dd65"),
    (joint_poly_A_r, _AB_SUMS, (F(0), F(1)), "f135505dd0f50acd"),
    (joint_poly_N, _AB_SUMS, (F(1, 3), F(5)), "82f8d2f13aa87f39"),
    (joint_poly_N, _AB_SUMS, (F(2), F(3, 7)), "ca743bbfd78be58e"),
    (joint_poly_N, _AB_SUMS, (F(1), F(0)), "5a3743eec91f41cf"),
], ids=lambda v: getattr(v, "__name__", None))
def test_enumeration_sums_are_pinned(f, ns, args, digest):
    text = _sum_text(f, ns, *args)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

import hashlib
import math
from fractions import Fraction as F

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux.errors import DomainError, ParameterError
from staircase_tableaux.distributions import dist_A
from staircase_tableaux.tableau import Symbol, Tableau, weight
from staircase_tableaux.eulerian_poly import (
    BivarPoly,
    c_table,
    eulerian,
    eulerian_row,
    p_at_one,
    p_eval,
    rising_factorial,
    scaled_row,
    scaled_rows,
    tilde_p_eval,
    tilde_v,
    v_row,
    v_symbolic,
    v_triangle,
)

RATIONALS = [F(0), F(1), F(1, 2), F(2), F(3, 7)]


def test_rising_factorial_basics():
    assert rising_factorial(F(5, 3), 0) == 1
    assert rising_factorial(7, 1) == 7
    for n in range(8):
        assert rising_factorial(2, n) == math.factorial(n + 1)
    # Z_2(2,1) = 2^2 * (3/2)^{rise 2} = 15 = (2*2+1)!!
    assert 4 * rising_factorial(F(3, 2), 2) == 15


def test_triangle_known_rows():
    tri = v_triangle(3, 1, 1)
    assert tri.row(2) == (1, 4, 1)
    assert v_row(3, 1, 0) == (1, 4, 1, 0)
    assert v_row(3, 1, 0)[1] == 4       # classical <3,1>
    assert v_row(2, F(1, 2), F(1, 2))[1] == F(3, 2)
    assert 4 * v_row(2, F(1, 2), F(1, 2))[1] == 6  # type-B Eulerian


def test_triangle_stores_integer_rows_over_one_denominator():
    a, b = F(3, 7), F(5, 9)
    tri = v_triangle(12, a, b)
    assert tri.d == 63
    assert all(type(x) is int for row in tri.rows for x in row)
    for n in range(13):
        assert tri.row(n) == v_row(n, a, b)
        assert [tri.v(n, k) for k in range(n + 1)] == list(tri.row(n))
        assert tri.row_sum(n) == sum(tri.row(n)) == rising_factorial(a + b, n)
    with pytest.raises(DomainError):
        tri.row(13)


def test_triangle_out_of_range_is_zero():
    tri = v_triangle(4, 1, 2)
    assert tri.v(3, -1) == 0 and tri.v(3, 4) == 0


def test_triangle_rejects_negative_params():
    with pytest.raises(ParameterError):
        v_triangle(3, -1, 1)
    with pytest.raises(ParameterError):
        v_row(3, 0, F(-1, 2))


@pytest.mark.parametrize("call", [
    lambda: v_triangle(3, math.inf, 1),
    lambda: v_row(3, 1, math.inf),
    lambda: p_at_one(3, math.inf, 1),
    lambda: v_row(3, "x", 1),
    lambda: c_table(3, math.inf),
    lambda: rising_factorial(math.inf, 2),
], ids=["v_triangle-inf", "v_row-inf", "p_at_one-inf", "v_row-not-a-number",
        "c_table-inf", "rising_factorial-inf"])
def test_triangle_rejects_non_finite_params(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("a,b", [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)),
                                 (F(1), F(1)), (F(1, 2), F(1, 2)), (F(2), F(3, 7))])
def test_row_sums(a, b):
    tri = v_triangle(60, a, b)
    for n in range(61):
        assert tri.row_sum(n) == rising_factorial(a + b, n)


@pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(1, 2), F(2)), (F(3, 7), F(5))])
def test_symmetry(a, b):
    ab = v_triangle(100, a, b)
    ba = v_triangle(100, b, a)
    for n in range(101):
        for k in range(n + 1):
            assert ab.v(n, k) == ba.v(n, n - k)
    # P_{n,a,b}(x) = x^n P_{n,b,a}(1/x)
    for x in (F(2), F(3, 5), F(7, 2)):
        for n in (1, 5, 9):
            assert p_eval(n, a, b, x) == x**n * p_eval(n, b, a, 1 / x)


@pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(1, 2), F(3)), (F(2), F(0))])
def test_boundary_values(a, b):
    tri = v_triangle(25, a, b)
    for n in range(26):
        assert tri.v(n, 0) == a**n
        assert tri.v(n, n) == b**n


def test_lp1_specializations():
    for a in (F(1), F(1, 2), F(3)):
        va0 = v_triangle(50, a, 0)
        va1 = v_triangle(50, a, 1)
        for n in range(1, 51):
            for k in range(n + 1):
                assert va0.v(n, k) == a * va1.v(n - 1, k)
    for b in (F(1), F(2, 3)):
        v0b = v_triangle(50, 0, b)
        v1b = v_triangle(50, 1, b)
        for n in range(1, 51):
            for k in range(n + 1):
                assert v0b.v(n, k) == b * v1b.v(n - 1, k - 1)


def test_log_concavity():
    for a, b in [(F(1), F(1)), (F(1, 2), F(1, 2)), (F(2), F(3, 7))]:
        tri = v_triangle(80, a, b)
        for n in range(81):
            row = tri.row(n)
            for k in range(1, n):
                assert row[k] * row[k] >= row[k - 1] * row[k + 1]


def test_v_symbolic_coeff_table():
    assert v_symbolic(2, 1).coeffs == {(1, 0): 1, (0, 1): 1, (1, 1): 2}
    assert v_symbolic(3, 2).coeffs == {(1, 0): 1, (0, 1): 1, (1, 1): 3, (0, 2): 3, (1, 2): 3}
    assert str(v_symbolic(2, 1)) == "a + b + 2*a*b"
    for n in range(7):
        assert v_symbolic(n, 0).coeffs == {(n, 0): 1}
    assert not v_symbolic(4, -1)
    assert not v_symbolic(4, 5)


@pytest.mark.parametrize("n", range(7))
def test_v_symbolic_degree_and_sign(n):
    for k in range(n + 1):
        poly = v_symbolic(n, k)
        assert max(map(sum, poly.coeffs)) == n
        assert all(c > 0 for c in poly.coeffs.values())


def test_v_symbolic_matches_triangle():
    for a, b in [(F(1), F(1)), (F(1, 2), F(3)), (F(0), F(2))]:
        tri = v_triangle(6, a, b)
        for n in range(7):
            for k in range(n + 1):
                assert v_symbolic(n, k).evaluate(a, b) == tri.v(n, k)


def test_p_eval_examples():
    assert p_eval(2, 1, 1, 2) == 13
    for n in (0, 1, 4, 9):
        assert p_eval(n, F(1, 2), F(2), 1) == rising_factorial(F(5, 2), n)
        assert p_eval(n, F(1, 2), F(2), 0) == F(1, 2) ** n


@pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(1, 2), F(3)), (F(0), F(1))])
def test_p_recursion(a, b):
    # P_n(x) = ((n-1+b) x + a) P_{n-1}(x) + x(1-x) P'_{n-1}(x), checked via
    # derivative from the coefficient row
    for n in range(1, 101, 9):
        for x in (F(2, 3), F(5), F(-1, 2)):
            prev = v_row(n - 1, a, b)
            p_prev = sum(v * x**k for k, v in enumerate(prev))
            dp_prev = sum(k * v * x ** (k - 1) for k, v in enumerate(prev) if k)
            rhs = ((n - 1 + b) * x + a) * p_prev + x * (1 - x) * dp_prev
            assert p_eval(n, a, b, x) == rhs


def test_tilde_values():
    assert tilde_v(2, 1) == 1
    assert tilde_v(2, 0) == 0 and tilde_v(2, 2) == 0
    assert tilde_v(3, 1) == 1 and tilde_v(3, 2) == 1
    for n in range(2, 9):
        assert tilde_p_eval(n, 1) == math.factorial(n - 1)
    with pytest.raises(DomainError):
        tilde_v(1, 0)
    with pytest.raises(DomainError):
        tilde_p_eval(1, F(1))


def test_tilde_recursion():
    # tilde_v(n,k) = k tilde_v(n-1,k) + (n-k) tilde_v(n-1,k-1) for n >= 3
    for n in range(3, 10):
        for k in range(n + 1):
            assert tilde_v(n, k) == k * tilde_v(n - 1, k) + (n - k) * tilde_v(n - 1, k - 1)


def test_tilde_limit_monotone():
    # v_{a,a}(n,k)/(2a) -> tilde_v(n,k) monotonically along a = 2^-m
    for n in range(2, 11):
        for k in range(1, n):
            first_dev = prev_dev = None
            for m in range(1, 21):
                a = F(1, 2**m)
                dev = abs(v_row(n, a, a)[k] / (2 * a) - tilde_v(n, k))
                if prev_dev is not None:
                    assert dev <= prev_dev, (n, k, m)
                else:
                    first_dev = dev
                prev_dev = dev
            assert prev_dev <= first_dev / 2**15


def test_p_at_one_examples():
    assert p_at_one(2, 1, 1) == (6, 6, 2)
    _, p1, _ = p_at_one(1, F(1, 2), F(7, 3))
    assert p1 == F(7, 3)   # P'(1) = b at n = 1
    assert p_at_one(0, F(2), F(3, 7)) == p_at_one(0, 0, 0) == (1, 0, 0)
    for a, b in [(F(1, 2), F(1, 2)), (F(2), F(3, 7)), (F(0), F(1))]:
        for n in (3, 10, 25):
            row = v_row(n, a, b)
            p0, p1, p2 = p_at_one(n, a, b)
            assert p0 == sum(row)
            assert p1 == sum(k * v for k, v in enumerate(row))
            assert p2 == sum(k * (k - 1) * v for k, v in enumerate(row))


def test_c_table():
    ct = c_table(50, F(1))
    assert all(type(x) is int for row in c_table(20, F(2, 3)).rows for x in row)
    assert ct.c(1, 0) == 1          # c_{1,0} = b
    assert ct.c(3, 2) == 6          # n(n+2b-1)/2 at n=3, b=1
    for b in (F(0), F(1, 2), F(7, 3)):
        ct = c_table(50, b)
        assert ct.c(0, 0) == 1
        for n in range(51):
            assert ct.c(n, n) == 1
            if n:
                assert ct.c(n, n - 1) == F(n, 2) * (n + 2 * b - 1)
    with pytest.raises(DomainError, match=r"^row 51 outside stored range 0\.\.50$"):
        ct.c(51, 0)


def test_c_table_rejects_negative():
    with pytest.raises(ParameterError):
        c_table(5, -1)


def test_eulerian_numbers():
    assert eulerian(3, 1) == 4
    assert eulerian_row(4) == [1, 11, 11, 1, 0]
    for n in range(9):
        assert eulerian(n, 0) == 1
        assert sum(eulerian_row(n)) == math.factorial(n)
    # index identities against the triangle
    v01 = v_triangle(12, 0, 1)
    v11 = v_triangle(12, 1, 1)
    for n in range(1, 13):
        for k in range(n + 1):
            assert v01.v(n, k) == eulerian(n, k - 1)
            assert v11.v(n, k) == eulerian(n + 1, k)


def test_bivar_poly_str_ordering():
    p = BivarPoly({(0, 0): 2, (1, 0): 1, (0, 1): 1, (2, 1): 3})
    assert str(p) == "2 + a + b + 3*a^2*b"


@pytest.mark.parametrize("coeffs, text", [
    ({(0, 0, 3): 2}, "2*x3^3"),
    ({(1, 2, 3): 1}, "a*b^2*x3^3"),
    ({(0, 0, 0, 0, 1, 2): 3, (1, 1, 0, 0, 0, 0): -1}, "-a*b + 3*x5*x6^2"),
    ({(0, 0, 0): F(1, 2), (0, 1, 1): 1}, "1/2 + b*x3"),
])
def test_bivar_poly_str_prints_every_exponent(coeffs, text):
    assert str(BivarPoly(coeffs)) == text


def test_bivar_poly_constants_take_the_monomial_length():
    gamma = BivarPoly({(0, 0, 1, 0): 1})
    assert (gamma * 2).coeffs == (2 * gamma).coeffs == {(0, 0, 1, 0): 2}
    assert (gamma + 1).coeffs == (1 + gamma).coeffs == {(0, 0, 1, 0): 1, (0, 0, 0, 0): 1}
    assert (BivarPoly() + 3).coeffs == {(0, 0): 3}
    assert (BivarPoly({(1, 0): 1}) * 3 + 1).coeffs == {(1, 0): 3, (0, 0): 1}


def test_bivar_poly_reads_padded_monomials_as_one():
    a, a3 = BivarPoly({(1, 0): 1}), BivarPoly({(1, 0, 0): 1})
    assert str(a + a3) == "2*a" and (a + a3).coeffs == {(1, 0, 0): 2}
    assert a == a3 and hash(a) == hash(a3) and a != BivarPoly({(0, 1): 1})
    # two monomials of one polynomial that padding makes equal add up
    twice = BivarPoly({(1, 0): 1, (1, 0, 0): 1})
    assert str(twice * 1) == "2*a" and twice == 2 * a and hash(twice) == hash(2 * a)
    assert BivarPoly({(1, 0): 1, (1, 0, 0): -1}) == BivarPoly() != a


@pytest.mark.parametrize("left, right, product", [
    ({(0, 1): 1}, {(0, 0, 1): 1}, {(0, 1, 1): 1}),
    ({(0, 0, 1): 1}, {(0, 1): 1}, {(0, 1, 1): 1}),
    ({(1,): 2, (0, 0, 0, 1): 1}, {(0, 1): 3, (0, 0, 1): 1},
     {(1, 1, 0, 0): 6, (1, 0, 1, 0): 2, (0, 1, 0, 1): 3, (0, 0, 1, 1): 1}),
], ids=["b*x3", "x3*b", "mixed-both"])
def test_bivar_poly_product_keeps_every_variable(left, right, product):
    # the shorter exponent tuple is padded with zeros; none is cut short
    assert (BivarPoly(left) * BivarPoly(right)).coeffs == product
    assert (BivarPoly(right) * BivarPoly(left)).coeffs == product


@given(
    st.sampled_from(RATIONALS),
    st.sampled_from(RATIONALS),
    st.integers(min_value=0, max_value=30),
)
@settings(max_examples=40, deadline=None)
def test_row_sum_property(a, b, n):
    assert sum(v_row(n, a, b)) == rising_factorial(a + b, n)


@given(
    st.builds(F, st.integers(1, 9), st.integers(1, 9)),
    st.builds(F, st.integers(1, 9), st.integers(1, 9)),
    st.integers(min_value=0, max_value=6),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_v_symbolic_evaluates_to_row_property(a, b, n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    assert v_symbolic(n, k).evaluate(a, b) == v_row(n, a, b)[k]


def closed_form_v(n: int, k: int, a: F, b: F) -> F:
    """Independent oracle for the triangle, written without the recursion:
    v(n, k) = sum_{j <= k} (-1)^(k-j) C(n+a+b, k-j) (j+a)^n (a+b)^{rise j} / j!
    with C the generalised binomial coefficient."""
    def binom(x: F, m: int) -> F:
        out = F(1)
        for i in range(m):
            out = out * (x - i) / (i + 1)
        return out

    total, rise = F(0), F(1)   # rise = (a+b)^{rise j} / j!
    for j in range(k + 1):
        total += (-1) ** (k - j) * binom(n + a + b, k - j) * (j + a) ** n * rise
        rise = rise * (a + b + j) / (j + 1)
    return total


# non-dyadic (a, b) and the a = 0, b = 0 and a = b = 0 edges
DIGEST_AB = [(F(2, 3), F(7, 5)), (F(3, 7), F(5, 9)), (F(11, 3), F(1, 6)),
             (F(0), F(5, 7)), (F(4, 9), F(0)), (F(0), F(0))]


def test_rows_golden_digest():
    # pins the integer rows bit for bit, up to the sizes the exact laws use,
    # and the symbolic rows the same recursion builds over BivarPoly
    h = hashlib.sha256()
    for a, b in DIGEST_AB:
        for n in (0, 1, 2, 16, 60, 175, 300, 400):
            h.update(repr(scaled_row(n, a, b)).encode())
    for n in range(9):
        for k in range(-1, n + 2):
            h.update(f"{n} {k} {v_symbolic(n, k)!r}\n".encode())
    assert h.hexdigest() == "29b7f255d96103923193bdf8d6081c55505dcd2c38457c2349508b7cef817bda"


def test_c_table_golden_digest():
    # pins the connection-coefficient rows bit for bit
    h = hashlib.sha256()
    for n in (0, 1, 2, 16, 60):
        for b in (F(0), F(1), F(1, 2), F(7, 3), F(5, 9)):
            h.update(repr(c_table(n, b)).encode())
    assert h.hexdigest() == "4e33bc3b6c7bdba4954a40cdbdc4d017282f79119720d9b30f28cc6d18dbf6da"


def test_v_triangle_golden_digest():
    # pins the stored triangle, its d and every row, bit for bit
    h = hashlib.sha256()
    for a, b in DIGEST_AB:
        for n in (0, 1, 16, 60):
            h.update(repr(v_triangle(n, a, b)).encode())
    assert h.hexdigest() == "daa0883727975eccc88946b8013daa5f97fd64b71d822cd6b48d80ab4c80169b"



@pytest.mark.parametrize("a, b", DIGEST_AB)
def test_scaled_rows_yields_fresh_rows(a, b):
    # callers hold each row while the generator goes on, so no row may be
    # a buffer that a later step overwrites
    held = list(scaled_rows(40, a, b))
    assert held == [scaled_row(m, a, b) for m in range(41)]

RATIONAL_OR_ZERO = st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 12), st.integers(1, 12)))


@given(RATIONAL_OR_ZERO, RATIONAL_OR_ZERO, st.integers(min_value=0, max_value=25))
@settings(max_examples=60, deadline=None)
def test_scaled_row_matches_closed_form(a, b, n):
    row, d = scaled_row(n, a, b)
    assert [F(x, d ** n) for x in row] == [closed_form_v(n, k, a, b) for k in range(n + 1)]


def closed_form_c(n: int, ell: int, b: F) -> F:
    """Independent oracle for the connection coefficients, written without
    the recursion: (x + b)^n = sum_l c_{n,l} x^{falling l} gives
    c_{n,l} = sum_{j <= l} (-1)^(l-j) (j+b)^n / (j! (l-j)!)."""
    return sum((F((-1) ** (ell - j), math.factorial(j) * math.factorial(ell - j)) * (j + b) ** n
                for j in range(ell + 1)), F(0))


@given(RATIONAL_OR_ZERO, st.integers(min_value=0, max_value=25))
@settings(max_examples=40, deadline=None)
def test_c_table_matches_closed_form(b, n_max):
    ct = c_table(n_max, b)
    assert [[ct.c(n, ell) for ell in range(n + 1)] for n in range(n_max + 1)] == \
        [[closed_form_c(n, ell, b) for ell in range(n + 1)] for n in range(n_max + 1)]


ALL_ALPHA_40 = Tableau(40, tuple((i, 41 - i, Symbol.ALPHA) for i in range(1, 41)))


RULE_ERRORS = (ParameterError,) * 3


@pytest.mark.parametrize("call, x, errors", [
    (lambda x: weight(ALL_ALPHA_40, x, x), 10, RULE_ERRORS),
    (lambda x: p_eval(30, 1, 1, x), 10, RULE_ERRORS),
    (lambda x: tilde_p_eval(30, x), 10, RULE_ERRORS),
    (lambda x: v_symbolic(3, 1).evaluate(x, x), 10 ** 10, RULE_ERRORS),
], ids=["weight", "p_eval", "tilde_p_eval", "BivarPoly.evaluate"])
def test_numpy_integer_arguments_evaluate_exactly(call, x, errors):
    # a NumPy integer must not lend its fixed-width arithmetic to the result
    assert call(numpy.int64(x)) == call(x)
    for junk, error in zip(("x", None, math.inf), errors):
        with pytest.raises(error):
            call(junk)


@pytest.mark.parametrize("call, message", [
    (lambda: weight(Tableau(1, ((1, 1, Symbol.ALPHA),)), -1, 1), "alpha must be >= 0, got -1"),
    (lambda: weight(ALL_ALPHA_40, 1, 1, "x"), "gamma must be a finite rational >= 0, got 'x'"),
    (lambda: p_eval(3, 1, 1, "x"), "x must be a finite rational, got 'x'"),
    (lambda: p_eval(3, 1, 1, math.inf), "x must be a finite rational, got inf"),
    (lambda: tilde_p_eval(3, math.nan), "x must be a finite rational, got nan"),
    (lambda: v_symbolic(3, 1).evaluate(1, "x"), "b must be a finite rational, got 'x'"),
    (lambda: BivarPoly({(0, 0, 1): 1}).evaluate(1, 1, math.inf),
     "x3 must be a finite rational, got inf"),
    (lambda: BivarPoly({(0, 0, 1): 1}).evaluate(5, 7), "the polynomial needs 3 values, one per variable, got 2"),
], ids=["negative-weight", "junk-weight", "junk-point", "infinite-point", "nan-point",
        "junk-poly-value", "infinite-poly-value", "missing-poly-value"])
def test_weights_and_points_raise_parameter_errors(call, message):
    # weight(t, -1, 1) once returned -1, and junk raised bare Python errors
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


def test_negative_evaluation_points_are_valid():
    assert p_eval(2, 1, 1, -1) == 1 - 4 + 1
    assert tilde_p_eval(4, F(-1)) == 2


@pytest.mark.parametrize("call, good, outside, name", [
    (lambda k: eulerian(4, k), 1, 5, "k"),
    (lambda k: v_symbolic(4, k), 1, -1, "k"),
    (lambda k: tilde_v(4, k), 1, 5, "k"),
    (lambda k: v_triangle(4, 1, 1).v(2, k), 1, 3, "k"),
    (lambda n: v_triangle(4, 1, 1).v(n, 1), 2, None, "n"),
    (lambda n: v_triangle(4, 1, 1).row(n), 1, None, "n"),
    (lambda n: c_table(4, 1).c(n, 1), 2, None, "n"),
    (lambda ell: c_table(4, 1).c(2, ell), 1, 3, "ell"),
    (lambda k: dist_A(4, 1, 1).pmf(k), 1, 5, "k"),
], ids=["eulerian", "v_symbolic", "tilde_v", "EulerTriangle.v-k", "EulerTriangle.v-n",
        "EulerTriangle.row", "CTable.c-n", "CTable.c-ell", "DiscreteDist.pmf"])
def test_entry_indices_follow_the_integer_rule(call, good, outside, name):
    # a non-integer index is a DomainError; an integer outside the table or
    # the support is a zero entry (or a DomainError for a missing row)
    assert call(numpy.int64(good)) == call(good)
    for junk in (1.5, 1.0, "1", None):
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got {junk!r}$"):
            call(junk)
    if outside is not None:
        assert not call(outside)

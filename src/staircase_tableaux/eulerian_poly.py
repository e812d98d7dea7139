"""Generalized Eulerian numbers v_{a,b}(n,k) and their polynomials.

Everything in this module is exact rational arithmetic.  The defining
two-term recursion is

    v(n, k) = (k + a) v(n-1, k) + (n - k + b) v(n-1, k-1),   v(0, 0) = 1,

with v(n, k) = 0 outside 0 <= k <= n.  Rows are carried as big integers
scaled by d^n, d the common denominator of a and b, and each row is three
``map`` calls over the previous one, cheap at n in the thousands.  The same
code, with other multipliers, builds the symbolic rows and the c-table.

Specializations: (a,b) = (1,0) gives the classical Eulerian triangle,
(0,1) and (1,1) reindexed versions of it, and 2^n v_{1/2,1/2}(n,k) the
type-B Eulerian numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from numbers import Rational
from operator import add, attrgetter, index, mul
from typing import NamedTuple

from .errors import DomainError, ParameterError

__all__ = [
    "rising_factorial",
    "EulerTriangle",
    "v_triangle",
    "v_row",
    "scaled_row",
    "scaled_rows",
    "BivarPoly",
    "v_symbolic",
    "p_eval",
    "tilde_v",
    "tilde_row",
    "tilde_p_eval",
    "p_at_one",
    "CTable",
    "c_table",
    "eulerian",
    "eulerian_row",
]


def _fraction(x) -> Fraction:
    """Fraction(x) over Python ints: a NumPy integer x would lend it its
    own fixed-width integers, which overflow in the samplers' coins."""
    if isinstance(x, Rational) and not isinstance(x, int):
        return Fraction(int(x.numerator), int(x.denominator))
    return Fraction(x)


def _rational(name: str, x, rule: str = "a finite rational") -> Fraction:
    """x as a Fraction, or a ParameterError that names x and its rule."""
    if type(x) is not Fraction:
        try:
            x = _fraction(x)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ParameterError(f"{name} must be {rule}, got {x!r}") from exc
    return x


def _finite(name: str, x) -> Fraction:
    """The shared parameter rule: a weight is a finite rational >= 0."""
    x = _rational(name, x, "a finite rational >= 0")
    if x.numerator < 0:
        raise ParameterError(f"{name} must be >= 0, got {x}")
    return x


def _as_param(name: str, x, top=math.inf) -> Fraction | float:
    """``x`` as a Fraction in [0, top], or math.inf when top is inf."""
    rule = "a rational >= 0 or inf" if top == math.inf else f"a rational in [0, {top}]"
    if type(x) is not Fraction:
        if x == math.inf == top:
            return math.inf
        x = _rational(name, x, rule)
    if x.numerator < 0 or (top != math.inf and x.numerator > x.denominator * top):
        raise ParameterError(f"{name} must be {rule}, got {x}")
    return x


def _as_ab(a, b) -> tuple[Fraction, Fraction]:
    # a = inf (weight alpha = 0) collapses every law to a point mass;
    # callers that support it handle that case before calling here
    return _finite("a", a), _finite("b", b)


def _over_one_denominator(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """(X, Y, d) with x = X/d and y = Y/d."""
    d = math.lcm(x.denominator, y.denominator)
    return x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d


def _invert(x):
    """The a <-> alpha (and b <-> beta) map: 0 <-> inf, otherwise x -> 1/x."""
    return math.inf if x == 0 else (Fraction(0) if x == math.inf else 1 / x)


_ANY = -math.inf   # the least of an entry index, which may fall outside its table


def _as_n(n, least: int = 0, name: str = "n", error: type = DomainError) -> int:
    """The shared size rule: n is an integer >= least, else ``error``."""
    try:
        n = index(n)
    except TypeError:
        raise error(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        raise error(f"{name} must be >= {least}, got {n}")
    return n


class _Record:
    """Base of the value classes that check or derive their fields: repr,
    == and hash read the ``_fields`` in order, and assignment raises, so
    ``__init__`` sets each field with object.__setattr__."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        # the fields' values as one tuple (every record has two or more fields)
        cls._key = property(attrgetter(*cls._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


def rising_factorial(x, n: int) -> Fraction:
    """x^{rise n} = x (x+1) ... (x+n-1); empty product for n = 0."""
    n = _as_n(n)
    x = _finite("x", x)
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def _rows(A: list, B: list, one=1):
    """Rows 0..len(A)-1 of v(m, k) = A[k] v(m-1, k) + B[m-k] v(m-1, k-1), over
    ints or polynomials.  Each row is a fresh list: callers hold rows while
    the generator goes on."""
    row = [one]
    yield row
    for m in range(1, len(A)):
        # the zeros pad v(m-1, m) and v(m-1, -1); map stops at the shorter list
        row = list(map(add, map(mul, A, row + [0]), map(mul, B[m::-1], [0] + row)))
        yield row


def scaled_rows(n_max: int, a, b):
    """Rows n = 0..n_max of the triangle as integers, one pass, O(n) memory:
    yields (row, d) with v(n, k) = row[k] / d**n and d the common
    denominator of a and b."""
    steps = range(_as_n(n_max) + 1)
    da, db, d = _over_one_denominator(*_as_ab(a, b))
    return ((row, d) for row in _rows([k * d + da for k in steps], [j * d + db for j in steps]))


def scaled_row(n: int, a, b) -> tuple[list[int], int]:
    """Row n of the triangle as integers: returns (row, d) with
    v(n, k) = row[k] / d**n and d the common denominator of a and b."""
    for row, d in scaled_rows(n, a, b):
        pass
    return row, d


def _fractions(row, den: int) -> tuple[Fraction, ...]:
    """The one place an integer row over one denominator becomes Fractions."""
    return tuple(Fraction(x, den) for x in row)


class EulerTriangle(NamedTuple):
    """Exact table of v_{a,b}(n, k) for 0 <= k <= n <= n_max, kept as the
    integer rows of the recursion: v(n, k) = rows[n][k] / d**n, with d the
    common denominator of a and b.  Values are handed out as Fractions."""

    a: Fraction
    b: Fraction
    n_max: int
    d: int
    rows: tuple[tuple[int, ...], ...]

    def _row(self, n: int) -> tuple[tuple[int, ...], int]:
        """Row n and its denominator d**n."""
        n = _as_n(n, _ANY)
        if n < 0 or n > self.n_max:
            raise DomainError(f"row {n} outside stored range 0..{self.n_max}")
        return self.rows[n], self.d ** n

    def v(self, n: int, k: int) -> Fraction:
        """v(n, k); zero outside the triangle."""
        row, den = self._row(n)
        k = _as_n(k, _ANY, "k")
        if k < 0 or k >= len(row):
            return Fraction(0)
        return Fraction(row[k], den)

    def row(self, n: int) -> tuple[Fraction, ...]:
        return _fractions(*self._row(n))

    def row_sum(self, n: int) -> Fraction:
        row, den = self._row(n)
        return Fraction(sum(row), den)


def v_triangle(n_max: int, a, b) -> EulerTriangle:
    """Full triangle up to n_max, built by the two-term recursion."""
    rows, ds = zip(*((tuple(row), d) for row, d in scaled_rows(n_max, a, b)))
    return EulerTriangle(*_as_ab(a, b), len(rows) - 1, ds[0], rows)


def v_row(n: int, a, b) -> tuple[Fraction, ...]:
    """Single row n as exact rationals, O(n) memory."""
    row, d = scaled_row(n, a, b)
    return _fractions(row, d ** n)


def _variables(count: int) -> tuple[str, ...]:
    """The names of a polynomial's first ``count`` variables: a, b, x3, x4, ..."""
    return ("a", "b", *(f"x{i}" for i in range(3, count + 1)))[:count]


class BivarPoly:
    """Sparse polynomial over exponent tuples of any length, in a, b, x3, x4, ...

    Stored as a mapping (i, j) -> exact coefficient of a^i b^j; zero
    coefficients are dropped.  ``+``, ``*`` and ``==`` read a monomial padded
    with zero exponents as the same one, and ``+`` and ``*`` take plain
    numbers as constants, so the triangle recursion runs on it unchanged.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, ...], int | Fraction] | None = None):
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        return cls({(0, 0): c})

    def _aligned(self, other) -> tuple[dict, dict]:
        """Both coefficient maps, every monomial padded with zeros to the longest, or to 2
        when there are only constants (a plain number is one): uncopied when none needs
        it, and monomials that padding makes equal add up."""
        maps = self.coeffs, (other if isinstance(other, BivarPoly) else BivarPoly.constant(other)).coeffs
        if len(widths := set(map(len, chain(*maps)))) < 2:
            return maps
        pad, padded = (0,) * max(widths), ({}, {})
        for coeffs, out in zip(maps, padded):
            for m, c in coeffs.items():
                out[m + pad[len(m):]] = out.get(m + pad[len(m):], 0) + c
        return padded

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and not self + other * -1

    def __hash__(self):
        return hash(self.total())   # padding changes no coefficient sum: == polynomials agree

    def __add__(self, other) -> "BivarPoly":
        mine, theirs = self._aligned(other)
        out = dict(mine)
        for m, c in theirs.items():
            out[m] = out.get(m, 0) + c
        return BivarPoly(out)

    __radd__ = __add__

    def __mul__(self, other) -> "BivarPoly":
        mine, theirs = self._aligned(other)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for m1, c1 in mine.items():
            for m2, c2 in theirs.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return BivarPoly(out)

    __rmul__ = __mul__

    def evaluate(self, *values) -> Fraction:
        if len(values) < (need := max(map(len, self.coeffs), default=0)):
            raise ParameterError(f"the polynomial needs {need} values, one per variable, got {len(values)}")
        vals = [_rational(x, v) for x, v in zip(_variables(len(values)), values)]
        out = Fraction(0)
        for mono, c in self.coeffs.items():
            term = c
            for v, e in zip(vals, mono):
                term *= v**e
            out += term
        return out

    def total(self) -> Fraction:
        return sum(self.coeffs.values(), Fraction(0))

    def normalized(self) -> "BivarPoly":
        z = self.total()
        return BivarPoly({m: c / z for m, c in self.coeffs.items()})

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        def monomial(mono: tuple[int, ...]) -> str:
            names = _variables(len(mono))
            return "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip(names, mono) if e)

        terms = []
        for mono in sorted(self.coeffs, key=lambda m: (sum(m), [-e for e in m])):
            c = self.coeffs[mono]
            m = monomial(mono)
            if not m:
                terms.append(str(c))
            elif c == 1:
                terms.append(m)
            elif c == -1:
                terms.append(f"-{m}")
            else:
                terms.append(f"{c}*{m}")
        return " + ".join(terms).replace("+ -", "- ")

    __repr__ = __str__


def _symbolic_rows(n_max: int):
    """Rows 0..n_max of the triangle as polynomials in a and b, one pass."""
    steps = range(_as_n(n_max) + 1)
    a, b = BivarPoly({(1, 0): 1}), BivarPoly({(0, 1): 1})
    return _rows([k + a for k in steps], [j + b for j in steps], one=BivarPoly.constant(1))


def v_symbolic(n: int, k: int) -> BivarPoly:
    """v(n, k) as a polynomial in a and b (zero outside 0 <= k <= n)."""
    n, k = _as_n(n), _as_n(k, _ANY, "k")
    if k < 0 or k > n:
        return BivarPoly()
    for row in _symbolic_rows(n):
        pass
    return row[k]


def p_eval(n: int, a, b, x) -> Fraction:
    """P_{n,a,b}(x) = sum_k v(n,k) x^k, exact."""
    x = _rational("x", x)
    row, d = scaled_row(n, a, b)
    num = Fraction(0)
    for v in reversed(row):   # Horner on the integer row
        num = num * x + v
    return num / d**n


def tilde_row(n: int) -> tuple[Fraction, ...]:
    """Row n of the (a,b) = (0,0) substitute triangle:
    tilde_v(n, k) = v_{1,1}(n-2, k-1), defined for n >= 2."""
    n = _as_n(n, 2)
    inner = v_row(n - 2, 1, 1)
    return (Fraction(0),) + inner + (Fraction(0),)


def tilde_v(n: int, k: int) -> Fraction:
    row = tilde_row(n)   # DomainError for n < 2
    k = _as_n(k, _ANY, "k")
    if k < 0 or k > n:
        return Fraction(0)
    return row[k]


def tilde_p_eval(n: int, x) -> Fraction:
    """tilde-P_{n,0,0}(x) = x * P_{n-2,1,1}(x), n >= 2."""
    n = _as_n(n, 2)
    x = _rational("x", x)
    return x * p_eval(n - 2, 1, 1, x)


def p_at_one(n: int, a, b) -> tuple[Fraction, Fraction, Fraction]:
    """Closed forms of (P(1), P'(1), P''(1)):

        P(1)   = (a+b)^{rise n}
        P'(1)  = n (n + 2b - 1) / 2 * (a+b)^{rise n-1}
        P''(1) = n (n-1) (3n^2 + (12b - 11) n + 12b^2 - 24b + 10) / 12
                 * (a+b)^{rise n-2}
    """
    a, b = _as_ab(a, b)
    s = a + b
    p0 = rising_factorial(s, n)
    if n == 0:
        return p0, Fraction(0), Fraction(0)
    p1 = Fraction(n * (n + 2 * b - 1), 2) * rising_factorial(s, n - 1)
    if n == 1:
        return p0, p1, Fraction(0)
    quad = 3 * n * n + (12 * b - 11) * n + 12 * b * b - 24 * b + 10
    p2 = Fraction(n * (n - 1) * quad, 12) * rising_factorial(s, n - 2)
    return p0, p1, p2


class CTable(NamedTuple):
    """Exact table of the connection coefficients c_{n,l}:
    c_{0,0} = 1 and c_{n+1,l} = (l + b) c_{n,l} + c_{n,l-1}, kept as integer
    rows: c_{n,l} = rows[n][l] / d**(n-l), with b = B/d in lowest terms, so
    rows[n+1][l] = (l d + B) rows[n][l] + rows[n][l-1].  Values are handed
    out as Fractions."""

    b: Fraction
    n_max: int
    rows: tuple[tuple[int, ...], ...]

    def c(self, n: int, ell: int) -> Fraction:
        n, ell = _as_n(n, _ANY), _as_n(ell, _ANY, "ell")
        if n < 0 or n > self.n_max:
            raise DomainError(f"row {n} outside stored range 0..{self.n_max}")
        if ell < 0 or ell > n:
            return Fraction(0)
        return Fraction(self.rows[n][ell], self.b.denominator ** (n - ell))


def c_table(n_max: int, b) -> CTable:
    n_max = _as_n(n_max, name="n_max")
    b = _finite("b", b)
    rows = _rows([ell * b.denominator + b.numerator for ell in range(n_max + 1)], [1] * (n_max + 1))
    return CTable(b=b, n_max=n_max, rows=tuple(map(tuple, rows)))


def eulerian_row(n: int) -> list[int]:
    """Row n of the classical Eulerian triangle <n, k> as integers."""
    return scaled_row(n, 1, 0)[0]


def eulerian(n: int, k: int) -> int:
    """Classical Eulerian number <n, k> (permutations of n with k descents)."""
    n, k = _as_n(n), _as_n(k, _ANY, "k")
    if k < 0 or k > n:
        return 0
    return eulerian_row(n)[k]

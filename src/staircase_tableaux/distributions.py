"""Exact laws, moments and diagnostics for weighted random staircase
tableaux.

Everything distributional is exact rational arithmetic on top of the
triangle module; floating point only enters root refinement output, the
CLT/LLT diagnostics and chi-square p-values.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import count, islice
from operator import add
from typing import NamedTuple

from .errors import DomainError, ParameterError, RootFindingError
from .eulerian_poly import (_ANY, _as_ab, _as_n, _finite, _fractions, _invert,
                            _over_one_denominator, _Record, scaled_row)

__all__ = [
    "DiscreteDist",
    "dist_A",
    "moments_A",
    "BernoulliDecomp",
    "bernoulli_decomposition",
    "PairDist",
    "NPairLaw",
    "dist_N_pairs",
    "diag_prob",
    "cell_prob",
    "joint_diag_alpha",
    "diag_cov",
    "SubtableauComparison",
    "subtableau_law_check",
    "CLTDiagnostics",
    "clt_diagnostics",
    "GrowthRow",
    "n_alpha_growth_check",
    "ChiSquareResult",
    "chi_square_gof",
]


class DiscreteDist(_Record):
    """Finitely supported exact law on consecutive integers as integer
    weights over one denominator: P(offset + i) = weights[i] / total, total =
    sum(weights).  Zero ends are trimmed and the weights divided by their gcd,
    so equal laws compare equal.  Values are handed out as Fractions."""

    total: int   # sum(weights), kept out of repr and ==
    _fields = ("offset", "weights")

    def __init__(self, offset: int, weights: tuple[int, ...]):
        offset = _as_n(offset, _ANY, "offset")
        if not isinstance(weights, Iterable):
            raise ParameterError(f"weights must be an iterable of integers, got {weights!r}")
        weights = [x if type(x) is int and x >= 0 else _as_n(x, 0, "each weight", ParameterError)
                   for x in weights]
        nonzero = [i for i, x in enumerate(weights) if x]
        if not nonzero:
            raise ParameterError("weights must hold a weight > 0")
        w = weights[nonzero[0]:nonzero[-1] + 1]
        g = math.gcd(*w)
        w = tuple(x // g for x in w)
        super().__init__(offset + nonzero[0], w)
        object.__setattr__(self, "total", sum(w))

    @classmethod
    def from_map(cls, pm: dict[int, Fraction]) -> "DiscreteDist":
        """The law with exact probabilities pm[k], which must sum to 1."""
        if not isinstance(pm, Mapping):
            raise ParameterError(f"pm must be a mapping of outcomes to probabilities, got {pm!r}")
        pm = {_as_n(k, _ANY, "each outcome"): _finite(f"the probability of outcome {k!r}", p)
              for k, p in pm.items()}
        lo, hi = min(pm, default=0), max(pm, default=0)
        den = math.lcm(*(p.denominator for p in pm.values()))
        weights = [int(pm.get(k, 0) * den) for k in range(lo, hi + 1)]
        if (mass := Fraction(sum(weights), den)) != 1:
            raise ParameterError(f"the probabilities must sum to 1, got {mass}")
        return cls(lo, weights)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """P(offset), P(offset + 1), ... as Fractions."""
        return _fractions(self.weights, self.total)

    def support(self) -> range:
        return range(self.offset, self.offset + len(self.weights))

    def pmf(self, k: int) -> Fraction:
        k = _as_n(k, _ANY, "k")
        if k in self.support():
            return Fraction(self.weights[k - self.offset], self.total)
        return Fraction(0)

    def mean(self) -> Fraction:
        s1 = sum(i * w for i, w in enumerate(self.weights))
        return self.offset + Fraction(s1, self.total)

    def variance(self) -> Fraction:
        """(total S2 - S1^2) / total^2 with S_j = sum_i i^j weights[i]."""
        s1 = sum(i * w for i, w in enumerate(self.weights))
        s2 = sum(i * i * w for i, w in enumerate(self.weights))
        return Fraction(self.total * s2 - s1 * s1, self.total ** 2)

    def shifted(self, delta: int) -> "DiscreteDist":
        return DiscreteDist(self.offset + _as_n(delta, _ANY, "delta"), self.weights)



def dist_A(n: int, a, b) -> DiscreteDist:
    """Exact law of the number of alphas on the diagonal.

    P(A=k) = v_{a,b}(n,k) / (a+b)^{rise n} for (a,b) != (0,0), so the
    scaled triangle row is the weight vector; at a = b = 0 (both weights
    infinite) P(A=k) = tilde_v(n,k)/(n-1)! = v_{1,1}(n-2,k-1)/(n-1)!, n >= 2.
    """
    a, b = _as_ab(a, b)
    n = _as_n(n)
    if a == 0 and b == 0:
        if n < 2:
            raise DomainError("a = b = 0 needs n >= 2")
        return DiscreteDist(1, scaled_row(n - 2, 1, 1)[0])
    return DiscreteDist(0, scaled_row(n, a, b)[0])


def moments_A(n: int, a, b) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of A from the closed forms

        E A   = n (n + 2b - 1) / (2 (n + a + b - 1))
        Var A = n [ (n-1)(n-2)(n+4a+4b-1) + 6(n-1)(a+b)^2 + 12ab(a+b-1) ]
                / [ 12 (n+a+b-1)^2 (n+a+b-2) ].

    At n < 2 and at (n, a, b) = (2, 0, 0), where the forms can be singular,
    the moments are read off the law dist_A itself.
    """
    a, b = _as_ab(a, b)
    n = _as_n(n)
    if n < 2 or n == 2 and a == b == 0:
        law = dist_A(n, a, b)
        return law.mean(), law.variance()
    mean = Fraction(n) * (n + 2 * b - 1) / (2 * (n + a + b - 1))
    num = (
        (n - 1) * (n - 2) * (n + 4 * a + 4 * b - 1)
        + 6 * (n - 1) * (a + b) ** 2
        + 12 * a * b * (a + b - 1)
    )
    var = Fraction(n) * num / (12 * (n + a + b - 1) ** 2 * (n + a + b - 2))
    return mean, var


def _expand(factors) -> list:
    """The coefficients of prod (c + e x) over the (c, e) in factors, lowest degree first."""
    out = [1]
    for c, e in factors:
        y, prev, out = 0, out + [0], []
        for x in prev:
            out.append(c * x + e * y)
            y = x
    return out


# ---------------------------------------------------------------------------
# Bernoulli decomposition by real-root isolation


def _sign_at(coeffs: list[int], u: int, s: int) -> int:
    """Exact sign of sum_k coeffs[k] x^k at the dyadic x = u 2^s.

    Every point the refinement tests is a cell midpoint of this form, so
    the sign is that of an integer: the sum itself at the integer u 2^s
    when s >= 0, else sum_k c_k u^k 2^(-s(m-k)), both by Horner."""
    if s >= 0:
        u, s = u << s, 0
    acc = sh = 0
    for c in reversed(coeffs):
        acc = acc * u + (c << sh)
        sh -= s
    return (acc > 0) - (acc < 0)


def _variations(b: list[int]) -> int:
    """Sign changes over the nonzero entries of b.  On a cell's Bernstein
    coefficients this counts the roots of q in the cell exactly when every
    root of q is real (Descartes); a count of 0 or 1 is exact always."""
    signs = [c > 0 for c in b if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _isolate_roots(coeffs: list[int]) -> list[Fraction]:
    """The roots -xi of p(x) = sum_k coeffs[k] x^k as the ascending xi > 0.

    Bernstein subdivision (Rouillier-Zimmermann) on q(t) = p(-2^L t), whose
    roots lie in (0, 1): a cell whose Bernstein coefficients show one sign
    variation holds exactly one root, one with none holds no root, and any
    other is halved by de Casteljau at t = 1/2; a midpoint where q vanishes
    is an exact root.  Exactly m roots must come out, which proves them
    real and simple.  Each cell is then bisected, with exact signs, down to
    the one cell of the fixed grid {k 2^(j-40)}, 2^j <= xi < 2^(j+1), that
    holds its root, and that cell's midpoint is reported, so the output
    depends on p alone.

    Raises RootFindingError for a coefficient that is not positive, a
    multiple root, or any count of roots other than the degree m.
    """
    m = len(coeffs) - 1
    if any(c <= 0 for c in coeffs):
        raise RootFindingError("the polynomial must have positive coefficients")
    # Vieta: the root magnitudes sum to c_{m-1}/c_m < 2^L
    L = (coeffs[m - 1] // coeffs[m] + 2).bit_length()
    # Mahler: the roots of a squarefree integer polynomial lie more than
    # m^(-(m+2)/2) |p|_1^(1-m) >= 2^-sep_bits apart, so a cell this narrow
    # that still shows two sign variations holds a multiple or non-real root
    sep_bits = (m + 2) * m.bit_length() // 2 + 1 + (m - 1) * sum(coeffs).bit_length()
    # (c, s, b): b is a positive multiple of the Bernstein coefficients of q on
    # c 2^s < xi < (c+1) 2^s, or None for an exact root at xi = c 2^s; popped in
    # ascending xi.  At the top m! b_i = sum_{k<=i} C(i, k) k! (m-k)! q_k
    w = [math.factorial(m - k) * (-1) ** k * c << L * k for k, c in enumerate(coeffs)]
    stack = [(0, L, [sum(math.perm(i, k) * w[k] for k in range(i + 1)) for i in range(m + 1)])]
    found: list[Fraction | tuple[int, int]] = []
    while stack:
        c, s, b = stack.pop()
        if b is None:
            found.append(c * Fraction(2) ** s)
            continue
        count = _variations(b)
        if count == 1:
            found.append((c, s))
        elif count > 1:
            if s <= -sep_bits:
                raise RootFindingError(f"a multiple or non-real root near {-c * Fraction(2) ** s}")
            left, right, row = [], [], b   # de Casteljau at t = 1/2, times 2^m
            for k in range(m + 1):
                left.append(row[0] << (m - k))
                right.append(row[-1] << (m - k))
                row = list(map(add, row, row[1:]))
            right.reverse()
            stack.append((2 * c + 1, s - 1, right))
            if right[0] == 0:
                stack.append((2 * c + 1, s - 1, None))
            stack.append((2 * c, s - 1, left))
    if len(found) != m:
        raise RootFindingError(f"found {len(found)} real roots, expected {m}")
    xis = []
    for r, root in enumerate(found):
        if type(root) is tuple:
            # all m roots are simple and r of them lie nearer zero, so p has
            # the sign (-1)^r between this cell's near end and its root
            c, s = root
            while c >> 40 == 0:   # width 2^s > 2^-40 c 2^s
                c, s = 2 * c, s - 1
                sign = _sign_at(coeffs, -(c + 1), s)
                if sign == 0:
                    root = (c + 1) * Fraction(2) ** s
                    break
                if sign == (-1) ** r:
                    c += 1
            else:
                root = (2 * c + 1) * Fraction(2) ** (s - 1)
        xis.append(root)
    return xis


class BernoulliDecomp(NamedTuple):
    """A written as an independent Bernoulli sum: p[i] = 1/(1 + xi[i]) from
    the located roots -xi[i] of the pgf (xi = inf encodes a padded p = 0,
    xi = 0 a deterministic success).  Each xi is a certified root: the
    midpoint of the one cell of the fixed grid k 2^(j-40), 2^j <= xi <
    2^(j+1), that holds it (relative width at most 2^-40), or the root
    itself when a midpoint hits it exactly."""

    n: int
    p: tuple[float, ...]
    xi: tuple[float, ...]

    def reconstruction(self) -> list[float]:
        """Convolution of the Bernoulli(p_i) laws as floats: prod_i ((1 - p_i) + p_i x)."""
        return _expand((1 - p, p) for p in self.p)


def bernoulli_decomposition(n: int, a, b) -> BernoulliDecomp:
    """Locate the roots of the pgf of A and return the Bernoulli
    parameters p_i = 1/(1 + xi_i).

    Root structure (all real, simple, in (-inf, 0]): the pgf of A is x^offset
    times the polynomial of the weights of ``dist_A``.  Each root at 0 gives
    p = 1 (one for a = 0 and for a = b = 0), each root of the weights the next
    p, and each degree short of n a padded p = 0 (one for b = 0 and a = b = 0).

    The roots are isolated at the top degree only, with exact integer
    arithmetic everywhere, and land on one fixed dyadic grid, so the
    output depends on (n, a, b) alone.  Raises RootFindingError if any
    root fails to certify, never returns silently wrong roots.
    """
    a, b = _as_ab(a, b)
    n = _as_n(n, 1)
    law = dist_A(n, a, b)
    xis = _isolate_roots(law.weights)
    pad = n - law.offset - len(xis)
    p = [1.0] * law.offset + [float(1 / (1 + x)) for x in xis] + [0.0] * pad
    xi = [0.0] * law.offset + [float(x) for x in xis] + [math.inf] * pad
    return BernoulliDecomp(n=n, p=tuple(p), xi=tuple(xi))


# ---------------------------------------------------------------------------
# Joint symbol counts


class PairDist(_Record):
    """Law of one step pair (I_i, J_i): (0,0) is impossible, the rest are
    p10, p01, p11."""

    _fields = ("p10", "p01", "p11")

    def __init__(self, p10: Fraction, p01: Fraction, p11: Fraction):
        p10, p01, p11 = (_finite(name, p) for name, p in zip(self._fields, (p10, p01, p11)))
        if (mass := p10 + p01 + p11) != 1:
            raise ParameterError(f"the pair probabilities must sum to 1, got {mass}")
        super().__init__(p10, p01, p11)


def _harmonic_sums(da: int, db: int, d: int):
    """The running (H1, H2) = (sum 1/s_i, sum 1/s_i^2) over s_i = da + db + i d,
    i = 0, 1, ...: first the empty sums, then the sums after each step."""
    h1 = h2 = Fraction(0)
    yield h1, h2
    for s in count(da + db, d):
        h1 += Fraction(1, s)
        h2 += Fraction(1, s * s)
        yield h1, h2


class NPairLaw(_Record):
    """(N_alpha, N_beta) as a sum of n independent pairs, built from (n, a, b).
    With a = da/d, b = db/d and s_i = da + db + i d, step i < m has the law
    P(1,0) = db/s_i, P(0,1) = da/s_i, P(1,1) = i d/s_i, and steps i >= m are
    (1, 1): m = n, but (da, db, d, m) = (1, 1, 1, min(n, 1)) at a = b = 0.
    The exact moments are read off H1 = sum_{i<m} 1/s_i and H2 = sum_{i<m} 1/s_i^2:

        E N_alpha = n - da H1,  Var N_alpha = da H1 - da^2 H2,  Cov = -da db H2,

    and E N_beta, Var N_beta alike with db."""

    _scaled: tuple[int, int, int, int]   # (da, db, d, m) as above
    _fields = ("n", "a", "b", "pairs", "mean_alpha", "var_alpha", "mean_beta", "var_beta", "cov")

    def __init__(self, n: int, a, b) -> None:
        a, b = _as_ab(a, b)
        n = _as_n(n)
        da, db, d, m = (*_over_one_denominator(a, b), n) if a or b else (1, 1, 1, min(n, 1))
        h1, h2 = next(islice(_harmonic_sums(da, db, d), m, None))
        pairs = [PairDist(Fraction(db, s), Fraction(da, s), Fraction(s - da - db, s))
                 for s in range(da + db, da + db + m * d, d)] + [PairDist(0, 0, 1)] * (n - m)
        super().__init__(n, a, b, tuple(pairs), n - da * h1, da * h1 - da * da * h2,
                         n - db * h1, db * h1 - db * db * h2, -da * db * h2)
        object.__setattr__(self, "_scaled", (da, db, d, m))

    def joint_law(self) -> dict[tuple[int, int], Fraction]:
        """Exact joint law of (N_alpha, N_beta), read from the record's (n, a, b).
        An escape, a step that is not (1, 1), is (0, 1) with chance a/(a+b): e
        escapes, v of them (0, 1), weigh g_e C(e, v) da^v db^(e-v) over prod_{i<m}
        (da + db + i d), g_e the y^e coefficient of the escapes' prod_{i<m} (i d + y)."""
        n, (da, db, d, m) = self.n, self._scaled
        total = math.prod(da + db + i * d for i in range(m))
        return {(n - v, n - e + v): Fraction(w, total)
                for e, ge in enumerate(_expand((i * d, 1) for i in range(m)))
                for v in range(e + 1) if (w := ge * math.comb(e, v) * da ** v * db ** (e - v))}

    def alpha_law(self) -> DiscreteDist:
        """Exact law of N_alpha: step i is (0, 1) with chance da/(da + db + i d), so
        N_alpha - (n - m) weighs as the coefficients of prod_{i<m} (da + (i d + db) x)."""
        n, (da, db, d, m) = self.n, self._scaled
        return DiscreteDist(n - m, _expand((da, i * d + db) for i in range(m)))


def dist_N_pairs(n: int, a, b) -> NPairLaw:
    """The n independent pair laws driving (N_alpha, N_beta), as an NPairLaw."""
    return NPairLaw(n, a, b)


# ---------------------------------------------------------------------------
# Positions of symbols


def diag_prob(n: int, a, b, i: int) -> Fraction:
    """P(i-th diagonal box, counted from the NE, holds an alpha) =
    (n - i + b) / (n + a + b - 1), joint_diag_alpha at the one column n + 1 - i."""
    a, b = _as_ab(a, b)
    n, i = _as_n(n), _as_n(i, 1, "i")
    if i > n:
        raise DomainError(f"diagonal index must lie in 1..{n}, got {i}")
    return joint_diag_alpha(n, a, b, (n + 1 - i,))


def cell_prob(n: int, a, b, i: int, j: int) -> tuple[Fraction, Fraction, Fraction]:
    """(P(alpha), P(beta), P(filled)) for the non-diagonal box (i, j):

        P(alpha)  = (j - 1 + b) / ((i+j+a+b-1)(i+j+a+b-2))
        P(beta)   = (i - 1 + a) / ((i+j+a+b-1)(i+j+a+b-2))
        P(filled) = 1 / (i+j+a+b-1)

    with the a = b = 0, i = j = 1 entries read as 1/2 (the box is then
    filled with probability one)."""
    a, b = _as_ab(a, b)
    n, i, j = _as_n(n), _as_n(i, 1, "i"), _as_n(j, 1, "j")
    if i + j > n:
        raise DomainError(
            f"need a non-diagonal box: 1 <= i, j and i + j <= {n}, got ({i}, {j})"
        )
    d1 = i + j + a + b - 1
    d2 = i + j + a + b - 2
    if d2 == 0:   # only at a = b = 0, i = j = 1
        return Fraction(1, 2), Fraction(1, 2), 1 / d1
    return (j - 1 + b) / (d1 * d2), (i - 1 + a) / (d1 * d2), 1 / d1


def joint_diag_alpha(n: int, a, b, positions) -> Fraction:
    """P(the diagonal boxes in columns j_1 < ... < j_l all hold alpha) =
    prod_k (j_k - k + b) / (n - k + a + b)."""
    a, b = _as_ab(a, b)
    n = _as_n(n)
    if not isinstance(positions, Iterable):
        raise ParameterError(f"positions must be an iterable of integers, got {positions!r}")
    js = [_as_n(j, 1, "each position") for j in positions]
    if any(j > n for j in js) or any(x >= y for x, y in zip(js, js[1:])):
        raise DomainError(f"positions must be strictly increasing within 1..{n}")
    out = Fraction(1)
    for k, j in enumerate(js, start=1):
        den = n - k + a + b
        if den == 0:
            raise DomainError("undefined: zero denominator at k = n with a = b = 0")
        out *= (j - k + b) / den
    return out


def diag_cov(n: int, a, b, j: int, k: int) -> Fraction:
    """Covariance of the alpha indicators of the diagonal boxes in columns
    j < k: -(j-1+b)(n-k+a) / ((n+a+b-1)^2 (n+a+b-2))."""
    a, b = _as_ab(a, b)
    n, j, k = _as_n(n), _as_n(j, 1, "j"), _as_n(k, 1, "k")
    if not j < k <= n:
        raise DomainError(f"need 1 <= j < k <= {n}, got ({j}, {k})")
    den = (n + a + b - 1) ** 2 * (n + a + b - 2)
    if den == 0:
        raise DomainError("undefined for n + a + b <= 2")
    return -Fraction((j - 1 + b) * (n - k + a)) / den


# ---------------------------------------------------------------------------
# Subtableau law


class SubtableauComparison(NamedTuple):
    n: int
    i: int
    j: int
    sub_size: int
    a_hat: Fraction
    b_hat: Fraction
    equal: bool
    first_difference: tuple | None


def subtableau_law_check(n: int, a, b, i: int, j: int,
                         allow_large: bool = False) -> SubtableauComparison:
    """Compare the exact law of the (i, j)-subtableau of the weighted
    random size-n tableau with the direct weighted law of size
    n - i - j + 2 at shifted parameters a+i-1, b+j-1 (both sides by
    exhaustive enumeration)."""
    from .enumeration import law_ab
    from .tableau import subtableau

    a, b = _as_ab(a, b)
    n, i, j = _as_n(n), _as_n(i, 1, "i"), _as_n(j, 1, "j")
    if i + j > n + 1:
        raise DomainError(f"box ({i}, {j}) outside the size-{n} staircase")
    m = n - i - j + 2
    a_hat, b_hat = a + i - 1, b + j - 1

    induced: dict = {}
    for t, p in law_ab(n, _invert(a), _invert(b), allow_large).items():
        s = subtableau(t, i, j)
        induced[s] = induced.get(s, Fraction(0)) + p
    direct = law_ab(m, _invert(a_hat), _invert(b_hat), allow_large)
    keys = set(induced) | set(direct)
    diff = None
    for t in sorted(keys, key=lambda t: t.cells):
        lhs = induced.get(t, Fraction(0))
        rhs = direct.get(t, Fraction(0))
        if lhs != rhs:
            diff = (t, lhs, rhs)
            break
    return SubtableauComparison(
        n=n, i=i, j=j, sub_size=m, a_hat=a_hat, b_hat=b_hat,
        equal=diff is None, first_difference=diff,
    )


# ---------------------------------------------------------------------------
# Finite-n limit diagnostics


class CLTDiagnostics(NamedTuple):
    n: int
    mean: float
    sd: float
    ks_to_normal: float
    llt_max_residual: float


def _std_normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2))


def clt_diagnostics(n: int, a, b) -> CLTDiagnostics:
    """Distance of the exact law of A from its Gaussian limit shape:
    Kolmogorov distance of the standardized law to N(0,1), and the local
    residual sqrt(n) * max_k |P(A=k) - sqrt(6/(pi n)) exp(-6(k-n/2)^2/n)|."""
    n = _as_n(n, 10)
    dist = dist_A(n, a, b)
    mean, var = moments_A(n, a, b)
    mu, sd = float(mean), math.sqrt(float(var))
    amp = math.sqrt(6 / (math.pi * n))
    ks = cdf = resid = 0.0
    for k, w in zip(dist.support(), dist.weights):
        p = w / dist.total   # int / int rounds correctly, as float(Fraction) does
        phi = _std_normal_cdf((k - mu) / sd)
        ks = max(ks, abs(cdf - phi), abs(cdf + p - phi))
        cdf += p
        resid = max(resid, abs(p - amp * math.exp(-6 * (k - n / 2) ** 2 / n)))
    return CLTDiagnostics(n=n, mean=mu, sd=sd, ks_to_normal=ks,
                          llt_max_residual=resid * math.sqrt(n))


class GrowthRow(NamedTuple):
    n: int
    mean_alpha: Fraction
    var_alpha: Fraction
    cov: Fraction
    mean_deviation: float   # E N_alpha - (n - a log n)
    var_deviation: float    # Var N_alpha - a log n


def n_alpha_growth_check(n_list, a, b) -> list[GrowthRow]:
    """Exact N_alpha moments against their a log n growth, for each n in
    n_list: NPairLaw's moments from the same running sums H1 and H2 of
    _harmonic_sums, taken in one pass up to max(n_list)."""
    a, b = _as_ab(a, b)
    if not isinstance(n_list, Iterable):
        raise ParameterError(f"n_list must be an iterable of integers, got {n_list!r}")
    targets = sorted({_as_n(n, 1) for n in n_list})
    if not targets:
        raise DomainError("n_list must hold integers >= 1")
    if a == 0 and b == 0:
        raise ParameterError("growth check needs (a, b) != (0, 0)")
    da, db, d = _over_one_denominator(a, b)
    sums, taken = _harmonic_sums(da, db, d), 0
    out = []
    for n in targets:
        h1, h2 = next(islice(sums, n - taken, None))   # item n: the sums over steps i < n
        taken = n + 1
        mean_alpha, var_alpha = n - da * h1, da * h1 - da * da * h2
        log_n = math.log(n)
        out.append(GrowthRow(
            n=n,
            mean_alpha=mean_alpha,
            var_alpha=var_alpha,
            cov=-da * db * h2,
            mean_deviation=float(mean_alpha) - (n - float(a) * log_n),
            var_deviation=float(var_alpha) - float(a) * log_n,
        ))
    return out


# ---------------------------------------------------------------------------
# Goodness of fit


class ChiSquareResult(NamedTuple):
    statistic: float
    df: int
    p_value: float
    total: int

    def passes(self, significance: float = 1e-3) -> bool:
        return self.p_value > significance


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with integer df by Abramowitz & Stegun
    26.4.4-26.4.5: with h = x/2 and c = (df mod 2)/2 + j, the sum over j < df//2
    of h^c e^-h / Gamma(c+1), each term in log space, plus erfc(sqrt h) if df is odd."""
    h = x / 2
    if not 0 < h < math.inf:
        return 1.0 if h <= 0 else 0.0
    half, log_h = (df % 2) / 2, math.log(h)
    terms = [math.exp((half + j) * log_h - h - math.lgamma(half + j + 1))
             for j in range(df // 2)]
    if df % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return min(1.0, math.fsum(terms))


def chi_square_gof(expected, observed) -> ChiSquareResult:
    """Pearson chi-square of observed counts against an exact law.

    ``expected`` maps outcomes to exact probabilities >= 0 that sum to 1,
    ``observed`` maps outcomes to counts, each an integer >= 0.  An outcome
    counted at least once that the law omits or gives probability 0 yields
    ChiSquareResult(inf, max(len(expected) - 1, 1), 0.0, total)."""
    for name, arg in (("expected", expected), ("observed", observed)):
        if not isinstance(arg, Mapping):
            raise ParameterError(f"{name} must be a mapping, got {arg!r}")
    law = [(key, p if type(p) is Fraction and p.numerator >= 0
            else _finite(f"the probability of outcome {key!r}", p)) for key, p in expected.items()]
    if (mass := sum(prob for _, prob in law)) != 1:
        raise ParameterError(f"the probabilities must sum to 1, got {mass}")
    observed = {key: count if type(count) is int and count >= 0
                else _as_n(count, 0, f"the count of outcome {key!r}", ParameterError)
                for key, count in observed.items()}
    total = sum(observed.values())
    if total <= 0:
        raise ParameterError("need at least one observation")
    exp_counts = {key: float(prob) * total for key, prob in law}
    if any(count and not exp_counts.get(key) for key, count in observed.items()):
        return ChiSquareResult(math.inf, max(len(expected) - 1, 1), 0.0, total)
    stat = 0.0
    for key, exp_count in exp_counts.items():
        if exp_count:
            diff = observed.get(key, 0) - exp_count
            stat += diff * diff / exp_count
    df = len(expected) - 1
    return ChiSquareResult(stat, df, _chi2_sf(stat, df), total)

"""Exhaustive generation of staircase tableaux and exact generating sums.

This is the ground-truth oracle for everything else in the package: the
generators are constructive (valid by construction, each tableau exactly
once) and every sum tallies the integer exponent vectors of a stream,
then weighs each distinct vector once.  The streams skip the tableau
checks; ``enumerate_naive`` keeps them and certifies the streams.

The alpha/beta generator grows a tableau one column at a time, left to
right in construction order: extending a size m-1 tableau to size m means
prepending a column of m boxes and filling it one of three ways

  (i)   an alpha in the new bottom box and nothing else;
  (ii)  a beta in the bottom box plus betas in any subset of the rows
        currently indexed by alpha;
  (iii) as (ii) with a non-empty subset whose top row takes an alpha.

Growing columns are prepended, so the column added at step m is written
at its final index n + 1 - m; rows never move.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

from .errors import CapExceededError, ParameterError
from .eulerian_poly import BivarPoly, _as_n, _finite
from .tableau import Symbol, Tableau, counts, validate, weight_exponents

__all__ = [
    "AB_CAP",
    "FOUR_CAP",
    "enumerate_ab",
    "enumerate_four",
    "enumerate_naive",
    "partition_function",
    "law_ab",
    "JointPoly",
    "joint_poly_A_r",
    "joint_poly_N",
    "max_symbol_tableaux",
]

AB_CAP = 8
FOUR_CAP = 5


def _check_cap(n: int, cap: int, override: bool) -> int:
    """The one cap policy of every enumeration: n <= cap unless overridden,
    where the environment variable STAIRCASE_TABLEAUX_CAP, when set,
    replaces the default cap (AB_CAP or FOUR_CAP).  Returns n as an int."""
    n = _as_n(n, error=ParameterError)
    env = os.environ.get("STAIRCASE_TABLEAUX_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ParameterError(f"bad STAIRCASE_TABLEAUX_CAP: {env!r}") from exc
        cap = _as_n(cap, 0, "STAIRCASE_TABLEAUX_CAP", ParameterError)
    if n > cap and not override:
        raise CapExceededError(
            f"n={n} exceeds the enumeration cap {cap}; pass allow_large=True "
            "(--allow-large on the command line) to override"
        )
    return n


def _grow(cells: list[tuple[int, int, Symbol]], alpha_rows: list[int],
          size: int, target: int) -> Iterator[list[tuple[int, int, Symbol]]]:
    """Depth-first column extension; yields a fresh cell list per tableau."""
    if size == target:
        yield cells
        return
    m = size + 1
    col = target + 1 - m
    # case (i): single alpha in the bottom box
    yield from _grow(cells + [(m, col, Symbol.ALPHA)], alpha_rows + [m], m, target)
    # case (ii), then case (iii): bottom beta plus betas in a subset of the
    # alpha-indexed rows; in (iii) the subset's top row takes an alpha (rows
    # start at 1, so top = 0 is the alpha-free case (ii))
    cells = cells + [(m, col, Symbol.BETA)]
    for alpha_top in (False, True):
        for k in range(alpha_top, len(alpha_rows) + 1):
            for subset in itertools.combinations(alpha_rows, k):
                top = min(subset) if alpha_top else 0
                new = cells + [(r, col, Symbol.ALPHA if r == top else Symbol.BETA) for r in subset]
                remaining = [r for r in alpha_rows if r not in subset or r == top]
                yield from _grow(new, remaining, m, target)


def enumerate_ab(n: int, allow_large: bool = False) -> Iterator[Tableau]:
    """All alpha/beta staircase tableaux of size n, each exactly once.

    There are (n+1)! of them.  Guarded by AB_CAP (default 8).  Size 0 is
    the single empty tableau.
    """
    n = _check_cap(n, AB_CAP, allow_large)
    for cells in _grow([], [], 0, n):
        yield Tableau._sorted(n, cells)


def enumerate_four(n: int, allow_large: bool = False) -> Iterator[Tableau]:
    """All four-symbol staircase tableaux of size n: every alpha/beta
    tableau expanded by relabelling alphas to gamma and betas to delta in
    all possible subsets.  There are 4^n n! of them."""
    n = _check_cap(n, FOUR_CAP, allow_large)
    for base in enumerate_ab(n, allow_large=True):
        options = [
            ((r, c, s), (r, c, Symbol.GAMMA if s is Symbol.ALPHA else Symbol.DELTA))
            for (r, c, s) in base.cells
        ]
        for choice in itertools.product(*options):
            yield Tableau._sorted(n, list(choice))


def enumerate_naive(n: int, four: bool = False) -> Iterator[Tableau]:
    """Independent certification generator: fill every box with one of the
    allowed symbols or leave it empty, keep what validates.  Exponential in
    n(n+1)/2, so it covers n = 0..3 (size 0 is the one empty tableau)."""
    n = _as_n(n, error=ParameterError)
    if n > 3:
        raise CapExceededError("naive enumeration is restricted to n <= 3")
    boxes = [(i, j) for i in range(1, n + 1) for j in range(1, n + 2 - i)]
    symbols: list[Symbol | None] = [None, Symbol.ALPHA, Symbol.BETA]
    if four:
        symbols += [Symbol.GAMMA, Symbol.DELTA]
    for assignment in itertools.product(symbols, repeat=len(boxes)):
        cells = tuple(
            (r, c, s) for (r, c), s in zip(boxes, assignment) if s is not None
        )
        t = Tableau(n, cells)
        if not validate(t):
            yield t


def partition_function(n: int, alpha, beta, gamma=0, delta=0,
                       allow_large: bool = False) -> Fraction:
    """Z_n(alpha, beta, gamma, delta) over the enumeration stream (the
    four-symbol stream, or the alpha/beta stream when gamma = delta = 0,
    where the extra symbols carry weight zero): the weight exponents are
    tallied, then each distinct monomial is evaluated once."""
    alpha, beta, gamma, delta = map(_finite, ("alpha", "beta", "gamma", "delta"),
                                    (alpha, beta, gamma, delta))
    stream = (enumerate_ab if gamma == 0 and delta == 0 else enumerate_four)(n, allow_large)
    return BivarPoly(Counter(map(weight_exponents, stream))).evaluate(alpha, beta, gamma, delta)


def law_ab(n: int, alpha, beta, allow_large: bool = False) -> dict[Tableau, Fraction]:
    """Exact law of the weighted random alpha/beta tableau:
    P(S) = alpha^Na(S) beta^Nb(S) / Z_n(alpha, beta).

    alpha and/or beta may be ``math.inf``; the law then concentrates on the
    tableaux maximizing the corresponding symbol count (uniformly over the
    maximizers when both are infinite).
    """
    n = _check_cap(n, AB_CAP, allow_large)
    # an infinite weight counts as 1 on the maximisers of its symbol count; beta = 0
    # beside alpha = inf leaves the all-alpha diagonal (0**0 == 1, zeros dropped)
    inf_a, inf_b = alpha == math.inf, beta == math.inf
    alpha = 1 if inf_a else _finite("alpha", alpha)
    beta = 1 if inf_b else _finite("beta", beta)
    if alpha == 0 and beta == 0:
        raise ParameterError("need alpha, beta not both zero")
    stats = [(t, weight_exponents(t)[:2]) for t in enumerate_ab(n, allow_large=True)]
    tally = Counter(e for _, e in stats)
    best = max(inf_a * na + inf_b * nb for na, nb in tally)
    weights = {(na, nb): alpha ** na * beta ** nb for na, nb in tally
               if inf_a * na + inf_b * nb == best}
    z = sum((tally[e] * w for e, w in weights.items()), Fraction(0))
    p = {e: w / z for e, w in weights.items() if w != 0}
    return {t: p[e] for t, e in stats if e in p}


JointPoly = BivarPoly  # the enumeration-side name of the one sparse-polynomial type


def _weighted_tally(n: int, alpha, beta, allow_large: bool, name: str, key) -> JointPoly:
    """Sum of alpha^N_alpha beta^N_beta x^key(S) over the alpha/beta
    tableaux S of size n: the vectors (N_alpha, N_beta, key(S)) are
    tallied, then each distinct one adds its weight once to its key."""
    alpha, beta = _finite("alpha", alpha), _finite("beta", beta)
    if alpha == 0 or beta == 0:
        raise ParameterError(f"{name} needs alpha, beta > 0")
    tally = Counter((c.n_alpha, c.n_beta, key(c)) for c in map(counts, enumerate_ab(n, allow_large)))
    out: dict[tuple[int, ...], Fraction] = {}
    for (na, nb, k), m in tally.items():
        out[k] = out.get(k, Fraction(0)) + m * alpha ** na * beta ** nb
    return JointPoly(out)


def joint_poly_A_r(n: int, alpha, beta, allow_large: bool = False) -> JointPoly:
    """D_n(x, z) = sum over alpha/beta tableaux of wt(S) x^A(S) z^r(S),
    tallied by brute force."""
    return _weighted_tally(n, alpha, beta, allow_large, "joint_poly_A_r",
                           lambda c: (c.diagonal_alpha, c.alpha_indexed_rows))


def joint_poly_N(n: int, alpha, beta, allow_large: bool = False) -> JointPoly:
    """Weighted tally over (N_alpha, N_beta) for alpha/beta tableaux."""
    return _weighted_tally(n, alpha, beta, allow_large, "joint_poly_N",
                           lambda c: (c.n_alpha, c.n_beta))


def max_symbol_tableaux(n: int, allow_large: bool = False) -> Iterator[Tableau]:
    """The alpha/beta tableaux with the most cells of their size, 2n-1, each
    holding a symbol; 2(n-1)! of them from n = 1, (n-1)! with n alphas and
    (n-1)! with n-1 alphas; at n = 0 the one empty tableau."""
    for t in enumerate_ab(n, allow_large):
        if len(t.cells) >= 2 * n - 1:
            yield t

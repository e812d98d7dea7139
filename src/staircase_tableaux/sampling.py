"""Exact random generation of weighted staircase tableaux and the
equivalent Friedman urn.

The target law on alpha/beta tableaux is P(S) proportional to
alpha^Na(S) beta^Nb(S).  Sampling is sequential in the size: the tableau
grows one column at a time (sizes 1..n, each new column prepended on the
left), and at step m the law of the partial tableau is the weighted law of
size m with the inverse-beta parameter shifted to b_m = b + (n - m) — that
shift is exactly what deleting the first n-m columns does to the law.

One step, given the current set of alpha-indexed rows:

  1. mark each alpha-indexed row independently with probability
     1/(1 + b_m);
  2. draw the top symbol sigma: Alpha with probability b_m/(a + b_m)
     (when a = b = 0 and m = n both are zero — the tie is resolved by rho);
  3. no marks: sigma goes in the new bottom (diagonal) box; otherwise the
     bottom box and every marked row get a Beta, except the topmost marked
     row which receives sigma.

The marks are not flipped step by step.  A row's marks at different steps
are independent, and its chance of escaping the mark at step t is
b_t/(1 + b_t) = (b + n - t)/(b + n - t + 1), so the product telescopes:
a row that is alpha-indexed after step s is still unmarked after step t
with probability (b + n - t)/(b + n - s).  ``sample_ab`` therefore draws
each row's next mark step once, by one exact first-passage draw, and files
the row in a bucket under that step.  At step m the sorted bucket is the
set of marks and its smallest row the top mark.  A top row that receives
Alpha stays alpha-indexed and is drawn again from step m; every other
marked row receives a Beta and leaves for good.  One draw per Alpha
placed and one sigma coin per step make the expected work O(n + symbols
placed), which is O(n) because a tableau holds at most 2n - 1 symbols.

With a = A/d and b = B/d over one denominator d, every coin is a ratio of
integers: the sigma coin is B_m/(A + B_m) with B_m = B + (n - m) d, and the
mark step of a row alpha-indexed after step s is s + C + 1, where
P(C >= i) = (w - i d)/w with w = B + (n - s) d (C = n - s: never marked).
All coin flips are exact (see ``rng``), so the output law is exactly the
target (audited against the enumeration oracle by chi-square in the tests).
The one integer core ``_draw_ab`` serves ``sample_ab``, ``sample_four`` and
every batch.  Parameters are normalised once per call, not once per
draw, on integers: ``Params`` keeps (A, B, d) from construction,
``urn_sample`` puts (a, b) over one denominator, and ``sample_four`` forms
alpha + gamma and beta + delta unreduced (each coin depends on the value
of its ratio only), with no Fraction arithmetic and no conversion of a
weight that is a Fraction.  So a draw does only exact coin flips and cell
appends, and ``Tableau._sorted`` builds its one tableau without the
public constructor's checks.

A draw reads its chunks by the number of coins it can flip: ``_draw_ab``
flips at most 2n (n sigma coins, fewer than n first-passage draws), the
relabel pass of ``sample_four`` one per cell, the a = b = inf draw one per
diagonal box.  From 32 coins on (``rng._chunks``) it reads the outputs of
``SplitMix64.take`` blocks, the first holding one chunk per coin up to
1024; below, where a block costs more than the ``next_u64`` calls it
replaces, it calls ``next_u64``.
Either way it reads the same chunks in the same order, so every draw is
the same per seed; a draw owns its generator, so the unread rest of a block
is dropped.

A batch draws through ``_batch``, which yields each draw's sorted cells
for every weight regime: draw i is ``sample_ab`` at derive_seed(seed, i),
its chunks read from ``rng._draw_chunks``, which expands the first chunks
of a whole group of seeds at once instead of calling ``next_u64`` per
chunk.  ``sample_batch`` counts the draws' cells and then, once per
distinct tableau, its diagonal alphas; above ``AB_CAP``, where it keeps no
tableaux, it counts each draw's diagonal alphas.  Where draws share their
prefixes (finite weights, at least 4·(n+1)! seeds in a group of up to
1024, so n <= 4), it walks each group through the decision tree together,
one threshold per coin per node (``_walk``); with fewer draws per tableau
the walk loses (n = 5 breaks even, n >= 6 runs 30-80 % slower).  A ``BatchSummary`` holds
just those two Counters and reads its count and sums off the diagonal
alpha counts, so they cannot drift apart.  The CLI's ``sample``
and the sampler criteria of the acceptance suite draw through it too.

The urn ``urn_sample`` flips the same integer coins, P(white) =
(A + w d)/(A + B + k d) at draw k with w whites added; each seed draws the
path that one ``bernoulli_ratio`` per draw gives.  The draws that can be
certain (draw 0 with a = 0 or b = 0, draw 1 after the a = b = 0 tie) flip
that coin on ``next_u64``, and a certain coin reads no chunk; every other
draw reads ``rng._blocks`` at any n, one chunk per draw, so each block is
read to its end.  The loop keeps (A + w d)·2^64 as a running sum, so the
first chunk u decides the draw by one product u·den; only when u·den <
(A + w d)·2^64 < u·den + den (chance at most 2^-64) does the shared
``_coin`` read on, from the same stream.

An infinite weight leaves only the diagonal, by one rule: each diagonal box
independently holds Alpha with probability rho (a = b = inf), 1 (b = inf,
beta = 0) or 0 (a = inf, alpha = 0); a certain box flips no coin.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .errors import ParameterError
from .enumeration import AB_CAP
from .eulerian_poly import _as_n, _as_param, _finite, _invert, _over_one_denominator, _Record
from .rng import (_BLOCK, SplitMix64, _blocks, _chunks, _coin, _draw_chunks, _passage, _rounds,
                  _seed_groups, _seed_stream, _tail)
from .tableau import Symbol, Tableau, counts

__all__ = [
    "INF",
    "Params",
    "sample_ab",
    "sample_four",
    "UrnResult",
    "urn_sample",
    "TableauStats",
    "BatchSummary",
    "sample_batch",
]

INF = math.inf


class Params(_Record):
    """Inverse weights a = 1/alpha, b = 1/beta, each in [0, inf], plus the
    tie-break probability rho used only in the a = b = 0 final step and in
    the a = b = inf diagonal coin."""

    # (A, B, d) with a = A/d and b = B/d, the sampler's integer form; None
    # when either weight is infinite
    _scaled: tuple[int, int, int] | None
    _fields = ("a", "b", "rho")

    def __init__(self, a: Fraction | float, b: Fraction | float, rho: Fraction = Fraction(1, 2)):
        a, b = _as_param("a", a), _as_param("b", b)
        super().__init__(a, b, _as_param("rho", rho, 1))
        object.__setattr__(self, "_scaled",
                           None if INF in (a, b) else _over_one_denominator(a, b))

    @classmethod
    def from_alpha_beta(cls, alpha, beta, rho=Fraction(1, 2)) -> "Params":
        """Build from tableau-side weights: a = 1/alpha with 0 <-> inf."""
        return cls(_invert(_as_param("alpha", alpha)), _invert(_as_param("beta", beta)), rho)

    @property
    def alpha(self) -> Fraction | float:
        return _invert(self.a)

    @property
    def beta(self) -> Fraction | float:
        return _invert(self.b)


def sample_ab(n: int, params: Params, seed: int) -> Tableau:
    """One exact draw of the weighted random alpha/beta tableau of size n,
    in O(n) expected time."""
    n = _as_n(n, error=ParameterError)
    if not isinstance(params, Params):
        raise ParameterError(f"params must be a Params, got {params!r}")
    return Tableau._sorted(n, _draw(n, params, _chunks(SplitMix64(seed), _coins(n, params))))


def _coins(n: int, params: Params) -> int:
    """The most coins a draw flips: 2n at finite weights, a rho coin per
    diagonal box at a = b = inf, none with one weight infinite."""
    return 2 * n if params._scaled is not None else n if params.a == params.b else 0


def _draw(n: int, params: Params, chunk) -> list:
    """The cells, unsorted, of one draw reading its chunks from ``chunk()``."""
    if params._scaled is not None:
        return _draw_ab(n, *params._scaled, params.rho, chunk)
    ALPHA, BETA = Symbol.ALPHA, Symbol.BETA
    if params.a == params.b:   # both inf: a rho coin per diagonal box
        num, den = params.rho.as_integer_ratio()
        syms = [ALPHA if _coin(chunk, num, den) else BETA for _ in range(n)]
    else:   # b = inf (beta = 0): all alpha; a = inf (alpha = 0): all beta
        syms = [ALPHA if params.b == INF else BETA] * n
    return list(zip(range(1, n + 1), range(n, 0, -1), syms))


def _draw_ab(n: int, A: int, B: int, d: int, rho: Fraction, chunk) -> list:
    """The cells, unsorted, of the finite-weight draw at a = A/d, b = B/d
    (in lowest terms or not), flipping at most 2n coins on ``chunk()``:
    exact coins and cell appends only (see the module docstring)."""
    ALPHA, BETA = Symbol.ALPHA, Symbol.BETA
    cells: list[tuple[int, int, Symbol]] = []
    marked_at: dict[int, list[int]] = {}  # step -> rows whose next mark falls there
    for m in range(1, n + 1):
        col = n + 1 - m
        b_m = B + (n - m) * d
        if A == 0 and b_m == 0:
            # a = b = 0 at the last step: both case weights vanish at the
            # same rate; the surviving ratio is rho (Friedman-urn tie).
            alpha = _coin(chunk, rho.numerator, rho.denominator)
        else:
            alpha = _coin(chunk, b_m, A + b_m)
        sigma = ALPHA if alpha else BETA
        marks = marked_at.pop(m, None)
        if marks is None:
            cells.append((m, col, sigma))
            top = m
        else:
            if len(marks) > 1:   # cells are sorted later; one mark needs no sort
                marks.sort()
                cells.extend((r, col, BETA) for r in marks[1:])
            top = marks[0]
            cells.append((m, col, BETA))
            cells.append((top, col, sigma))
        if alpha:
            # file the top row, alpha-indexed after step m, under its next
            # mark step; w = B + (n - m) d is b_m
            c = _passage(chunk, b_m, d, n - m)
            if c < n - m:
                marked_at.setdefault(m + c + 1, []).append(top)
    return cells


def sample_four(n: int, alpha, beta, gamma, delta, seed: int) -> Tableau:
    """Four-symbol draw: sample with effective weights (alpha+gamma,
    beta+delta), then independently relabel each Alpha to Gamma with
    probability gamma/(alpha+gamma) and each Beta to Delta with
    probability delta/(beta+delta)."""
    an, ad = _finite("alpha", alpha).as_integer_ratio()
    bn, bd = _finite("beta", beta).as_integer_ratio()
    gn, gd = _finite("gamma", gamma).as_integer_ratio()
    dn, dd = _finite("delta", delta).as_integer_ratio()
    # x = alpha + gamma = x_num/x_den and y = beta + delta = y_num/y_den,
    # left unreduced: every coin below depends on the value of its ratio only
    x_num, x_den = an * gd + gn * ad, ad * gd
    y_num, y_den = bn * dd + dn * bd, bd * dd
    if x_num == 0 or y_num == 0:
        raise ParameterError("need alpha + gamma > 0 and beta + delta > 0")
    n = _as_n(n, error=ParameterError)
    # a = 1/x, b = 1/y over x_num * y_num; A = x_den * y_num > 0 skips the rho
    # tie.  The two passes read the streams at derive_seed(seed, 0) and (seed, 1)
    seeds = _seed_stream(seed)
    base = _draw_ab(n, x_den * y_num, y_den * x_num, x_num * y_num, Fraction(1, 2),
                    _chunks(SplitMix64(seeds.next_u64()), 2 * n))
    base.sort()  # the relabel coins are flipped in sorted cell order
    chunk = _chunks(SplitMix64(seeds.next_u64()), len(base))
    # gamma/x and delta/y as unreduced integer ratios
    g_num, g_den = gn * x_den, gd * x_num
    d_num, d_den = dn * y_den, dd * y_num
    ALPHA, BETA, GAMMA, DELTA = Symbol.ALPHA, Symbol.BETA, Symbol.GAMMA, Symbol.DELTA
    cells = []
    for r, c, s in base:
        if s is ALPHA and _coin(chunk, g_num, g_den):
            s = GAMMA
        elif s is BETA and _coin(chunk, d_num, d_den):
            s = DELTA
        cells.append((r, c, s))
    return Tableau._sorted(n, cells)


class UrnResult(NamedTuple):
    added_white: int
    added_black: int
    path: tuple[int, ...]  # added-white count after each draw


def urn_sample(n: int, a, b, seed: int) -> UrnResult:
    """Friedman urn with initial weights (a white, b black): each draw is
    replaced together with one ball of the opposite colour.  Returns the
    number of white/black balls added over n draws plus the full path.

    a = b = 0 starts with the 1/2 rule: the first added ball is white with
    probability exactly 1/2 (the second then restores balance, so from time
    2 the urn evolves as if started at (1, 1))."""
    n = _as_n(n, error=ParameterError)
    a, b = _finite("a", a), _finite("b", b)
    A, B, d = _over_one_denominator(a, b)
    rng = SplitMix64(seed)
    white_added = 0
    path = []
    # draw 0 is certain at a = 0 or b = 0, draw 1 after the a = b = 0 fair tie;
    # a certain coin reads no chunk.  Every later draw has 0 < P(white) < 1
    k0 = 0 if A and B else min(n, 1 if A or B else 2)
    for k in range(k0):
        den = A + B + k * d
        white_added += _coin(rng.next_u64, B + (k - white_added) * d if den else 1, den or 2)
        path.append(white_added)
    if n > k0:
        # _coin inline with num kept times 2^64: the first chunk u decides the
        # draw unless u·den < num < u·den + den, and then _coin reads on.  The
        # range comes first in zip, so no chunk is read past the last draw
        num, step = (A + white_added * d) << 64, d << 64
        stream = _blocks(rng, n - k0)
        for den, u in zip(range(A + B + k0 * d, A + B + n * d, d), stream):
            lo = u * den
            if lo >= num or (lo + den > num and not _coin(stream.__next__, num - lo, den)):
                num += step   # black drawn, w.p. 1 - (a + white added)/(a + b + k)
                white_added += 1
            path.append(white_added)
    return UrnResult(white_added, n - white_added, tuple(path))


class TableauStats(NamedTuple):
    diagonal_alpha: int
    diagonal_beta: int
    n_alpha: int
    n_beta: int
    alpha_indexed_rows: int
    diagonal_word: str


def tableau_stats(t: Tableau) -> TableauStats:
    c = counts(t)
    word = "".join(s.letter if s else "." for s in t.diagonal())
    return TableauStats(c.diagonal_alpha, c.diagonal_beta, c.n_alpha, c.n_beta,
                        c.alpha_indexed_rows, word)


class BatchSummary(_Record):
    """Empirical summary of a sample batch, one ``add`` per draw.

    Its two Counters grow in place; ``count`` and the sums are read off
    ``diag_alpha_counts``.  ``tableau_counts`` records whole tableaux only
    for sizes up to ``enumeration.AB_CAP``, the sizes an enumeration oracle
    can check; beyond it the Counter would grow with the number of samples."""

    _fields = ("count", "sum_diag_alpha", "sum_diag_alpha_sq", "diag_alpha_counts",
               "tableau_counts")
    __hash__ = None   # its Counters grow in place, so unhashable

    def __init__(self):
        object.__setattr__(self, "diag_alpha_counts", Counter())
        object.__setattr__(self, "tableau_counts", Counter())

    @property
    def count(self) -> int:
        return sum(self.diag_alpha_counts.values())

    @property
    def sum_diag_alpha(self) -> int:
        return sum(a * m for a, m in self.diag_alpha_counts.items())

    @property
    def sum_diag_alpha_sq(self) -> int:
        return sum(a * a * m for a, m in self.diag_alpha_counts.items())

    def add(self, t: Tableau) -> None:
        self.diag_alpha_counts[_diagonal_alphas(t.n, t.cells)] += 1
        if t.n <= AB_CAP:
            self.tableau_counts[t.cells] += 1


def _diagonal_alphas(n: int, cells) -> int:
    diagonal, ALPHA = n + 1, Symbol.ALPHA
    return sum(1 for r, c, s in cells if s is ALPHA and r + c == diagonal)


def _batch(n: int, params: Params, seed: int, count: int):
    """The sorted cells of each draw of a batch, draw i those of
    sample_ab(n, params, derive_seed(seed, i)), its chunks read from
    ``rng._draw_chunks``."""
    n = _as_n(n, error=ParameterError)
    if not isinstance(params, Params):
        raise ParameterError(f"params must be a Params, got {params!r}")
    for chunk in _draw_chunks(seed, count, _coins(n, params)):
        cells = _draw(n, params, chunk)
        cells.sort()
        yield cells


def sample_batch(n: int, params: Params, seed: int, count: int) -> BatchSummary:
    """Summary of ``count`` independent draws; sample i uses the derived
    seed (seed, i).  Each distinct tableau, or above AB_CAP each distinct
    diagonal alpha count, is summed once.  The draws walk their decision
    tree together when the weights are finite and min(count, 1024) >=
    4·(n+1)!, four per alpha/beta tableau; else they are drawn one by one."""
    n = _as_n(n, error=ParameterError)
    count = _as_n(count, 1, "count", ParameterError)
    out = BatchSummary()
    if n > AB_CAP:
        out.diag_alpha_counts.update(_diagonal_alphas(n, cells)
                                     for cells in _batch(n, params, seed, count))
        return out
    tally = out.tableau_counts
    # params that are not a Params go to _batch, which rejects them
    if isinstance(params, Params) and params._scaled is not None \
            and min(count, _BLOCK) >= 4 * math.factorial(n + 1):
        for seeds in _seed_groups(seed, count):
            # the walk indexes its rounds draw by draw, faster in lists
            rounds = [r.tolist() for r in _rounds(seeds, 2 * n)]
            _walk(n, *params._scaled, params.rho, rounds, seeds, tally)
    else:
        tally.update(map(tuple, _batch(n, params, seed, count)))
    for cells, m in tally.items():
        out.diag_alpha_counts[_diagonal_alphas(n, cells)] += m
    return out


def _split(col, idx, cuts, redraw: list) -> list:
    """The draws ``idx`` by how many of the increasing points num/den of
    ``cuts`` their chunk col[i] lies at or above: len(cuts) + 1 lists.  With
    T = floor(num·2^64/den), a chunk below T lies below, one above T above;
    a chunk equal to T lies above an exact point and straddles an inexact
    one (r != 0), which leaves its coin open: that draw goes to ``redraw``."""
    parts = []
    for num, den in cuts:
        T, r = divmod(num << 64, den)
        parts.append([i for i in idx if col[i] < T])
        above = [i for i in idx if col[i] > T]
        if len(parts[-1]) + len(above) < len(idx):
            (redraw if r else above).extend(i for i in idx if col[i] == T)
        idx = above
    return parts + [idx]


def _walk(n: int, A: int, B: int, d: int, rho: Fraction, rounds: list, seeds: list,
          tally: Counter) -> None:
    """Add to ``tally`` the sorted cells of ``_draw_ab`` at a = A/d, b = B/d
    for each seed of a group, draw i reading rounds[0][i], rounds[1][i], ...
    and then ``_tail(seeds[i], len(rounds))``.

    A node holds the draws that made the same decisions before step m, so
    they share t chunks read, ``cells`` and (mark step, row) pairs
    ``marked``; its coin splits them by rounds[t][i].  A draw whose coin is
    left open (chance about n²·2^-64), or alone in its node, is drawn again
    by ``_draw_ab``, so ``_coin`` and ``_passage`` stay the only coin loops."""
    ALPHA, BETA = Symbol.ALPHA, Symbol.BETA
    redraw: list[int] = []
    nodes = [(range(len(seeds)), 1, 0, (), ())]   # (idx, m, t, cells, marked)
    while nodes:
        idx, m, t, cells, marked = nodes.pop()
        if len(idx) < 2:   # walking a lone draw on is no faster than redrawing it
            redraw.extend(idx)
            continue
        if m > n:
            tally[tuple(sorted(cells))] += len(idx)
            continue
        b_m = B + (n - m) * d
        num, den = rho.as_integer_ratio() if A == 0 and b_m == 0 else (b_m, A + b_m)
        if 0 < num < den:
            alphas, betas = _split(rounds[t], idx, [(num, den)], redraw)
            t += 1
        else:   # a certain coin reads no chunk
            alphas, betas = (idx, ()) if num else ((), idx)
        col = n + 1 - m
        marks = sorted(r for s, r in marked if s == m)   # as in _draw_ab
        if marks:
            marked = tuple(p for p in marked if p[0] != m)
            cells += tuple((r, col, BETA) for r in [m] + marks[1:])
        top = marks[0] if marks else m
        if betas:
            nodes.append((betas, m + 1, t, cells + ((top, col, BETA),), marked))
        if alphas:   # at m = n the first-passage draw has no bounds and reads no chunk
            bounds = [(i * d, b_m) for i in range(1, n - m + 1)]
            for c, sub in enumerate(_split(rounds[t], alphas, bounds, redraw)):
                if sub:
                    nodes.append((sub, m + 1, t + (m < n), cells + ((top, col, ALPHA),),
                                  marked + ((m + c + 1, top),) if c < n - m else marked))
    for i in redraw:
        chunk = chain([r[i] for r in rounds], _tail(seeds[i], len(rounds))).__next__
        tally[tuple(sorted(_draw_ab(n, A, B, d, rho, chunk)))] += 1

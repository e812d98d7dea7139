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
A draw is its decision vector, per step m -1 for Beta or the passage
count C for Alpha, and ``_cells(n, decisions)`` is the one function that
turns a vector into sorted cells: the buckets above.  It depends on n and
the vector only, so it keeps the cells of every vector it has built while
(n+1)! <= 1024 (n <= 5, ``_CELLS_UPTO``): at most (n+1)! entries per n,
873 in all, and none past n = 5.  Parameters are normalised once per weight
set, not once per draw, on integers: ``Params`` keeps (A, B, d) from
construction, ``urn_sample`` puts (a, b) over one denominator, and
``sample_four`` forms alpha + gamma and beta + delta unreduced (each coin
depends on the value of its ratio only), with no Fraction arithmetic and
no conversion of a weight that is a Fraction.  ``sample_four`` and
``urn_sample`` keep that integer form for their last weights, keyed on the
type and value of each argument (n too, for ``sample_four``), so a call
that repeats them skips the checks and the products.  So a draw does only
exact coin flips, and ``Tableau._sorted`` builds its one tableau from the
sorted cells without the public constructor's checks.

A draw reads its chunks by the number of coins it can flip: at most 2n
for the finite-weight draw (n sigma coins, fewer than n first-passage
draws), one per cell for the relabel pass of ``sample_four``, one per
diagonal box for the a = b = inf draw.  From 32 coins on (``rng._chunks``)
it reads the outputs of ``SplitMix64.take`` blocks, the first holding one
chunk per coin up to 1024; below, where a block costs more than the
``next_u64`` calls it replaces, it calls ``next_u64``.  ``sample_four`` up
to n = 256 reads the first 2n outputs of both its streams from one lane
mix (``rng._heads``, 4n lanes), and past them each stream goes on by the
same rule.

Nearly every coin is decided by its first chunk u, against a threshold
that depends on the weights only.  ``_plan(n, A, B, d, rho)`` states each
step's rule once per weight set: the sigma coin as ``_threshold`` gives it,
T = floor(num·2^64/den), with u < T Alpha, u > T Beta and u = T Beta at an
exact T; and the first-passage bounds ceil(i·d·2^64/b_m), i = 1..n-m, whose
``bisect_right`` at u is C.  A chunk on an inexact threshold (T, or a bound
less one) straddles its point and leaves the coin open.  Below 32 coins
``_decide`` reads a draw's first chunks by index from the head it already
has, the lane mix of ``sample_four`` or a batch's column of
``rng._rounds``, and the relabel pass of ``sample_four`` reads head[2n:]
the same way against its two thresholds.  A draw with an open chunk
(chance of order n²·2^-64) goes to the read-on path over the same chunks:
``_draw_ab`` flips each coin by ``_coin`` and ``_passage``, which read on
until it is decided, and ``sample_four``'s relabel loop does the same with
``_coin``.  ``sample_ab`` and every draw from 32 coins on take that path
directly.  Either way a draw reads the same chunks in the same order, so
every draw is the same per seed; a draw owns its generator, so the unread
rest of a block is dropped.

A batch draws through ``_batch``, which yields each draw's sorted cells
for every weight regime and alone picks where its chunks come from: draw i
is ``sample_ab`` at derive_seed(seed, i).  Below 32 coins a group of seeds
expands its first chunks at once (``rng._rounds``), a draw going on past
its column from ``rng._tail``; from 32 on, each draw reads its own blocks.
``sample_batch`` counts the draws' cells and then, once per distinct
tableau, its diagonal alphas; above ``AB_CAP``, where it keeps no tableaux,
it counts each draw's diagonal alphas.  Where draws share their prefixes
(finite weights, at least 4·(n+1)! seeds in a group of up to 1024, so
n <= 4), it walks each group through the decision tree together, one cut
of the plan per coin per node (``_walk``), and a leaf's decisions give its
cells; with fewer draws per tableau the walk loses to ``_decide``.  A
``BatchSummary`` holds just those two Counters and reads its count and
sums off the diagonal alpha counts, so they cannot drift apart.  The CLI's
``sample`` and the sampler criteria of the acceptance suite draw through
it too.

The urn ``urn_sample`` flips the same integer coins, P(white) =
(A + w d)/(A + B + k d) at draw k with w whites added; each seed draws the
path that one ``bernoulli_ratio`` per draw gives.  The draws that can be
certain (draw 0 with a = 0 or b = 0, draw 1 after the a = b = 0 tie) flip
that coin on ``next_u64``, and a certain coin reads no chunk.  Every other
draw is open and reads one chunk: from ``next_u64`` below 6 open draws,
else from ``rng._blocks``, whose blocks its ``zip`` reads in C, so each
block is read to its end.  The loop keeps (A + w d)·2^64 as a running
sum, so the first chunk u decides the draw by one product u·den; only when
u·den < (A + w d)·2^64 < u·den + den (chance at most 2^-64) does the
shared ``_coin`` read on, from the same stream.

An infinite weight leaves only the diagonal, by one rule: each diagonal box
independently holds Alpha with probability rho (a = b = inf), 1 (b = inf,
beta = 0) or 0 (a = inf, alpha = 0); a certain box flips no coin.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import chain, repeat
from typing import NamedTuple

from .errors import (AB_CAP, ParameterError, _as_n, _as_param, _finite, _invert,
                     _over_one_denominator, _Record)
from .rng import (_BLOCK, _BLOCKS_FROM, SplitMix64, _blocks, _chunks, _coin, _derived_seeds,
                  _heads, _passage, _rounds, _seed_groups, _seed_stream, _tail)
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


def _draw(n: int, params: Params, chunk) -> tuple:
    """The sorted cells of one draw reading its chunks from ``chunk()``."""
    if params._scaled is not None:
        return _draw_ab(n, *params._scaled, params.rho, chunk)
    ALPHA, BETA = Symbol.ALPHA, Symbol.BETA
    if params.a == params.b:   # both inf: a rho coin per diagonal box
        num, den = params.rho.as_integer_ratio()
        syms = [ALPHA if _coin(chunk, num, den) else BETA for _ in range(n)]
    else:   # b = inf (beta = 0): all alpha; a = inf (alpha = 0): all beta
        syms = [ALPHA if params.b == INF else BETA] * n
    return tuple(zip(range(1, n + 1), range(n, 0, -1), syms))


def _draw_ab(n: int, A: int, B: int, d: int, rho: Fraction, chunk) -> tuple:
    """The sorted cells of the finite-weight draw at a = A/d, b = B/d (in
    lowest terms or not), flipping at most 2n coins on ``chunk()`` and
    reading on wherever a coin's first chunk leaves it open: the decisions
    of ``_decide``, drawn by ``_coin`` and ``_passage``."""
    decisions = []
    for m in range(1, n + 1):
        b_m = B + (n - m) * d
        if A == 0 and b_m == 0:
            # a = b = 0 at the last step: both case weights vanish at the
            # same rate; the surviving ratio is rho (Friedman-urn tie).
            alpha = _coin(chunk, rho.numerator, rho.denominator)
        else:
            alpha = _coin(chunk, b_m, A + b_m)
        # the top row, alpha-indexed after step m, files under its next mark
        # step; w = B + (n - m) d is b_m
        decisions.append(_passage(chunk, b_m, d, n - m) if alpha else -1)
    return _cells(n, tuple(decisions))


def _plan(n: int, A: int, B: int, d: int, rho: Fraction) -> list:
    """Each step's first-chunk rule for the draw at a = A/d, b = B/d: per
    step m, the sigma coin as ``_threshold`` gives it, (T, r, den), then the
    cuts (T_i, r_i) = divmod(i·d·2^64, b_m) of its first-passage draw, i =
    1..n-m, their bounds ceil(i·d·2^64/b_m) and the set of inexact T_i."""
    plan = []
    for m in range(1, n + 1):
        b_m = B + (n - m) * d
        num, den = rho.as_integer_ratio() if A == 0 and b_m == 0 else (b_m, A + b_m)
        cuts = [divmod(i * d << 64, b_m) for i in range(1, n - m + 1)]
        plan.append((*_threshold(num, den), cuts, [T + (r > 0) for T, r in cuts],
                     {T for T, r in cuts if r}))
    return plan


def _decide(plan: list, head):
    """The decisions of the draw whose first chunks are head[0], head[1],
    ...: per step -1 for Beta, or the passage count c for Alpha.  None when
    a chunk sits on an inexact threshold, where only reading on decides."""
    decisions, t = [], 0
    for T, r, den, _, bounds, opens in plan:
        if den:   # the sigma coin: u < T Alpha, u > T Beta, u = T open or Beta
            u = head[t]
            t += 1
            if u >= T:
                if u == T and r:
                    return None
                decisions.append(-1)
                continue
        elif not T:   # a certain coin reads no chunk
            decisions.append(-1)
            continue
        if bounds:   # at m = n the first-passage draw reads no chunk
            u = head[t]
            t += 1
            if u in opens:
                return None
            decisions.append(bisect_right(bounds, u))
        else:
            decisions.append(0)
    return tuple(decisions)


# the sorted cells of every decision vector seen at n <= _CELLS_UPTO, keyed on
# the vector, whose length is n: at most (n+1)! <= 720 per n, 873 in all
_CELLS_UPTO = 5
_CELLS: dict = {}


def _cells(n: int, decisions: tuple) -> tuple:
    """The sorted cells of the draw of size n that makes ``decisions`` (see
    ``_decide``): at step m the rows marked there get Beta, and the top one
    sigma; an Alpha's top row files under its next mark step m + c + 1."""
    cells = _CELLS.get(decisions) if n <= _CELLS_UPTO else None
    if cells is not None:
        return cells
    ALPHA, BETA = Symbol.ALPHA, Symbol.BETA
    out: list[tuple[int, int, Symbol]] = []
    marked_at: dict[int, list[int]] = {}  # step -> rows whose next mark falls there
    col = n + 1
    for m, c in enumerate(decisions, 1):
        col -= 1
        sigma = BETA if c < 0 else ALPHA
        marks = marked_at.pop(m, None)
        if marks is None:
            out.append((m, col, sigma))
            top = m
        else:
            if len(marks) > 1:   # one mark needs no sort
                marks.sort()
                out += [(r, col, BETA) for r in marks[1:]]
            top = marks[0]
            out.append((m, col, BETA))
            out.append((top, col, sigma))
        if 0 <= c < n - m:
            marked_at.setdefault(m + c + 1, []).append(top)
    out.sort()
    cells = tuple(out)
    if n <= _CELLS_UPTO:
        _CELLS[decisions] = cells
    return cells


# The last weights of each sampler in integer form, as one (key, form) pair
# that a call reads once and replaces whole, so threads cannot mix entries.
# The key holds each argument's type, then its value: a tuple compare is far
# cheaper than the checks and products it saves, and a form is stored only
# once its weights have passed those checks.
_four_memo: tuple = (None, None)
_urn_memo: tuple = (None, None)
_RHO = Fraction(1, 2)   # sample_four's base draw has A > 0, so it never reads rho
# below this many open draws the urn's chunks come cheaper from next_u64 calls
# than from a take block: its zip reads a block in C, so it gains from fewer
# draws than ``_chunks``'s coins do (the sweep of n = 1..32 in CHANGES.md)
_URN_BLOCKS_FROM = 6


def sample_four(n: int, alpha, beta, gamma, delta, seed: int) -> Tableau:
    """Four-symbol draw: sample with effective weights (alpha+gamma,
    beta+delta), then independently relabel each Alpha to Gamma with
    probability gamma/(alpha+gamma) and each Beta to Delta with
    probability delta/(beta+delta)."""
    global _four_memo
    key = (type(n), type(alpha), type(beta), type(gamma), type(delta),
           n, alpha, beta, gamma, delta)
    memo = _four_memo
    if key != memo[0]:
        memo = _four_memo = key, _four_form(n, alpha, beta, gamma, delta)
    n, A, B, d, relabel, plan = memo[1]
    # the two passes read the streams at derive_seed(seed, 0) and (seed, 1);
    # up to 4n = _BLOCK lanes, the first 2n outputs of both come from one mix
    seeds = _seed_stream(seed)
    streams = SplitMix64(seeds.next_u64()), SplitMix64(seeds.next_u64())
    head = _heads(streams, 2 * n) if 4 * n <= _BLOCK else ()
    decisions = _decide(plan, head) if plan is not None else None
    if decisions is not None:
        # the relabel coins by index into the second stream's head
        cells, k = [], 2 * n
        for r, c, s in _cells(n, decisions):
            new, T, rem, den = relabel[s]
            if den:
                u = head[k]
                k += 1
                if u == T and rem:   # open: the draw reads on below
                    break
                if u < T:
                    s = new
            elif T:
                s = new
            cells.append((r, c, s))
        else:
            return Tableau._sorted(n, cells)
    # no plan, or an open first chunk: the draw reads on over the same chunks
    base = _draw_ab(n, A, B, d, _RHO, _chunks(streams[0], 2 * n, head[:2 * n]))
    # the relabel coins are flipped in sorted cell order
    chunk = _chunks(streams[1], len(base), head[2 * n:])
    cells = []
    for r, c, s in base:
        new, T, rem, den = relabel[s]
        if den:   # the first chunk u decides unless u = T at an inexact T
            u = chunk()
            if u < T or u == T and rem and _coin(chunk, rem, den):
                s = new
        elif T:   # a certain coin reads no chunk
            s = new
        cells.append((r, c, s))
    return Tableau._sorted(n, cells)


def _four_form(n, alpha, beta, gamma, delta) -> tuple:
    """n, then (A, B, d) of sample_four's base draw at weights alpha + gamma
    and beta + delta, its relabel coins by the symbol they relabel, and its
    ``_plan`` below _BLOCKS_FROM coins (else None)."""
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
    # a = 1/x, b = 1/y over x_num * y_num; gamma/x and delta/y as integer ratios
    A, B, d = x_den * y_num, y_den * x_num, x_num * y_num
    return (n, A, B, d,
            {Symbol.ALPHA: (Symbol.GAMMA, *_threshold(gn * x_den, gd * x_num)),
             Symbol.BETA: (Symbol.DELTA, *_threshold(dn * y_den, dd * y_num))},
            _plan(n, A, B, d, _RHO) if 2 * n < _BLOCKS_FROM else None)


def _threshold(num: int, den: int) -> tuple[int, int, int]:
    """The coin U < num/den read off U's first chunk u: with T, r =
    divmod(num·2^64, den), u < T decides it true and u > T false, and u = T
    decides it false at r = 0 but leaves it open at r != 0, for ``_coin`` to
    read on at num/den = r/den.  (T, r, den); a certain coin, which reads
    no chunk, is (1 if true else 0, 0, 0)."""
    if 0 < num < den:
        return (*divmod(num << 64, den), den)
    return int(num == den), 0, 0


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
    global _urn_memo
    n = _as_n(n, error=ParameterError)
    key = (type(a), type(b), a, b)
    memo = _urn_memo
    if key != memo[0]:
        memo = _urn_memo = key, _over_one_denominator(_finite("a", a), _finite("b", b))
    A, B, d = memo[1]
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
        stream = _blocks(rng, n - k0) if n - k0 >= _URN_BLOCKS_FROM else iter(rng.next_u64, None)
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
    sample_ab(n, params, derive_seed(seed, i)).  From _BLOCKS_FROM coins on
    each draw reads its own stream (``rng._chunks``).  Below, each group of
    seeds expands its first chunks at once (``rng._rounds``): ``_decide``
    reads a finite-weight draw's column, and an infinite-weight draw, or
    one with an open first chunk, reads its column and then its tail."""
    n = _as_n(n, error=ParameterError)
    if not isinstance(params, Params):
        raise ParameterError(f"params must be a Params, got {params!r}")
    coins = _coins(n, params)
    if coins >= _BLOCKS_FROM:
        for s in _derived_seeds(seed, count):
            yield _draw(n, params, _chunks(SplitMix64(s), coins))
        return
    plan = _plan(n, *params._scaled, params.rho) if params._scaled is not None else None
    for seeds in _seed_groups(seed, count):
        rounds = _rounds(seeds, coins)
        for s, column in zip(seeds, zip(*rounds) if rounds else repeat(())):
            decisions = _decide(plan, column) if plan is not None else None
            if decisions is None:   # read on past the column
                yield _draw(n, params, chain(column, _tail(s, coins)).__next__)
            else:
                yield _cells(n, decisions)


def sample_batch(n: int, params: Params, seed: int, count: int) -> BatchSummary:
    """Summary of ``count`` independent draws; sample i uses the derived
    seed (seed, i).  Each distinct tableau, or above AB_CAP each distinct
    diagonal alpha count, is summed once.  The draws walk their decision
    tree together when the weights are finite and min(count, 1024) >=
    4·(n+1)!, four per alpha/beta tableau; else they are drawn one by one
    (``_batch``)."""
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
        tally.update(_batch(n, params, seed, count))
    for cells, m in tally.items():
        out.diag_alpha_counts[_diagonal_alphas(n, cells)] += m
    return out


def _split(col, idx, cuts, redraw: list) -> list:
    """The draws ``idx`` by how many of the increasing points of ``cuts``
    their chunk col[i] lies at or above: len(cuts) + 1 lists.  A cut is
    (T, r) = divmod(num·2^64, den) for the point num/den: a chunk below T
    lies below, one above T above; a chunk equal to T lies above an exact
    point and straddles an inexact one (r != 0), which leaves its coin open:
    that draw goes to ``redraw``."""
    parts = []
    for T, r in cuts:
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
    they share t chunks read; its coin splits them by rounds[t][i] at the
    cuts of ``_plan``, and a leaf's decisions give its cells (``_cells``).
    A draw alone in its node is decided on its own column by ``_decide``;
    one whose coin is left open (chance about n²·2^-64) is drawn again by
    ``_draw_ab``, so ``_coin`` and ``_passage`` stay the only coin loops."""
    plan = _plan(n, A, B, d, rho)
    redraw: list[int] = []
    nodes = [(range(len(seeds)), 0, ())]   # (idx, t, decisions)
    while nodes:
        idx, t, decisions = nodes.pop()
        if len(idx) < 2:   # walking a lone draw on is no faster than deciding it
            redraw.extend(idx)
            continue
        if len(decisions) == n:
            tally[_cells(n, decisions)] += len(idx)
            continue
        T, r, den, cuts, _, _ = plan[len(decisions)]
        if den:
            alphas, betas = _split(rounds[t], idx, [(T, r)], redraw)
            t += 1
        else:   # a certain coin reads no chunk
            alphas, betas = (idx, ()) if T else ((), idx)
        if betas:
            nodes.append((betas, t, decisions + (-1,)))
        if alphas:   # at m = n the first-passage draw has no cuts and reads no chunk
            for c, sub in enumerate(_split(rounds[t], alphas, cuts, redraw)):
                if sub:
                    nodes.append((sub, t + bool(cuts), decisions + (c,)))
    for i in redraw:
        column = [r[i] for r in rounds]
        decisions = _decide(plan, column)
        if decisions is None:   # read on past the column
            chunk = chain(column, _tail(seeds[i], len(rounds))).__next__
            tally[_draw_ab(n, A, B, d, rho, chunk)] += 1
        else:
            tally[_cells(n, decisions)] += 1

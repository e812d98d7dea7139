"""Deterministic, portable randomness for the samplers.

The generator is SplitMix64 (Steele, Lea & Flood's mix function): pure
64-bit integer arithmetic, identical output on every platform.  A seed is
any integer, taken mod 2^64.  A batch derives one independent seed per
sample index from (seed, index), so each draw of a batch is reproducible
on its own.

Every coin is exact.  A uniform U in [0,1) is revealed lazily, one 64-bit
chunk of its binary expansion at a time, and compared against a rational
threshold only until the answer is decided (Knuth & Yao's lazy uniform), so
no rounding enters anywhere (a single 64-bit compare would carry a 2^-64
bias for non-dyadic probabilities).  Two primitives work on integer
numerators and denominators, so the samplers never build a reduced
Fraction per coin:

- ``bernoulli_ratio(rng, num, den)``: U < num/den.  ``bernoulli(rng, p)``
  is the same draw for any rational p in [0, 1].
- ``first_passage(rng, w, d, steps)``: the first-passage time C in
  0..steps with P(C >= i) = (w - i*d)/w, read off U as floor(U*w/d).

Both cost about one chunk in expectation.  Each checks its arguments
(a ParameterError names the one that breaks its rule) and runs one
private loop, ``_coin`` or ``_passage``, which reads its chunks from any
zero-argument source.  The samplers call those loops directly on
``_chunks(rng, coins)``: ``next_u64`` for a draw of fewer than 32 coins,
else the same outputs read from ``_blocks``, the one stream of ``take``
blocks, which the batch seeds and the urn's longer paths read too.

``SplitMix64.take(k)`` returns the next k outputs, bit for bit those of k
``next_u64`` calls, and leaves the same state; their order does not
depend on the host's byte order.  Its lane mix is ``_heads(streams, k)``,
which gives the next k outputs of several streams from one int, one
128-bit lane per output; ``sample_four`` reads the first outputs of its
two streams that way, and ``_chunks`` goes on past such a head by its
rule.

A batch of small draws expands its first chunks by seed group: the lanes
of ``take`` run over the generators rather than over the steps of one,
so lane i of a group of up to _BLOCK seeds (``_seed_groups``) holds seed
i, and round r mixes output r of every seed at once (``_rounds``).  A
draw that reads past its column of rounds, which a random seed almost
never does, goes on with ``_tail``.  ``sampling._batch`` picks each batch
draw's source: its column and tail below _BLOCKS_FROM coins, else
``_chunks`` on its own stream.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, islice, repeat

from .errors import _ANY, ParameterError, _as_n, _as_param

__all__ = ["SplitMix64", "derive_seed", "bernoulli", "bernoulli_ratio", "first_passage"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 1024
# below this many coins a draw's chunks come cheaper from next_u64 calls than
# from a take block: the sweep of n = 1..400 in CHANGES.md.  A lane-mixed head
# (``_heads``) stands in for the first block; past it the rule holds as before
_BLOCKS_FROM = 32
_BYTE_ORDER = sys.byteorder


def _lane_int(values) -> int:
    """The int whose 128-bit lane i holds values[i], each under 2^64."""
    words = array("Q", bytes(16 * len(values)))
    # lane i's low word is word 2i of a little-endian host's bytes, word
    # 2(len(values) - i) - 1 of a big-endian one's
    words[::2 if _BYTE_ORDER == "little" else -2] = array("Q", values)
    return int.from_bytes(words, _BYTE_ORDER)


_ONES = _lane_int([1] * _BLOCK)
_STEPS = _lane_int(range(1, _BLOCK + 1)) * _GOLDEN   # (i+1)·GOLDEN, under 2^75
_LOW = _ONES * _MASK   # 2^64 - 1 per lane


def _as_seed(x, name: str = "seed") -> int:
    """Any integer x mod 2^64; else a ParameterError naming x."""
    return _as_n(x, _ANY, name, ParameterError) & _MASK


class SplitMix64:
    """SplitMix64 stream; next_u64 yields uniform 64-bit integers, take(k)
    the next k of them at once."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed if type(seed) is int else _as_seed(seed)) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def take(self, k: int) -> list[int]:
        """The next k outputs, as k ``next_u64`` calls give them, leaving
        the same state."""
        if type(k) is not int:
            k = _as_n(k, _ANY, "k", ParameterError)
        if k < 0:
            raise ParameterError(f"need k >= 0 outputs, got {k}")
        out: list[int] = []
        while k > 0:
            lanes = k if k < _BLOCK else _BLOCK
            k -= lanes
            out += _heads((self,), lanes)
        return out


def _heads(streams, k: int):
    """The next k outputs of each stream from one lane mix, stream-major
    (output i of streams[j] at j*k + i), as k ``next_u64`` calls on each
    give them, and each stream left where those calls leave it.  Lane
    j*k + i of one int mixes streams[j].state + (i+1)·GOLDEN, so
    len(streams)·k is at most _BLOCK."""
    lanes = k * len(streams)
    if k == _BLOCK:   # one full block needs no mask
        ones, steps, low = _ONES, _STEPS, _LOW
    else:
        top = (1 << 128 * k) - 1
        ones, steps, low = _ONES & top, _STEPS & top, _LOW & ((1 << 128 * lanes) - 1)
    z = 0
    for g in reversed(streams):
        # each 64×64-bit product stays inside its 128-bit lane
        z = z << 128 * k | g.state * ones + steps
        g.state = (g.state + k * _GOLDEN) & _MASK
    return _mixed(z & low, lanes, low)


def _mixed(z: int, lanes: int, low: int):
    """The SplitMix64 output of the state in each 128-bit lane i < lanes of
    z, in lane order; ``low`` is 2^64 - 1 in each lane."""
    z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
    # z >> 31 moves lane i+1 into lane i's high word, which is never read;
    # each lane's low word sits where ``_lane_int`` puts it
    words = memoryview((z ^ (z >> 31)).to_bytes(16 * lanes, _BYTE_ORDER)).cast("Q")
    return words[::2] if _BYTE_ORDER == "little" else words[::-2]


def derive_seed(seed: int, index: int) -> int:
    """Seed for sample ``index`` of a batch rooted at ``seed``: output
    ``index`` of the stream SplitMix64(seed + GOLDEN)."""
    if type(seed) is not int or type(index) is not int:
        seed, index = _as_seed(seed), _as_seed(index, "index")
    return SplitMix64((seed + (index + 1) * _GOLDEN) & _MASK).next_u64()


def _seed_stream(seed: int) -> SplitMix64:
    """SplitMix64(seed + GOLDEN), whose output i is derive_seed(seed, i)."""
    return SplitMix64(_as_seed(seed) + _GOLDEN)


def _derived_seeds(seed: int, count: int):
    """derive_seed(seed, i) for i < count, read from ``_blocks``."""
    return islice(_blocks(_seed_stream(seed), count), count)


def _seed_groups(seed: int, count: int):
    """derive_seed(seed, i) for i < count, in lists of up to _BLOCK seeds."""
    seeds = _derived_seeds(seed, count)
    return iter(lambda: list(islice(seeds, _BLOCK)), [])


def _blocks(rng: SplitMix64, first: int):
    """An endless iterator over rng's outputs, in ``next_u64`` order, read in
    ``take`` blocks: the first of min(first, _BLOCK) outputs, then _BLOCK at a
    time, with no Python frame per output or per block.  A draw that owns rng
    drops the rest of its last block."""
    return chain(rng.take(first if first < _BLOCK else _BLOCK), _refills(rng))


def _refills(rng: SplitMix64):
    """rng's outputs from here on, read in ``take`` blocks of _BLOCK, each
    taken only when the one before it is read to its end."""
    return chain.from_iterable(map(rng.take, repeat(_BLOCK)))


def _chunks(rng: SplitMix64, coins: int, head=()):
    """A zero-argument source of rng's outputs for a draw of up to ``coins``
    coins: ``next_u64`` itself below _BLOCKS_FROM coins, else the next
    output of ``_blocks(rng, coins)``.  A draw whose first outputs, ``head``,
    came from a lane mix (``_heads``, at least min(coins, _BLOCK) of them)
    reads those first, then goes on by the same rule."""
    if not head:
        return rng.next_u64 if coins < _BLOCKS_FROM else _blocks(rng, coins).__next__
    return chain(head, iter(rng.next_u64, None) if coins < _BLOCKS_FROM
                 else _refills(rng)).__next__


def _rounds(seeds: list[int], coins: int) -> list:
    """The first ``coins`` outputs of each seed's stream, by round: round r
    holds output r of every seed, mixed from the lanes' states s + r·GOLDEN."""
    lanes = len(seeds)
    top = (1 << 128 * lanes) - 1
    step, low = _GOLDEN * _ONES & top, _LOW & top
    state, rounds = _lane_int(seeds), []
    for _ in range(coins):
        state = (state + step) & low
        rounds.append(_mixed(state, lanes, low))
    return rounds


def _tail(seed: int, skip: int):
    """SplitMix64(seed)'s outputs after the first ``skip``, its stream
    built only when a draw reads past its column of ``_rounds``."""
    yield from iter(SplitMix64(seed + skip * _GOLDEN).next_u64, None)


def _coin(chunk, num: int, den: int) -> bool:
    """U < num/den for integers 0 <= num <= den, den > 0, reading U's
    base-2^64 digits from ``chunk()`` (see ``bernoulli_ratio``)."""
    if not 0 < num < den:
        return num == den
    while True:
        num <<= 64
        lo = chunk() * den
        if lo + den <= num:
            return True
        if lo >= num:
            return False
        num -= lo


def _passage(chunk, w: int, d: int, steps: int) -> int:
    """min(steps, floor(U * w / d)) reading U's digits from ``chunk()``
    (see ``first_passage``)."""
    if steps == 0:
        return 0
    den = d << 64
    c, r = divmod(chunk() * w, den)
    while c < steps and r + w > den:
        den <<= 64
        carry, r = divmod((r << 64) + chunk() * w, den)
        c += carry
    return c if c < steps else steps


def bernoulli_ratio(rng: SplitMix64, num: int, den: int) -> bool:
    """Exact Bernoulli(num/den) draw for integers 0 <= num <= den, den > 0.

    Compares a uniform U in [0,1) against num/den chunk by chunk: with
    t = num * 2^64 and u the next chunk, (u + 1) * den <= t decides True,
    u * den >= t decides False, otherwise recurse on the remainder.  The
    ratio need not be reduced: scaling num and den by k scales every
    comparison by k, so the decisions and the chunks consumed depend only
    on the value num/den.  Terminates after ~1 chunk in expectation; p = 0
    and p = 1 consume none.  Other arguments raise a ParameterError.
    """
    num, den = _as_n(num, 0, "num", ParameterError), _as_n(den, 1, "den", ParameterError)
    if num > den:
        raise ParameterError(f"need num <= den, got {num}/{den}")
    return _coin(rng.next_u64, num, den)


def bernoulli(rng: SplitMix64, p) -> bool:
    """Exact Bernoulli(p) draw for any rational p in [0, 1], read exactly
    (0.1 is the double nearest 1/10): ``bernoulli_ratio`` on p's numerator
    and denominator."""
    p = _as_param("p", p, 1)
    return _coin(rng.next_u64, p.numerator, p.denominator)


def first_passage(rng: SplitMix64, w: int, d: int, steps: int) -> int:
    """Exact draw of C in 0..steps with P(C >= i) = (w - i*d) / w.

    Integers with d > 0, steps >= 0 and w >= steps * d; others raise a
    ParameterError.  C is min(steps, floor(U * w / d)) for a uniform U in
    [0,1) whose base-2^64 digits are revealed one chunk at a time: after k
    chunks U is known to lie in an interval of width 2^-64k, whose image
    under U * w / d is c + [r, r + w) / (d * 2^64k).  The answer is c as
    soon as that interval holds no integer boundary (r + w <= d * 2^64k)
    or c reaches steps.  The first chunk decides unless its interval holds
    one of the points U = i*d/w, i = 1..steps, which has probability at
    most steps / 2^64.  steps = 0 consumes no chunk; C = steps has
    probability 0 when w = steps * d.
    """
    d, steps = _as_n(d, 1, "d", ParameterError), _as_n(steps, 0, "steps", ParameterError)
    w = _as_n(w, _ANY, "w", ParameterError)
    if w < steps * d:
        raise ParameterError(f"need w >= steps * d, got w={w}, d={d}, steps={steps}")
    return _passage(rng.next_u64, w, d, steps)

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
  is the same draw for a Fraction p.
- ``first_passage(rng, w, d, steps)``: the first-passage time C in
  0..steps with P(C >= i) = (w - i*d)/w, read off U as floor(U*w/d).

Both cost about one chunk in expectation.

``SplitMix64.take(k)`` returns the next k outputs, bit for bit those of k
``next_u64`` calls, and leaves the same state; their order does not
depend on the host's byte order.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ParameterError
from .eulerian_poly import _ANY, _as_n

__all__ = ["SplitMix64", "derive_seed", "bernoulli", "bernoulli_ratio", "first_passage"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 1024


def _lanes() -> tuple[int, int]:
    """1 and (i+1)·GOLDEN (under 2^75) in each 128-bit lane i < _BLOCK, a
    power of 2, built by doubling."""
    ones = steps = lanes = 1
    while lanes < _BLOCK:
        steps |= (steps + lanes * ones) << 128 * lanes
        ones |= ones << 128 * lanes
        lanes *= 2
    return ones, steps * _GOLDEN


_ONES, _STEPS = _lanes()
_LOW = _ONES * _MASK   # 2^64 - 1 per lane
_BYTE_ORDER = sys.byteorder


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
        if k < 0:
            raise ValueError(f"need k >= 0 outputs, got {k}")
        out: list[int] = []
        for start in range(0, k, _BLOCK):
            # lane i of one int mixes state + (i+1)·GOLDEN; each 64×64-bit
            # product stays inside its 128-bit lane
            lanes = min(_BLOCK, k - start)
            top = (1 << 128 * lanes) - 1
            low = _LOW & top
            z = (self.state * (_ONES & top) + (_STEPS & top)) & low
            z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
            z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
            # z >> 31 moves lane i+1 into lane i's high word, which is never
            # read: lane i's low word is word 2i of a little-endian host's
            # bytes, word 2(lanes - i) - 1 of a big-endian one's
            words = memoryview((z ^ (z >> 31)).to_bytes(16 * lanes, _BYTE_ORDER)).cast("Q")
            out += words[::2] if _BYTE_ORDER == "little" else words[::-2]
            self.state = (self.state + lanes * _GOLDEN) & _MASK
        return out


def derive_seed(seed: int, index: int) -> int:
    """Seed for sample ``index`` of a batch rooted at ``seed``: output
    ``index`` of the stream SplitMix64(seed + GOLDEN)."""
    if type(seed) is not int or type(index) is not int:
        seed, index = _as_seed(seed), _as_seed(index, "index")
    return SplitMix64((seed + (index + 1) * _GOLDEN) & _MASK).next_u64()


def _derived_seeds(seed: int, count: int):
    """derive_seed(seed, i) for i < count, one block of ``take`` at a time."""
    stream = SplitMix64(_as_seed(seed) + _GOLDEN)
    for start in range(0, count, _BLOCK):
        yield from stream.take(min(_BLOCK, count - start))


def bernoulli_ratio(rng: SplitMix64, num: int, den: int) -> bool:
    """Exact Bernoulli(num/den) draw for integers 0 <= num <= den, den > 0.

    Compares a uniform U in [0,1) against num/den chunk by chunk: with
    t = num * 2^64 and u the next chunk, (u + 1) * den <= t decides True,
    u * den >= t decides False, otherwise recurse on the remainder.  The
    ratio need not be reduced: scaling num and den by k scales every
    comparison by k, so the decisions and the chunks consumed depend only
    on the value num/den.  Terminates after ~1 chunk in expectation; p = 0
    and p = 1 consume none.
    """
    if not 0 < num < den:
        if den <= 0 or num < 0 or num > den:
            raise ValueError(f"probability {num}/{den} outside [0, 1]")
        return num == den
    while True:
        u = rng.next_u64()
        num <<= 64
        lo = u * den
        if lo + den <= num:
            return True
        if lo >= num:
            return False
        num -= lo


def bernoulli(rng: SplitMix64, p: Fraction) -> bool:
    """Exact Bernoulli(p) draw for rational p in [0, 1]: ``bernoulli_ratio``
    on p's numerator and denominator."""
    return bernoulli_ratio(rng, p.numerator, p.denominator)


def first_passage(rng: SplitMix64, w: int, d: int, steps: int) -> int:
    """Exact draw of C in 0..steps with P(C >= i) = (w - i*d) / w.

    Integers with d > 0, steps >= 0 and w >= steps * d.  C is
    min(steps, floor(U * w / d)) for a uniform U in [0,1) whose base-2^64
    digits are revealed one chunk at a time: after k chunks U is known to
    lie in an interval of width 2^-64k, whose image under U * w / d is
    c + [r, r + w) / (d * 2^64k).  The answer is c as soon as that
    interval holds no integer boundary (r + w <= d * 2^64k) or c reaches
    steps.  The first chunk decides unless its interval holds one of the
    points U = i*d/w, i = 1..steps, which has probability at most
    steps / 2^64.  steps = 0 consumes no chunk; C = steps has probability
    0 when w = steps * d.
    """
    if d <= 0 or steps < 0 or w < steps * d:
        raise ValueError(f"need d > 0 and w >= steps * d >= 0, got w={w}, d={d}, steps={steps}")
    if steps == 0:
        return 0
    den = d << 64
    c, r = divmod(rng.next_u64() * w, den)
    while c < steps and r + w > den:
        den <<= 64
        carry, r = divmod((r << 64) + rng.next_u64() * w, den)
        c += carry
    return min(c, steps)

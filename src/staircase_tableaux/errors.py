"""The typed errors and what raises them: the argument rules for weights, sizes and
rationals, the a <-> alpha map, the ``_Record`` value base and the cap policy."""

from __future__ import annotations

import math
import os
from fractions import Fraction
from numbers import Rational
from operator import attrgetter, index


class StaircaseError(Exception):
    """Base class for all library errors."""


class ParameterError(StaircaseError, ValueError):
    """A weight or parameter is outside its admissible range."""


class DomainError(StaircaseError, ValueError):
    """An index or argument is outside the operation's domain."""


class CapExceededError(StaircaseError, ValueError):
    """An enumeration request exceeds the combinatorial-explosion guard."""


class MalformedDocumentError(StaircaseError, ValueError):
    """A serialized document cannot be parsed at all."""


class InvalidTableauError(StaircaseError, ValueError):
    """A structurally parseable document describes an invalid tableau."""


class RootFindingError(StaircaseError, RuntimeError):
    """Root isolation could not certify the expected root structure."""


def _rational(name: str, x, rule: str = "a finite rational") -> Fraction:
    """x as a Fraction, or a ParameterError that names x and its rule.  A
    Rational x is read over Python ints: a NumPy integer would lend the
    Fraction its own fixed-width integers, which overflow in the coins."""
    if type(x) is not Fraction:
        try:
            x = (Fraction(int(x.numerator), int(x.denominator))
                 if isinstance(x, Rational) and not isinstance(x, int) else Fraction(x))
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
    # a = inf (alpha = 0) makes every law a point mass: callers that allow it handle it first
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
    == and hash read the ``_fields`` in order, and assignment raises.  A
    subclass's ``__init__`` takes what the record is built from and passes
    the checked or derived fields, in order, to ``_Record.__init__``, the
    one place fields are set."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        # the fields' values as one tuple (every record has two or more fields)
        cls._key = property(attrgetter(*cls._fields))

    def __init__(self, *values) -> None:
        for field, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, field, value)

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

"""Staircase tableau data model.

A staircase tableau of size n lives on the Young diagram of shape
(n, n-1, ..., 2, 1): box (i, j) exists iff i + j <= n + 1, with rows and
columns 1-indexed from the NW corner.  Boxes are empty or hold one of the
four symbols alpha, beta, gamma, delta subject to:

  (ii)  every diagonal box (i, n+1-i) is filled;
  (iii) every box left of a beta/delta in its row is empty;
  (iv)  every box above an alpha/gamma in its column is empty.

Tableaux are immutable values; all operations here are pure.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import (DomainError, InvalidTableauError, MalformedDocumentError, ParameterError,
                     _as_n, _finite, _Record)
from .eulerian_poly import BivarPoly

__all__ = [
    "Symbol",
    "Tableau",
    "SymbolCounts",
    "Violation",
    "validate",
    "counts",
    "weight",
    "weight_exponents",
    "subtableau",
    "dagger",
    "render_text",
    "serialize",
    "parse",
]


class Symbol(enum.Enum):
    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"
    DELTA = "delta"

    # members are singletons, so identity is equality; Enum's default
    # hash(name) would run in Python on every dict or Counter lookup
    __hash__ = object.__hash__

    def __lt__(self, other: "Symbol") -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self._rank < other._rank

    # set on each member below, once the enum is built
    column_type: bool   # Alpha/Gamma: forces empty boxes above it in its column
    row_type: bool      # Beta/Delta: forces empty boxes left of it in its row
    letter: str         # a, b, g, d


# _rank orders alpha < beta < gamma < delta; _swap is the dagger's alpha <-> beta, gamma <-> delta
for _rank, _s in enumerate(Symbol):
    _s._rank, _s.letter, _s._swap = _rank, "abgd"[_rank], list(Symbol)[_rank ^ 1]
    _s.column_type = _s in (Symbol.ALPHA, Symbol.GAMMA)
    _s.row_type = _s in (Symbol.BETA, Symbol.DELTA)
del _rank, _s

_NO_SYMBOLS = dict.fromkeys(Symbol, 0)


class Tableau(_Record):
    """Immutable staircase tableau: a size and a sparse cell assignment.

    ``cells`` is kept as a canonically sorted tuple of (row, col, symbol)
    so tableaux hash and compare by value.  Construction only checks basic
    well-formedness (integer size and coordinates, positive coordinates, no
    duplicate box); rule checks live in :func:`validate`.

    Input from outside the package is checked where it enters: here, in
    :meth:`of` and in :func:`parse`, which also checks the rules.  What the
    package builds from its own checked data (draws, enumeration streams,
    :func:`subtableau`, :func:`dagger`) goes through the unchecked private
    ``_sorted``; the tests compare each with its public construction.
    """

    _fields = ("n", "cells")

    def __init__(self, n: int, cells: tuple[tuple[int, int, Symbol], ...]) -> None:
        if type(n) is not int:
            n = _as_n(n, name="n", error=ValueError)
        if n < 0:
            raise ValueError(f"tableau size must be >= 0, got {n}")
        if not isinstance(cells, Iterable):
            raise ValueError(f"cells must be an iterable of (row, col, symbol) triples, got {cells!r}")
        seen = set()
        checked = []   # one pass, so any iterable of cells will do
        for cell in cells:
            try:
                row, col, sym = cell
            except (TypeError, ValueError):
                raise ValueError(f"each cell must be a (row, col, symbol) triple, got {cell!r}") from None
            if type(row) is not int or type(col) is not int:
                row, col = _as_n(row, 1, "cell row", ValueError), _as_n(col, 1, "cell col", ValueError)
            if row < 1 or col < 1:
                raise ValueError(f"cell coordinates must be >= 1, got ({row}, {col})")
            if not isinstance(sym, Symbol):
                raise ValueError(f"cell ({row}, {col}) holds {sym!r}, not a Symbol")
            if (row, col) in seen:
                raise ValueError(f"duplicate cell ({row}, {col})")
            seen.add((row, col))
            checked.append((row, col, sym))
        checked.sort()
        super().__init__(n, tuple(checked))

    @classmethod
    def _sorted(cls, n: int, cells: list | tuple) -> "Tableau":
        """The package's own constructor: sorts ``cells``, a fresh list, in
        place, or takes a tuple already sorted, and checks nothing, so its
        caller vouches for them."""
        if type(cells) is not tuple:
            cells.sort()
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "cells", tuple(cells))
        return t

    @classmethod
    def of(cls, n: int, cells) -> "Tableau":
        """Build from any iterable of (row, col, symbol) or a {(row, col): symbol} map,
        whose tuple keys gain their symbol and whose other keys are paired with it."""
        if hasattr(cells, "items"):
            cells = (k + (s,) if isinstance(k, tuple) else (k, s) for k, s in cells.items())
        return cls(n, cells)

    @cached_property
    def cell_map(self) -> dict[tuple[int, int], Symbol]:
        return {(r, c): s for r, c, s in self.cells}

    def symbol_at(self, row: int, col: int) -> Symbol | None:
        return self.cell_map.get((row, col))

    def diagonal(self) -> list[Symbol | None]:
        """Symbols in boxes (i, n+1-i), i = 1..n (NE to SW)."""
        return [self.symbol_at(i, self.n + 1 - i) for i in range(1, self.n + 1)]


class SymbolCounts(NamedTuple):
    n_alpha: int
    n_beta: int
    n_gamma: int
    n_delta: int
    diagonal_alpha: int
    diagonal_beta: int
    alpha_indexed_rows: int

    @property
    def total(self) -> int:
        return self.n_alpha + self.n_beta + self.n_gamma + self.n_delta


class Violation(NamedTuple):
    rule: str           # "shape", "ii", "iii" or "iv"
    box: tuple[int, int]
    message: str


def validate(t: Tableau) -> list[Violation]:
    """Check a tableau against the filling rules; empty list means valid.

    Structural problems (cells outside the staircase shape) are reported
    first, then rule (ii) for every empty diagonal box, then one record per
    symbol breaking rule (iii) or (iv).  One pass over the sorted cells:
    a row's first cell is its leftmost and a column's first its topmost.
    """
    n = t.n
    shape: list[Violation] = []
    rules: list[Violation] = []
    diagonal = set()   # rows whose diagonal box is filled
    top: dict[int, int] = {}   # per column, the row of its topmost cell
    last_row = left = 0   # the current row and its leftmost column
    for row, col, sym in t.cells:
        if row + col > n + 1:
            shape.append(Violation("shape", (row, col), f"box ({row}, {col}) outside the size-{n} staircase"))
        if row != last_row:
            last_row, left = row, col
        if row + col == n + 1:
            diagonal.add(row)
        above = top.setdefault(col, row)
        if sym.row_type and left < col:
            rules.append(Violation("iii", (row, col), f"box ({row}, {left}) left of {sym.value} at ({row}, {col}) is filled"))
        if sym.column_type and above < row:
            rules.append(Violation("iv", (row, col), f"box ({above}, {col}) above {sym.value} at ({row}, {col}) is filled"))
    if shape:
        # Rule checks assume in-shape cells; report the structural failure alone.
        return shape
    empty = [Violation("ii", (i, n + 1 - i), f"diagonal box ({i}, {n + 1 - i}) is empty")
             for i in range(1, n + 1) if i not in diagonal]
    return empty + rules


def _require_valid(t: Tableau) -> None:
    """Raise InvalidTableauError naming every rule t breaks."""
    violations = validate(t)
    if violations:
        raise InvalidTableauError("; ".join(v.message for v in violations))


def counts(t: Tableau) -> SymbolCounts:
    """Exact symbol tallies, diagonal tallies, and alpha-indexed row count.

    A row is indexed by alpha when its leftmost symbol is alpha; for an
    alpha/beta tableau this forces alpha_indexed_rows = n - n_beta.  The
    cells are always sorted, so a row's first cell is its leftmost.
    """
    tally, diagonal = _NO_SYMBOLS.copy(), _NO_SYMBOLS.copy()
    r = last_row = 0
    for row, col, sym in t.cells:
        tally[sym] += 1
        if row != last_row:
            last_row = row
            r += sym is Symbol.ALPHA
        if row + col == t.n + 1:
            diagonal[sym] += 1
    return SymbolCounts(
        n_alpha=tally[Symbol.ALPHA],
        n_beta=tally[Symbol.BETA],
        n_gamma=tally[Symbol.GAMMA],
        n_delta=tally[Symbol.DELTA],
        diagonal_alpha=diagonal[Symbol.ALPHA],
        diagonal_beta=diagonal[Symbol.BETA],
        alpha_indexed_rows=r,
    )


def weight_exponents(t: Tableau) -> tuple[int, int, int, int]:
    """(N_alpha, N_beta, N_gamma, N_delta) exponent vector of the weight monomial."""
    c = counts(t)
    return (c.n_alpha, c.n_beta, c.n_gamma, c.n_delta)


def weight(t: Tableau, alpha, beta, gamma=0, delta=0) -> Fraction:
    """Weight alpha^Na * beta^Nb * gamma^Ng * delta^Nd, exact (0**0 == 1)."""
    weights = map(_finite, ("alpha", "beta", "gamma", "delta"), (alpha, beta, gamma, delta))
    return BivarPoly({weight_exponents(t): 1}).evaluate(*weights)


def subtableau(t: Tableau, i: int, j: int) -> Tableau:
    """Subtableau with (i, j) as its top-left box: drop the first i-1 rows
    and j-1 columns and re-index.  Result has size n - i - j + 2."""
    i, j = _as_n(i, 1, "i"), _as_n(j, 1, "j")
    if i + j > t.n + 1:
        raise DomainError(f"box ({i}, {j}) is outside the size-{t.n} staircase")
    return Tableau._sorted(t.n - i - j + 2, [
        (r - i + 1, c - j + 1, s) for r, c, s in t.cells if r >= i and c >= j])


def dagger(t: Tableau) -> Tableau:
    """Reflection in the NW-SE diagonal with alpha<->beta, gamma<->delta.

    An involution: dagger(dagger(t)) == t.
    """
    return Tableau._sorted(t.n, [(c, r, s._swap) for r, c, s in t.cells])


def _boxes(t: Tableau) -> list[list[Symbol | None]]:
    """Every box of t's staircase, top row first, as its symbol or None; a
    cell outside the staircase raises InvalidTableauError with validate's message."""
    rows: list[list] = [[None] * (t.n - i) for i in range(t.n)]
    try:
        for r, c, s in t.cells:
            rows[r - 1][c - 1] = s
    except IndexError:
        _require_valid(t)
    return rows


def render_text(t: Tableau) -> str:
    """One line per row, row i holding n+1-i characters; '.' marks an empty
    box.  A cell outside the staircase raises InvalidTableauError."""
    return "\n".join("".join("." if s is None else s.letter for s in row) for row in _boxes(t))


def to_document(t: Tableau) -> dict:
    return {
        "n": t.n,
        "cells": [
            {"row": r, "col": c, "sym": s.value} for r, c, s in t.cells
        ],
    }


def _dumps(doc: dict) -> bytes:
    """The canonical JSON encoding: compact, keys sorted, UTF-8."""
    import json   # only documents need it: a cold start that writes none skips its import
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


def serialize(t: Tableau) -> bytes:
    """Canonical single-document JSON encoding (cells sorted by row, col)."""
    return _dumps(to_document(t))


def from_document(doc: dict) -> Tableau:
    try:
        n = doc["n"]
        raw_cells = doc["cells"]
    except (TypeError, KeyError) as exc:
        raise MalformedDocumentError(f"missing field in tableau document: {exc}") from exc
    # type(x) is int: JSON true/false must not pass for 1/0
    if type(n) is not int or not isinstance(raw_cells, list):
        raise MalformedDocumentError("'n' must be an integer and 'cells' a list")
    cells = []
    for entry in raw_cells:
        try:
            row, col, sym = entry["row"], entry["col"], entry["sym"]
        except (TypeError, KeyError) as exc:
            raise MalformedDocumentError(f"bad cell entry {entry!r}") from exc
        if type(row) is not int or type(col) is not int:
            raise MalformedDocumentError(f"cell coordinates must be integers: {entry!r}")
        try:
            symbol = Symbol(sym)
        except ValueError as exc:
            raise MalformedDocumentError(f"unknown symbol {sym!r}") from exc
        cells.append((row, col, symbol))
    try:
        t = Tableau(n, tuple(cells))
    except ValueError as exc:
        raise MalformedDocumentError(str(exc)) from exc
    _require_valid(t)
    return t


def parse(data: bytes | str) -> Tableau:
    """Inverse of :func:`serialize`.

    Raises :class:`ParameterError` for data that is neither bytes nor str,
    :class:`MalformedDocumentError` for documents that are not UTF-8 JSON or
    miss fields, and :class:`InvalidTableauError` for well-formed documents
    describing rule-breaking tableaux.
    """
    if not isinstance(data, (bytes, str)):
        raise ParameterError(f"data must be bytes or str, got {data!r}")
    import json
    try:
        doc = json.loads(data.decode() if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise MalformedDocumentError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"not valid JSON: {exc}") from exc
    return from_document(doc)

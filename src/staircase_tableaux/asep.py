"""The ASEP-side weight structure: deterministic u/q labelling of the
empty boxes and the six-variable generating function.

An empty box left of a beta in its row is labelled u, left of a delta q;
any other takes u if the nearest symbol below it is an alpha or delta, q if
a beta or gamma.  One sweep labels every box, from the bottom row up and
right to left along each row.  It carries the nearest symbol to the right
(a beta or delta can only lead its row) and each column's nearest symbol
below, which exists because a column's bottom box is diagonal.  The sweep
only labels: ``fill_uq``, ``wtx`` and ``render_filled`` first raise
InvalidTableauError, as ``parse`` does, on what ``tableau.validate``
rejects; ``z_full`` sweeps the certified ``enumerate_four`` stream as is.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .enumeration import enumerate_four
from .eulerian_poly import BivarPoly, _finite
from .tableau import Symbol, Tableau, _boxes, _require_valid, to_document

__all__ = ["FilledTableau", "fill_uq", "wtx", "z_full", "render_filled", "serialize_filled"]

_ROW_LABEL = {Symbol.BETA: "u", Symbol.DELTA: "q"}
_COL_LABEL = {Symbol.ALPHA: "u", Symbol.DELTA: "u", Symbol.BETA: "q", Symbol.GAMMA: "q"}


def _filled_rows(t: Tableau) -> list[list[Symbol | str]]:
    """Every box of a valid tableau, top row first, as its symbol or its
    u/q label; only t's shape is checked, by ``_boxes``."""
    rows: list[list] = _boxes(t)
    below: list[Symbol | None] = [None] * t.n   # per column, the nearest symbol below
    for row in reversed(rows):
        right = None   # nearest symbol right of the current box
        for c in range(len(row) - 1, -1, -1):
            s = row[c]
            if s is None:
                row[c] = _ROW_LABEL.get(right) or _COL_LABEL[below[c]]
            else:
                below[c] = right = s
    return rows


class FilledTableau(NamedTuple):
    """A tableau together with the unique u/q labels of its empty boxes."""

    base: Tableau
    labels: tuple[tuple[int, int, str], ...]

    @property
    def n(self) -> int:
        return self.base.n


def fill_uq(t: Tableau) -> FilledTableau:
    """Label every empty box of a valid tableau with u or q."""
    _require_valid(t)
    labels = tuple(
        (r, c, x)
        for r, row in enumerate(_filled_rows(t), 1)
        for c, x in enumerate(row, 1)
        if type(x) is str
    )
    return FilledTableau(base=t, labels=labels)


def wtx(t: Tableau) -> tuple[int, int, int, int, int, int]:
    """Exponent vector (N_alpha, N_beta, N_gamma, N_delta, N_u, N_q) of the
    filled weight monomial; the total degree is always n(n+1)/2."""
    _require_valid(t)
    return _wtx(t)


def _wtx(t: Tableau) -> tuple[int, int, int, int, int, int]:
    tally = Counter(chain.from_iterable(_filled_rows(t)))
    return (tally[Symbol.ALPHA], tally[Symbol.BETA], tally[Symbol.GAMMA],
            tally[Symbol.DELTA], tally["u"], tally["q"])


def z_full(n: int, alpha, beta, gamma, delta, q, u,
           allow_large: bool = False) -> Fraction:
    """Six-variable generating function: the sum of filled weights over
    all staircase tableaux of size n.  The ``wtx`` exponent vectors of the
    enumeration are tallied, then each distinct monomial is evaluated once."""
    alpha, beta, gamma, delta, q, u = map(_finite, ("alpha", "beta", "gamma", "delta", "q", "u"),
                                          (alpha, beta, gamma, delta, q, u))
    return BivarPoly(Counter(map(_wtx, enumerate_four(n, allow_large)))).evaluate(
        alpha, beta, gamma, delta, u, q)


def render_filled(f: FilledTableau) -> str:
    """Like the plain text rendering, with u/q letters in labelled boxes."""
    _require_valid(f.base)
    return "\n".join(
        "".join(x if type(x) is str else x.letter for x in row)
        for row in _filled_rows(f.base)
    )


def serialize_filled(f: FilledTableau) -> bytes:
    doc = to_document(f.base)
    doc["labels"] = [{"row": r, "col": c, "label": lab} for r, c, lab in f.labels]
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()

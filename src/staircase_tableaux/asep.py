"""The ASEP-side weight structure: deterministic u/q labelling of the
empty boxes and the six-variable generating function.

The labelling runs in two passes.  First every box strictly left of a beta
in its row gets a u and strictly left of a delta a q (at most one beta or
delta per row, so this is unambiguous).  Then every still-empty box looks
down its column to the nearest symbol below: u above an alpha or delta,
q above a beta or gamma.  A column's bottom box is diagonal and filled, so
the second pass always finds a symbol; both passes together label every
empty box of a valid tableau.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import StaircaseError
from .eulerian_poly import BivarPoly, _finite
from .tableau import Symbol, Tableau, weight_exponents

__all__ = ["FilledTableau", "fill_uq", "wtx", "z_full", "render_filled", "serialize_filled"]

_ROW_LABEL = {Symbol.BETA: "u", Symbol.DELTA: "q"}
_COL_LABEL = {
    Symbol.ALPHA: "u",
    Symbol.DELTA: "u",
    Symbol.BETA: "q",
    Symbol.GAMMA: "q",
}


@dataclass(frozen=True)
class FilledTableau:
    """A tableau together with the unique u/q labels of its empty boxes."""

    base: Tableau
    labels: tuple[tuple[int, int, str], ...]

    @property
    def n(self) -> int:
        return self.base.n

    def label_map(self) -> dict[tuple[int, int], str]:
        return {(r, c): lab for r, c, lab in self.labels}

    def u_count(self) -> int:
        return sum(1 for *_ , lab in self.labels if lab == "u")

    def q_count(self) -> int:
        return sum(1 for *_, lab in self.labels if lab == "q")


def fill_uq(t: Tableau) -> FilledTableau:
    """Label every empty box of a valid tableau with u or q."""
    cm = t.cell_map
    labels: dict[tuple[int, int], str] = {}
    # row pass: everything left of a beta/delta
    for (row, col), sym in cm.items():
        lab = _ROW_LABEL.get(sym)
        if lab:
            for col2 in range(1, col):
                if (row, col2) not in cm:
                    labels[(row, col2)] = lab
    # column pass: nearest symbol strictly below decides
    for row in range(1, t.n + 1):
        for col in range(1, t.row_width(row) + 1):
            box = (row, col)
            if box in cm or box in labels:
                continue
            lab = None
            for row2 in range(row + 1, t.n + 2 - col):
                below = cm.get((row2, col))
                if below is not None:
                    lab = _COL_LABEL[below]
                    break
            if lab is None:
                raise StaircaseError(
                    f"box {box} has no symbol below it; tableau is invalid"
                )
            labels[box] = lab
    return FilledTableau(base=t, labels=tuple(sorted((r, c, l) for (r, c), l in labels.items())))


def wtx(t: Tableau) -> tuple[int, int, int, int, int, int]:
    """Exponent vector (N_alpha, N_beta, N_gamma, N_delta, N_u, N_q) of the
    filled weight monomial; the total degree is always n(n+1)/2."""
    filled = fill_uq(t)
    na, nb, ng, nd = weight_exponents(t)
    return (na, nb, ng, nd, filled.u_count(), filled.q_count())


def z_full(n: int, alpha, beta, gamma, delta, q, u,
           allow_large: bool = False) -> Fraction:
    """Six-variable generating function: the sum of filled weights over
    all staircase tableaux of size n.  The ``wtx`` exponent vectors of the
    enumeration are tallied, then each distinct monomial is evaluated once."""
    from .enumeration import enumerate_four

    alpha, beta, gamma, delta, q, u = map(_finite, ("alpha", "beta", "gamma", "delta", "q", "u"),
                                          (alpha, beta, gamma, delta, q, u))
    return BivarPoly(Counter(map(wtx, enumerate_four(n, allow_large)))).evaluate(
        alpha, beta, gamma, delta, u, q)


def render_filled(f: FilledTableau) -> str:
    """Like the plain text rendering, with u/q letters in labelled boxes."""
    lm = f.label_map()
    lines = []
    t = f.base
    for row in range(1, t.n + 1):
        line = []
        for col in range(1, t.row_width(row) + 1):
            sym = t.symbol_at(row, col)
            if sym is not None:
                line.append(sym.letter)
            else:
                line.append(lm.get((row, col), "."))
        lines.append("".join(line))
    return "\n".join(lines)


def serialize_filled(f: FilledTableau) -> bytes:
    from .tableau import to_document

    doc = to_document(f.base)
    doc["labels"] = [
        {"row": r, "col": c, "label": lab} for r, c, lab in f.labels
    ]
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()

import math
from fractions import Fraction as F

import pytest

from staircase_tableaux import Symbol, Tableau
from staircase_tableaux.asep import (
    fill_uq,
    render_filled,
    serialize_filled,
    wtx,
    z_full,
)
from staircase_tableaux.enumeration import enumerate_four, partition_function
from staircase_tableaux.errors import ParameterError, StaircaseError

A, B, G, D = Symbol.ALPHA, Symbol.BETA, Symbol.GAMMA, Symbol.DELTA


def test_showcase_filling(showcase8):
    filled = fill_uq(showcase8)
    assert filled.u_count() == 13 and filled.q_count() == 10
    assert wtx(showcase8) == (5, 2, 3, 3, 13, 10)
    assert render_filled(filled) == "\n".join([
        "uauuuqqg",
        "ubuuaqg",
        "uuauug",
        "qqqqd",
        "qdua",
        "qqd",
        "ub",
        "a",
    ])


def test_all_alpha_diagonal_fills_u():
    n = 4
    t = Tableau.of(n, [(i, n + 1 - i, A) for i in range(1, n + 1)])
    filled = fill_uq(t)
    assert filled.q_count() == 0
    assert filled.u_count() == n * (n + 1) // 2 - n


def test_size1_no_labels():
    for s in (A, B):
        assert fill_uq(Tableau.of(1, [(1, 1, s)])).labels == ()


def test_all_beta_diagonal_size2():
    t = Tableau.of(2, [(1, 2, B), (2, 1, B)])
    assert wtx(t) == (0, 2, 0, 0, 1, 0)   # (1,1) is left of the beta at (1,2)


def test_row_pass_precedes_column_pass():
    # box (4,2) of the rendering fixture sits left of a delta (row pass: q)
    # and above a delta (column pass would say u); the row pass wins
    t = Tableau.of(8, [
        (1, 2, A), (1, 8, G), (2, 2, B), (2, 5, A), (2, 7, G),
        (3, 3, A), (3, 6, G), (4, 5, D), (5, 2, D), (5, 4, A),
        (6, 3, D), (7, 2, B), (8, 1, A),
    ])
    filled = fill_uq(t)
    assert filled.label_map()[(4, 2)] == "q"
    assert filled.label_map()[(3, 2)] == "u"   # nearest symbol below is a delta


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_identity(n):
    for t in enumerate_four(n):
        assert sum(wtx(t)) == n * (n + 1) // 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fill_totality(n):
    boxes = n * (n + 1) // 2
    for t in enumerate_four(n):
        filled = fill_uq(t)
        assert len(filled.labels) + len(t.cells) == boxes


def test_fill_rejects_bottomless_column():
    t = Tableau.of(2, [(1, 2, A)])   # diagonal box (2,1) empty
    with pytest.raises(StaircaseError):
        fill_uq(t)


def test_z_full_examples():
    assert z_full(3, 1, 1, 1, 1, 1, 1) == 384
    assert z_full(2, 2, 1, 0, 0, 1, 1) == 15
    for n in (1, 2, 3):
        assert z_full(n, 1, 2, F(1, 2), 3, 1, 1) == partition_function(n, 1, 2, F(1, 2), 3)


def test_z_full_homogeneity():
    base = z_full(3, 1, 2, F(1, 2), 1, 3, 2)
    doubled = z_full(3, 2, 4, 1, 2, 6, 4)
    assert doubled == 2 ** 6 * base   # degree n(n+1)/2 = 6


def test_z_full_rejects_negative():
    with pytest.raises(ParameterError):
        z_full(2, 1, 1, 1, 1, -1, 1)


@pytest.mark.parametrize("position, name", [(0, "alpha"), (3, "delta"), (4, "q"), (5, "u")])
def test_z_full_rejects_infinite_weight(position, name):
    weights = [1] * 6
    weights[position] = math.inf
    with pytest.raises(ParameterError, match=f"^{name} must be a finite rational"):
        z_full(2, *weights)


def test_serialize_filled_round_trips_cells(showcase8):
    import json

    doc = json.loads(serialize_filled(fill_uq(showcase8)))
    assert doc["n"] == 8
    assert len(doc["labels"]) == 23
    assert {lab["label"] for lab in doc["labels"]} == {"u", "q"}

import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction as F

import pytest

from staircase_tableaux import Symbol, Tableau, parse, serialize, validate
from staircase_tableaux.asep import (
    FilledTableau,
    fill_uq,
    render_filled,
    serialize_filled,
    wtx,
    z_full,
)
from staircase_tableaux.enumeration import enumerate_four, partition_function
from staircase_tableaux.errors import InvalidTableauError, ParameterError, StaircaseError
from staircase_tableaux.sampling import sample_four

A, B, G, D = Symbol.ALPHA, Symbol.BETA, Symbol.GAMMA, Symbol.DELTA


def _label_counts(filled):
    """(number of u labels, number of q labels) of a filled tableau."""
    tally = Counter(lab for *_, lab in filled.labels)
    return tally["u"], tally["q"]


def test_showcase_filling(showcase8):
    filled = fill_uq(showcase8)
    assert filled.n == 8 and _label_counts(filled) == (13, 10)
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
    n_u, n_q = _label_counts(filled)
    assert n_q == 0
    assert n_u == n * (n + 1) // 2 - n


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
    assert (4, 2, "q") in filled.labels
    assert (3, 2, "u") in filled.labels   # nearest symbol below is a delta


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


def _two_pass_labels(t):
    """Independent reference for the u/q filling, straight from its
    definition: first every empty box left of a beta gets u and left of a
    delta q, then every still-empty box takes u when the nearest symbol
    below it is an alpha or delta, q when it is a beta or gamma."""
    cm = t.cell_map
    labels = {}
    for (row, col), sym in cm.items():
        if sym in (B, D):
            for col2 in range(1, col):
                if (row, col2) not in cm:
                    labels[(row, col2)] = "u" if sym is B else "q"
    for row in range(1, t.n + 1):
        for col in range(1, t.n + 2 - row):
            if (row, col) in cm or (row, col) in labels:
                continue
            below = next(cm[(r, col)] for r in range(row + 1, t.n + 2 - col) if (r, col) in cm)
            labels[(row, col)] = "u" if below in (A, D) else "q"
    return tuple(sorted((r, c, lab) for (r, c), lab in labels.items()))


_DRAW_WEIGHTS = [(F(2), F(3, 7), F(1, 3), F(5)), (F(1), F(1), F(1), F(1)), (F(1, 2), F(4), F(3), F(0))]


def _draws(sizes):
    return [sample_four(n, *w, seed) for n in sizes for w in _DRAW_WEIGHTS for seed in range(3)]


@pytest.mark.parametrize("n", [10, 40, 120])
def test_fill_matches_two_pass_reference_on_draws(n):
    for t in _draws([n]):
        assert fill_uq(t).labels == _two_pass_labels(t)


def test_fill_matches_two_pass_reference_exhaustively():
    for n in range(5):
        for t in enumerate_four(n):
            assert fill_uq(t).labels == _two_pass_labels(t)


def test_filling_outputs_are_pinned():
    # SHA-256 prefix recorded while fill_uq still labelled in two passes
    # and wtx still counted symbols through weight_exponents: labels, wtx
    # vectors and renderings must all come out byte-identical
    tableaux = [t for n in range(5) for t in enumerate_four(n)] + _draws([10, 40, 120])
    h = hashlib.sha256()
    for t in tableaux:
        filled = fill_uq(t)
        h.update(repr((filled.labels, wtx(t), render_filled(filled))).encode())
    assert h.hexdigest()[:16] == "2565d2c0f6b2af70"


def _every_filling(n):
    """Every assignment of empty/alpha/beta/gamma/delta to the boxes of the
    size-n staircase, then each box just outside it (i + j = n + 2) filled
    in turn beside the all-alpha-diagonal tableau."""
    boxes = [(i, j) for i in range(1, n + 1) for j in range(1, n + 2 - i)]
    for choice in itertools.product((None, A, B, G, D), repeat=len(boxes)):
        yield Tableau.of(n, [(i, j, s) for (i, j), s in zip(boxes, choice) if s])
    diagonal = [(i, n + 1 - i, A) for i in range(1, n + 1)]
    for i in range(1, n + 2):
        for s in (A, B, G, D):
            yield Tableau.of(n, diagonal + [(i, n + 2 - i, s)])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fill_raises_exactly_when_validate_rejects(n):
    for t in _every_filling(n):
        if validate(t):
            with pytest.raises(InvalidTableauError):
                fill_uq(t)
            with pytest.raises(InvalidTableauError):
                wtx(t)
        else:
            fill_uq(t)
            wtx(t)


@pytest.mark.parametrize("cells", [
    [(1, 2, A), (2, 1, A), (1, 5, B)],   # box (1, 5) lies outside the staircase
    [(1, 1, B), (2, 1, A), (1, 2, A)],   # rule (iv): the beta at (1, 1) is above an alpha
    [(1, 1, A), (1, 2, B), (2, 1, B)],   # rule (iii): the alpha at (1, 1) is left of a beta
], ids=["shape", "iv", "iii"])
def test_fill_rejects_broken_rules(cells):
    t = Tableau.of(2, cells)
    for f in (fill_uq, wtx, lambda t: render_filled(FilledTableau(t, ()))):
        with pytest.raises(InvalidTableauError):
            f(t)


def test_fill_and_parse_report_a_broken_rule_alike():
    for t in _every_filling(2):
        if not validate(t):
            continue
        with pytest.raises(InvalidTableauError) as parsed:
            parse(serialize(t))
        for f in (fill_uq, wtx):
            with pytest.raises(InvalidTableauError) as filled:
                f(t)
            assert filled.value.args == parsed.value.args

import hashlib
import itertools
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux import (
    Symbol,
    SymbolCounts,
    Tableau,
    counts,
    dagger,
    parse,
    render_text,
    serialize,
    subtableau,
    validate,
    weight,
    weight_exponents,
)
from staircase_tableaux.enumeration import enumerate_ab, enumerate_four
from staircase_tableaux.sampling import Params, sample_ab, sample_four
from staircase_tableaux.errors import (
    DomainError,
    InvalidTableauError,
    MalformedDocumentError,
    ParameterError,
)
from test_asep import _every_filling

A, B, G, D = Symbol.ALPHA, Symbol.BETA, Symbol.GAMMA, Symbol.DELTA


def test_showcase_is_valid(showcase8):
    assert validate(showcase8) == []


def test_smallest_tableau_valid():
    assert validate(Tableau.of(1, [(1, 1, A)])) == []


def test_rule_iii_violation():
    t = Tableau.of(2, [(1, 1, B), (1, 2, B), (2, 1, A)])
    violations = validate(t)
    assert any(v.rule == "iii" and v.box == (1, 2) for v in violations)


def test_rule_iv_violation():
    t = Tableau.of(2, [(1, 1, B), (1, 2, A), (2, 1, A)])
    violations = validate(t)
    assert [(v.rule, v.box) for v in violations] == [("iv", (2, 1))]


def test_empty_diagonal_reported():
    t = Tableau.of(2, [(1, 2, A)])
    assert any(v.rule == "ii" and v.box == (2, 1) for v in validate(t))


def test_out_of_shape_reported_first():
    t = Tableau.of(2, [(2, 2, A)])
    violations = validate(t)
    assert violations[0].rule == "shape" and violations[0].box == (2, 2)


def test_validation_reports_all_violations():
    # two empty diagonal boxes, one rule-iii breach, one rule-iv breach
    t = Tableau.of(3, [(1, 1, B), (1, 2, B), (2, 1, A), (1, 3, A)])
    rules = sorted(v.rule for v in validate(t))
    assert rules == ["ii", "ii", "iii", "iv"]


def test_counts_showcase(showcase8):
    c = counts(showcase8)
    assert (c.n_alpha, c.n_beta, c.n_delta, c.n_gamma) == (5, 2, 3, 3)
    # alpha-indexed rows of the fixture: 1, 3 and 8
    assert c.alpha_indexed_rows == 3
    assert c.diagonal_alpha == 2 and c.diagonal_beta == 1


def test_counts_all_alpha_diagonal():
    n = 5
    t = Tableau.of(n, [(i, n + 1 - i, A) for i in range(1, n + 1)])
    c = counts(t)
    assert c.n_alpha == c.diagonal_alpha == n
    assert c.alpha_indexed_rows == n
    assert c.n_beta == c.n_gamma == c.n_delta == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_r_identity_ab(n):
    for t in enumerate_ab(n):
        c = counts(t)
        assert c.alpha_indexed_rows == n - c.n_beta
        assert c.diagonal_alpha + c.diagonal_beta == n


def test_weight_showcase(showcase8):
    assert weight(showcase8, 1, 1, 1, 1) == 1
    assert weight_exponents(showcase8) == (5, 2, 3, 3)


def test_weight_size2():
    t = Tableau.of(2, [(2, 1, A), (1, 2, B)])
    assert weight(t, 2, 3, 0, 0) == 6


def test_subtableau_identity(showcase8):
    assert subtableau(showcase8, 1, 1) == showcase8


def test_subtableau_size(showcase8):
    s = subtableau(showcase8, 1, 2)
    assert s.n == 7
    assert validate(s) == []


def test_subtableau_out_of_range(showcase8):
    with pytest.raises(DomainError):
        subtableau(showcase8, 4, 6)


@pytest.mark.parametrize("bad", [1.5, "1", None, 0])
@pytest.mark.parametrize("name", ["i", "j"])
def test_subtableau_index_follows_the_integer_rule(showcase8, name, bad):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        subtableau(showcase8, **{"i": 1, "j": 1, name: bad})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subtableau_always_valid(n):
    for t in enumerate_ab(n):
        for i in range(1, n + 1):
            for j in range(1, n + 2 - i):
                assert validate(subtableau(t, i, j)) == []


def test_dagger_swaps_diagonal():
    n = 4
    t = Tableau.of(n, [(i, n + 1 - i, A) for i in range(1, n + 1)])
    d = dagger(t)
    assert all(s is B for s in d.diagonal())


def test_dagger_counts_swap(showcase8):
    c, cd = counts(showcase8), counts(dagger(showcase8))
    assert (cd.n_alpha, cd.n_beta) == (c.n_beta, c.n_alpha)
    assert (cd.n_gamma, cd.n_delta) == (c.n_delta, c.n_gamma)
    assert (cd.diagonal_alpha, cd.diagonal_beta) == (c.diagonal_beta, c.diagonal_alpha)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dagger_involution_and_validity(n):
    for t in enumerate_four(n):
        d = dagger(t)
        assert validate(d) == []
        assert len(d.cells) == len(t.cells)
        assert dagger(d) == t


def test_render_showcase(showcase8):
    assert render_text(showcase8) == "\n".join([
        ".a.....g",
        ".b..a.g",
        "..a..g",
        "....d",
        ".d.a",
        "..d",
        ".b",
        "a",
    ])


def test_render_row_widths(showcase8):
    widths = [len(line) for line in render_text(showcase8).splitlines()]
    assert widths == [8, 7, 6, 5, 4, 3, 2, 1]


def test_render_rejects_a_cell_outside_the_staircase():
    for t, message in [
        (Tableau(2, [(1, 5, A)]), "box (1, 5) outside the size-2 staircase"),
        (Tableau(2, [(3, 1, B), (1, 2, A)]), "box (3, 1) outside the size-2 staircase"),
        (Tableau(0, [(1, 1, G)]), "box (1, 1) outside the size-0 staircase"),
    ]:
        with pytest.raises(InvalidTableauError) as err:
            render_text(t)
        assert str(err.value) == message == validate(t)[0].message


def test_render_shows_an_in_shape_tableau_that_breaks_a_rule():
    # rules (ii)-(iv) are validate's business: empty diagonal, then a beta
    # right of a filled box and an alpha below one
    assert render_text(Tableau(3, [])) == "...\n..\n."
    t = Tableau(3, [(1, 1, G), (1, 2, B), (2, 1, A), (3, 1, D)])
    assert {v.rule for v in validate(t)} == {"ii", "iii", "iv"}
    assert render_text(t) == "gb.\na.\nd"


def test_symbol_letters_order_and_dagger():
    assert [s.letter for s in Symbol] == ["a", "b", "g", "d"]
    assert sorted([D, B, G, A]) == [A, B, G, D] and not B < A and G < D
    with pytest.raises(TypeError, match="not supported"):
        A < "beta"
    t = Tableau(2, [(1, 1, A), (1, 2, G), (2, 1, B)])
    assert dagger(t) == Tableau(2, [(1, 1, B), (2, 1, D), (1, 2, A)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_serialize_round_trip(n):
    for t in enumerate_ab(n):
        assert parse(serialize(t)) == t


def test_serialize_is_canonical(showcase8):
    data = serialize(showcase8)
    assert data == serialize(parse(data))
    assert b'"sym":"alpha"' in data


def test_parse_rejects_malformed():
    with pytest.raises(MalformedDocumentError):
        parse(b"not json")
    with pytest.raises(MalformedDocumentError):
        parse(b'{"n": 1}')
    with pytest.raises(MalformedDocumentError):
        parse(b'{"n": 1, "cells": [{"row": 1, "col": 1, "sym": "epsilon"}]}')


def test_parse_rejects_non_utf8_bytes():
    with pytest.raises(MalformedDocumentError, match="not UTF-8"):
        parse(b"\xff")
    with pytest.raises(MalformedDocumentError, match="not UTF-8"):
        parse(b'{"n": 1, "cells": [{"row": 1, "col": 1, "sym": "\xe9"}]}')


@pytest.mark.parametrize("data", [None, 5], ids=["None", "int"])
def test_parse_rejects_data_that_is_not_text(data):
    with pytest.raises(ParameterError) as exc:
        parse(data)
    assert str(exc.value) == f"data must be bytes or str, got {data!r}"


def test_parse_rejects_invalid_tableau():
    with pytest.raises(InvalidTableauError):
        parse(b'{"n": 1, "cells": []}')   # empty diagonal


@pytest.mark.parametrize("doc, message", [
    (b'{"n": true, "cells": [{"row": true, "col": 1, "sym": "alpha"}]}', "'n' must be an integer"),
    (b'{"n": 1, "cells": [{"row": true, "col": 1, "sym": "alpha"}]}', "cell coordinates must be integers"),
    (b'{"n": 1, "cells": [{"row": 1, "col": false, "sym": "alpha"}]}', "cell coordinates must be integers"),
], ids=["n", "row", "col"])
def test_parse_rejects_json_booleans(doc, message):
    with pytest.raises(MalformedDocumentError, match=message):
        parse(doc)


def test_duplicate_cell_rejected():
    with pytest.raises(ValueError):
        Tableau.of(2, [(1, 1, A), (1, 1, B), (1, 2, A), (2, 1, B)])


@pytest.mark.parametrize("n, cells, field", [
    (2.5, [], "n"),
    ("2", [], "n"),
    (2, [(1.5, 1, A)], "cell row"),
    (2, [(1, 2, A), (2, F(1), A)], "cell col"),
])
def test_non_integer_size_or_coordinate_rejected(n, cells, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        Tableau.of(n, cells)


def test_numpy_integers_build_equal_tableaux():
    numpy = pytest.importorskip("numpy")
    t = Tableau.of(numpy.int64(2), [(numpy.int32(1), numpy.int64(2), A), (2, numpy.uint8(1), B)])
    plain = Tableau.of(2, [(1, 2, A), (2, 1, B)])
    assert t == plain and hash(t) == hash(plain)
    assert serialize(t) == serialize(plain)


@pytest.mark.parametrize("once", [lambda cells: (c for c in cells), iter],
                         ids=["generator", "iterator"])
def test_single_pass_cells_build_the_same_tableau(once):
    # the cells are read once: a second pass over a generator would see nothing
    cells = [(2, 1, B), (1, 2, A), (1, 1, B)]
    assert Tableau(2, once(cells)) == Tableau.of(2, cells)
    assert Tableau(2, once(cells)).cells == ((1, 1, B), (1, 2, A), (2, 1, B))
    with pytest.raises(ValueError, match=r"^duplicate cell \(1, 2\)$"):
        Tableau(2, once([(1, 2, A), (1, 2, B)]))


@pytest.mark.parametrize("n, cells, message", [
    (-1, [], "tableau size must be >= 0, got -1"),
    (2, [(0, 1, A)], "cell coordinates must be >= 1, got (0, 1)"),
    (2, [(1, -2, A)], "cell coordinates must be >= 1, got (1, -2)"),
    (2, [(1, 1, "alpha")], "cell (1, 1) holds 'alpha', not a Symbol"),
    (1, [(1, 1)], "each cell must be a (row, col, symbol) triple, got (1, 1)"),
    (1, [(1, 1, A, 0)], "each cell must be a (row, col, symbol) triple, got (1, 1, <Symbol.ALPHA: 'alpha'>, 0)"),
    (1, [5], "each cell must be a (row, col, symbol) triple, got 5"),
], ids=["negative-size", "row-0", "col-negative", "not-a-symbol", "pair", "quadruple", "int"])
def test_malformed_size_or_cell_names_the_rule(n, cells, message):
    for build in (Tableau, Tableau.of):
        with pytest.raises(ValueError) as err:
            build(n, cells)
        assert str(err.value) == message


@pytest.mark.parametrize("cells, message", [
    ({1: A}, "each cell must be a (row, col, symbol) triple, got (1, <Symbol.ALPHA: 'alpha'>)"),
    ({(1,): A}, "each cell must be a (row, col, symbol) triple, got (1, <Symbol.ALPHA: 'alpha'>)"),
    ({(1, 1, 1): A},
     "each cell must be a (row, col, symbol) triple, got (1, 1, 1, <Symbol.ALPHA: 'alpha'>)"),
], ids=["int", "one-tuple", "triple"])
def test_mapping_keys_meet_the_cell_rule(cells, message):
    # a tuple key gains its symbol, any other key is paired with it
    with pytest.raises(ValueError) as err:
        Tableau.of(1, cells)
    assert str(err.value) == message
    assert Tableau.of(2, {(2, 1): B, (1, 2): A}) == Tableau.of(2, [(1, 2, A), (2, 1, B)])


@pytest.mark.parametrize("doc, message", [
    (b'{"n": 1, "cells": [{"row": 1, "col": 1}]}', "bad cell entry {'row': 1, 'col': 1}"),
    (b'{"n": 1, "cells": [1]}', "bad cell entry 1"),
    (b'{"n": 2, "cells": [{"row": 1, "col": 2, "sym": "alpha"}, {"row": 1, "col": 2, "sym": "beta"}]}',
     "duplicate cell (1, 2)"),
], ids=["missing-key", "not-an-object", "duplicate"])
def test_parse_rejects_bad_cell_entries(doc, message):
    with pytest.raises(MalformedDocumentError) as err:
        parse(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbol_count_bounds(n):
    for t in enumerate_ab(n):
        total = len(t.cells)
        assert n <= total <= 2 * n - 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_per_line_symbol_limits(n):
    for t in enumerate_four(n):
        per_col: dict[int, int] = {}
        per_row: dict[int, int] = {}
        for r, c, s in t.cells:
            if s.column_type:
                per_col[c] = per_col.get(c, 0) + 1
            else:
                per_row[r] = per_row.get(r, 0) + 1
        assert all(v <= 1 for v in per_col.values())
        assert all(v <= 1 for v in per_row.values())


@st.composite
def sampled_tableaux(draw):
    from staircase_tableaux.sampling import Params, sample_ab

    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**63))
    a = draw(st.sampled_from([F(0), F(1, 3), F(1), F(5, 2)]))
    b = draw(st.sampled_from([F(0), F(1, 2), F(1), F(4)]))
    return sample_ab(n, Params(a, b), seed)


@given(sampled_tableaux())
@settings(max_examples=60, deadline=None)
def test_sampled_tableaux_invariants(t):
    assert validate(t) == []
    assert parse(serialize(t)) == t
    assert dagger(dagger(t)) == t
    c = counts(t)
    assert t.n <= c.total <= 2 * t.n - 1


def _recount(t: Tableau) -> SymbolCounts:
    """counts by another route: the leftmost symbol of each row as the
    minimum column over cell_map, the diagonal through symbol_at."""
    cm = t.cell_map
    leftmost: dict[int, tuple[int, Symbol]] = {}
    for (row, col), sym in cm.items():
        if row not in leftmost or col < leftmost[row][0]:
            leftmost[row] = (col, sym)
    diagonal = [t.symbol_at(i, t.n + 1 - i) for i in range(1, t.n + 1)]
    per_symbol = Counter(cm.values())
    return SymbolCounts(
        n_alpha=per_symbol[A], n_beta=per_symbol[B],
        n_gamma=per_symbol[G], n_delta=per_symbol[D],
        diagonal_alpha=diagonal.count(A), diagonal_beta=diagonal.count(B),
        alpha_indexed_rows=sum(sym is A for _, sym in leftmost.values()),
    )


def test_counts_matches_an_independent_recount():
    # every enumerated tableau and its dagger, sampler draws built through
    # Tableau._sorted, and a tableau built from an unsorted cell map
    tableaux = [*enumerate_four(4), *enumerate_ab(6)]
    tableaux += map(dagger, list(tableaux))
    tableaux += [sample_ab(40, Params(F(2), F(1, 3)), seed) for seed in range(20)]
    tableaux += [sample_four(40, F(2), F(1, 3), F(1), F(3, 2), seed) for seed in range(20)]
    tableaux.append(Tableau.of(3, {(3, 1): B, (1, 3): A, (2, 2): A, (1, 1): B, (2, 1): A}))
    for t in tableaux:
        assert counts(t) == _recount(t), t


def _one_box_changes(t: Tableau):
    """Every tableau one box away from t: each box of the staircase, or
    just outside it, gets a symbol added, removed or replaced."""
    cm = t.cell_map
    for i in range(1, t.n + 2):
        for j in range(1, t.n + 3 - i):
            rest = [cell for cell in t.cells if cell[:2] != (i, j)]
            if (i, j) in cm:
                yield Tableau(t.n, tuple(rest))
            for s in (A, B, G, D):
                if cm.get((i, j)) is not s:
                    yield Tableau(t.n, tuple(rest) + ((i, j, s),))


def test_validate_outputs_are_pinned():
    # SHA-256 prefix recorded while validate still scanned cell_map in
    # nested loops: every filling of the staircase for n <= 3 (plus each
    # box just outside it) and every one-box change of sampler draws at
    # n = 10 must give the same violations, messages and order
    draws = [sample_four(10, *w, seed) for w in [(F(2), F(3, 7), F(1, 3), F(5)), (F(1), F(1), F(1), F(1))]
             for seed in range(3)]
    tableaux = itertools.chain(*map(_every_filling, range(4)), *map(_one_box_changes, draws))
    h = hashlib.sha256()
    for t in tableaux:
        h.update(repr(validate(t)).encode())
    assert h.hexdigest()[:16] == "c159afa0b87dce92"

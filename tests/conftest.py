import pytest

from staircase_tableaux import Symbol, Tableau


@pytest.fixture(scope="session")
def showcase8():
    """The size-8 rendering fixture used throughout."""
    return Tableau.of(8, [
        (1, 2, Symbol.ALPHA), (1, 8, Symbol.GAMMA),
        (2, 2, Symbol.BETA), (2, 5, Symbol.ALPHA), (2, 7, Symbol.GAMMA),
        (3, 3, Symbol.ALPHA), (3, 6, Symbol.GAMMA),
        (4, 5, Symbol.DELTA),
        (5, 2, Symbol.DELTA), (5, 4, Symbol.ALPHA),
        (6, 3, Symbol.DELTA),
        (7, 2, Symbol.BETA),
        (8, 1, Symbol.ALPHA),
    ])

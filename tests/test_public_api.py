"""The public surface: every exported name resolves and every demo runs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import staircase_tableaux

MODULES = sorted(m.name for m in pkgutil.iter_modules(staircase_tableaux.__path__))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_package_all_resolves():
    for name in staircase_tableaux.__all__:
        assert hasattr(staircase_tableaux, name), name


def test_package_exports_every_library_name():
    # the package re-exports the six library modules' __all__s; no two of
    # them share a name, so none shadows another
    library = ("tableau", "eulerian_poly", "enumeration", "sampling", "distributions", "asep")
    names = [n for m in library for n in importlib.import_module(f"staircase_tableaux.{m}").__all__]
    assert len(set(names)) == len(names)
    assert set(names) <= set(staircase_tableaux.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"staircase_tableaux.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(staircase_tableaux.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _surface():
    """For every module and every name in its sorted ``__all__``: the name's
    category, each function's parameters as (name, kind, repr(default)) and
    each record's ``_fields``.  Categories come from isinstance, not from
    metaclass names, which differ between Python versions."""
    import inspect

    for module in MODULES:
        mod = importlib.import_module(f"staircase_tableaux.{module}")
        for name in sorted(getattr(mod, "__all__", ())):
            obj = getattr(mod, name)
            kind = "class" if isinstance(obj, type) else "function" if callable(obj) else "value"
            params = () if kind != "function" else tuple(
                (p.name, p.kind.name, repr(p.default))
                for p in inspect.signature(obj).parameters.values())
            fields = tuple(getattr(obj, "_fields", ())) if kind == "class" else ()
            yield module, name, kind, params, fields


def test_public_surface_is_pinned():
    # SHA-256 prefix over every module's public names, their signatures and
    # record fields: a renamed parameter, a changed default or a name that
    # leaves an __all__ changes it
    import hashlib

    h = hashlib.sha256()
    for row in _surface():
        h.update(repr(row).encode() + b"\n")
    assert h.hexdigest()[:16] == "1090d6ff0e1ae34e"


def test_cli_import_loads_no_unused_stdlib_module():
    # every module the import loads is paid by each cold command; -S keeps
    # the interpreter's site hooks from loading any of them first
    src = str(Path(staircase_tableaux.__file__).resolve().parents[1])
    code = ("import sys, staircase_tableaux.cli; "
            "print(sorted({'dataclasses', 'inspect', 'tempfile'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _records():
    """One instance of every record class, each built by the package's own calls."""
    from fractions import Fraction as F

    from staircase_tableaux import acceptance, asep, distributions as D, eulerian_poly as E
    from staircase_tableaux import sampling as S, tableau as T

    alpha, beta = T.Symbol.ALPHA, T.Symbol.BETA
    broken = T.Tableau(3, ((1, 1, beta), (1, 3, alpha), (2, 2, alpha), (3, 1, alpha)))
    draw = S.sample_four(6, F(2), F(3, 7), F(1, 3), F(5), 11)
    params = S.Params(F(1, 2), 3, F(1, 3))
    law = D.dist_N_pairs(4, F(2, 3), F(5, 2))
    (check,) = acceptance.run("quick", [12])
    return [
        (*T.validate(broken), "rule"),
        (T.counts(draw), "n_alpha"),
        (S.tableau_stats(S.sample_ab(7, params, 5)), "diagonal_word"),
        (S.urn_sample(12, F(1, 2), 2, 9), "path"),
        (draw, "cells"),
        (D.dist_A(6, F(1, 2), F(3)), "weights"),
        (D.bernoulli_decomposition(5, F(2, 3), F(5, 2)), "p"),
        (law, "pairs"),
        (law.pairs[1], "p10"),
        (D.subtableau_law_check(4, 1, F(1, 2), 2, 1), "equal"),
        (D.clt_diagnostics(12, F(1, 2), F(3)), "sd"),
        (D.n_alpha_growth_check([3, 5], F(1, 2), F(3))[1], "cov"),
        (D.chi_square_gof({0: F(1, 3), 1: F(2, 3)}, {0: 3, 1: 5}), "p_value"),
        (type(check)(check.index, check.name, check.passed, check.detail, 0.0), "seconds"),
        (asep.fill_uq(draw), "labels"),
        (E.v_triangle(4, F(1, 2), F(3)), "rows"),
        (E.c_table(4, F(2, 3)), "b"),
        (params, "rho"),
        (S.sample_batch(3, S.Params(1, 1), 7, 25), None),   # mutable
    ]


def test_records_are_pinned():
    # SHA-256 prefix recorded while the records were dataclasses (and once
    # more when the decomposition's roots moved onto the fixed 2^-40 grid):
    # repr, ==, hash, pickle and immutability must survive any change of
    # their base
    import hashlib
    import pickle

    records, twins = _records(), _records()
    flat = [(r, f) for *rs, f in records for r in rs]
    assert len({type(r) for r, _ in flat}) == 19
    h = hashlib.sha256()
    for (r, field), (twin, _) in zip(flat, [(t, f) for *ts, f in twins for t in ts]):
        h.update(repr(r).encode())
        assert r is not twin and r == twin and pickle.loads(pickle.dumps(r)) == twin
        if field is None:   # BatchSummary is mutable, so unhashable
            with pytest.raises(TypeError):
                hash(r)
            continue
        assert hash(r) == hash(twin)
        with pytest.raises(AttributeError):
            setattr(r, field, getattr(twin, field))
    assert h.hexdigest()[:16] == "322a69e12ea6c622"

"""The public surface: every exported name resolves and every demo runs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import staircase_tableaux

MODULES = sorted(m.name for m in pkgutil.iter_modules(staircase_tableaux.__path__))
LIBRARY = ("tableau", "eulerian_poly", "enumeration", "sampling", "distributions", "asep")
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_package_all_resolves():
    for name in staircase_tableaux.__all__:
        assert hasattr(staircase_tableaux, name), name


def test_package_exports_every_library_name():
    # the package re-exports the six library modules' __all__s; no two of
    # them share a name, so none shadows another
    names = [n for m in LIBRARY for n in importlib.import_module(f"staircase_tableaux.{m}").__all__]
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


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    # the line its comment promises: "exact: 5 and 11/12"
    assert "5 11/12" in capsys.readouterr().out.splitlines()


def _surface():
    """For every module and every name in its sorted ``__all__``: the name's
    category, the parameters of each function and of each class whose
    ``__init__`` the package defines as (name, kind, repr(default)), and each
    record's ``_fields``.  Categories come from isinstance, not from
    metaclass names, which differ between Python versions; so do the Enum's
    and the NamedTuples' constructors, which come from the standard library,
    and those classes are pinned by their fields alone."""
    import inspect

    for module in MODULES:
        mod = importlib.import_module(f"staircase_tableaux.{module}")
        for name in sorted(getattr(mod, "__all__", ())):
            obj = getattr(mod, name)
            kind = "class" if isinstance(obj, type) else "function" if callable(obj) else "value"
            init = getattr(obj, "__init__", None)
            own = kind == "class" and getattr(init, "__module__", "").startswith("staircase_tableaux")
            call = obj if kind == "function" else init if own else None
            params = () if call is None else tuple(
                (p.name, p.kind.name, repr(p.default))
                for p in inspect.signature(call).parameters.values())
            fields = tuple(getattr(obj, "_fields", ())) if kind == "class" else ()
            yield module, name, kind, params, fields


def test_public_surface_is_pinned():
    # SHA-256 prefix over every module's public names, the signatures of
    # their functions and constructors and their record fields: a renamed
    # parameter, a changed default or a name that leaves an __all__ changes it
    import hashlib

    h = hashlib.sha256()
    for row in _surface():
        h.update(repr(row).encode() + b"\n")
    assert h.hexdigest()[:16] == "712ea86f1e734d2b"


def test_cli_import_loads_no_unused_stdlib_module():
    # every module the import loads is paid by each cold command; -S keeps
    # the interpreter's site hooks from loading any of them first
    src = str(Path(staircase_tableaux.__file__).resolve().parents[1])
    code = ("import sys, staircase_tableaux.cli; "
            "print(sorted({'dataclasses', 'inspect', 'tempfile', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# under -S, so that no site hook loads a module first; prints the package
# modules the child loaded, then whether it loaded json
_LOADED = ("print(*sorted(m.split('.')[1] for m in sys.modules "
           "if m.startswith('staircase_tableaux.')), 'json' in sys.modules)")
_RUN_MAIN = ("import contextlib, io, sys\nfrom staircase_tableaux.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n    status = main(sys.argv[1:])\n"
             "assert status == 0, status\n")
_EXACT = "cli distributions errors eulerian_poly"
_DRAWS = "cli errors eulerian_poly rng sampling tableau"
_COLD_STARTS = [
    ("import staircase_tableaux", (), "False"),
    ("import staircase_tableaux.cli", (), "cli errors False"),
    # the commands that the benchmark's cli-cold workload runs, at small n
    (_RUN_MAIN, ("sample", "--n", "3", "--alpha", "2", "--beta", "1/3", "--samples", "20",
                 "--format", "csv"), f"{_DRAWS} False"),
    (_RUN_MAIN, ("urn", "--n", "20", "--a", "1/2", "--b", "3", "--samples", "20"), f"{_DRAWS} False"),
    (_RUN_MAIN, ("dist-a", "--n", "8", "--a", "1/2", "--b", "3", "--format", "json"), f"{_EXACT} True"),
    (_RUN_MAIN, ("moments-a", "--n", "10", "--a", "1/2", "--b", "3"), f"{_EXACT} False"),
    (_RUN_MAIN, ("decompose", "--n", "6", "--a", "1/2", "--b", "3"), f"{_EXACT} False"),
    (_RUN_MAIN, ("pairs-n", "--n", "10", "--a", "1/2", "--b", "3"), f"{_EXACT} False"),
    (_RUN_MAIN, ("clt", "--n", "20", "--a", "1/2", "--b", "3"), f"{_EXACT} True"),
    (_RUN_MAIN, ("triangle", "--n-max", "6", "--a", "1/2", "--b", "3"), "cli errors eulerian_poly False"),
    (_RUN_MAIN, ("enumerate", "--n", "4", "--count-only"),
     "cli enumeration errors eulerian_poly tableau False"),
    (_RUN_MAIN, ("asep", "z-full", "--n", "2", "--q", "2"),
     "asep cli enumeration errors eulerian_poly tableau False"),
    # only verify loads acceptance, and with it every module
    (_RUN_MAIN, ("verify", "--only", "12", "--level", "quick"), " ".join(MODULES) + " False"),
]


@pytest.mark.parametrize("code, argv, loaded", _COLD_STARTS,
                         ids=[" ".join(argv) or code for code, argv, _ in _COLD_STARTS])
def test_cold_start_loads_only_its_own_modules(code, argv, loaded):
    # what a fresh interpreter imports is what each cold command pays for:
    # the package loads no module until a name is used, and each command
    # only the modules it runs
    src = str(Path(staircase_tableaux.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", f"{code}\nimport sys\n{_LOADED}", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == loaded + "\n"


# the package modules each module imports at its top, which is what loading
# it loads; acceptance, which the verify command alone loads, imports them all
_LAYERS = {
    "__init__": set(), "errors": set(),
    "rng": {"errors"}, "eulerian_poly": {"errors"},
    "tableau": {"errors", "eulerian_poly"},
    "enumeration": {"errors", "eulerian_poly", "tableau"},
    "sampling": {"errors", "rng", "tableau"},
    "distributions": {"errors", "eulerian_poly"},
    "asep": {"errors", "eulerian_poly", "enumeration", "tableau"},
    "cli": {"errors"},
    "acceptance": set(MODULES) - {"acceptance", "cli"},
}


def _top_level_imports(path: Path) -> set[str]:
    """The package modules a module's top-level statements import."""
    import ast

    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_module_layering_is_pinned():
    # a new edge between modules shows here first: errors sits under every
    # module, and cli loads nothing else until a command runs
    package = Path(staircase_tableaux.__file__).parent
    imports = {p.stem: _top_level_imports(p) for p in package.glob("*.py")}
    assert imports == _LAYERS


def test_package_all_is_pinned():
    # SHA-256 prefix of repr(__all__) as the six star imports built it: the
    # 84 names, sorted, eight of them the submodules those imports loaded
    import hashlib

    names = staircase_tableaux.__all__
    assert len(names) == 84 and names == sorted(names)
    assert hashlib.sha256(repr(names).encode()).hexdigest()[:12] == "6f5b7d66ed86"


def test_star_import_binds_the_modules_objects():
    namespace = {}
    exec("from staircase_tableaux import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == staircase_tableaux.__all__
    assert {n for n, obj in namespace.items() if type(obj) is type(sys)} == {*LIBRARY, "errors", "rng"}
    for module in LIBRARY:
        mod = importlib.import_module(f"staircase_tableaux.{module}")
        assert namespace[module] is mod
        for name in mod.__all__:
            assert namespace[name] is getattr(mod, name), f"{module}.{name}"


def test_dir_holds_every_exported_name():
    # in a fresh interpreter, where no name has been resolved yet
    src = str(Path(staircase_tableaux.__file__).resolve().parents[1])
    code = "import staircase_tableaux as st; names = dir(st); print(set(st.__all__) <= set(names))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


@pytest.mark.parametrize("name", ["no_such_name", "_private", "__wrapped__"])
def test_unknown_name_raises_attribute_error_naming_it(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(staircase_tableaux, name)


_FIRST_TOUCH = """
import sys, threading
sys.setswitchinterval(1e-6)
import staircase_tableaux as st
names = ("dist_A", "sampling", "Tableau", "distributions")
barrier, got = threading.Barrier(len(names)), [None] * len(names)

def touch(i):
    barrier.wait()
    got[i] = getattr(st, names[i])

threads = [threading.Thread(target=touch, args=(i,)) for i in range(len(names))]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
from staircase_tableaux import distributions, sampling, tableau
want = (distributions.dist_A, sampling, tableau.Tableau, distributions)
assert all(g is w for g, w in zip(got, want)), got
assert st.dist_A is want[0] and st.sampling is sys.modules["staircase_tableaux.sampling"]
"""


def test_first_touch_from_several_threads_gets_the_same_objects():
    # four threads race to the first use of two library names and two
    # submodule names, each in a fresh interpreter
    src = str(Path(staircase_tableaux.__file__).resolve().parents[1])
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", _FIRST_TOUCH], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("record, factory, params", [
    ("EulerTriangle", "v_triangle", (4, Fraction(1, 2), 3)),
    ("CTable", "c_table", (4, Fraction(2, 3))),
    ("NPairLaw", "dist_N_pairs", (4, Fraction(2, 3), Fraction(5, 2))),
])
def test_records_whose_fields_agree_are_built_from_their_parameters(record, factory, params):
    # the one way to build these records is from their factory's parameters,
    # so no caller can make a record whose fields disagree
    built = getattr(staircase_tableaux, factory)(*params)
    assert getattr(staircase_tableaux, record)(*params) == built
    assert not hasattr(built, "_replace")
    for field in built._fields:
        with pytest.raises(AttributeError):
            setattr(built, field, getattr(built, field))
    assert built != tuple(getattr(built, f) for f in built._fields)


def test_record_parameters_meet_the_factory_rules():
    from staircase_tableaux.errors import ParameterError

    # a float weight is read exactly, as the factory reads it
    assert staircase_tableaux.NPairLaw(2, 0.5, 1.0) == staircase_tableaux.dist_N_pairs(2, Fraction(1, 2), 1)
    with pytest.raises(ParameterError):
        staircase_tableaux.EulerTriangle(4, -1, 1)


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

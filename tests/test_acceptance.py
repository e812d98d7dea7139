"""Acceptance gate: every criterion of the verification suite must pass at
desk scale.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass/fail line per criterion; the CLI equivalent is
``staircase-tableaux verify --level desk``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import staircase_tableaux
from staircase_tableaux import acceptance, cli

_RESULTS: dict[int, acceptance.CheckResult] = {}


@pytest.fixture(scope="module")
def results():
    if not _RESULTS:
        for r in acceptance.run(level="desk"):
            _RESULTS[r.index] = r
    return _RESULTS


@pytest.mark.parametrize("index,name", [(i, n) for i, n, _fn in acceptance.CRITERIA])
def test_criterion(results, index, name):
    r = results[index]
    status = "PASS" if r.passed else "FAIL"
    print(f"ACCEPTANCE {index:2d} {name}: {status} ({r.seconds:.1f}s) {r.detail}")
    assert r.passed, f"criterion {index} ({name}): {r.detail}"


def _python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(staircase_tableaux.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_verify_fails_under_optimize_flag():
    # python -O strips asserts, so no criterion can be trusted to have run
    proc = _python("-O", "-m", "staircase_tableaux.cli", "verify", "--level", "quick",
                   "--only", "1", "--only", "7")
    assert proc.returncode == cli.EXIT_VERIFY, proc.stderr
    assert "0/2 criteria passed" in proc.stdout and "python -O" in proc.stdout


def test_failing_criterion_is_reported_in_process(monkeypatch, capsys):
    # a criterion whose assert fires is reported failed, and the suite goes on
    def broken(level):
        raise AssertionError(f"law differs at level {level}")

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "counting", broken), acceptance.CRITERIA[1]])
    first, second = acceptance.run(level="quick")
    assert (first.index, first.passed, first.detail) == (1, False, "FAILED: law differs at level quick")
    assert (second.index, second.passed) == (2, True)
    assert cli.main(["verify", "--level", "quick", "--only", "1"]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "[FAIL]  1 counting" in out and "0/1 criteria passed" in out


def test_maximal_criterion_fails_on_a_broken_maximal_tableau(monkeypatch):
    # criterion 15 must read the one-per-line structure off the cells: a
    # corner alpha beside two more alphas in columns 1 and 2 breaks it
    alpha = staircase_tableaux.Symbol.ALPHA
    broken = staircase_tableaux.Tableau(2, [(1, 1, alpha), (1, 2, alpha), (2, 1, alpha)])
    monkeypatch.setattr(staircase_tableaux.enumeration, "max_symbol_tableaux",
                        lambda n: iter([broken]))
    [result] = acceptance.run("quick", [15])
    assert (result.index, result.passed) == (15, False)
    assert result.detail.startswith("FAILED: ")


def test_chi_square_runs_without_scipy():
    proc = _python("-c", "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from collections import Counter",
        "from fractions import Fraction",
        "from staircase_tableaux import cli",
        "from staircase_tableaux.distributions import chi_square_gof",
        "res = chi_square_gof({0: Fraction(1, 2), 1: Fraction(1, 2)}, Counter({0: 9, 1: 11}))",
        "assert res.passes() and 0 < res.p_value < 1, res",
        "sys.exit(cli.main(['verify', '--level', 'quick', '--only', '7']))",
    ]))
    assert proc.returncode == cli.EXIT_OK, proc.stdout + proc.stderr
    assert "1/1 criteria passed" in proc.stdout

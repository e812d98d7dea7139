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

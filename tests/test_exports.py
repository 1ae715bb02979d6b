"""Every exported name resolves, so deleting a function cannot leave a stale export."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import panelctrl

MODULES = [panelctrl] + [
    importlib.import_module(f"panelctrl.{info.name}")
    for info in pkgutil.iter_modules(panelctrl.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_the_cli_does_not_import_the_monte_carlo_harness():
    # panelctrl resolves sim's names on first use, and only `simulate` imports it
    code = "import sys, panelctrl.cli; print('panelctrl.sim' in sys.modules)"
    src = os.path.dirname(os.path.dirname(panelctrl.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    assert panelctrl.run_monte_carlo is importlib.import_module("panelctrl.sim").run_monte_carlo

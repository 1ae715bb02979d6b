"""Every exported name resolves, so deleting a function cannot leave a stale export."""

import importlib
import pkgutil

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

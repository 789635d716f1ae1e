"""Every exported name resolves, so a function deleted from a module but
left in an ``__all__`` list fails here, not only at ``import *``."""

import importlib
import pkgutil

import pytest

import sigma_wave

MODULES = [sigma_wave] + [importlib.import_module(f"sigma_wave.{info.name}")
                          for info in pkgutil.iter_modules(sigma_wave.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [name for name in names if not hasattr(module, name)] == []

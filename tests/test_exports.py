"""Every exported name resolves, so a function deleted from a module but
left in an ``__all__`` list fails here, not only at ``import *``; and every
module-level import is used, so a stale import fails here too; and only
``grid`` and ``cli`` open files."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sigma_wave

from test_bench_sites import load

MODULES = [sigma_wave] + [importlib.import_module(f"sigma_wave.{info.name}")
                          for info in pkgutil.iter_modules(sigma_wave.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [name for name in names if not hasattr(module, name)] == []


def unused_imports(module) -> set:
    """Names bound by the module's top-level imports that its code never
    reads and its ``__all__`` does not export."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - set(getattr(module, "__all__", []))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_import_is_used_exported_or_traced(module):
    # the benchmark traces some names where a module imports them
    # (perfbench/tracer.py SITES); those imports stay even when unread
    traced = {site.partition(":")[2].partition(".")[0]
              for sites in load("tracer").SITES.values() for site in sites
              if site.partition(":")[0] == module.__name__}
    assert unused_imports(module) - traced == set()


def opened_files(module) -> list:
    """Line numbers of the module's calls of ``open`` (the builtin or a method)."""
    tree = ast.parse(Path(module.__file__).read_text())
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "open"
                 or getattr(node.func, "attr", None) == "open")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_only_grid_and_cli_open_files(module):
    # grid owns the two file formats (tables and snapshots), cli the config and
    # the manifest; every other module hands its rows to grid.write_csv
    owner = module.__name__ in ("sigma_wave.grid", "sigma_wave.cli")
    assert bool(opened_files(module)) == owner, opened_files(module)

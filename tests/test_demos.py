"""Every name a demo imports from ``sigma_wave`` exists there, so a rename or
a removal fails here in milliseconds instead of when the demo is run."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def imported_names(path: Path) -> list:
    """``(module, name)`` for every ``from sigma_wave[.sub] import name`` in ``path``."""
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.partition(".")[0] == "sigma_wave" for alias in node.names]


def test_there_are_demos():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_every_name_a_demo_imports_exists(path):
    names = imported_names(path)
    assert names, f"{path.name} imports nothing from sigma_wave"
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []

"""Every name a demo imports from ``sigma_wave`` exists there, and every call a
demo makes to one binds to its signature, so a rename, a removal or a changed
signature fails here in milliseconds instead of when the demo is run."""

import ast
import importlib
import inspect
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


def sigma_wave_calls(path: Path) -> list:
    """``(line, callee text, callee, call node)`` for every call in ``path`` of a
    name imported from ``sigma_wave``, or of an attribute of one (a classmethod)."""
    tree = ast.parse(path.read_text())
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.partition(".")[0] == "sigma_wave"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name, None)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            callee = names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in names):
            callee = getattr(names[func.value.id], func.attr, None)
        else:
            continue
        calls.append((node.lineno, ast.unparse(func), callee, node))
    return calls


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_every_sigma_wave_call_in_a_demo_binds_to_its_signature(path):
    # placeholder values stand in for the arguments: only their number and
    # keywords are checked, against inspect.signature of the callee
    calls = sigma_wave_calls(path)
    assert calls, f"{path.name} calls nothing from sigma_wave"
    bad = []
    for line, text, callee, call in calls:
        if callee is None:
            bad.append(f"line {line}: {text} does not exist")
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            continue  # an unpacked argument list has no count to check
        try:
            inspect.signature(callee).bind(*[None] * len(call.args),
                                           **{k.arg: None for k in call.keywords})
        except TypeError as err:
            bad.append(f"line {line}: {text}: {err}")
    assert bad == []

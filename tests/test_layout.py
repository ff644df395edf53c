"""The package and its scripts reach no private name across a module
boundary: no ``from .x import _name`` and no ``obj._attr`` read on anything
but ``self`` or ``cls``. Tests may reach private names; they are not scanned."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "tailconc").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list:
    """(line, text) of every private import and foreign private attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {a.name}") for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                found.append((node.lineno, f".{node.attr}"))
    return found


def test_scan_finds_private_access():
    source = "from .models import _NEWTON_TOL\nm._moments(1.0)\nself._tail\ncls._x\nx.__class__\n"
    assert private_uses(source) == [(1, "import _NEWTON_TOL"), (2, "._moments")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_cross_module_access(path):
    assert private_uses(path.read_text()) == []

"""Every name a package module imports is used in that module, so a deletion
that leaves an import behind fails here; no linter is assumed.
``__init__.py`` is left out: it imports names to re-export them, and its
``__all__`` must list exactly those names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sum2act"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from dataclasses import dataclass, replace\nimport logging\nreplace(1)\n"
    assert _unused_imports(source) == ["line 1: dataclass", "line 2: logging"]


def _imports_and_all(source: str) -> tuple[list[str], list[str]]:
    """The names a module's top-level ``from`` imports bind, and its ``__all__``."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    listed = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )
    return imported, listed


def test_package_all_lists_exactly_its_imports():
    imported, listed = _imports_and_all((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(imported)


def test_a_name_missing_from_all_is_found():
    source = "from .core import Action, State\n__all__ = [\"Action\"]\n"
    assert _imports_and_all(source) == (["Action", "State"], ["Action"])

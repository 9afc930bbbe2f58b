"""Contracts on the package source itself, checked on its syntax trees."""

import ast
from pathlib import Path

import diffcap

_SOURCES = sorted(Path(diffcap.__file__).parent.glob("*.py"))


def _private_definitions() -> list[tuple[str, str]]:
    """(file:line, name) of every module-level private function or class."""
    found = []
    for path in _SOURCES:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                found.append((f"{path.name}:{node.lineno}", node.name))
    return found


def _package_reads() -> set[str]:
    """Every name the package loads, bare or as an attribute."""
    names = set()
    for path in _SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_private_definition_is_read_in_the_package():
    # a private helper outlives its last caller unnoticed; this names the
    # definition to delete
    definitions, reads = _private_definitions(), _package_reads()
    assert definitions
    assert [(line, name) for line, name in definitions if name not in reads] == []

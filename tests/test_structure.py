"""Structural rules of the package, read from its source."""

from __future__ import annotations

import ast

from conftest import ROOT

SRC = ROOT / "src" / "chclab"


def _private_imports(path) -> list[str]:
    """``module.name`` for every underscore-prefixed name the module at
    ``path`` imports from a chclab module, at any depth of its code."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "chclab":
            continue
        found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    # A decision two modules share belongs behind a public name of one of
    # them, not in a private helper the other reaches into.
    modules = sorted(SRC.glob("*.py"))
    assert {p.stem for p in modules} >= {"linlogic", "domain", "solver"}
    offending = {p.name: names for p in modules if (names := _private_imports(p))}
    assert offending == {}

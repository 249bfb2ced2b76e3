"""Structural rules of the package, read from its source."""

from __future__ import annotations

import ast
import tomllib

from conftest import ROOT
from test_bench_entry_points import BENCH, _chclab_names, _import_from_bench

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


def _uses(nodes) -> set[str]:
    """The names ``nodes`` read, as variables or as attributes; an
    import binds a name but does not use it."""
    out: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_main_block(node) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def unreachable_definitions(package, roots) -> list[str]:
    """The top-level functions and classes and the methods of the
    modules in the directory ``package`` that no root reaches by name,
    as ``module.name`` or ``module.Class.method``.

    A definition is reached when a root or a reached definition uses its
    name.  The roots are the names in ``roots``, the names in each
    module's ``__all__`` and the module-level code, except imports and
    ``if __name__ == "__main__"`` blocks.  A class uses its bases, its
    decorators, its class-level statements and its dunder methods, but
    not its other methods: each of those is reached only through its own
    name.  A module-level dunder function is a root.  Names are matched
    alone, so a definition is reached through any use of its name, even
    one that means another definition of that name.
    """
    defs: dict[str, list[tuple[str, list]]] = {}
    live = set(roots)
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name):
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", [node]))
            elif isinstance(node, ast.ClassDef):
                code = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        qualified = f"{module}.{node.name}.{item.name}"
                        defs.setdefault(item.name, []).append((qualified, [item]))
                    else:
                        code.append(item)
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", code))
            elif not _is_main_block(node):
                live |= _uses([node])
                if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__":
                    live |= {item.value for item in node.value.elts}
    reached: set[str] = set()
    pending = [name for name in live if name in defs]
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, code in defs[name]:
            pending += [used for used in _uses(code) if used in defs and used not in reached]
    return sorted(q for name, found in defs.items() if name not in reached for q, _ in found)


def _bench_roots(monkeypatch) -> set[str]:
    """The names ``bench/`` reaches chclab through: each part of the
    tracer's targets and of ``measure.py``'s ``chclab`` chains."""
    tracer = _import_from_bench(monkeypatch, "tracer")
    dotted = {f"{module}.{attr}" for module, attr in tracer.TARGETS}
    dotted |= _chclab_names((BENCH / "measure.py").read_text(encoding="utf-8"))
    return {part for name in dotted for part in name.split(".")}


def test_every_definition_is_reached_from_a_command_or_the_benchmark(monkeypatch):
    # Nothing is kept in the package unless a subcommand, the public API
    # or the benchmark calls it; code only the tests need lives in tests/.
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    entry_points = {target.split(":")[1] for target in scripts["project"]["scripts"].values()}
    dead = unreachable_definitions(SRC, entry_points | _bench_roots(monkeypatch))
    assert not dead, "reached by no command and no benchmark: " + ", ".join(dead)


def test_unreachable_definitions_reports_dead_code(tmp_path):
    (tmp_path / "__init__.py").write_text('from .core import api\n\n__all__ = ["api"]\n')
    (tmp_path / "core.py").write_text(
        "def api():\n    return Live().used()\n\n\n"
        "def dead():\n    return 0\n\n\n"
        "class Live:\n"
        "    def used(self):\n        return 1\n\n"
        "    def unused(self):\n        return 2\n\n"
        "    def __repr__(self):\n        return shown()\n\n\n"
        "def shown():\n    return ''\n\n\n"
        "def benched():\n    return 3\n\n\n"
        "def main_only():\n    return 4\n\n\n"
        "if __name__ == '__main__':\n    main_only()\n"
    )
    assert unreachable_definitions(tmp_path, {"benched"}) == [
        "core.Live.unused",
        "core.dead",
        "core.main_only",
    ]

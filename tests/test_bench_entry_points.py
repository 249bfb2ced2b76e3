"""The benchmark's entry points into chclab.

``bench/`` calls chclab by name: ``workloads.MODES`` through the ``solve``
command line, ``measure.py`` through module attributes and ``tracer.py``
through its ``TARGETS``.  A rename or a deletion in chclab must fail here,
not in a benchmark run or a traced run.  The bench scripts are read and
imported, never changed.
"""

from __future__ import annotations

import ast
import importlib
import sys

import chclab
import chclab.cli
from bench_import import bench_modules
from conftest import ROOT

BENCH = ROOT / "bench"


def _import_from_bench(monkeypatch, name: str):
    """Import ``bench/<name>.py`` without writing bytecode under bench/;
    the bench modules it imports leave ``sys.modules`` with it."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    try:
        return importlib.import_module(name)
    finally:
        for key in set(sys.modules) - before:
            if (getattr(sys.modules[key], "__file__", None) or "").startswith(str(BENCH)):
                del sys.modules[key]


def _chclab_names(source: str) -> set[str]:
    """The dotted chclab names a script uses: attribute chains on
    ``chclab`` and on local names bound to such a chain."""
    tree = ast.parse(source)
    roots = {"chclab": "chclab"}

    def dotted(node) -> str | None:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            return ".".join([roots[node.id], *reversed(parts)])
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
            name = dotted(node.value)
            if name is not None:
                roots[node.targets[0].id] = name
    return {name for node in ast.walk(tree) if (name := dotted(node)) is not None}


def _resolve(dotted: str):
    obj = importlib.import_module("chclab")
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part, None)
        if obj is None:
            break
    return obj


def test_workload_modes_parse(monkeypatch):
    # ``measure.cli_report`` runs ``solve PATH --mode MODE --json -``.
    workloads = _import_from_bench(monkeypatch, "workloads")
    parser = chclab.cli.build_parser()
    for mode in workloads.MODES:
        assert parser.parse_args(["solve", "x.chc", "--mode", mode, "--json", "-"]).mode == mode


def test_cli_modes_are_the_workload_modes():
    # One list on each side: a mode added to chclab and not to the
    # benchmark, or the other way round, fails here.
    (workloads,) = bench_modules("workloads")
    assert chclab.cli.MODES == workloads.MODES


def test_measure_names_resolve(monkeypatch):
    names = _chclab_names((BENCH / "measure.py").read_text(encoding="utf-8"))
    assert {"chclab.cli.main", "chclab.qa.qa_iterated", "chclab.solver.alternate"} <= names
    assert not [name for name in sorted(names) if _resolve(name) is None]
    # Each mode through measure's own solve step, which also reads the
    # results' attributes.
    measure = _import_from_bench(monkeypatch, "measure")
    workloads = _import_from_bench(monkeypatch, "workloads")
    instances = workloads.build("corpus", 0, ROOT)
    for mode in workloads.MODES:
        (inst,) = [i for i in instances if i.name == f"{mode}:addition_loops"]
        assert measure.certified_verdict(chclab, inst) in ("SAFE", "UNKNOWN"), mode


def test_tracer_targets_resolve(monkeypatch):
    # ``bench/run.py --trace 1`` wraps each of these names; a rename or a
    # deletion in chclab must fail here rather than in a traced run.
    tracer = _import_from_bench(monkeypatch, "tracer")
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in tracer.TARGETS
        if _resolve(f"chclab.{module_name}.{attr}") is None
    ]
    assert tracer.TARGETS and not missing

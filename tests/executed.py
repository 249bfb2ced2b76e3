"""Every function of ``src/chclab`` runs: an execution gate.

``tests/test_structure.py`` matches names, so it cannot see a definition
that no run ever reaches.  This script runs the package's command set in
process under ``sys.setprofile`` and records every function that starts:

* on each file under ``corpus/``: ``solve`` in the four modes with
  ``--json`` and ``--model-out``, ``check`` of each model written,
  ``solve --start bwd`` and ``--start coarse``, and ``qa``;
* on each of those files that declares a universe: ``oracle --semantics
  fwd|bwd|combined --check-closure`` and ``trees --depth 4
  --check-props``;
* one seed-7 pass of each benchmark workload through
  ``bench/measure.py``'s ``certified_verdict`` (``bench/`` is imported,
  never changed).

It fails when a function of ``src/chclab`` never ran and has no entry in
the allowlist, and when an entry's function ran or no longer exists (a
stale entry).  An entry keeps a function the command set does not reach,
and says what reaches it instead: an entry of :data:`BY_BENCH` names a
``bench/tracer.py`` target that is the function or calls it, and one of
:data:`BY_TEST` names a tier-1 test, which the gate runs under the same
hook to see that it reaches the function.

    PYTHONPATH=src python tests/executed.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from bench_import import bench_modules

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chclab"
TESTS = ROOT / "tests"

# Functions the command set does not run that a bench/tracer.py target
# is or calls: the formula route, which the tracer wraps by name.
BY_BENCH = {
    "domain.formula_box": "domain.formula_box",
    "domain.clause_post": "domain.clause_post",
    "domain.clause_pre_restricted": "domain.clause_pre_restricted",
    "linlogic.cube_is_sat": "linlogic.cube_is_sat",
    "linlogic.project_to_box": "linlogic.project_to_box",
    "linlogic.RowSet.of": "linlogic.cube_is_sat",
    "linlogic.ConjCube.vars": "linlogic.cube_is_sat",
    "syntax.LinConstraint.vars": "linlogic.cube_is_sat",
}
# Functions only input that no corpus file holds reaches, each with the
# tier-1 test that gives it: a syntax error, a term built outside the
# parser, a failed model check, a printed formula or clause.  A
# NamedTuple compares as the tuple of its fields; the formula nodes
# compare their class too, so And((a,)) != Or((a,)).
BY_TEST = {
    "parser.ParseError.__init__": "test_parser.py::test_error_carries_position",
    "parser.error_at": "test_parser.py::test_error_carries_position",
    "parser._Parser.fail": "test_parser.py::test_error_carries_position",
    "syntax.LinTerm.make": "test_parser.py::test_term_negation_and_renaming_match_the_general_route",
    "syntax.Clause.__str__": "test_domain.py::test_box_bounds_met_as_intervals_match_the_row_route",
    "linlogic.ConjCube.__str__": "test_solver.py::test_check_model_flags_violation",
    "solver.ModelCheckResult.__bool__": "test_solver.py::test_check_model_flags_violation",
    "syntax.Or.__str__": "test_parser.py::test_model_round_trip",
    "syntax.And.__str__": "test_parser.py::test_model_round_trip",
    "syntax._node_eq": "test_parser.py::test_formula_nodes_compare_their_class",
    "syntax._connective_eq": "test_parser.py::test_formula_nodes_compare_their_class",
    "syntax._node_ne": "test_parser.py::test_formula_nodes_compare_their_class",
    "syntax._node_bool": "test_parser.py::test_formula_nodes_compare_their_class",
    "syntax._connective_repr": "test_linlogic.py::test_deep_formula_walkers_do_not_recurse",
}


def definitions() -> dict[tuple[str, int], str]:
    """Every function and method of the package, keyed by its file and
    the first line of its code object (its first decorator, if any), as
    ``module.name``, ``module.Class.name`` or ``module.outer.name``."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(node, path.stem) for node in ast.parse(path.read_text(encoding="utf-8")).body]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{node.name}"
                if isinstance(node, ast.FunctionDef):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[(str(path), first)] = name
                stack += [(child, name) for child in node.body]
            else:
                stack += [(child, prefix) for child in ast.iter_child_nodes(node)]
    return found


@contextlib.contextmanager
def recording():
    """Yield the set of code objects of every Python function that
    starts while the block runs."""
    codes: set = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        yield codes
    finally:
        sys.setprofile(None)


def run_commands() -> None:
    """The command set, in process, its output discarded."""
    from chclab import cli

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([str(a) for a in argv])

    with tempfile.TemporaryDirectory() as tmp:
        model, report = Path(tmp) / "model", Path(tmp) / "report.json"
        for path in sorted((ROOT / "corpus").glob("**/*.chc")):
            for mode in cli.MODES:
                run("solve", path, "--mode", mode, "--json", report, "--model-out", model)
                run("check", path, model)
            for start in ("bwd", "coarse"):
                run("solve", path, "--start", start)
            run("qa", path)
            if any(line.startswith("universe") for line in path.read_text(encoding="utf-8").splitlines()):
                for semantics in ("fwd", "bwd", "combined"):
                    run("oracle", path, "--semantics", semantics, "--check-closure")
                run("trees", path, "--depth", 4, "--check-props")


def run_workloads(measure, workloads) -> None:
    """One seed-7 pass of each benchmark workload."""
    import chclab

    for name in sorted(workloads.WORKLOADS):
        for inst in workloads.build(name, 7, ROOT):
            measure.certified_verdict(chclab, inst)


def run_tests(ids) -> dict[str, set]:
    """Run the tier-1 tests ``ids`` in process, each under the hook of
    :func:`recording`; the code objects each started, by id.  Raise if
    one fails or does not exist."""
    import pytest

    started: dict[str, set] = {}

    class PerTest:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            with recording() as codes:
                yield
            started.setdefault(f"{item.path.name}::{item.originalname}", set()).update(codes)

    argv = ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = pytest.main(argv + [str(TESTS / i) for i in sorted(ids)], plugins=[PerTest()])
    if code != 0:
        raise SystemExit(f"the tests of BY_TEST failed (pytest exit {code}):\n{out.getvalue()}")
    return started


def problems() -> list[str]:
    """What the gate reports: every function that never ran without an
    entry, and every entry that is stale or whose reason does not hold."""
    defs = definitions()
    measure, workloads, tracer = bench_modules("measure", "workloads", "tracer")
    with recording() as codes:
        run_commands()
        run_workloads(measure, workloads)
    ran = {defs.get((c.co_filename, c.co_firstlineno)) for c in codes}
    allowed = BY_BENCH.keys() | BY_TEST.keys()
    out = [f"never runs and has no entry: {name}" for name in sorted(set(defs.values()) - ran - allowed)]
    out += [f"stale entry, it runs now: {name}" for name in sorted(allowed & ran)]
    out += [f"stale entry, no such function: {name}" for name in sorted(allowed - set(defs.values()))]
    targets = {f"{module}.{attr}" for module, attr in tracer.TARGETS}
    out += [f"{name}: {t} is not a bench/tracer.py target" for name, t in sorted(BY_BENCH.items()) if t not in targets]
    started = run_tests(set(BY_TEST.values()))
    reached = {t: {defs.get((c.co_filename, c.co_firstlineno)) for c in codes} for t, codes in started.items()}
    out += [f"{name}: {t} does not reach it" for name, t in sorted(BY_TEST.items()) if name not in reached[t]]
    return out


if __name__ == "__main__":
    found = problems()
    entries = len(BY_BENCH) + len(BY_TEST)
    print("\n".join(found) or f"every function of src/chclab runs or has an entry ({entries} entries)")
    sys.exit(1 if found else 0)

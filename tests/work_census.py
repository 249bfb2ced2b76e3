"""A census of the exact core's work on the corpus, as exact counts.

Each run is one ``chclab solve FILE --mode MODE --max-rounds BUDGET``, in
process: it parses, solves, builds the model, checks it and checks its
goal disjointness.  The runs cover every file under ``corpus/`` (the 25
corpus files and the two stress files), the four modes and the budgets
5 and 8, and are keyed ``path|mode|budget``.  For each run the census
records its exit code (a run cut short by a resource cap does less
work, not more), the sha256 ``digest`` of its stdout and stderr (the
``--json`` report without ``stats.wall_ms`` and ``file``, which holds
the absolute path of the run's input), and counts.

After them come the benchmark's own runs: one seed-7 pass of the
``chain``, ``rounds`` and ``wide`` workloads, each instance through
``bench/measure.py``'s ``certified_verdict`` (``bench/`` is imported
without writing bytecode there, never changed), keyed
``workload|instance``.  Each records the outcome that function returns,
or the class name of the exception it raises, and the same counts.  The
``corpus`` workload runs the corpus files, which the census already
runs.

The counts come from wrapping the names the callers bind:

* ``fm_eliminate.calls`` and ``fm_eliminate.rows``: the elimination
  steps and the rows they return;
* ``fm_eliminate.pairs``: the lower/upper pairs the steps combine, the
  pairs that history pruning keeps, counted as the two-argument calls of
  the ``gcd`` that :mod:`chclab.linlogic` binds: only a step's
  ``gcd(al, au)`` of a pair's two coefficients takes exactly two;
* ``_eliminate.calls``: the elimination runs;
* ``lower.calls``: the constraints lowered to integer rows, by
  :func:`linlogic.lower` or the name :mod:`chclab.domain` binds;
* ``conjoin.calls``, ``normalize.calls`` and ``normalize.rows``: the
  batches conjoined, counted as the calls of the :class:`Conjunction`
  constructor plus, for the bounds of a transformer's input boxes, those
  of :meth:`Conjunction.project_bounds`, and the calls of
  :meth:`Conjunction._normalize` and the lowered rows it receives;
* ``_map.calls`` and ``images.builds``: the intervals mapped through an
  image, and the calls of :meth:`Conjunction._images` that compute the
  images rather than reuse them;
* ``meet.calls``: the calls of :meth:`linlogic.Interval.meet`, wrapped
  on the class, so every caller counts;
* ``box.builds`` and ``interval.builds``: the :class:`domain.Box` and
  :class:`linlogic.Interval` tuples built, counted as the calls of each
  class's ``__new__``, wrapped on the class;
* ``negate.calls``: the formulas the model check negates;
* ``project_rows.calls``, ``_apply.calls`` and ``sat_cube.calls``: the
  projections, the clause transformer calls and the satisfiability
  searches.

Wall time needs many paired runs to show a change of a few per cent;
these counts, digests and outcomes are the same on every machine and
every hash seed.  To re-record ``tests/golden/work.json`` after a change
that lowers a count:

    PYTHONPATH=src python tests/work_census.py

Before it overwrites the golden copy, the script prints what moved
(:func:`moves`): each counter whose total changed, over the corpus runs,
the benchmark runs and each workload, and then every run whose exit
code, digest or outcome changed and every run in which a count rose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from bench_import import bench_modules
from chclab import cli, domain, linlogic, solver

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "work.json"
MODES = ("fwd", "alt", "qa2", "qa-iter")
BUDGETS = (5, 8)
WORKLOADS = ("chain", "rounds", "wide")
# The fields of a run that no change may move.
PINNED = ("exit", "digest", "outcome")


COUNTERS = (
    "fm_eliminate.calls",
    "fm_eliminate.rows",
    "fm_eliminate.pairs",
    "_eliminate.calls",
    "lower.calls",
    "conjoin.calls",
    "normalize.calls",
    "normalize.rows",
    "_map.calls",
    "images.builds",
    "meet.calls",
    "box.builds",
    "interval.builds",
    "negate.calls",
    "project_rows.calls",
    "_apply.calls",
    "sat_cube.calls",
)


def _calls(counts: dict, key: str, fn):
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapped


def _steps(counts: dict, fn):
    def wrapped(rows, var):
        counts["fm_eliminate.calls"] += 1
        out = fn(rows, var)
        counts["fm_eliminate.rows"] += len(out.cons)
        return out

    return wrapped


def _pairs(counts: dict, fn):
    def wrapped(*args):
        counts["fm_eliminate.pairs"] += len(args) == 2
        return fn(*args)

    return wrapped


def _normalized(counts: dict, fn):
    def wrapped(self, rows):
        rows = tuple(rows)
        counts["normalize.calls"] += 1
        counts["normalize.rows"] += len(rows)
        return fn(self, rows)

    return wrapped


def _built(counts: dict, fn):
    def wrapped(self):
        counts["images.builds"] += self.images is None
        return fn(self)

    return wrapped


@contextlib.contextmanager
def counting():
    """Count the exact core's work into the yielded dict while the block
    runs; every wrapped name is restored afterwards."""
    counts = dict.fromkeys(COUNTERS, 0)
    Conjunction, CompiledClause = linlogic.Conjunction, domain.CompiledClause
    Box, Interval = domain.Box, linlogic.Interval
    # ``solver`` binds ``sat_cube`` by name: every name a caller binds
    # gets the one wrapper.
    sat_cube = _calls(counts, "sat_cube.calls", linlogic.sat_cube)
    lower = _calls(counts, "lower.calls", linlogic.lower)
    patches = [
        (linlogic, "fm_eliminate", _steps(counts, linlogic.fm_eliminate)),
        (linlogic, "gcd", _pairs(counts, linlogic.gcd)),
        (linlogic, "_eliminate", _calls(counts, "_eliminate.calls", linlogic._eliminate)),
        (linlogic, "lower", lower),
        (domain, "lower", lower),
        (Conjunction, "__init__", _calls(counts, "conjoin.calls", Conjunction.__init__)),
        (Conjunction, "project_bounds", _calls(counts, "conjoin.calls", Conjunction.project_bounds)),
        (Conjunction, "_normalize", _normalized(counts, Conjunction._normalize)),
        (Conjunction, "_images", _built(counts, Conjunction._images)),
        (linlogic, "_map", _calls(counts, "_map.calls", linlogic._map)),
        (Interval, "meet", _calls(counts, "meet.calls", Interval.meet)),
        (Box, "__new__", staticmethod(_calls(counts, "box.builds", Box.__new__))),
        (Interval, "__new__", staticmethod(_calls(counts, "interval.builds", Interval.__new__))),
        (solver, "negate_formula", _calls(counts, "negate.calls", solver.negate_formula)),
        (CompiledClause, "_apply", _calls(counts, "_apply.calls", CompiledClause._apply)),
        (linlogic, "project_rows", _calls(counts, "project_rows.calls", linlogic.project_rows)),
        (linlogic, "sat_cube", sat_cube),
        (solver, "sat_cube", sat_cube),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield counts
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def digest(stdout: str, stderr: str) -> str:
    """The sha256 of a run's stdout and stderr, with the report's
    ``stats.wall_ms`` and ``file`` dropped."""
    if stdout:
        report = json.loads(stdout)
        del report["file"], report["stats"]["wall_ms"]
        stdout = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{stdout}\0{stderr}".encode()).hexdigest()


def census() -> dict[str, dict]:
    """The exit code, digest and counts of every run, keyed
    ``path|mode|budget``."""
    paths = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "corpus").glob("**/*.chc"))
    out = {}
    for path in paths:
        for mode in MODES:
            for budget in BUDGETS:
                argv = ["solve", str(ROOT / path), "--mode", mode]
                argv += ["--max-rounds", str(budget), "--json", "-"]
                stdout, stderr = io.StringIO(), io.StringIO()
                with counting() as counts, contextlib.redirect_stdout(stdout):
                    with contextlib.redirect_stderr(stderr):
                        code = cli.main(argv)
                key = f"{path}|{mode}|{budget}"
                out[key] = {"exit": code, "digest": digest(stdout.getvalue(), stderr.getvalue())}
                out[key].update(counts)
    return out | bench_runs()


def bench_runs() -> dict[str, dict]:
    """The outcome and counts of each instance of one seed-7 pass of
    the synthetic benchmark workloads, keyed ``workload|instance``."""
    import chclab

    measure, workloads = bench_modules("measure", "workloads")
    out = {}
    for name in WORKLOADS:
        for inst in workloads.build(name, 7, ROOT):
            with counting() as counts:
                try:
                    outcome = measure.certified_verdict(chclab, inst)
                except Exception as exc:
                    outcome = type(exc).__name__
            out[f"{name}|{inst.name}"] = {"outcome": outcome, **counts}
    return out


def totals(runs: dict[str, dict], counter: str) -> dict[str, int]:
    """``counter`` summed over the corpus runs, keyed
    ``path|mode|budget``, over the benchmark runs, keyed
    ``workload|instance``, and over each workload."""
    out = dict.fromkeys(("corpus", "bench", *WORKLOADS), 0)
    for key, counts in runs.items():
        value = counts.get(counter, 0)
        if key.count("|") == 2:
            out["corpus"] += value
        else:
            out["bench"] += value
            out[key.split("|")[0]] += value
    return out


def moves(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """What the census ``new`` moved from ``old``, one line each: every
    counter whose totals (:func:`totals`) changed, with the old and new
    ones, then every run whose exit code, digest or outcome changed and
    every run in which a count rose."""
    lines = []
    for counter in COUNTERS:
        before, after = totals(old, counter), totals(new, counter)
        if before != after:
            lines.append(f"{counter}: " + ", ".join(f"{g} {before[g]:,} -> {after[g]:,}" for g in before))
    for key, run in new.items():
        was = old.get(key, {})
        lines += [
            f"changed {key} {field}: {was.get(field)} -> {run[field]}"
            for field in PINNED
            if field in run and run[field] != was.get(field)
        ]
        lines += [
            f"rose {key} {counter}: {was.get(counter, 0)} -> {run[counter]}"
            for counter in COUNTERS
            if run[counter] > was.get(counter, 0)
        ]
    return lines


if __name__ == "__main__":
    got = census()
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    print("\n".join(moves(old, got)) or "no count, exit code, digest or outcome moved")
    GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")

"""A census of the exact core's work on the corpus, as exact counts.

Each run is one ``chclab solve FILE --mode MODE --max-rounds BUDGET``, in
process: it parses, solves, builds the model, checks it and checks its
goal disjointness.  The runs cover every file under ``corpus/`` (the 25
corpus files and the two stress files), the four modes and the budgets
5 and 8, and are keyed ``path|mode|budget``.  For each run the census
records its exit code (a run cut short by a resource cap does less
work, not more), the sha256 ``digest`` of its stdout and stderr (the
``--json`` report without ``stats.wall_ms`` and ``file``, which holds
the absolute path of the run's input), and counts, by wrapping the
names the callers bind:

* ``fm_eliminate.calls`` and ``fm_eliminate.rows``: the elimination
  steps and the rows they return;
* ``_eliminate.calls``: the elimination runs;
* ``conjoin.calls``, ``normalize.calls`` and ``normalize.rows``: the
  batches conjoined, by :meth:`Conjunction.conjoin` or, for the bounds
  of a transformer's input boxes, :meth:`Conjunction.conjoin_bounds`,
  and the calls of :meth:`Conjunction._normalize` and the lowered rows
  it receives;
* ``_map.calls`` and ``images.builds``: the intervals mapped through an
  image, and the calls of :meth:`Conjunction._images` that compute the
  images rather than reuse them;
* ``negate.calls``: the formulas the model check negates;
* ``project_rows.calls``, ``_apply.calls`` and ``sat_cube.calls``: the
  projections, the clause transformer calls and the satisfiability
  searches.

Wall time needs many paired runs to show a change of a few per cent;
these counts and digests are the same on every machine and every hash
seed.  To
re-record ``tests/golden/work.json`` after a change that lowers a count:

    PYTHONPATH=src python tests/work_census.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from chclab import cli, domain, linlogic, solver

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "work.json"
MODES = ("fwd", "alt", "qa2", "qa-iter")
BUDGETS = (5, 8)


COUNTERS = (
    "fm_eliminate.calls",
    "fm_eliminate.rows",
    "_eliminate.calls",
    "conjoin.calls",
    "normalize.calls",
    "normalize.rows",
    "_map.calls",
    "images.builds",
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
    # ``solver`` binds ``sat_cube`` by name: every name a caller binds
    # gets the one wrapper.
    sat_cube = _calls(counts, "sat_cube.calls", linlogic.sat_cube)
    patches = [
        (linlogic, "fm_eliminate", _steps(counts, linlogic.fm_eliminate)),
        (linlogic, "_eliminate", _calls(counts, "_eliminate.calls", linlogic._eliminate)),
        (Conjunction, "conjoin", _calls(counts, "conjoin.calls", Conjunction.conjoin)),
        (Conjunction, "conjoin_bounds", _calls(counts, "conjoin.calls", Conjunction.conjoin_bounds)),
        (Conjunction, "_normalize", _normalized(counts, Conjunction._normalize)),
        (Conjunction, "_images", _built(counts, Conjunction._images)),
        (linlogic, "_map", _calls(counts, "_map.calls", linlogic._map)),
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
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(census(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")

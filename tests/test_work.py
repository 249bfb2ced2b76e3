"""The exact core's work on the corpus stays at or below its census.

``tests/golden/work.json`` holds, for each ``path|mode|budget`` run of
``chclab solve`` over the corpus and stress files and for each
``workload|instance`` of one seed-7 pass of the ``chain``, ``rounds``
and ``wide`` benchmark workloads, exact counts of the elimination steps,
their rows and the pairs they combine, the elimination runs, the
lowered constraints, the conjoined batches, the normalizations and the
rows they receive, the interval maps and image builds, the interval
meets, the boxes and intervals built, the model check's negations, the
projections, the clause transformer calls and the satisfiability
searches (see ``tests/work_census.py``).  It also
holds the exit code and the digest of the output of each corpus run,
and the outcome of each benchmark instance, which must not change.  A change that lowers a count
re-records the file with

    PYTHONPATH=src python tests/work_census.py

and a change that raises one says why.  A second test pins what the
seed-7 ``chain`` pass skips: no ``project_rows`` call and no compiled
clause call with an empty input box.
"""

from __future__ import annotations

import json

import chclab
from bench_import import bench_modules
from chclab import domain, linlogic
from work_census import COUNTERS, GOLDEN, PINNED, ROOT, census


def test_work_does_not_rise_above_the_census():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = census()
    assert len(got) == 27 * 4 * 2 + 5 + 8 + 15
    assert got.keys() == pinned.keys()
    moved = [
        f"{key} {field}: {got[key].get(field)} != {pinned[key].get(field)}"
        for key in got
        for field in PINNED
        if got[key].get(field) != pinned[key].get(field)
    ]
    moved += [
        f"{key} {counter}: {got[key][counter]} > {pinned[key][counter]}"
        for key in got
        for counter in COUNTERS
        if got[key][counter] > pinned[key][counter]
    ]
    assert not moved, "\n".join(moved)


def test_chain_pass_projects_no_rows_and_applies_no_empty_input(monkeypatch):
    # A guard on work on the seed-7 ``chain`` pass.  Its clause and goal
    # constraints are single cubes that leave no row over two or more
    # variables once their equalities are pivots, so every transformer
    # call reads its targets off the met bounds: no ``project_rows``
    # call, 380 before.  And the clause table returns the empty box for
    # an empty input box itself: no compiled clause gets one, 300 calls
    # did before.
    measure, workloads = bench_modules("measure", "workloads")
    projected = applied = 0
    empty = []
    project_rows = linlogic.project_rows
    apply = domain.CompiledClause._apply

    def counted(rows, variables):
        nonlocal projected
        projected += 1
        return project_rows(rows, variables)

    def checked(self, target, apps, boxes):
        nonlocal applied
        applied += 1
        if any(box.is_empty for box in boxes):
            empty.append((str(self.clause), target))
        return apply(self, target, apps, boxes)

    monkeypatch.setattr(linlogic, "project_rows", counted)
    monkeypatch.setattr(domain.CompiledClause, "_apply", checked)
    outcomes = [measure.certified_verdict(chclab, inst) for inst in workloads.build("chain", 7, ROOT)]
    assert outcomes == ["SAFE"] * 5
    assert applied == 385
    assert (projected, len(empty)) == (0, 0), empty

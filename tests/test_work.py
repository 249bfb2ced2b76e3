"""The exact core's work on the corpus stays at or below its census.

``tests/golden/work.json`` holds, for each ``path|mode|budget`` run of
``chclab solve`` over the corpus and stress files, exact counts of the
elimination steps and rows, the elimination runs, the conjoined batches,
the normalizations and the rows they receive, the interval maps and
image builds, the model check's negations, the projections, the clause
transformer calls and the satisfiability searches (see
``tests/work_census.py``), and the
exit code and the digest of the output of each run, which must not
change.  A change that lowers a count re-records the file with

    PYTHONPATH=src python tests/work_census.py

and a change that raises one says why.
"""

from __future__ import annotations

import json

from work_census import COUNTERS, GOLDEN, census


def test_work_does_not_rise_above_the_census():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = census()
    assert len(got) == 27 * 4 * 2
    assert got.keys() == pinned.keys()
    moved = [
        f"{key} {field}: {got[key][field]} != {pinned[key][field]}"
        for key in got
        for field in ("exit", "digest")
        if got[key][field] != pinned[key][field]
    ]
    moved += [
        f"{key} {counter}: {got[key][counter]} > {pinned[key][counter]}"
        for key in got
        for counter in COUNTERS
        if got[key][counter] > pinned[key][counter]
    ]
    assert not moved, "\n".join(moved)

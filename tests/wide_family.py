"""The outcomes of the ``wide_text`` probe family, against a golden copy.

Each run solves ``bench/workloads.wide_text(k, s, 0)``: one clause whose
constraint is 2k random three-variable rows over k variables, and a goal
``A >= B`` on its 3-ary head.  It runs ``alternate`` at round budget 5,
then ``check_model`` on the model and, for a SAFE verdict,
``goal_disjoint``.  Its outcome is ``SAFE``, ``UNKNOWN`` or ``exit 3``,
the exit code ``chclab solve`` gives a :class:`ResourceLimitError`;
a model or goal check that fails makes it ``cert``.

``tests/golden/wide-family.json`` holds two sections: ``tier1``, the
seeds 0-4 at k = 14, 16 and 20 that tier-1 runs, and ``family``, the
whole probe family (k = 12-15 with seeds 0-29, and k = 16, 18, 20, 24
and 32 with seeds 0-9).  An outcome may differ from its golden entry
only where the golden entry is ``exit 3`` and the run now ends in a
certified verdict: a changed verdict, or an ``exit 3`` where the golden
copy has a verdict, is a regression.  ``bench/`` is imported without
writing bytecode there, never changed.

    PYTHONPATH=src python tests/wide_family.py            # check the family
    PYTHONPATH=src python tests/wide_family.py --record   # check, then re-record both sections

The check prints the number of runs that end in exit 3, the slowest run
and each outcome that moved from its golden entry, and exits 1 on a
regression.  Any other argument list exits 2 with a usage line, before
any run.  ``--record`` writes the golden file only when the check
against the copy it replaces finds no regression, so an outcome can only
be recorded as it improves.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from bench_import import bench_modules
from chclab import ResourceLimitError, parse_system
from chclab.solver import AnalysisConfig, alternate, check_model, goal_disjoint

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "wide-family.json"
BUDGET = 5
EXIT_3 = "exit 3"

SECTIONS = {
    "tier1": [(k, s) for k in (14, 16, 20) for s in range(5)],
    "family": [(k, s) for k in (12, 13, 14, 15) for s in range(30)]
    + [(k, s) for k in (16, 18, 20, 24, 32) for s in range(10)],
}


def wide_text(k: int, s: int) -> str:
    """``bench/workloads.wide_text(k, s, 0)``, with ``bench/`` imported
    read-only."""
    (workloads,) = bench_modules("workloads")
    return workloads.wide_text(k, s, 0)


def outcome(k: int, s: int) -> str:
    """The outcome of one run of the family (see the module docstring)."""
    system = parse_system(wide_text(k, s))
    try:
        _, verdict = alternate(system, AnalysisConfig(max_rounds=BUDGET))
        model = verdict.witness.as_dict()
        certified = check_model(system, model).ok
        certified = certified and (not verdict.safe or goal_disjoint(system, model))
    except ResourceLimitError:
        return EXIT_3
    return verdict.status if certified else "cert"


def regressions(golden: dict[str, str], got: dict[str, str]) -> list[str]:
    """The runs whose outcome breaks the rule: each outcome equals its
    golden entry, or that entry is ``exit 3`` and the run certified a
    verdict."""
    return [
        f"{key}: {got[key]}, golden {golden[key]}"
        for key in golden
        if got[key] != golden[key] and (golden[key] != EXIT_3 or got[key] not in ("SAFE", "UNKNOWN"))
    ]


def run(section: str) -> tuple[dict[str, str], dict[str, float]]:
    """The outcome and the seconds of each run of ``section``, keyed
    ``k<k>-s<s>``."""
    got, seconds = {}, {}
    for k, s in SECTIONS[section]:
        key = f"k{k}-s{s}"
        start = time.perf_counter()
        got[key] = outcome(k, s)
        seconds[key] = time.perf_counter() - start
    return got, seconds


def main(argv: list[str]) -> int:
    if argv not in ([], ["--record"]):
        print("usage: python tests/wide_family.py [--record]", file=sys.stderr)
        return 2
    got, seconds = run("family")
    slowest = max(seconds, key=seconds.get)
    exits = sum(result == EXIT_3 for result in got.values())
    print(f"{len(got)} runs, {exits} end in exit 3; slowest {slowest} ({got[slowest]}) {seconds[slowest]:.2f} s")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["family"]
    moved = [f"{key}: {golden[key]} -> {got[key]}" for key in golden if got[key] != golden[key]]
    for line in moved:
        print(f"changed {line}")
    bad = regressions(golden, got)
    for line in bad:
        print(f"regression {line}")
    if bad:
        return 1
    if argv == ["--record"]:
        sections = {name: {f"k{k}-s{s}": got[f"k{k}-s{s}"] for k, s in runs} for name, runs in SECTIONS.items()}
        GOLDEN.write_text(json.dumps(sections, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

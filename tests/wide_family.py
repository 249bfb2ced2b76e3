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

The check prints the number of runs that end in exit 3 and the slowest
run, then for each phase that can raise exit 3 (``alternate``,
``check_model`` and ``goal_disjoint``) how many runs it ended and their
keys, then each outcome that moved from its golden entry, and exits 1 on a
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


PHASES = ("alternate", "check_model", "goal_disjoint")


def outcome(k: int, s: int) -> str:
    """The outcome of one run of the family (see the module docstring)."""
    return phased(k, s)[0]


def phased(k: int, s: int) -> tuple[str, str | None]:
    """The outcome of one run of the family and, for ``exit 3``, the one
    of ``PHASES`` that raised it (``None`` otherwise)."""
    system = parse_system(wide_text(k, s))
    phase = "alternate"
    try:
        _, verdict = alternate(system, AnalysisConfig(max_rounds=BUDGET))
        model = verdict.witness.as_dict()
        phase = "check_model"
        certified = check_model(system, model).ok
        phase = "goal_disjoint"
        certified = certified and (not verdict.safe or goal_disjoint(system, model))
    except ResourceLimitError:
        return EXIT_3, phase
    return verdict.status if certified else "cert", None


def regressions(golden: dict[str, str], got: dict[str, str]) -> list[str]:
    """The runs whose outcome breaks the rule: each outcome equals its
    golden entry, or that entry is ``exit 3`` and the run certified a
    verdict."""
    return [
        f"{key}: {got[key]}, golden {golden[key]}"
        for key in golden
        if got[key] != golden[key] and (golden[key] != EXIT_3 or got[key] not in ("SAFE", "UNKNOWN"))
    ]


def run(section: str) -> tuple[dict[str, str], dict[str, float], dict[str, list[str]]]:
    """The outcome and the seconds of each run of ``section``, keyed
    ``k<k>-s<s>``, and the keys of the runs that each phase ended in
    exit 3."""
    got, seconds = {}, {}
    raised: dict[str, list[str]] = {phase: [] for phase in PHASES}
    for k, s in SECTIONS[section]:
        key = f"k{k}-s{s}"
        start = time.perf_counter()
        got[key], phase = phased(k, s)
        seconds[key] = time.perf_counter() - start
        if phase is not None:
            raised[phase].append(key)
    return got, seconds, raised


def main(argv: list[str]) -> int:
    if argv not in ([], ["--record"]):
        print("usage: python tests/wide_family.py [--record]", file=sys.stderr)
        return 2
    got, seconds, raised = run("family")
    slowest = max(seconds, key=seconds.get)
    exits = sum(result == EXIT_3 for result in got.values())
    print(f"{len(got)} runs, {exits} end in exit 3; slowest {slowest} ({got[slowest]}) {seconds[slowest]:.2f} s")
    for phase, keys in raised.items():
        print(f"exit 3 in {phase}: {len(keys)}" + (f" ({', '.join(keys)})" if keys else ""))
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

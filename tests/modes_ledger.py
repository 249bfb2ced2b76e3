"""The mode ledger: the outcome of each generated system in each mode at
each round budget, one character per seed.

Five generators of ``tests/randgen.py``, ``fuzz_text``,
``wide_finite_text``, ``random_goal_text``, ``random_finite_text`` and
``rounds_like_text``, each give the systems of seeds 0-199; only the
outcomes of ``rounds_like_text`` depend on the mode and the budget.  Each system is solved in the
modes fwd, alt, qa2 and qa-iter at the round budgets 1, 3, 5 and 8 by
the calls ``chclab solve`` makes, and is then certified as that command
certifies it: the step laws of the trace (not in qa2), ``check_model``
and ``goal_disjoint``, which must hold for a SAFE verdict.  A run
records ``S`` for SAFE, ``U`` for any other verdict and ``3`` when a
resource cap raises ``ResourceLimitError``: the exit codes 0, 10 and 3
of ``chclab solve``.  A certificate that fails raises
:class:`CertificateError`, so no run with a false certificate is
recorded.

``tests/golden/modes.json`` holds, keyed ``generator|mode|budget``, a
string with the character of seed ``k`` at index ``k``.  Pinning each
seed keeps a loss from hiding behind a gain in a total.  To re-record it
after a change that moves an outcome:

    PYTHONPATH=src python tests/modes_ledger.py

Before it overwrites the golden copy, the script prints every seed
whose character moved.
"""

from __future__ import annotations

import json
from pathlib import Path

from chclab.linlogic import ResourceLimitError
from chclab.parser import parse_system
from chclab.qa import qa_two_step
from chclab.solver import AnalysisConfig, alternate, check_model, goal_disjoint
from randgen import (
    fuzz_text,
    random_finite_text,
    random_goal_text,
    rounds_like_text,
    wide_finite_text,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "modes.json"
GENERATORS = {
    "fuzz_text": fuzz_text,
    "wide_finite_text": wide_finite_text,
    "random_goal_text": random_goal_text,
    "random_finite_text": random_finite_text,
    "rounds_like_text": rounds_like_text,
}
MODES = ("fwd", "alt", "qa2", "qa-iter")
BUDGETS = (1, 3, 5, 8)
SEEDS = 200


class CertificateError(Exception):
    """A run whose verdict came with a certificate that fails."""


def outcome(system, mode: str, budget: int) -> str:
    """``S``, ``U`` or ``3`` for ``chclab solve --mode MODE --max-rounds
    BUDGET`` on ``system``; raises :class:`CertificateError` where that
    command exits 1."""
    config = AnalysisConfig(max_rounds=budget)
    try:
        if mode == "qa2":
            _, verdict = qa_two_step(system, config=config)
            step_laws = None
        else:
            if mode != "alt":
                config = config._replace(start="forward")
            if mode == "fwd":
                config = config._replace(max_rounds=1)
            trace, verdict = alternate(system, config=config)
            step_laws = trace.certified
        model = verdict.witness.as_dict()
        model_check = check_model(system, model).ok
        disjoint = goal_disjoint(system, model)
    except ResourceLimitError:
        return "3"
    if step_laws is False or not model_check or (verdict.safe and not disjoint):
        raise CertificateError(f"{mode} at budget {budget}: {verdict.status} with a false certificate")
    return "S" if verdict.safe else "U"


def ledger(seeds) -> dict[str, str]:
    """The characters of ``seeds`` in order, keyed
    ``generator|mode|budget``."""
    out = {f"{name}|{mode}|{budget}": "" for name in GENERATORS for mode in MODES for budget in BUDGETS}
    for name, generate in GENERATORS.items():
        for seed in seeds:
            system = parse_system(generate(seed))
            for mode in MODES:
                for budget in BUDGETS:
                    try:
                        out[f"{name}|{mode}|{budget}"] += outcome(system, mode, budget)
                    except CertificateError as exc:
                        raise CertificateError(f"{name}({seed}) {exc}") from None
    return out


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """Every seed whose character differs between the ledgers ``old`` and
    ``new``, one line each."""
    return [
        f"{key} seed {k}: {old.get(key, '')[k : k + 1] or '-'} -> {c}"
        for key, chars in new.items()
        for k, c in enumerate(chars)
        if old.get(key, "")[k : k + 1] != c
    ]


if __name__ == "__main__":
    got = ledger(range(SEEDS))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    print("\n".join(moved(old, got)) or "no outcome moved")
    GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")

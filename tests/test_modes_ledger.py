"""The first seeds of the mode ledger keep their outcomes.

``tests/golden/modes.json`` holds, per generator, mode and round budget,
one character per seed: S, U or 3 (see ``tests/modes_ledger.py``).
Tier-1 runs seeds 0-24, every run certified; CI re-records all 200.
"""

from __future__ import annotations

import json

from modes_ledger import BUDGETS, GENERATORS, GOLDEN, MODES, SEEDS, ledger, moved


def test_modes_ledger_keeps_every_outcome():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(pinned) == len(GENERATORS) * len(MODES) * len(BUDGETS)
    assert all(len(chars) == SEEDS for chars in pinned.values())
    got = ledger(range(25))
    assert got.keys() == pinned.keys()
    lines = moved({key: chars[:25] for key, chars in pinned.items()}, got)
    assert not lines, "\n".join(lines)

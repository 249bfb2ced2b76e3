"""Seeds 0-4 of the ``wide_text`` probe family at k = 14, 16 and 20
against the ``tier1`` section of ``tests/golden/wide-family.json``.

A run may leave an ``exit 3`` of the golden copy for a certified verdict,
but it may not change a verdict, and one whose golden entry is a verdict
may not end in exit 3 (``tests/wide_family.py`` runs the whole family
under the same rule).
"""

from __future__ import annotations

import json

from wide_family import GOLDEN, SECTIONS, outcome, regressions


def test_wide_family_keeps_every_verdict():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["tier1"]
    assert list(golden) == [f"k{k}-s{s}" for k, s in SECTIONS["tier1"]]
    got = {f"k{k}-s{s}": outcome(k, s) for k, s in SECTIONS["tier1"]}
    assert regressions(golden, got) == []

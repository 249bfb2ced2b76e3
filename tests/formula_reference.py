"""Recursive formula walkers.

A reference for the differential tests of ``chclab.syntax``: these are
the recursive bodies that ``rename_formula`` and ``negate_formula`` had
before they walked with an explicit stack.  The rewritten walkers must
return the same trees.
"""

from __future__ import annotations

from typing import Mapping

from chclab.syntax import (
    FALSE,
    TRUE,
    And,
    FalseF,
    Formula,
    Lin,
    Or,
    Rel,
    TrueF,
    conj,
    disj,
    lin,
)


def rename_formula(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Simultaneous variable renaming."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Lin):
        return Lin(f.con.rename(mapping))
    if isinstance(f, And):
        return And(tuple(rename_formula(g, mapping) for g in f.items))
    return Or(tuple(rename_formula(g, mapping) for g in f.items))


def negate_formula(f: Formula) -> Formula:
    """Negation-free complement (De Morgan over comparisons)."""
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, Lin):
        t, r = f.con.term, f.con.rel
        if r is Rel.LE:  # not (t <= 0)  <=>  -t < 0
            return lin(-t, Rel.LT)
        if r is Rel.LT:  # not (t < 0)  <=>  -t <= 0
            return lin(-t, Rel.LE)
        # not (t = 0)  <=>  t < 0  or  -t < 0
        return disj([lin(t, Rel.LT), lin(-t, Rel.LT)])
    if isinstance(f, And):
        return disj(negate_formula(g) for g in f.items)
    return conj(negate_formula(g) for g in f.items)

"""Formula walkers the package does not need.

A reference for the differential tests of ``chclab.syntax`` and
``chclab.linlogic``: the recursive walkers are the bodies that
``rename_formula``, ``negate_formula``, ``format_formula`` and ``to_dnf``
had before they walked with an explicit stack, and the rewritten walkers
must return the same trees, texts and cubes, in the same order.
:func:`rename_formula` is the stack-based renaming, which left the
package once the model check stopped renaming formulas
(``chclab.linlogic.sat_cube`` lowers an instance's atoms through its
mapping instead); :func:`rename_formula_recursive` is its recursive
reference.  :func:`eval_formula` is the truth value of a formula at a
point, for the tests that check a formula against ground values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from chclab import linlogic
from chclab.linlogic import ConjCube, ResourceLimitError
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
    fold_formula,
    lin,
)


def rename_formula(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Simultaneous variable renaming, walked with an explicit stack so
    that a deep formula does not exhaust the call stack."""
    return fold_formula(
        f,
        lambda g: Lin(g.con.rename(mapping)) if isinstance(g, Lin) else g,
        lambda g, items: type(g)(tuple(items)),
    )


def rename_formula_recursive(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Simultaneous variable renaming, recursively."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Lin):
        return Lin(f.con.rename(mapping))
    if isinstance(f, And):
        return And(tuple(rename_formula_recursive(g, mapping) for g in f.items))
    return Or(tuple(rename_formula_recursive(g, mapping) for g in f.items))


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


def format_formula(f: Formula) -> str:
    """Render in full constraint syntax (commas for conjunction)."""
    if isinstance(f, (TrueF, FalseF, Lin)):
        return str(f)
    if isinstance(f, And):
        parts = [
            f"({format_formula(g)})" if isinstance(g, Or) else format_formula(g)
            for g in f.items
        ]
        return ", ".join(parts)
    parts = [
        f"({format_formula(g)})" if isinstance(g, And) else format_formula(g)
        for g in f.items
    ]
    return "; ".join(parts)


def eval_formula(f: Formula, env: Mapping[str, Fraction]) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Lin):
        term = f.con.term
        return f.con.rel.holds(term.const + sum(c * env[v] for v, c in term.coeffs))
    if isinstance(f, And):
        return all(eval_formula(g, env) for g in f.items)
    return any(eval_formula(g, env) for g in f.items)


def to_dnf(formula: Formula) -> list[ConjCube]:
    """Disjunctive normal form as a list of cubes, under the cube cap."""
    cap = linlogic.DEFAULT_CUBE_CAP

    def go(f: Formula) -> list[tuple]:
        if isinstance(f, TrueF):
            return [()]
        if isinstance(f, FalseF):
            return []
        if isinstance(f, Lin):
            return [(f.con,)]
        if isinstance(f, And):
            acc: list[tuple] = [()]
            for child in f.items:
                branches = go(child)
                nxt = [a + b for a in acc for b in branches]
                if len(nxt) > cap:
                    raise ResourceLimitError(f"DNF conversion exceeded {cap} cubes")
                acc = nxt
            return acc
        if isinstance(f, Or):
            acc = []
            for child in f.items:
                acc.extend(go(child))
                if len(acc) > cap:
                    raise ResourceLimitError(f"DNF conversion exceeded {cap} cubes")
            return acc
        raise TypeError(f"not a formula: {f!r}")

    return [ConjCube.make(cs) for cs in go(formula)]

"""The clause transformers by way of formulas.

A reference for the differential tests of ``chclab.domain.CompiledClause``:
each call turns the input boxes into constraint formulas (``Box.formula``),
conjoins them with the clause constraint, converts the whole conjunction
to DNF and projects every cube onto the target (``formula_box``).  It
compiles nothing and shares no rows between calls.
"""

from __future__ import annotations

from chclab.domain import AbstractElement, Box, formula_box
from chclab.syntax import Clause, Formula, conj


def clause_post(clause: Clause, elem: AbstractElement) -> Box:
    """Tightest head box a clause derives when its body holds in ``elem``."""
    parts: list[Formula] = [clause.constraint]
    for app in clause.body:
        parts.append(elem[app.pred.name].formula(app.args))
    return formula_box(conj(parts), clause.head.args)


def clause_pre_restricted(
    clause: Clause,
    position: int,
    restriction: AbstractElement,
    elem: AbstractElement,
) -> Box:
    """Tightest box for one body atom from which the clause can reach
    a head in ``elem``, with every body atom kept inside ``restriction``."""
    head = clause.head
    parts: list[Formula] = [clause.constraint, elem[head.pred.name].formula(head.args)]
    for app in clause.body:
        parts.append(restriction[app.pred.name].formula(app.args))
    return formula_box(conj(parts), clause.body[position].args)

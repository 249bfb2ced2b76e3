"""The clause transformers by way of formulas, and by way of bound rows.

A reference for the differential tests of ``chclab.domain.CompiledClause``.
:func:`clause_post` and :func:`clause_pre_restricted` turn the input
boxes into constraint formulas (``Box.formula``), conjoin them with the
clause constraint, convert the whole conjunction to DNF and project every
cube onto the target (``formula_box``); they compile nothing and share no
rows between calls.  :func:`apply_by_rows` is the compiled route as it was
before box bounds were met as intervals: each bound of an input box is
lowered to a one-variable row (``bound_row``) and conjoined with every
template of the compiled clause (``Conjunction.conjoin``), and the result
is projected as the compiled route projects it (``Conjunction.project``).
"""

from __future__ import annotations

from typing import Sequence

from chclab.domain import AbstractElement, Box, CompiledClause, formula_box
from chclab.linlogic import Lowered, bound_row
from chclab.syntax import Clause, Formula, PredApp, conj


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


def bound_rows(cc: CompiledClause, apps: Sequence[PredApp], boxes: Sequence[Box]) -> list[Lowered]:
    """Each bound of each nonempty input box as a row over the variables
    of the compiled clause."""
    names, index, _ = cc.lowered
    return [
        bound_row(len(names), index[v], value, rel, upper)
        for app, box in zip(apps, boxes)
        for v, value, rel, upper in box.bounds(app.args)
    ]


def apply_by_rows(
    cc: CompiledClause, target: int | None, apps: Sequence[PredApp], boxes: Sequence[Box]
) -> Box:
    """``cc.post(boxes)`` when ``target`` is ``None``, else ``cc.pre(target,
    boxes[0], boxes[1:])``, with every bound conjoined as a row."""
    clause = cc.clause
    args = clause.head.args if target is None else clause.body[target].args
    if any(box.is_empty for box in boxes):
        return Box.empty(len(args))
    rows = bound_rows(cc, apps, boxes)
    acc = Box.empty(len(args))
    for template in cc._template(target, args):
        intervals = template.conjoin(rows).project(args)
        if intervals is not None:
            acc = acc.join(Box.make(len(args), intervals))
    return acc

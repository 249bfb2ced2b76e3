"""The clause transformers by way of formulas, and by way of bound rows.

A reference for the differential tests of ``chclab.domain.CompiledClause``.
:func:`clause_post` and :func:`clause_pre_restricted` turn the input
boxes into constraint formulas (``Box.formula``), conjoin them with the
clause constraint, convert the whole conjunction to DNF and project every
cube onto the target (``formula_box``); they compile nothing and share no
rows between calls.  :func:`apply_by_rows` is the compiled route as it was
before box bounds were met as intervals: each bound of an input box
(:func:`bounds`) is lowered to a one-variable row (:func:`bound_row`),
each cube of the compiled clause's constraint is built afresh with those
rows after its own (:func:`by_rows`, the ``Conjunction`` constructor
with the masks of ``CompiledClause._template``), and the result is
projected as the compiled route projects it (:func:`project`).
It shares neither the compiled clause's templates nor their decisions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from chclab.domain import AbstractElement, Box, CompiledClause, formula_box
from chclab.linlogic import Conjunction, Interval, Lowered
from chclab.syntax import Clause, Formula, PredApp, Rel, conj


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


def bound_row(n: int, j: int, value: Fraction, rel: Rel, upper: bool) -> Lowered:
    """``x_j - value rel 0`` if ``upper``, else ``value - x_j rel 0``, as
    a row of width ``n``."""
    vec = [0] * n
    if upper:
        vec[j] = value.denominator
        return (vec, -value.numerator, rel)
    vec[j] = -value.denominator
    return (vec, value.numerator, rel)


def bounds(box: Box, variables: Sequence[str]) -> Iterator[tuple[str, Fraction, Rel, bool]]:
    """The bounds of a nonempty box over ``variables``, each as
    ``(v, value, rel, upper)``: ``v - value rel 0`` when ``upper``, else
    ``value - v rel 0``.  A point interval is one equality."""
    for v, (lo, hi) in zip(variables, box.intervals):
        if lo.value is not None and lo == hi:
            yield v, lo.value, Rel.EQ, True
            continue
        if lo.value is not None:
            yield v, lo.value, Rel.LT if lo.strict else Rel.LE, False
        if hi.value is not None:
            yield v, hi.value, Rel.LT if hi.strict else Rel.LE, True


def bound_rows(cc: CompiledClause, apps: Sequence[PredApp], boxes: Sequence[Box]) -> list[Lowered]:
    """Each bound of each nonempty input box as a row over the variables
    of the compiled clause."""
    names, index, _ = cc.lowered
    return [
        bound_row(len(names), index[v], value, rel, upper)
        for app, box in zip(apps, boxes)
        for v, value, rel, upper in bounds(box, app.args)
    ]


def by_rows(cc: CompiledClause, args: Sequence[str], rows: Sequence[Lowered]) -> list[Conjunction]:
    """Each cube of ``cc.lowered`` with ``rows`` after its own, built
    afresh: pivoting on the variables outside ``args`` and tying
    equalities left between two of them, as ``CompiledClause._template``
    builds a template for ``args``."""
    names, _, cubes = cc.lowered
    targets = sum(1 << j for j, v in enumerate(names) if v in args)
    free = ((1 << len(names)) - 1) & ~targets
    return [Conjunction(names, [*cube, *rows], free, targets) for cube in cubes]


def project(conjunction: Conjunction, args: Sequence[str]) -> list[Interval] | None:
    """``Conjunction.project`` of ``conjunction`` onto ``args``, with the
    conjunction's own ties."""
    return conjunction.project(args, conjunction._images()[1])


def apply_by_rows(
    cc: CompiledClause, target: int | None, apps: Sequence[PredApp], boxes: Sequence[Box]
) -> Box:
    """``cc.post(boxes)`` when ``target`` is ``None``, else ``cc.pre(target,
    boxes[0], boxes[1:])``, with every bound conjoined as a row."""
    clause = cc.clause
    args = clause.head.args if target is None else clause.body[target].args
    if any(box.is_empty for box in boxes):
        return Box.empty(len(args))
    acc = Box.empty(len(args))
    for conjunction in by_rows(cc, args, bound_rows(cc, apps, boxes)):
        intervals = project(conjunction, args)
        if intervals is not None:
            acc = acc.join(Box.make(len(args), intervals))
    return acc

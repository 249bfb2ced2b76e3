"""Interval boxes over predicates: the abstract domain of the analyses.

A :class:`Box` assigns one rational interval to each argument position
of a predicate; the empty box is the bottom element.  A box for a 0-ary
predicate is the two-point lattice unreached/reached, which is how the
falsity predicate is tracked.  An :class:`AbstractElement` is a dict
from the name of every declared predicate to its box; callers index it
and iterate its items.

Per-clause transformers compute the tightest box implied by the clause
constraint together with the boxes of the occurring predicates.  A
:class:`CompiledClause` converts the constraint to DNF and lowers it to
integer rows once; each call only meets the intervals of its input
boxes, whole, into the rows' intervals and projects exactly
(:mod:`chclab.linlogic`), whose intervals
(:class:`~chclab.linlogic.Interval`) form the box as they are.  Goal
guards take the same route, compiled as body-less clauses.
:func:`clause_post` and :func:`clause_pre_restricted` compile the clause
on the fly.  :func:`formula_box`, which projects every cube of a whole
formula's DNF, is the formula route the tests compare against; nothing
on the solve path calls it.

Boxes and intervals are immutable tuples, so they are shared, never
copied: there is one empty and one top box per arity (:meth:`Box.empty`,
:meth:`Box.top`) and one top interval, and ``join``, ``meet`` and
``widen`` return an operand whenever the result equals it, so a new
tuple is built only for a value that changed.  An element is a mutable
dict, and it may be shared too: one run's passes share its top and
bottom element (:class:`~chclab.solver.ClauseResults`), and a pass may
hand back a box or an element it was given.  So nothing assigns into an
element it did not build.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .linlogic import (
    Conjunction,
    Interval,
    Lowered,
    ResourceLimitError,
    lower,
    project_to_box,
    to_dnf,
)
from .syntax import (
    Clause,
    Formula,
    LinConstraint,
    LinTerm,
    PredApp,
    Rel,
    System,
    FALSE,
    conj,
    negate_formula,
)

_is_empty = attrgetter("is_empty")
_intervals = attrgetter("intervals")


class Box(NamedTuple):
    """Product of intervals; ``intervals is None`` encodes empty.  A box
    never holds an empty interval: :meth:`make` turns one into the empty
    box.  Boxes are shared as the module docstring says: :meth:`empty`
    and :meth:`top` return one box per arity, and ``join``, ``meet`` and
    ``widen`` return an operand when the result equals it."""

    arity: int
    intervals: tuple[Interval, ...] | None

    @staticmethod
    def make(arity: int, intervals: Iterable[Interval]) -> "Box":
        ivs = tuple(intervals)
        if len(ivs) != arity:
            raise ValueError(f"{len(ivs)} intervals for a box of arity {arity}")
        if any(map(_is_empty, ivs)):
            return Box.empty(arity)
        return Box(arity, ivs)

    @staticmethod
    @cache
    def empty(arity: int) -> "Box":
        return Box(arity, None)

    @staticmethod
    @cache
    def top(arity: int) -> "Box":
        return Box(arity, (Interval.top(),) * arity)

    @property
    def is_empty(self) -> bool:
        return self.intervals is None

    def leq(self, other: "Box") -> bool:
        if self is other or self.intervals is None:
            return True
        if other.intervals is None:
            return False
        return all(map(Interval.leq, self.intervals, other.intervals))

    def join(self, other: "Box") -> "Box":
        if self.intervals is None or self is other:
            return other
        if other.intervals is None:
            return self
        return self._either(other, tuple(map(Interval.join, self.intervals, other.intervals)))

    def meet(self, other: "Box") -> "Box":
        if self.intervals is None or self is other:
            return self
        if other.intervals is None:
            return other
        ivs = tuple(map(Interval.meet, self.intervals, other.intervals))
        if any(map(_is_empty, ivs)):
            return Box.empty(self.arity)
        return self._either(other, ivs)

    def widen(self, other: "Box") -> "Box":
        if self.intervals is None:
            return other
        if other.intervals is None or self is other:
            return self
        return self._either(other, tuple(map(Interval.widen, self.intervals, other.intervals)))

    def _either(self, other: "Box", intervals: tuple[Interval, ...]) -> "Box":
        """``self`` or ``other`` when it holds ``intervals``, else a new box."""
        if intervals == self.intervals:
            return self
        if intervals == other.intervals:
            return other
        return Box(self.arity, intervals)

    def formula(self, variables: Sequence[str]) -> Formula:
        """The box as a constraint formula over ``variables``: for each
        bounded side, ``value - v rel 0`` below and ``v - value rel 0``
        above, and for a point interval one equality ``v - value = 0``."""
        if self.intervals is None:
            return FALSE
        parts: list[Formula] = []
        for v, (lo, hi) in zip(variables, self.intervals):
            point = lo.value is not None and lo == hi
            for side, upper in ((hi, True),) if point else ((lo, False), (hi, True)):
                if side.value is not None:
                    rel = Rel.EQ if point else Rel.LT if side.strict else Rel.LE
                    term = LinTerm(((v, 1),), -side.value) if upper else LinTerm(((v, -1),), side.value)
                    parts.append(LinConstraint(term, rel).formula())
        return conj(parts)

    def complement(self, variables: Sequence[str]) -> Formula:
        """Negation-free formula for the outside of the box."""
        return negate_formula(self.formula(variables))

    def __str__(self) -> str:
        if self.intervals is None:
            return "empty"
        if not self.intervals:
            return "reached"
        return " x ".join(str(iv) for iv in self.intervals)


class AbstractElement(dict):
    """A box for every declared predicate, keyed by predicate name in
    ``system.decls`` order.  Only the fixpoint engine and the goal
    elements (:func:`~chclab.solver.goal_element` and qa2's) assign into
    an element, and each only into one it built: an element is shared
    as the module docstring says."""

    @staticmethod
    def bottom(system: System) -> "AbstractElement":
        return AbstractElement((d.name, Box.empty(d.arity)) for d in system.decls)

    @staticmethod
    def top(system: System) -> "AbstractElement":
        return AbstractElement((d.name, Box.top(d.arity)) for d in system.decls)

    def leq(self, other: "AbstractElement") -> bool:
        return all(box.leq(other[name]) for name, box in self.items())

    def meet(self, other: "AbstractElement") -> "AbstractElement":
        return AbstractElement((name, box.meet(other[name])) for name, box in self.items())

    @property
    def is_bottom(self) -> bool:
        return all(map(_is_empty, self.values()))


def has_empty(boxes: Iterable[Box]) -> bool:
    """Is one of ``boxes`` empty?"""
    return None in map(_intervals, boxes)


def formula_box(formula: Formula, variables: Sequence[str]) -> Box:
    """Tightest box over ``variables`` containing all formula solutions;
    the formula route the tests compare :class:`CompiledClause` against."""
    arity = len(variables)
    acc = Box.empty(arity)
    for cube in to_dnf(formula):
        intervals = project_to_box(cube, variables)
        if intervals is not None:
            acc = acc.join(Box.make(arity, intervals))
    return acc


class CompiledClause:
    """The transformers of one clause over integer rows.

    The constraint's DNF is computed and lowered to integer rows once,
    on the first call with no empty input box.  Per target (the head
    arguments, or the arguments of body position ``j``) each cube then
    becomes a template: the :class:`~chclab.linlogic.Conjunction` of its
    rows that pivots on variables outside the target, and then ties each
    equality left between two target variables by pivoting on one of
    them.  A cube that has no solution gets no template, as it derives
    nothing: its rows are refuted as they are normalized, or, when they
    include rows over two or more variables, by one cheapest-first
    elimination over every variable as the template is built
    (:meth:`~chclab.linlogic.Conjunction.satisfiable`).  So no call
    projects a cube without solutions, re-deriving its conflict in the
    order the target forces.  Whether a cube has solutions does not
    depend on the target, so each cube is decided once per clause: a
    later target builds no template of a dead cube and decides no live
    one again.  A decision past ``DEFAULT_FM_CAP`` keeps its template
    and is not recorded, and each target's template of that cube tries
    its own.  A call hands each bounded interval of its input boxes,
    with the position of its variable, to every template
    (:meth:`~chclab.linlogic.Conjunction.project_bounds`), which meets
    it in and projects onto the target, reading each tied target's
    interval through its equality from its partner's, with no
    elimination; a template that leaves no row over two or more
    variables builds no set and reads the targets off the met
    intervals.  A template whose met intervals conflict derives
    nothing.  The template's rows are normalized once, and an interval
    adds rows only by the derived-set rule of :mod:`chclab.linlogic`.
    The interval lists of the templates are joined and make one box
    per call.  A call with an empty input box returns the empty box
    at once: :class:`~chclab.solver.ClauseResults` never makes one,
    and this check serves the direct callers.
    """

    def __init__(self, clause: Clause):
        self.clause = clause
        self._templates: dict[int | None, list[Conjunction]] = {}
        # Whether each cube of the DNF, by its index, has a solution, once
        # a template of it has been decided within the cap.
        self._decided: dict[int, bool] = {}

    @cached_property
    def lowered(self) -> tuple[tuple[str, ...], dict[str, int], list[list[Lowered]]]:
        """The clause's variables, their positions, and the rows of each
        cube of the constraint's DNF."""
        clause = self.clause
        cubes = to_dnf(clause.constraint)
        names = {v for app in (clause.head, *clause.body) for v in app.args}
        names.update(v for cube in cubes for c in cube.cons for v, _ in c.term.coeffs)
        names = tuple(sorted(names))
        index = {v: j for j, v in enumerate(names)}
        return names, index, [[lower(c, index) for c in cube.cons] for cube in cubes]

    def post(self, body: Sequence[Box]) -> Box:
        """The head box derived from the boxes of the body atoms."""
        return self._apply(None, self.clause.body, body)

    def pre(self, position: int, head: Box, body: Sequence[Box]) -> Box:
        """The box of body atom ``position`` from which the clause derives
        a head inside ``head`` with every body atom inside ``body``."""
        return self._apply(position, (self.clause.head, *self.clause.body), (head, *body))

    def _apply(self, target: int | None, apps: Sequence[PredApp], boxes: Sequence[Box]) -> Box:
        clause = self.clause
        args = clause.head.args if target is None else clause.body[target].args
        if has_empty(boxes):
            return Box.empty(len(args))
        index = self.lowered[1]
        bounded = [
            (index[v], interval)
            for app, box in zip(apps, boxes)
            for v, interval in zip(app.args, box.intervals)
            if interval.lo.value is not None or interval.hi.value is not None
        ]
        acc = None
        for template in self._template(target, args):
            intervals = template.project_bounds(bounded, args)
            if intervals is not None:
                acc = intervals if acc is None else list(map(Interval.join, acc, intervals))
        return Box.empty(len(args)) if acc is None else Box.make(len(args), acc)

    def _template(self, target: int | None, args: Sequence[str]) -> list[Conjunction]:
        found = self._templates.get(target)
        if found is None:
            names, _, cubes = self.lowered
            targets = sum(1 << j for j, v in enumerate(names) if v in args)
            free = ((1 << len(names)) - 1) & ~targets
            found = []
            for k, cube in enumerate(cubes):
                live = self._decided.get(k)
                if live is False:
                    continue
                template = Conjunction(names, cube, free, targets)
                if live is None:
                    # An unsatisfiable template projects to nothing, and so
                    # does every template of its cube.  A decision past the
                    # cap keeps the template and is not recorded, so that
                    # its projection meets the cap only where it would
                    # without the decision.
                    try:
                        live = self._decided[k] = template.satisfiable()
                    except ResourceLimitError:
                        live = True
                if live:
                    found.append(template)
            self._templates[target] = found
        return found


def clause_post(clause: Clause, elem: AbstractElement) -> Box:
    """Tightest head box a clause derives when its body holds in ``elem``,
    compiled afresh (the solver keeps one compiled clause per run)."""
    return CompiledClause(clause).post([elem[app.pred.name] for app in clause.body])


def clause_pre_restricted(
    clause: Clause,
    position: int,
    restriction: AbstractElement,
    elem: AbstractElement,
) -> Box:
    """Tightest box for one body atom from which the clause can reach
    a head in ``elem``, with every body atom kept inside ``restriction``;
    compiled afresh like :func:`clause_post`."""
    return CompiledClause(clause).pre(
        position,
        elem[clause.head.pred.name],
        [restriction[app.pred.name] for app in clause.body],
    )

"""Reference semantics by exhaustive enumeration over a finite universe.

Grounds every clause over the declared universe into a set of
consequences (premise set, conclusion), then computes each collecting
semantics as the least fixpoint it is defined as, by one Kleene
iteration (:func:`kleene`) from the empty set: forward ``lfp post``,
backward ``lfp λX. G ∪ pre(X)`` and combined
``lfp λX. (G ∩ M) ∪ pre_M(X)`` with ``M`` the forward semantics.
Deliberately simple and independent of the abstract analyses so it can
act as an oracle for them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, product
from typing import Callable, Iterable, Mapping, NamedTuple

from .linlogic import ResourceLimitError
from .syntax import (
    And,
    Clause,
    FalseF,
    Formula,
    Lin,
    Rel,
    System,
    TrueF,
)

VALUATION_CAP = 10**6

Valuation = tuple[Fraction, ...]


class GroundAtom(NamedTuple):
    pred: str
    args: Valuation

    def key(self) -> tuple:
        return (self.pred, self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"


class Consequence(NamedTuple):
    """One ground clause instance: premises entail the conclusion."""

    premises: frozenset[GroundAtom]
    conclusion: GroundAtom


Interpretation = frozenset[GroundAtom]
GroundRelation = frozenset[Consequence]


def _compile(formula: Formula, index: Mapping[str, int]) -> Callable[[Valuation], bool]:
    """Compile a formula to a fast predicate on valuations."""
    if isinstance(formula, TrueF):
        return lambda vals: True
    if isinstance(formula, FalseF):
        return lambda vals: False
    if isinstance(formula, Lin):
        pairs = [(index[v], q) for v, q in formula.con.term.coeffs]
        const = formula.con.term.const
        holds = formula.con.rel.holds
        return lambda vals: holds(sum(q * vals[i] for i, q in pairs) + const)
    subs = [_compile(item, index) for item in formula.items]
    if isinstance(formula, And):
        return lambda vals: all(s(vals) for s in subs)
    return lambda vals: any(s(vals) for s in subs)


def _valuations(universe: Valuation, n: int, what: str):
    """Every tuple of ``n`` values of ``universe``.  Raises
    :class:`ResourceLimitError` when there are more than
    ``VALUATION_CAP`` of them, the cap read at call time."""
    cap = VALUATION_CAP
    if len(universe) ** n > cap:
        raise ResourceLimitError(f"grounding {what} needs more than {cap} valuations")
    return product(universe, repeat=n)


def _definitions(constraint: Formula) -> dict[str, tuple[list[tuple[str, Fraction]], Fraction]]:
    """The variables that the top-level equalities of ``constraint``
    define, each by the first equality with a unit coefficient on it:
    ``v -> (pairs, c)`` with ``v = sum(q * w for w, q in pairs) + c``.
    A variable is defined by one equality at most, and never once a
    definition before it reads it, so each can be computed, in order,
    from the variables left and those defined before it."""
    items = constraint.items if isinstance(constraint, And) else (constraint,)
    defined: dict[str, tuple[list[tuple[str, Fraction]], Fraction]] = {}
    read: set[str] = set()
    for f in items:
        if not isinstance(f, Lin) or f.con.rel is not Rel.EQ:
            continue
        term = f.con.term
        unit = [(v, a) for v, a in term.coeffs if a in (1, -1) and v not in defined and v not in read]
        if unit:
            # a·v + rest + const = 0 with a = ±1, so v = -a·(rest + const).
            v, a = unit[0]
            pairs = [(w, -a * q) for w, q in term.coeffs if w != v]
            defined[v] = (pairs, -a * term.const)
            read.update(w for w, _ in pairs)
    return defined


def _instances(universe: Valuation, clause: Clause, what: str) -> Iterable[Consequence]:
    """The ground instances of ``clause``: one per valuation of its
    variables over ``universe`` that satisfies its constraint.  Only the
    variables that no top-level equality defines (:func:`_definitions`)
    are enumerated, under the valuation cap; each defined one is
    computed from them, and a valuation whose computed value lies
    outside ``universe`` is dropped.  The whole constraint is still
    evaluated."""
    variables = sorted(clause.vars)
    index = {v: i for i, v in enumerate(variables)}
    defined = _definitions(clause.constraint)
    enumerated = [index[v] for v in variables if v not in defined]
    valuations = _valuations(universe, len(enumerated), what)
    if defined:
        steps = [(index[v], [(index[w], q) for w, q in pairs], c) for v, (pairs, c) in defined.items()]
        valuations = _completed(valuations, universe, len(variables), enumerated, steps)
    ok = _compile(clause.constraint, index)
    body_ix = [
        (app.pred.name, tuple(index[x] for x in app.args)) for app in clause.body
    ]
    head_name = clause.head.pred.name
    head_ix = tuple(index[x] for x in clause.head.args)
    for vals in valuations:
        if ok(vals):
            premises = frozenset(
                GroundAtom(name, tuple(vals[i] for i in ix)) for name, ix in body_ix
            )
            yield Consequence(premises, GroundAtom(head_name, tuple(vals[i] for i in head_ix)))


def _completed(valuations, universe: Valuation, n: int, enumerated: list[int], steps):
    """Each valuation of the positions ``enumerated`` completed to all
    ``n`` positions by ``steps``, ``(i, pairs, c)`` setting position
    ``i`` to ``sum(q * vals[k] for k, q in pairs) + c``; a valuation
    that sets a position outside ``universe`` is dropped.  A computed
    value is replaced by the member of ``universe`` it equals."""
    members = {u: u for u in universe}
    for given in valuations:
        vals = [None] * n
        for i, x in zip(enumerated, given):
            vals[i] = x
        for i, pairs, c in steps:
            x = members.get(sum(q * vals[k] for k, q in pairs) + c)
            if x is None:
                break
            vals[i] = x
        else:
            yield tuple(vals)


def ground_relation(system: System) -> GroundRelation:
    if system.universe is None:
        raise ValueError("system declares no universe")
    return frozenset(
        c for clause in system.clauses for c in _instances(system.universe, clause, "a clause")
    )


def goal_atoms(system: System) -> Interpretation:
    """Ground instances of the system's goal: the conclusions of the
    ground instances of its goal clauses (``System.goal``), under the same
    valuation cap as :func:`ground_relation`."""
    if system.universe is None:
        raise ValueError("system declares no universe")
    return frozenset(
        c.conclusion
        for goal in system.goal
        for c in _instances(system.universe, goal, "a goal entry")
    )


def post(rel: GroundRelation, atoms: Iterable[GroundAtom]) -> Interpretation:
    xs = frozenset(atoms)
    return frozenset(c.conclusion for c in rel if c.premises <= xs)


def pre(rel: GroundRelation, atoms: Iterable[GroundAtom]) -> Interpretation:
    xs = frozenset(atoms)
    return frozenset(
        a for c in rel if c.conclusion in xs for a in c.premises
    )


def pre_restricted(
    rel: GroundRelation, restriction: Iterable[GroundAtom], atoms: Iterable[GroundAtom]
) -> Interpretation:
    """Premise atoms of instances whose premises all lie in ``restriction``."""
    xs = frozenset(atoms)
    rs = frozenset(restriction)
    return frozenset(
        a
        for c in rel
        if c.conclusion in xs and c.premises <= rs
        for a in c.premises
    )


def kleene(
    step: Callable[[frozenset], frozenset], rounds: int | None = None
) -> tuple[frozenset, int | None]:
    """Iterate ``step`` from the empty set until the set stops changing.

    Returns the last set and the number of steps after which it stopped
    changing, or None when it still changed after ``rounds`` steps.  A
    set that stops changing stays the same, so stopping early returns
    what the remaining rounds would.
    """
    current: frozenset = frozenset()
    for depth in count() if rounds is None else range(rounds):
        nxt = step(current)
        if nxt == current:
            return current, depth
        current = nxt
    return current, None


def lfp_forward_rel(rel: GroundRelation) -> Interpretation:
    return kleene(lambda xs: post(rel, xs))[0]


def lfp_backward_rel(rel: GroundRelation, goal: Interpretation) -> Interpretation:
    return kleene(lambda xs: goal | pre(rel, xs))[0]


def lfp_combined_rel(rel: GroundRelation, goal: Interpretation) -> Interpretation:
    """Atoms both derivable and useful for deriving a goal atom."""
    forward = lfp_forward_rel(rel)
    return kleene(lambda xs: (goal & forward) | pre_restricted(rel, forward, xs))[0]


def check_combined_closure(rel: GroundRelation, goal: Interpretation) -> bool:
    """Combining the two fixpoints needs no further iteration.

    With ``M'`` the combined semantics of ``rel`` and the goal atoms
    ``goal``, the least fixpoint of ``X -> post(X) & M'`` must already
    be ``M'`` itself.
    """
    combined = lfp_combined_rel(rel, goal)
    return kleene(lambda xs: post(rel, xs) & combined)[0] == combined

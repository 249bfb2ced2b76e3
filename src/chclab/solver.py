"""Alternating forward/backward interval analyses with certificates.

The forward analysis computes, per predicate, a box containing every
derivable tuple allowed by a restriction; the backward analysis
computes boxes containing every tuple from which a goal is reachable
while staying inside a restriction.  :func:`alternate` interleaves the
two, feeding each result to the next pass as the restriction, which
narrows both until the goal is proved unreachable (SAFE) or the
sequence stabilizes (UNKNOWN).

Each direction has one transformer, built by :func:`forward_flow` and
:func:`backward_flow`; the analyses iterate it and :func:`certify_trace`
evaluates it once more on every element of the trace.  That exact check
is the only inductiveness check, so widening and iteration-order choices
cannot affect soundness, only precision.  :func:`alternate` holds the
one round loop; ``qa-iter`` runs it too (:func:`chclab.qa.qa_iterated`).

The flows compute each clause transformer through a
:class:`ClauseResults` table that lives for one run.  The table holds
each clause compiled (:class:`~chclab.domain.CompiledClause`), so a
clause's constraint is converted to DNF and lowered to integer rows once
per run.  The compiled clause keeps the result of each call and
returns the empty box for an empty input box, so the analyses and
:func:`certify_trace` look up what the run already computed; the
restriction meet and the goal seed are applied outside the table.
:func:`alternate` creates the table and passes it to both analyses and
to the certifier, which read the system from it, and the run's top and
bottom element, which the table builds once and every pass shares.

The goal element takes the same route: the goal of a system is a tuple
of body-less clauses (``System.goal``), and :func:`goal_element`
compiles each of them and projects it onto its head with ``post``, so a
goal guard is converted to DNF and lowered like a clause constraint.

From a full alternation trace a refined model is composed.  Its parts
are boxes, so box order alone decides which of them are empty
(:meth:`RefinedModel.as_dict`); :func:`check_model` verifies any
candidate model independently, clause by clause, without the table.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .depgraph import dependency_order, edges, reach
from .domain import AbstractElement, Box, CompiledClause
from .linlogic import sat_cube
from .syntax import (
    Formula,
    PredApp,
    System,
    FALSE,
    conj,
    disj,
    format_clause,
    negate_formula,
    param_vars,
)


class _AnalysisOptions(NamedTuple):
    max_rounds: int = 5
    widening_delay: int = 2
    descending_passes: int = 1
    start: str = "forward"  # round 1: "forward", "backward" or "coarse" (see alternate)


class AnalysisConfig(_AnalysisOptions):
    """The options of an analysis, checked whenever a config is built,
    by :meth:`_replace` as well."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "AnalysisConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")
        for name in ("widening_delay", "descending_passes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        if self.start not in ("forward", "backward", "coarse"):
            raise ValueError(f"start must be forward, backward or coarse, got {self.start!r}")
        return self

    def _replace(self, **changes) -> "AnalysisConfig":
        # NamedTuple's own _replace builds the copy through _make, which
        # skips __new__ and so the checks.
        return AnalysisConfig(**{**self._asdict(), **changes})


class RoundCert(NamedTuple):
    """Exact checks of one alternation round against the step laws."""

    forward_law: bool = True
    seed_law: bool = True
    backward_law: bool = True
    chain_law: bool = True

    @property
    def ok(self) -> bool:
        return self.forward_law and self.seed_law and self.backward_law and self.chain_law


class AlternationTrace(NamedTuple):
    """The computed sequence d_1, b_1, d_2, ... as the rounds ``(d_i,
    b_i)``, and the certificate of each round.  ``b_i`` is ``None`` only
    in a last round whose ``d_i`` is empty."""

    rounds: Sequence[tuple[AbstractElement, AbstractElement | None]] = ()
    certs: Sequence[RoundCert] = ()

    @property
    def certified(self) -> bool:
        return all(c.ok for c in self.certs)


class RefinedModel(NamedTuple):
    """The last forward element plus the earlier (d, b) layers.

    Denotes the union of the final element with everything each earlier
    forward element covers beyond the matching backward element; that
    union is a model whenever the trace satisfies the step laws.
    """

    final: AbstractElement
    layers: tuple[tuple[AbstractElement, AbstractElement], ...]

    def as_dict(self) -> dict[str, Formula]:
        """Negation-free formulas over positional variables X1, X2, ..."""
        out: dict[str, Formula] = {}
        for name, box in self.final.items():
            variables = param_vars(box.arity)
            parts: list[Formula] = [box.formula(variables)]
            # Empty parts add nothing; drop them for readability.  An
            # empty box is ``false``, which ``disj`` drops, and a layer
            # ``d and not b`` is empty exactly when box ``d`` lies inside
            # box ``b``.
            for d, b in self.layers:
                dp, bp = d[name], b[name]
                if not dp.leq(bp):
                    parts.append(conj([dp.formula(variables), bp.complement(variables)]))
            out[name] = disj(parts)
        return out


class Verdict(NamedTuple):
    witness: RefinedModel
    rounds_used: int
    # Why the rounds ended: "empty_element" (SAFE), "stabilized" (a round
    # repeated the previous one) or "round_budget".
    stop_reason: str

    @property
    def safe(self) -> bool:
        return self.stop_reason == "empty_element"

    @property
    def status(self) -> str:
        return "SAFE" if self.safe else "UNKNOWN"


def goal_element(system: System) -> AbstractElement:
    """Tightest element whose concretization covers the goal atoms: the
    join, per head predicate, of ``post`` of each goal clause, assigned
    into the fresh bottom element this function returns."""
    elem = AbstractElement.bottom(system)
    for goal in system.goal:
        name = goal.head.pred.name
        elem[name] = elem[name].join(CompiledClause(goal).post(()))
    return elem


class ClauseResults:
    """The exact clause-transformer results of one solve run.

    ``post(i, elem)`` is ``clause_post`` of clause ``i`` of the system and
    ``pre(i, j, r, elem)`` is ``clause_pre_restricted`` of its body
    position ``j``, each handed to the clause's compiled clause in
    ``compiled``, which computes a result once per set of input boxes
    (see :class:`~chclab.domain.CompiledClause`).  ``heads[p]`` lists
    the clauses with head ``p`` and ``positions[p]`` the ``(clause,
    body position)`` pairs where ``p`` occurs in a body;
    ``bodies[i]`` holds the predicate names of clause ``i``'s body atoms.
    ``top`` and ``bottom`` are the run's top and bottom elements, which
    every pass of the run shares and none assigns into.
    """

    def __init__(self, system: System):
        self.system = system
        self.heads: dict[str, list[int]] = {d.name: [] for d in system.decls}
        self.positions: dict[str, list[tuple[int, int]]] = {d.name: [] for d in system.decls}
        for i, clause in enumerate(system.clauses):
            self.heads[clause.head.pred.name].append(i)
            for j, app in enumerate(clause.body):
                self.positions[app.pred.name].append((i, j))
        self.bodies = [tuple(app.pred.name for app in clause.body) for clause in system.clauses]
        self.top = AbstractElement.top(system)
        self.bottom = AbstractElement.bottom(system)

    @cached_property
    def compiled(self) -> list[CompiledClause]:
        """Each clause of the system compiled; a compiled clause does its
        work on its first call."""
        return [CompiledClause(clause) for clause in self.system.clauses]

    @cached_property
    def order(self):
        """The system's dependency order, computed once per run."""
        return dependency_order(self.system)

    def post(self, i: int, elem: AbstractElement) -> Box:
        return self.compiled[i].post(map(elem.__getitem__, self.bodies[i]))

    def pre(self, i: int, j: int, r: AbstractElement, elem: AbstractElement) -> Box:
        head = elem[self.system.clauses[i].head.pred.name]
        return self.compiled[i].pre(j, head, map(r.__getitem__, self.bodies[i]))


def forward_flow(results: ClauseResults, r: AbstractElement):
    """The forward transformer of each predicate within restriction ``r``:
    ``flow(p, elem)`` joins what every clause with head ``p`` derives
    from ``elem``, met with ``r[p]``."""

    def flow(p: str, elem: AbstractElement) -> Box:
        acc = results.bottom[p]
        for i in results.heads[p]:
            acc = acc.join(results.post(i, elem))
        return acc.meet(r[p])

    return flow


def backward_flow(results: ClauseResults, g: AbstractElement, r: AbstractElement):
    """The backward transformer of each predicate within restriction
    ``r``: ``flow(p, elem)`` joins the goal seed ``(g meet r)[p]`` with
    every body position of ``p`` from which a clause reaches ``elem``
    while all of its body atoms stay inside ``r``."""
    seed = g.meet(r)

    def flow(p: str, elem: AbstractElement) -> Box:
        acc = seed[p]
        for i, j in results.positions[p]:
            acc = acc.join(results.pre(i, j, r, elem))
        return acc

    return flow


def _solve_components(components, flow, start, restriction, config):
    """Generic chaotic iteration with delayed widening and narrowing.

    ``flow(pred, elem)`` must be monotone in ``elem`` and bounded by the
    restriction.  The result is meant to satisfy ``flow(p, result) <=
    result[p]`` for every predicate; nothing here checks that, because
    :func:`certify_trace` re-checks every law of every round exactly.
    ``start`` is copied once and each new box is assigned into the copy,
    so the element this returns is the only one it changes.
    """
    elem = AbstractElement(start)
    for comp in components:
        if not comp.recursive:
            for p in comp.preds:
                elem[p] = flow(p, elem)
            continue
        joins = {p: 0 for p in comp.preds}
        while True:
            changed = False
            for p in comp.preds:
                new = flow(p, elem)
                cur = elem[p]
                if new.leq(cur):
                    continue
                grown = cur.join(new)
                joins[p] += 1
                if joins[p] > config.widening_delay:
                    # Clip widening overshoot right away; the restriction
                    # is constant, so this cannot oscillate.
                    grown = cur.widen(grown).meet(restriction[p])
                elem[p] = grown
                changed = True
            if not changed:
                break
        for _ in range(config.descending_passes):
            for p in comp.preds:
                elem[p] = flow(p, elem)
    return elem


def analyze_forward(
    results: ClauseResults, restriction: AbstractElement, config: AnalysisConfig
) -> AbstractElement:
    """Boxes covering everything of ``results.system`` derivable within
    ``restriction``, looking clause results up in the run's table."""
    return _solve_components(
        results.order,
        forward_flow(results, restriction),
        results.bottom,
        restriction,
        config,
    )


def analyze_backward(
    results: ClauseResults,
    goal_elem: AbstractElement,
    restriction: AbstractElement,
    config: AnalysisConfig,
) -> AbstractElement:
    """Boxes covering everything inside ``restriction`` that can reach
    the goal element through body atoms also inside ``restriction``;
    ``results`` as in :func:`analyze_forward`."""
    return _solve_components(
        reversed(results.order),
        backward_flow(results, goal_elem, restriction),
        goal_elem.meet(restriction),
        restriction,
        config,
    )


def coarse_backward(system: System) -> frozenset[str]:
    """Names of the predicates from which a goal predicate is reachable
    in the clause graph, a cheap predicate-level backward approximation:
    one reachability query, :func:`~chclab.depgraph.reach` from the goal
    heads over the predecessors."""
    _, pred = edges(system)
    return frozenset(reach((goal.head.pred.name for goal in system.goal), pred, set()))


def _coarse_element(system: System) -> AbstractElement:
    members = coarse_backward(system)
    return AbstractElement(
        (d.name, Box.top(d.arity) if d.name in members else Box.empty(d.arity))
        for d in system.decls
    )


def alternate(
    system: System, config: AnalysisConfig = AnalysisConfig()
) -> tuple[AlternationTrace, Verdict]:
    """Run the alternating analysis and certify the whole trace.

    Round ``i`` computes the forward element ``d_i`` within ``b_{i-1}``
    (top in round 1) and then the backward element ``b_i`` within
    ``d_i``; ``config.start`` "backward" takes top for ``d_1``, and
    "coarse" also :func:`coarse_backward` for ``b_1``.  SAFE means some
    element became empty, which proves the goal unreachable; its trace
    ends with the round ``(empty d, None)``.  UNKNOWN is returned once a
    round repeats the previous one or the round budget runs out.  The
    trace is certified against the goal element, reusing the run's
    clause table, and a refined model is composed from it.
    """
    g = goal_element(system)
    results = ClauseResults(system)
    b = top = results.top
    rounds: list[tuple[AbstractElement, AbstractElement | None]] = []
    reason = "round_budget"
    for i in range(1, config.max_rounds + 1):
        forward = i > 1 or config.start == "forward"
        d = analyze_forward(results, b, config) if forward else top
        if d.is_bottom:
            rounds.append((d, None))
            reason = "empty_element"
            break
        if i == 1 and config.start == "coarse":
            b = _coarse_element(system).meet(d)
        else:
            b = analyze_backward(results, g, d, config)
        rounds.append((d, b))
        if b.is_bottom:
            # The next forward pass would be empty.
            rounds.append((results.bottom, None))
            reason = "empty_element"
            break
        if i >= 2 and rounds[-1] == rounds[-2]:
            reason = "stabilized"
            break
    trace = AlternationTrace(tuple(rounds))
    trace = trace._replace(certs=tuple(certify_trace(results, g, trace)))
    return trace, Verdict(refined_model(trace), i, reason)


def certify_trace(
    results: ClauseResults, g: AbstractElement, trace: AlternationTrace
) -> list[RoundCert]:
    """Exact per-round inclusion checks of the alternation laws.

    Round ``(d, b)`` is checked with the previous round's ``b`` as the
    forward restriction (top in round 1); a round ``(d, None)`` has only
    its forward law checked.  The forward and backward laws evaluate the
    flows the analyses iterate, so a law holds exactly when the round's
    element is a post-fixpoint of its flow.  They look clause results up
    in ``results``, the table of the run that computed the trace.
    """
    b_prev = results.top
    certs: list[RoundCert] = []
    for d, b in trace.rounds:
        forward_ok = _closed(forward_flow(results, b_prev), d)
        if b is None:
            certs.append(RoundCert(forward_law=forward_ok))
            continue
        seed_ok = g.meet(d).leq(b)
        backward_ok = _closed(backward_flow(results, results.bottom, d), b)
        chain_ok = b.leq(d) and d.leq(b_prev)
        certs.append(RoundCert(forward_ok, seed_ok, backward_ok, chain_ok))
        b_prev = b
    return certs


def _closed(flow, elem: AbstractElement) -> bool:
    """Does ``flow(p, elem) <= elem[p]`` hold for every predicate?"""
    return all(flow(name, elem).leq(box) for name, box in elem.items())


def refined_model(trace: AlternationTrace) -> RefinedModel:
    """Package a trace into its model: the last forward element plus,
    for every earlier round, what the forward element covered beyond
    the matching backward element (those tuples cannot reach the goal,
    so keeping all of them preserves model-ness)."""
    return RefinedModel(trace.rounds[-1][0], tuple(trace.rounds[:-1]))


class ModelCheckResult(NamedTuple):
    violations: tuple[tuple[int, str, str], ...] = ()
    # (clause index, clause text, satisfiable witness cube)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def check_model(system: System, model: Mapping[str, Formula]) -> ModelCheckResult:
    """Clause-by-clause verification of a candidate model.

    For each clause, body formulas plus the constraint must entail the
    head formula: the conjunction with the negated head formula has to
    be unsatisfiable.  That conjunction is decided by :func:`sat_cube`,
    which never expands it to DNF: the negation of a refined model has
    about (2·arity + 1)^layers cubes.  Each predicate's formula enters
    the search as an instance, with the renaming of its parameters to
    the atom's arguments, so no renamed formula is built, and a head
    formula is negated once per predicate, not once per clause.  A
    violation carries the satisfiable cube the search found as its
    witness.  Raises :class:`ResourceLimitError` when a search passes
    its branch budget.
    """
    formulas = _formulas(model)
    negated: dict[str, Formula] = {}
    violations: list[tuple[int, str, str]] = []
    for idx, clause in enumerate(system.clauses):
        instances = [(formulas[app.pred.name], _params(app)) for app in clause.body]
        head = clause.head.pred.name
        if head not in negated:
            negated[head] = negate_formula(formulas[head])
        instances.append((negated[head], _params(clause.head)))
        witness = sat_cube(clause.constraint, instances)
        if witness is not None:
            violations.append((idx, format_clause(clause), str(witness)))
    return ModelCheckResult(tuple(violations))


def goal_disjoint(system: System, model: Mapping[str, Formula]) -> bool:
    """Is the model disjoint from every goal instance?"""
    formulas = _formulas(model)
    for goal in system.goal:
        instance = (formulas[goal.head.pred.name], _params(goal.head))
        if sat_cube(goal.constraint, (instance,)) is not None:
            return False
    return True


def _formulas(model: Mapping[str, Formula]) -> defaultdict[str, Formula]:
    """The formula of each predicate in ``model``; a missing entry reads
    ``false``, as in :func:`chclab.parser.parse_model`."""
    return defaultdict(lambda: FALSE, model)


def _params(app: PredApp) -> dict[str, str]:
    """The renaming of a model formula's parameters to the arguments of
    ``app``."""
    return dict(zip(param_vars(app.pred.arity), app.args))

"""The alternation's backward pass by transformation: a forward analysis
of the reversed system.

Every clause ``h :- b_1, ..., b_n, c`` with a body yields the reversed
clauses ``b_j :- h, c ∧ d[b_1] ∧ ... ∧ d[b_n]``, so a fact runs from the
head to each body atom while every body atom stays inside the forward
element ``d``; each goal clause ``app :- guard`` becomes the fact
``app :- seed[p](args)``.
Analyzed forward within ``d`` and seeded with ``(g ∩ d)[p]``, the
reversed system projects what ``CompiledClause.pre`` projects, through
``syntax`` formulas and fresh clause tables instead of the run's table.
It is the independent route the tests compare
:func:`chclab.solver.analyze_backward` against.
"""

from __future__ import annotations

from chclab.domain import AbstractElement
from chclab.solver import AnalysisConfig, ClauseResults, analyze_forward
from chclab.syntax import Clause, System, conj


def reverse_system(system: System, d: AbstractElement, seed: AbstractElement) -> System:
    """The backward pass as a forward system: clauses run head-to-body
    under the forward boxes ``d``, and each goal clause is seeded with the
    box ``seed[p]`` at its head's arguments."""
    clauses: list[Clause] = []
    for clause in system.clauses:
        if not clause.body:
            continue
        gate = conj(
            [clause.constraint]
            + [d[app.pred.name].formula(app.args) for app in clause.body]
        )
        for app in clause.body:
            clauses.append(Clause((clause.head,), gate, app))
    for goal in system.goal:
        box = seed[goal.head.pred.name]
        clauses.append(goal._replace(constraint=box.formula(goal.head.args)))
    return system._replace(clauses=tuple(clauses))


def backward(
    system: System,
    g: AbstractElement,
    d: AbstractElement,
    config: AnalysisConfig = AnalysisConfig(),
) -> AbstractElement:
    """The backward element of goal element ``g`` within ``d``, seeded
    with ``g ∩ d`` as the native backward pass is."""
    return analyze_forward(ClauseResults(reverse_system(system, d, g.meet(d))), d, config)

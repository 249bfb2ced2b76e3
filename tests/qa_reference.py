"""Reference routes of the analyses :mod:`chclab.qa` relates to the
native solver.

The alternation's backward pass by transformation is a forward analysis
of the reversed system.  Every clause ``h :- b_1, ..., b_n, c`` with a
body yields the reversed clauses ``b_j :- h, c ∧ d[b_1] ∧ ... ∧
d[b_n]``, so a fact runs from the head to each body atom while every
body atom stays inside the forward element ``d``; each goal clause
``app :- guard`` becomes the fact ``app :- seed[p](args)``.
Analyzed forward within ``d`` and seeded with ``(g ∩ d)[p]``, the
reversed system projects what ``CompiledClause.pre`` projects, through
``syntax`` formulas and fresh clause tables instead of the run's table.
It is the independent route the tests compare
:func:`chclab.solver.analyze_backward` against.

qa2's second step by strengthening: every clause of the original system
gets its head's answer box conjoined to its constraint, and the
strengthened system is analyzed forward in a fresh clause table within
the answer boxes; the goal element is compiled from the goal guards by
:func:`chclab.solver.goal_element`.  It is the route the tests compare
:func:`chclab.qa.qa_two_step`, which reuses the first step's compiled
answer clauses and query seeds, against.
"""

from __future__ import annotations

from chclab.domain import AbstractElement
from chclab.qa import qa_transform
from chclab.solver import (
    AnalysisConfig,
    ClauseResults,
    RefinedModel,
    analyze_forward,
    goal_element,
)
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


def strengthen_heads(system: System, b: AbstractElement) -> System:
    """``system`` with the box ``b[p]`` at each clause head's arguments
    conjoined to the clause's constraint."""
    clauses = tuple(
        Clause(
            clause.body,
            conj([clause.constraint, b[clause.head.pred.name].formula(clause.head.args)]),
            clause.head,
        )
        for clause in system.clauses
    )
    return system._replace(clauses=clauses)


def two_step(
    system: System, config: AnalysisConfig = AnalysisConfig()
) -> tuple[AbstractElement, RefinedModel, AbstractElement]:
    """qa2's final element, model and goal element by the strengthened
    system, each step in a fresh clause table."""
    qa = qa_transform(system)
    qa_element = analyze_forward(ClauseResults(qa.system), AbstractElement.top(qa.system), config)
    answers = AbstractElement((pair.orig, qa_element[pair.answer]) for pair in qa.pairs)
    queries = AbstractElement((pair.orig, qa_element[pair.query]) for pair in qa.pairs)
    final = analyze_forward(ClauseResults(strengthen_heads(system, answers)), answers, config)
    model = RefinedModel(final, ((AbstractElement.top(system), queries),))
    return final, model, goal_element(system)

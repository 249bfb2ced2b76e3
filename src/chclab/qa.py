"""Query-answer transformation and the analyses built on it.

The transformation splits every predicate ``p`` into a query predicate
(tuples the goal search asks about) and an answer predicate (queried
tuples that are also derivable), so that a single forward analysis of
the transformed system simulates goal-directed propagation.  Each goal
clause ``app :- guard`` of the system becomes the query seed
``app_q :- guard``, and the transformed system's goal clauses are the
same clauses on the answer predicates, ``app_a :- guard``.  On top of
it sits the two-phase strengthened analysis, for comparison with the
native alternating solver.

:func:`qa_iterated` runs :func:`~chclab.solver.alternate` from a
forward start.  A backward pass by transformation, the forward analysis
of the reversed system, projects what the native backward pass
projects; ``tests/qa_reference.py`` keeps it as the reference for
:func:`~chclab.solver.analyze_backward`.
"""

from __future__ import annotations

from typing import NamedTuple

from .domain import AbstractElement
from .solver import (
    AlternationTrace,
    AnalysisConfig,
    ClauseResults,
    RefinedModel,
    Verdict,
    alternate,
    analyze_forward,
    goal_element,
)
from .syntax import Clause, PredApp, PredDecl, System, conj


class QAPredPair(NamedTuple):
    orig: str
    query: str
    answer: str


class QASystem(NamedTuple):
    system: System
    pairs: tuple[QAPredPair, ...]


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def qa_transform(system: System) -> QASystem:
    """Split predicates into query/answer pairs and rewrite the clauses.

    Every original clause yields one answer clause (derivable and
    queried) and one query clause per body atom (the goal search
    descends into the i-th premise once the earlier premises have
    answers).  Goal clauses seed the query predicates.
    """
    taken = {d.name for d in system.decls} | {"false"}
    pairs = []
    decls: dict[str, tuple[PredDecl, PredDecl]] = {}
    for d in system.decls:
        q = PredDecl(_fresh(f"{d.name}_q", taken), d.arity)
        a = PredDecl(_fresh(f"{d.name}_a", taken), d.arity)
        pairs.append(QAPredPair(d.name, q.name, a.name))
        decls[d.name] = (q, a)

    def q_app(app: PredApp) -> PredApp:
        return PredApp(decls[app.pred.name][0], app.args)

    def a_app(app: PredApp) -> PredApp:
        return PredApp(decls[app.pred.name][1], app.args)

    clauses: list[Clause] = []
    for clause in system.clauses:
        answers = tuple(a_app(app) for app in clause.body)
        clauses.append(
            Clause((q_app(clause.head), *answers), clause.constraint, a_app(clause.head))
        )
        for i, app in enumerate(clause.body):
            clauses.append(
                Clause(
                    (q_app(clause.head), *answers[:i]),
                    clause.constraint,
                    q_app(app),
                )
            )
    clauses.extend(goal._replace(head=q_app(goal.head)) for goal in system.goal)

    flat = [decl for pair in decls.values() for decl in pair]
    qa_goal = tuple(goal._replace(head=a_app(goal.head)) for goal in system.goal)
    qa_system = System.make(flat, tuple(clauses), system.universe, qa_goal)
    return QASystem(qa_system, tuple(pairs))


def _project(qa: QASystem, element: AbstractElement, which: str) -> AbstractElement:
    """Pull the query or answer boxes back onto the original predicates."""
    # The transformed system has its own (never derived) falsity.
    split = {p.query for p in qa.pairs} | {p.answer for p in qa.pairs}
    for name, box in element.items():
        if name not in split and not box.is_empty:
            raise RuntimeError(f"query-answer analysis derived {name}: {box}")
    return AbstractElement(
        (pair.orig, element[pair.query if which == "query" else pair.answer])
        for pair in qa.pairs
    )


def qa_two_step(
    system: System, config: AnalysisConfig = AnalysisConfig()
) -> tuple[AbstractElement, Verdict]:
    """Analyze the transformed system, then the strengthened original.

    The answer boxes of the first run are conjoined into the matching
    clause heads, and the second forward run is kept inside them; the
    returned model maps every predicate to "queried implies covered".
    """
    qa = qa_transform(system)
    qa_element = analyze_forward(ClauseResults(qa.system), AbstractElement.top(qa.system), config)
    answers = _project(qa, qa_element, "answer")
    queries = _project(qa, qa_element, "query")
    final = analyze_forward(ClauseResults(_strengthen_heads(system, answers)), answers, config)
    g = goal_element(system)
    safe = g.meet(final).is_bottom
    model = RefinedModel(final, ((AbstractElement.top(system), queries),))
    # The two steps are fixed, so an UNKNOWN here has spent its budget.
    return final, Verdict(model, 2, "empty_element" if safe else "round_budget")


def _strengthen_heads(system: System, b: AbstractElement) -> System:
    clauses = tuple(
        Clause(
            clause.body,
            conj(
                [clause.constraint, b[clause.head.pred.name].formula(clause.head.args)]
            ),
            clause.head,
        )
        for clause in system.clauses
    )
    return system._replace(clauses=clauses)


def qa_iterated(
    system: System, config: AnalysisConfig = AnalysisConfig()
) -> tuple[AlternationTrace, Verdict]:
    """The ``qa-iter`` mode: the alternation with ``start="forward"``,
    whatever ``config.start`` says.  It stays only because the benchmark
    (``bench/measure.py``) calls it."""
    return alternate(system, config._replace(start="forward"))

"""Query-answer transformation and the analyses built on it.

The transformation splits every predicate ``p`` into a query predicate
(tuples the goal search asks about) and an answer predicate (queried
tuples that are also derivable), so that a single forward analysis of
the transformed system simulates goal-directed propagation.  Each goal
clause ``app :- guard`` of the system becomes the query seed
``app_q :- guard``, and the transformed system's goal clauses are the
same clauses on the answer predicates, ``app_a :- guard``.

On top of it sits :func:`qa_two_step`, for comparison with the native
alternating solver.  Its first step analyzes the transformed system
forward.  Its second step analyzes the original system forward within
the first step's answer boxes, as if each clause head were strengthened
by its answer box, but it compiles nothing again: each original clause
``p(args) :- b_1, ..., b_n, c`` posts through its answer clause
``p_a(args) :- p_q(args), b_1_a, ..., b_n_a, c`` of the first step's
clause table, whose query atom ranges over exactly the head's arguments
and takes the head's answer box; where its inputs repeat, that compiled
clause returns what the first step computed.  The goal element is read
off the same table, as the posts of the query seeds.

:func:`qa_iterated` runs :func:`~chclab.solver.alternate` from a
forward start.  A backward pass by transformation, the forward analysis
of the reversed system, projects what the native backward pass
projects; ``tests/qa_reference.py`` keeps it as the reference for
:func:`~chclab.solver.analyze_backward`, and the strengthened system as
the reference route of :func:`qa_two_step`.
"""

from __future__ import annotations

from typing import NamedTuple

from .domain import AbstractElement, Box
from .solver import (
    AlternationTrace,
    AnalysisConfig,
    ClauseResults,
    RefinedModel,
    Verdict,
    alternate,
    analyze_forward,
)
from .syntax import Clause, PredApp, PredDecl, System


class QAPredPair(NamedTuple):
    orig: str
    query: str
    answer: str


class QASystem(NamedTuple):
    system: System
    pairs: tuple[QAPredPair, ...]
    # The index in ``system.clauses`` of each original clause's answer
    # clause, and of the first query seed.
    answer_clauses: tuple[int, ...]
    seeds: int


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
    answer_clauses = []
    for clause in system.clauses:
        answer_clauses.append(len(clauses))
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
    seeds = len(clauses)
    clauses.extend(goal._replace(head=q_app(goal.head)) for goal in system.goal)

    flat = [decl for pair in decls.values() for decl in pair]
    qa_goal = tuple(goal._replace(head=a_app(goal.head)) for goal in system.goal)
    qa_system = System.make(flat, tuple(clauses), system.universe, qa_goal)
    return QASystem(qa_system, tuple(pairs), tuple(answer_clauses), seeds)


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
    """Analyze the transformed system, then the original within its
    answer boxes.

    The second forward run evaluates each clause through its answer
    clause in the first run's table (see the module docstring), which
    derives what the clause with its head's answer box conjoined
    derives; the returned model maps every predicate to "queried
    implies covered".
    """
    qa = qa_transform(system)
    table = ClauseResults(qa.system)
    qa_element = analyze_forward(table, table.top, config)
    answers = _project(qa, qa_element, "answer")
    queries = _project(qa, qa_element, "query")
    second = _AnswerClauses(system, table, qa, answers)
    final = analyze_forward(second, answers, config)
    safe = _goal_element(system, qa, table, qa_element).meet(final).is_bottom
    model = RefinedModel(final, ((second.top, queries),))
    # The two steps are fixed, so an UNKNOWN here has spent its budget.
    return final, Verdict(model, 2, "empty_element" if safe else "round_budget")


def _goal_element(
    system: System, qa: QASystem, table: ClauseResults, qa_element: AbstractElement
) -> AbstractElement:
    """:func:`~chclab.solver.goal_element` of ``system`` read off the
    first step's ``table``: the join, per head predicate, of the posts of
    the query seeds, which that step computed from the goal guards."""
    g = AbstractElement.bottom(system)
    for k, goal in enumerate(system.goal, qa.seeds):
        name = goal.head.pred.name
        g[name] = g[name].join(table.post(k, qa_element))
    return g


class _AnswerClauses(ClauseResults):
    """The clause table of :func:`qa_two_step`'s second step: ``post(i,
    elem)`` is the post of clause ``i``'s answer clause in the first
    step's ``table``, with the head's answer box for its query atom and
    ``elem``'s boxes for its body atoms.  That compiled clause returns
    the empty box when the answer box is empty too, and a result the
    first step computed for the same boxes.  The second step is a
    forward run only, so ``pre`` is never called.  It compiles no
    clause: ``compiled`` holds the answer clauses of ``table``, and the
    rest of its state is built for ``system``."""

    def __init__(
        self, system: System, table: ClauseResults, qa: QASystem, answers: AbstractElement
    ):
        super().__init__(system)
        self.compiled = [table.compiled[k] for k in qa.answer_clauses]
        self.answers = answers

    def post(self, i: int, elem: AbstractElement) -> Box:
        query = self.answers[self.system.clauses[i].head.pred.name]
        return self.compiled[i].post((query, *map(elem.__getitem__, self.bodies[i])))


def qa_iterated(
    system: System, config: AnalysisConfig = AnalysisConfig()
) -> tuple[AlternationTrace, Verdict]:
    """The ``qa-iter`` mode, the one definition :func:`chclab.cli.solve`
    and the benchmark run: the alternation with ``start="forward"``,
    whatever ``config.start`` says."""
    return alternate(system, config._replace(start="forward"))

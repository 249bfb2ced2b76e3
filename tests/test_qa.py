"""Query-answer transformation: structure, semantics, analysis modes."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qa_reference
from chclab.concrete import (
    GroundAtom,
    goal_atoms,
    ground_relation,
    lfp_combined_rel,
    lfp_forward_rel,
)
from chclab.parser import parse_system
from chclab import qa
from chclab.qa import qa_iterated, qa_transform, qa_two_step
from chclab.solver import (
    AnalysisConfig,
    ClauseResults,
    alternate,
    analyze_backward,
    check_model,
    goal_disjoint,
    goal_element,
)
from chclab.syntax import format_system
from conftest import CORPUS
from randgen import (
    fuzz_text,
    random_finite_system,
    random_element,
    random_goal_text,
    rounds_like_text,
    wide_finite_text,
)
from test_solver import _one_box_changed

F = Fraction


# -- transform structure -----------------------------------------------------------


def test_pairs_cover_every_predicate(addition_loops):
    qa = qa_transform(addition_loops)
    assert {p.orig for p in qa.pairs} == {d.name for d in addition_loops.decls}
    names = {d.name for d in qa.system.decls}
    for pair in qa.pairs:
        assert pair.query in names and pair.answer in names


def test_clause_counts(addition_loops):
    # n body atoms: one answer clause plus n query clauses; the default
    # goal adds one seed clause for the falsity query
    qa = qa_transform(addition_loops)
    want = sum(1 + len(c.body) for c in addition_loops.clauses) + 1
    assert len(qa.system.clauses) == want


def _names(qa, orig: str) -> tuple[str, str]:
    """The query and the answer predicate of the original ``orig``."""
    (pair,) = [pair for pair in qa.pairs if pair.orig == orig]
    return pair.query, pair.answer


def test_answer_clause_shape(ladder):
    qa = qa_transform(ladder)
    qname, aname = _names(qa, "p")
    # the init clause "p(1)." becomes "p_a(V) :- p_q(V), V = 1."
    answers = [
        c
        for c in qa.system.clauses
        if c.head.pred.name == aname and len(c.body) == 1
    ]
    assert any(c.body[0].pred.name == qname for c in answers)


def test_query_prefix_clauses(ladder):
    qa = qa_transform(ladder)
    qname, aname = _names(qa, "p")
    # from "p(5) :- p(2), p(4).": the second body atom's query clause
    # carries the first body atom's answer as context
    two_body = [
        c
        for c in qa.system.clauses
        if c.head.pred.name == qname
        and len(c.body) == 2
        and {a.pred.name for a in c.body} == {qname, aname}
    ]
    assert two_body, "missing prefixed query clause"


def test_goal_seed_and_goal_spec(ladder):
    qa = qa_transform(ladder)
    qname, aname = _names(qa, "p")
    seeds = [c for c in qa.system.clauses if not c.body and c.head.pred.name == qname]
    assert len(seeds) == 1
    assert {goal.head.pred.name for goal in qa.system.goal} == {aname}


def test_transform_reparses(corpus_systems):
    # the printed transform parses back; the parser may re-normalize
    # shared variables, after which printing is a fixed point
    for name, system in corpus_systems:
        text = format_system(qa_transform(system).system)
        once = format_system(parse_system(text))
        assert format_system(parse_system(once)) == once, name


def test_transform_reparse_preserves_semantics(ladder):
    qa = qa_transform(ladder)
    reparsed = parse_system(format_system(qa.system))
    assert lfp_forward_rel(ground_relation(reparsed)) == lfp_forward_rel(
        ground_relation(qa.system)
    )


def test_fresh_names_avoid_collisions():
    system = parse_system("pred p/1.\npred p_q/1.\np(X) :- p_q(X).\np_q(X) :- X = 0.\n")
    qa = qa_transform(system)
    names = [d.name for d in qa.system.decls]
    assert len(names) == len(set(names))


# -- semantics ----------------------------------------------------------------------


def test_qa_least_model_overapproximates_combined(ladder):
    qa = qa_transform(ladder)
    answers = lfp_forward_rel(ground_relation(qa.system))
    _, aname = _names(qa, "p")
    got = {a.args[0] for a in answers if a.pred == aname}
    combined = {
        a.args[0] for a in lfp_combined_rel(ground_relation(ladder), goal_atoms(ladder))
    }
    assert combined <= got
    # the known precision gap: the transformed system derives p_a(2)
    assert F(2) in got and F(2) not in combined
    assert got == {F(1), F(2), F(3), F(5)}


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_qa_answers_cover_combined_on_random_systems(seed):
    system = random_finite_system(seed)
    qa = qa_transform(system)
    answers = lfp_forward_rel(ground_relation(qa.system))
    combined = lfp_combined_rel(ground_relation(system), goal_atoms(system))
    names = {p.orig: p.answer for p in qa.pairs}
    renamed = {GroundAtom(names[a.pred], a.args) for a in combined}
    assert renamed <= answers


# -- abstract analyses over the transform ---------------------------------------------


def test_qa_two_step_addition_loops_unknown(addition_loops):
    final, verdict = qa_two_step(addition_loops)
    assert verdict.status == "UNKNOWN"
    assert check_model(addition_loops, verdict.witness.as_dict()).ok


def test_qa_two_step_models_check_out(corpus_systems):
    for name, system in corpus_systems:
        _, verdict = qa_two_step(system)
        model = verdict.witness.as_dict()
        assert check_model(system, model).ok, name
        if verdict.status == "SAFE":
            assert goal_disjoint(system, model), name


def test_qa_two_step_proves_trivial_disjointness():
    system = parse_system(
        "pred p/1.\np(X) :- X = 0.\np(Y) :- p(X), Y = X + 1.\nfalse :- p(X), X < 0.\n"
    )
    _, verdict = qa_two_step(system)
    assert verdict.status == "SAFE"


CONFIGS = pytest.mark.parametrize(
    "config",
    [AnalysisConfig(), AnalysisConfig(widening_delay=0), AnalysisConfig(descending_passes=0)],
    ids=["default", "widening-delay-0", "descending-passes-0"],
)


@CONFIGS
def test_qa_two_step_matches_the_strengthened_system(monkeypatch, config):
    # qa2's second step posts each clause through its answer clause of
    # the first step's table and reads the goal element off the query
    # seeds; the reference compiles the strengthened system and the goal
    # guards afresh.  Both must give the same final element, model and
    # goal element.
    goals = []

    def recorded(*args):
        goals.append(goal_of_seeds(*args))
        return goals[-1]

    goal_of_seeds = qa._goal_element
    monkeypatch.setattr(qa, "_goal_element", recorded)
    systems = [
        (path.name, parse_system(path.read_text(encoding="utf-8")))
        for path in sorted(CORPUS.glob("**/*.chc"))
    ]
    assert len(systems) == 27
    for name, generate in [
        ("fuzz", fuzz_text),
        ("wide", wide_finite_text),
        ("goal", random_goal_text),
        ("rounds", rounds_like_text),
    ]:
        systems += [(f"{name} {s}", parse_system(generate(s))) for s in range(40)]
    for name, system in systems:
        final, verdict = qa_two_step(system, config=config)
        want_final, want_model, want_goal = qa_reference.two_step(system, config)
        assert final == want_final, name
        assert verdict.witness == want_model, name
        assert goals.pop() == want_goal, name
        assert verdict.safe == want_goal.meet(want_final).is_bottom, name


def test_answer_clause_posts_match_the_strengthened_clauses(corpus_systems):
    # Transformer by transformer: with random answer boxes and random
    # body boxes, posting through the answer clause of the first step's
    # table derives what the clause strengthened by its head's answer box
    # derives.  The whole runs above cannot show a lost answer box: on
    # their systems the restriction by the answer boxes alone gives the
    # same elements.
    rng = random.Random(43)
    systems = corpus_systems + [(f"rounds {s}", parse_system(rounds_like_text(s))) for s in range(40)]
    compared = 0
    for name, system in systems:
        transformed = qa_transform(system)
        table = ClauseResults(transformed.system)
        for _ in range(3):
            answers = random_element(rng, system)
            got = qa._AnswerClauses(system, table, transformed, answers)
            want = ClauseResults(qa_reference.strengthen_heads(system, answers))
            for _ in range(3):
                elem = random_element(rng, system)
                for i in range(len(system.clauses)):
                    assert got.post(i, elem) == want.post(i, elem), (name, i)
                    compared += 1
    assert compared > 1000


def test_qa_two_step_compiles_each_clause_once(monkeypatch, lockstep_proc):
    # Each clause of the transformed system is converted to DNF at most
    # once: the second step and the goal element reuse the first step's
    # compiled clauses.  Compiling the strengthened clauses and the goal
    # guards again made 19 conversions here, against 12 clauses.  Nor is
    # a clause of the original system compiled, even unused: exactly one
    # compiled clause is built per transformed clause.
    from chclab import domain

    calls = built = 0
    to_dnf = domain.to_dnf
    init = domain.CompiledClause.__init__

    def counted(formula):
        nonlocal calls
        calls += 1
        return to_dnf(formula)

    def building(self, clause):
        nonlocal built
        built += 1
        init(self, clause)

    monkeypatch.setattr(domain, "to_dnf", counted)
    monkeypatch.setattr(domain.CompiledClause, "__init__", building)
    qa_two_step(lockstep_proc)
    assert 0 < calls <= len(qa_transform(lockstep_proc).system.clauses) == 12
    assert built == 12


def test_qa_iterated_addition_loops_safe(addition_loops):
    trace, verdict = qa_iterated(addition_loops)
    assert verdict.status == "SAFE"
    assert verdict.rounds_used == 2
    assert trace.certified


def test_qa_iterated_models_check_out(corpus_systems):
    for name, system in corpus_systems:
        _, verdict = qa_iterated(system)
        model = verdict.witness.as_dict()
        assert check_model(system, model).ok, name
        if verdict.status == "SAFE":
            assert goal_disjoint(system, model), name


def test_backward_pass_matches_the_reversed_system(corpus_systems):
    # analyze_backward against an independent route, the forward analysis
    # of the reversed system, within every nonempty forward element of
    # alt's traces and within each of those with one box lifted to top.
    # Each system keeps one clause table across its runs, so a table
    # result keyed on too few inputs is looked up where it is wrong.
    systems = corpus_systems + [
        ("rounds", parse_system((CORPUS / "stress" / "rounds.chc").read_text(encoding="utf-8"))),
        *((f"fuzz {s}", parse_system(fuzz_text(s))) for s in range(150)),
        *((f"wide {s}", parse_system(wide_finite_text(s))) for s in range(40)),
    ]
    assert len(systems) == 216
    compared = 0
    for name, system in systems:
        g = goal_element(system)
        results = ClauseResults(system)
        for budget in (5, 8):
            config = AnalysisConfig(max_rounds=budget)
            trace, _ = alternate(system, config=config)
            for i, (d, _) in enumerate(trace.rounds):
                if d.is_bottom:
                    continue
                for r in (d, *_one_box_changed(system, d)):
                    want = qa_reference.backward(system, g, r, config)
                    got = analyze_backward(results, g, r, config)
                    assert got == want, (name, budget, i)
                compared += 1
    assert compared == 709


def test_qa_iterated_respects_round_budget(addition_loops):
    trace, verdict = qa_iterated(addition_loops, config=AnalysisConfig(max_rounds=1))
    assert verdict.rounds_used <= 1
    assert verdict.status == "UNKNOWN"


@pytest.mark.parametrize(
    "config",
    [AnalysisConfig(), AnalysisConfig(descending_passes=0), AnalysisConfig(widening_delay=0)],
    ids=["default", "descending-passes-0", "widening-delay-0"],
)
def test_qa_iterated_traces_certify(corpus_systems, config):
    # qa-iter's rounds are certified against the native flows; these
    # systems failed the forward, chain or seed law while its forward pass
    # strengthened the clause heads and its backward pass ran unrestricted.
    seeded = [(f"fuzz {s}", fuzz_text(s)) for s in (8, 51, 53, 275, 279)]
    seeded.append(("wide 19", wide_finite_text(19)))
    systems = corpus_systems + [(name, parse_system(text)) for name, text in seeded]
    for name, system in systems:
        trace, verdict = qa_iterated(system, config=config)
        assert trace.certified, name
        assert check_model(system, verdict.witness.as_dict()).ok, name

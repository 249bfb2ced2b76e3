"""Fixpoint engine and alternation: verdicts, certificates, refined models."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chclab import linlogic
from chclab.concrete import ground_relation, lfp_forward, post
from chclab.domain import AbstractElement, Box, Interval
from chclab.parser import parse_system
from chclab.randgen import random_finite_system
from chclab.solver import (
    AnalysisConfig,
    alternate,
    analyze_backward,
    analyze_forward,
    certify_trace,
    check_model,
    coarse_backward,
    default_goal,
    goal_disjoint,
    goal_element,
    refined_model,
)
from conftest import CORPUS

F = Fraction


# -- forward analysis -----------------------------------------------------------


def test_forward_lockstep_boxes(lockstep):
    elem = analyze_forward(lockstep)
    assert str(elem.get("p")) == "[0, +oo) x [0, +oo)"
    # the box hull of p admits x != y, so the integrity clause fires abstractly
    assert not elem.get("false").is_empty


def test_forward_ladder_box(ladder):
    elem = analyze_forward(ladder)
    assert str(elem.get("p")) == "[1, 5]"
    # covers the concrete forward fixpoint
    for atom in lfp_forward(ladder):
        assert elem.gamma_contains(atom.pred, atom.args)


def test_forward_no_init_is_bottom(no_init):
    elem = analyze_forward(no_init)
    assert elem.get("p").is_empty and elem.get("false").is_empty


def test_forward_result_is_inductive(corpus_systems):
    from chclab.domain import clause_post

    for name, system in corpus_systems:
        elem = analyze_forward(system)
        for clause in system.clauses:
            box = clause_post(clause, elem)
            assert box.leq(elem.get(clause.head.pred.name)), (name, str(clause))


def test_forward_respects_restriction(ladder):
    restriction = AbstractElement.top(ladder).with_box(
        "p", Box.make(1, (Interval.of(None, 2),))
    )
    elem = analyze_forward(ladder, restriction=restriction)
    assert str(elem.get("p")) == "[1, 2]"


# -- backward analysis ------------------------------------------------------------


def test_backward_ladder(ladder):
    g = goal_element(ladder)
    assert str(g.get("p")) == "[5, 5]"
    elem = analyze_backward(ladder, g)
    assert str(elem.get("p")) == "[1, 5]"


def test_backward_bottom_goal_is_bottom(ladder):
    elem = analyze_backward(ladder, AbstractElement.bottom(ladder))
    assert elem.is_bottom


def test_goal_element_default_is_falsity(addition_loops):
    g = goal_element(addition_loops)
    assert not g.get("false").is_empty
    assert g.get("p1").is_empty and g.get("p2").is_empty


# -- coarse pass -------------------------------------------------------------------


def test_coarse_backward_lockstep_proc(lockstep_proc):
    reach = coarse_backward(lockstep_proc)
    assert {d.name for d in reach} == {"false", "p", "f", "f_c"}


def test_coarse_backward_prunes_unrelated():
    text = (
        "pred p/1.\npred q/1.\n"
        "p(X) :- X = 0.\nq(X) :- X = 1.\nfalse :- p(X), X > 0.\n"
    )
    reach = coarse_backward(parse_system(text))
    assert {d.name for d in reach} == {"false", "p"}


def test_coarse_backward_explicit_goal(ladder):
    reach = coarse_backward(ladder, ladder.goal)
    assert {d.name for d in reach} == {"p"}


# -- alternation -------------------------------------------------------------------


def test_alternate_addition_loops_safe(addition_loops):
    trace, verdict = alternate(addition_loops)
    assert verdict.status == "SAFE"
    assert verdict.rounds_used == 2
    assert trace.certified
    assert all(cert.ok for cert in trace.certs)


def test_alternate_ladder_unknown(ladder):
    # boxes cannot separate p(2) from the goal chain, so no proof
    trace, verdict = alternate(ladder)
    assert verdict.status == "UNKNOWN"
    assert trace.certified


def test_alternate_no_init_safe_first_round(no_init):
    trace, verdict = alternate(no_init)
    assert verdict.status == "SAFE" and verdict.rounds_used == 1


def test_alternate_trivially_disjoint_goal():
    system = parse_system(
        "pred p/1.\np(X) :- X = 0.\np(Y) :- p(X), Y = X + 1.\n"
        "goal p(X) : X < 0.\n"
    )
    trace, verdict = alternate(system)
    assert verdict.status == "SAFE" and verdict.rounds_used == 1


def test_alternation_chain_shrinks(addition_loops):
    # bs[0] is the initial unrestricted top; thereafter b_i <= d_i <= b_{i-1}
    trace, _ = alternate(addition_loops)
    assert trace.bs[0] == AbstractElement.top(addition_loops)
    for i in range(1, len(trace.bs)):
        assert trace.bs[i].leq(trace.ds[i - 1])
        assert trace.ds[i - 1].leq(trace.bs[i - 1])
    for i in range(1, len(trace.ds)):
        assert trace.ds[i].leq(trace.bs[min(i, len(trace.bs) - 1)])


def test_certify_trace_detects_tampering(addition_loops):
    trace, _ = alternate(addition_loops)
    g = goal_element(addition_loops)
    good = certify_trace(addition_loops, g, trace)
    assert all(c.ok for c in good)
    # the trace is one full round (d1, b1) and the empty d2
    assert len(trace.ds) == 2 and len(trace.bs) == 2
    top = AbstractElement.top(addition_loops)
    bottom = AbstractElement.bottom(addition_loops)
    d1 = trace.ds[0]
    tampered = {
        # a first descent below what the facts derive
        "forward_law": ([bottom, *trace.ds[1:]], trace.bs),
        # a backward element without the goal
        "seed_law": (trace.ds, [top, bottom]),
        # the goal seed alone, without the atoms that reach it
        "backward_law": (trace.ds, [top, g.meet(d1)]),
        # a backward element outside the forward one
        "chain_law": (trace.ds, [top, top]),
    }
    for law, (ds, bs) in tampered.items():
        bad = certify_trace(addition_loops, g, type(trace)(ds=ds, bs=bs))
        assert not getattr(bad[0], law), law


# -- refined models ----------------------------------------------------------------


def test_refined_model_passes_check(corpus_systems):
    for name, system in corpus_systems:
        trace, verdict = alternate(system)
        model = verdict.witness.as_dict()
        result = check_model(system, model)
        assert result.ok, (name, result.violations)


def test_safe_models_are_goal_disjoint(corpus_systems):
    for name, system in corpus_systems:
        _, verdict = alternate(system)
        if verdict.status == "SAFE":
            model = verdict.witness.as_dict()
            assert goal_disjoint(system, model), name


def test_refined_model_layers_compose(addition_loops):
    trace, verdict = alternate(addition_loops)
    rm = refined_model(trace)
    assert rm.final == trace.ds[-1]
    assert len(rm.layers) == len(trace.ds) - 1
    # the witness carried by the verdict is the same construction
    assert verdict.witness.as_dict().keys() == rm.as_dict().keys()


def test_check_model_flags_violation(ladder):
    from chclab.syntax import FALSE, TRUE

    bogus = {"p": FALSE, "false": FALSE}
    result = check_model(ladder, bogus)
    assert not result.ok
    # violations carry the clause index, rendered clause and a witness cube
    idx, clause_text, witness = result.violations[0]
    assert isinstance(idx, int) and clause_text.startswith("p(")
    assert witness
    honest = {"p": TRUE, "false": TRUE}
    assert check_model(ladder, honest).ok


def test_check_model_search_budget(monkeypatch):
    system = parse_system((CORPUS / "stress" / "rounds.chc").read_text(encoding="utf-8"))
    trace, verdict = alternate(system, config=AnalysisConfig(max_rounds=8))
    assert trace.certified and check_model(system, verdict.witness).ok
    monkeypatch.setattr(linlogic, "DEFAULT_CUBE_CAP", 16)
    with pytest.raises(linlogic.ResourceLimitError, match="satisfiability search"):
        check_model(system, verdict.witness)


def test_goal_disjoint_requires_empty_overlap(ladder):
    from chclab.syntax import TRUE

    assert not goal_disjoint(ladder, {"p": TRUE, "false": TRUE})


# -- configuration knobs ------------------------------------------------------------


def test_max_rounds_cap_respected(ladder):
    trace, verdict = alternate(ladder, config=AnalysisConfig(max_rounds=1))
    assert verdict.rounds_used <= 1
    assert len(trace.ds) <= 1


def test_more_rounds_never_lose_safety(corpus_systems):
    for name, system in corpus_systems:
        prev_safe = False
        for k in (1, 3, 5):
            _, verdict = alternate(system, config=AnalysisConfig(max_rounds=k))
            safe = verdict.status == "SAFE"
            assert not (prev_safe and not safe), (name, k)
            prev_safe = safe


def test_backward_start_direction(addition_loops):
    config = AnalysisConfig(start_direction="backward")
    trace, verdict = alternate(addition_loops, config=config)
    assert verdict.status == "SAFE"
    assert trace.certified


def test_coarse_first_sound(corpus_systems):
    config = AnalysisConfig(coarse_first=True)
    for name, system in corpus_systems:
        trace, verdict = alternate(system, config=config)
        model = verdict.witness.as_dict()
        assert check_model(system, model).ok, name
        if verdict.status == "SAFE":
            assert goal_disjoint(system, model), name


def test_default_config_values():
    config = AnalysisConfig()
    assert config.max_rounds == 5
    assert config.widening_delay == 2
    assert config.descending_passes == 1


# -- soundness against the ground semantics ------------------------------------------


def test_forward_covers_concrete_on_seeded_systems():
    for seed in range(40):
        system = random_finite_system(seed)
        elem = analyze_forward(system)
        for atom in lfp_forward(system):
            assert elem.gamma_contains(atom.pred, atom.args), (seed, str(atom))


def test_unknown_never_lies_on_seeded_systems():
    # whenever the concrete goal set is actually reachable, the abstract
    # verdict must not claim SAFE
    from chclab.concrete import goal_atoms, lfp_combined

    flagged = 0
    for seed in range(60):
        system = random_finite_system(seed)
        goal = goal_atoms(system)
        reachable = lfp_combined(system, goal)
        _, verdict = alternate(system)
        if reachable & goal:
            assert verdict.status != "SAFE", seed
            flagged += 1
    assert flagged > 0  # the sample does contain genuinely unsafe systems


# -- certification of multi-round models on random systems ----------------------------


def _fuzz_comparison(rng: random.Random, variables) -> str:
    v, w = rng.choice(variables), rng.choice(variables)
    op = rng.choice(["<=", "<", "=", ">=", ">"])
    kind = rng.random()
    if kind < 0.4:
        return f"{v} {op} {rng.randint(0, 3)}"
    if kind < 0.7:
        return f"{v} {op} {w}"
    shift = rng.randint(-2, 2)
    return f"{v} {op} {w} {'-' if shift < 0 else '+'} {abs(shift)}"


def fuzz_text(seed: int) -> str:
    """A random system of 2-4 predicates of arity 2-4 and 3-8 clauses,
    shaped like the multi-round repro in ``corpus/stress/rounds.chc``."""
    rng = random.Random(seed)
    arities = [rng.randint(2, 4) for _ in range(rng.randint(2, 4))]
    variables = "ABCDEF"
    lines = [f"pred p{i}/{a}." for i, a in enumerate(arities)]

    def atom() -> str:
        i = rng.randrange(len(arities))
        return f"p{i}({', '.join(rng.choice(variables) for _ in range(arities[i]))})"

    nclauses = rng.randint(3, 8)
    for k in range(nclauses):
        body = [atom() for _ in range(rng.choices([0, 1, 2], weights=[30, 50, 20])[0])]
        body += [_fuzz_comparison(rng, variables) for _ in range(rng.randint(0, 3))]
        head = "false" if k == nclauses - 1 else atom()
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines) + "\n"


def test_multi_round_models_certify_on_seeded_systems():
    for seed in range(200):
        system = parse_system(fuzz_text(seed))
        trace, verdict = alternate(system, config=AnalysisConfig(max_rounds=8))
        assert trace.certified, seed
        assert check_model(system, verdict.witness).ok, seed
        if verdict.safe:
            assert goal_disjoint(system, verdict.witness), seed

"""Fixpoint engine and alternation: verdicts, certificates, refined models."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chclab import linlogic, solver
from chclab.concrete import (
    goal_atoms,
    ground_relation,
    lfp_combined_rel,
    lfp_forward_rel,
    post,
)
from chclab.depgraph import dependency_order
from chclab.domain import (
    AbstractElement,
    Box,
    CompiledClause,
    clause_post,
    clause_pre_restricted,
    formula_box,
)
from chclab.linlogic import Interval
from chclab.parser import RawApp, RawClause, parse_model, parse_system
from chclab.qa import qa_iterated, qa_transform, qa_two_step
from chclab.solver import (
    AlternationTrace,
    AnalysisConfig,
    ClauseResults,
    RefinedModel,
    alternate,
    analyze_backward,
    analyze_forward,
    backward_flow,
    certify_trace,
    check_model,
    coarse_backward,
    forward_flow,
    goal_disjoint,
    goal_element,
    refined_model,
)
from chclab.syntax import (
    FALSE,
    TRUE,
    Clause,
    LinTerm,
    PredApp,
    Rel,
    conj,
    disj,
    format_clause,
    lin,
    negate_formula,
    param_vars,
)
from chclab.trees import check_tree_props
from conftest import CORPUS, interval, point_box
from fm_reference import sub
from formula_reference import eval_formula, rename_formula
from randgen import random_finite_system, random_goal_text
from test_trees import forward_trees

F = Fraction


def forward(system):
    """The forward analysis of ``system`` within top, on a fresh clause
    table."""
    return analyze_forward(ClauseResults(system), AbstractElement.top(system), AnalysisConfig())


def backward(system, g):
    """The backward analysis of ``system`` from goal element ``g``, as
    :func:`forward` runs the forward one."""
    top = AbstractElement.top(system)
    return analyze_backward(ClauseResults(system), g, top, AnalysisConfig())


# -- forward analysis -----------------------------------------------------------


def test_forward_lockstep_boxes(lockstep):
    elem = forward(lockstep)
    assert str(elem["p"]) == "[0, +oo) x [0, +oo)"
    # the box hull of p admits x != y, so the integrity clause fires abstractly
    assert not elem["false"].is_empty


def test_forward_ladder_box(ladder):
    elem = forward(ladder)
    assert str(elem["p"]) == "[1, 5]"
    # covers the concrete forward fixpoint
    for atom in lfp_forward_rel(ground_relation(ladder)):
        assert point_box(atom.args).leq(elem[atom.pred])


def test_forward_no_init_is_bottom(no_init):
    elem = forward(no_init)
    assert elem["p"].is_empty and elem["false"].is_empty


def test_forward_result_is_inductive(corpus_systems):
    for name, system in corpus_systems:
        elem = forward(system)
        for clause in system.clauses:
            box = clause_post(clause, elem)
            assert box.leq(elem[clause.head.pred.name]), (name, str(clause))


def test_forward_respects_restriction(ladder):
    restriction = AbstractElement(AbstractElement.top(ladder), p=Box.make(1, (interval(None, 2),)))
    elem = analyze_forward(ClauseResults(ladder), restriction, AnalysisConfig())
    assert str(elem["p"]) == "[1, 2]"


# -- backward analysis ------------------------------------------------------------


def test_backward_ladder(ladder):
    g = goal_element(ladder)
    assert str(g["p"]) == "[5, 5]"
    elem = backward(ladder, g)
    assert str(elem["p"]) == "[1, 5]"


def test_backward_bottom_goal_is_bottom(ladder):
    elem = backward(ladder, AbstractElement.bottom(ladder))
    assert elem.is_bottom


def test_goal_element_default_is_falsity(addition_loops):
    g = goal_element(addition_loops)
    assert not g["false"].is_empty
    assert g["p1"].is_empty and g["p2"].is_empty


def _goal_element_by_formulas(system, goal):
    """The goal element by way of formulas: each goal clause's
    constraint converted to DNF and every cube projected onto its head's
    arguments."""
    elem = AbstractElement.bottom(system)
    for clause in goal:
        name = clause.head.pred.name
        box = formula_box(clause.constraint, clause.head.args)
        elem[name] = elem[name].join(box)
    return elem


def test_goal_element_matches_formula_route(corpus_systems):
    systems = list(corpus_systems)
    systems += [(seed, parse_system(fuzz_text(seed))) for seed in range(200)]
    nonempty = 0
    for label, system in systems:
        # Besides the declared goal, every clause read as a goal clause: its
        # head guarded by its constraint, which may mention other variables.
        goals = [system.goal, tuple(c._replace(body=()) for c in system.clauses)]
        for goal in goals:
            got = goal_element(system._replace(goal=goal))
            assert got == _goal_element_by_formulas(system, goal), label
            nonempty += sum(not box.is_empty and box.arity > 0 for box in got.values())
    assert nonempty > 100


# -- coarse pass -------------------------------------------------------------------


def test_coarse_backward_lockstep_proc(lockstep_proc):
    reach = coarse_backward(lockstep_proc)
    assert reach == {"false", "p", "f", "f_c"}


def test_coarse_backward_prunes_unrelated():
    text = (
        "pred p/1.\npred q/1.\n"
        "p(X) :- X = 0.\nq(X) :- X = 1.\nfalse :- p(X), X > 0.\n"
    )
    reach = coarse_backward(parse_system(text))
    assert reach == {"false", "p"}


def test_coarse_backward_explicit_goal(ladder):
    reach = coarse_backward(ladder)
    assert reach == {"p"}


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


@pytest.mark.parametrize(
    ("name", "status", "rounds", "reason"),
    [
        ("ladder.chc", "UNKNOWN", 2, "stabilized"),
        ("stress/rounds.chc", "UNKNOWN", 5, "round_budget"),
        ("addition_loops.chc", "SAFE", 2, "empty_element"),
    ],
)
def test_verdict_names_its_stop_reason(name, status, rounds, reason):
    system = parse_system((CORPUS / name).read_text(encoding="utf-8"))
    _, verdict = alternate(system)
    assert (verdict.status, verdict.rounds_used, verdict.stop_reason) == (status, rounds, reason)


def test_qa_two_step_stop_reason(addition_loops, no_init):
    # Its two steps are fixed: SAFE found an empty element, and UNKNOWN
    # has spent the budget.
    assert qa_two_step(addition_loops)[1].stop_reason == "round_budget"
    assert qa_two_step(no_init)[1].stop_reason == "empty_element"


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
    # b_i <= d_i <= b_{i-1}, with b_0 the initial unrestricted top; only
    # the last round lacks a b
    trace, _ = alternate(addition_loops)
    b_prev = AbstractElement.top(addition_loops)
    for d, b in trace.rounds[:-1]:
        assert b.leq(d) and d.leq(b_prev)
        b_prev = b
    d, b = trace.rounds[-1]
    assert b is None and d.leq(b_prev)


def _tampered(system, trace, g):
    """One tampered trace per round law, each breaking only that law of
    round 1 of a trace of the rounds (d1, b1) and (empty d2, None)."""
    (d1, b1), last = trace.rounds
    assert last[0].is_bottom and last[1] is None
    top = AbstractElement.top(system)
    bottom = AbstractElement.bottom(system)
    return {
        # a first descent below what the facts derive
        "forward_law": [(bottom, b1), last],
        # a backward element without the goal
        "seed_law": [(d1, bottom), last],
        # the goal seed alone, without the atoms that reach it
        "backward_law": [(d1, g.meet(d1)), last],
        # a backward element outside the forward one
        "chain_law": [(d1, top), last],
    }


def test_certify_trace_detects_tampering(addition_loops):
    trace, _ = alternate(addition_loops)
    g = goal_element(addition_loops)
    good = certify_trace(ClauseResults(addition_loops), g, trace)
    assert all(c.ok for c in good)
    for law, rounds in _tampered(addition_loops, trace, g).items():
        bad = certify_trace(ClauseResults(addition_loops), g, AlternationTrace(rounds))
        assert not getattr(bad[0], law), law


def run_with_results(system, **kwargs):
    """``alternate`` plus the clause results its analyses filled, taken
    from the run's call to ``certify_trace``."""
    handed = []

    def spy(results, g, trace):
        handed.append(results)
        return certify_trace(results, g, trace)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "certify_trace", spy)
        trace, verdict = alternate(system, **kwargs)
    (results,) = handed
    # the returned trace holds no table
    assert not any(isinstance(v, solver.ClauseResults) for v in trace)
    return trace, verdict, results


def test_certify_trace_detects_tampering_with_warm_results(addition_loops):
    trace, _, warm = run_with_results(addition_loops)
    assert warm is not None and warm.system is addition_loops
    g = goal_element(addition_loops)
    assert all(c.ok for c in certify_trace(ClauseResults(addition_loops), g, trace))
    for law, rounds in _tampered(addition_loops, trace, g).items():
        bad = certify_trace(warm, g, AlternationTrace(rounds))
        assert not getattr(bad[0], law), law
    # the table only shares results: each analysis gives what a fresh one does
    top, config = AbstractElement.top(addition_loops), AnalysisConfig()
    d = analyze_forward(ClauseResults(addition_loops), top, config)
    assert analyze_forward(warm, top, config) == d == trace.rounds[0][0]
    b = analyze_backward(ClauseResults(addition_loops), g, d, config)
    assert analyze_backward(warm, g, d, config) == b == trace.rounds[0][1]


def _one_box_changed(system, elem):
    """``elem`` with one predicate's box replaced by top, per predicate."""
    return [
        AbstractElement({**elem, d.name: Box.top(d.arity)})
        for d in system.decls
        if elem[d.name] != Box.top(d.arity)
    ]


def test_flow_memo_matches_direct_transformers():
    # Each memoized flow must equal the transformers called directly, at
    # the trace's elements and restrictions and at those with one box
    # changed, all through the one table the run filled.
    for seed in range(200):
        system = parse_system(fuzz_text(seed))
        trace, _, results = run_with_results(system)
        g = goal_element(system)
        b_prev = AbstractElement.top(system)
        for i, (d, b) in enumerate(trace.rounds, start=1):
            pairs = [(b_prev, d)]
            pairs += [(r, d) for r in _one_box_changed(system, b_prev)]
            pairs += [(b_prev, e) for e in _one_box_changed(system, d)]
            for r, e in pairs:
                flow = forward_flow(results, r)
                for decl in system.decls:
                    p = decl.name
                    direct = Box.empty(decl.arity)
                    for clause in system.clauses:
                        if clause.head.pred.name == p:
                            direct = direct.join(clause_post(clause, e))
                    assert flow(p, e) == direct.meet(r[p]), (seed, i, p)
            if b is None:
                continue
            pairs = [(d, b)]
            pairs += [(r, b) for r in _one_box_changed(system, d)]
            pairs += [(d, e) for e in _one_box_changed(system, b)]
            for r, e in pairs:
                flow = backward_flow(results, g, r)
                for decl in system.decls:
                    p = decl.name
                    direct = g.meet(r)[p]
                    for clause in system.clauses:
                        for j, app in enumerate(clause.body):
                            if app.pred.name == p:
                                direct = direct.join(clause_pre_restricted(clause, j, r, e))
                    assert flow(p, e) == direct, (seed, i, p)
            b_prev = b


def test_no_clause_results_outlive_a_call(monkeypatch, addition_loops):
    calls = 0
    post = CompiledClause.post

    def counting(self, body):
        nonlocal calls
        calls += 1
        return post(self, body)

    monkeypatch.setattr(CompiledClause, "post", counting)
    for run in (alternate, qa_two_step):
        counts = []
        for _ in range(2):
            calls = 0
            run(addition_loops)
            counts.append(calls)
        assert counts[0] == counts[1] > 0, run.__name__


def test_no_pass_changes_an_element_it_did_not_build(monkeypatch):
    # A pass updates only the element it builds: every element it is
    # given, a whole trace's included, reads the same after the call.
    from chclab import qa

    calls = 0

    def keeps_its_arguments(fn):
        def wrapper(*args, **kwargs):
            nonlocal calls
            elems = [a for a in (*args, *kwargs.values()) if isinstance(a, AbstractElement)]
            for a in (*args, *kwargs.values()):
                if isinstance(a, AlternationTrace):
                    elems += [e for rnd in a.rounds for e in rnd if e is not None]
            before = [dict(e) for e in elems]
            result = fn(*args, **kwargs)
            assert all(e == snapshot for e, snapshot in zip(elems, before)), fn.__name__
            calls += 1
            return result

        return wrapper

    for name in ("analyze_forward", "analyze_backward", "certify_trace"):
        monkeypatch.setattr(solver, name, keeps_its_arguments(getattr(solver, name)))
    # qa_two_step calls the forward analysis through its own binding.
    monkeypatch.setattr(qa, "analyze_forward", solver.analyze_forward)
    paths = sorted(CORPUS.glob("**/*.chc"))
    assert len(paths) == 27
    for path in paths:
        system = parse_system(path.read_text(encoding="utf-8"))
        names = {d.name for d in system.decls}
        for start in ("forward", "backward", "coarse"):
            trace, _ = alternate(system, config=AnalysisConfig(start=start))
            for rnd in trace.rounds:
                for e in rnd:
                    assert e is None or e.keys() == names, (path.name, start)
        qa.qa_two_step(system)
    assert calls > 27 * 4 * 2


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


def test_goal_disjoint_reads_every_goal_clause(corpus_systems):
    # A second goal clause decides as the first does: one that the model
    # is disjoint from keeps the answer true, and one that meets the
    # model makes it false.
    systems = meets = 0
    for name, system in corpus_systems:
        _, verdict = alternate(system)
        if verdict.status != "SAFE":
            continue
        model = verdict.witness.as_dict()
        assert goal_disjoint(system, model), name
        for decl in system.decls:
            f = model.get(decl.name, FALSE)
            app = PredApp(decl, param_vars(decl.arity))
            outside = system._replace(goal=(*system.goal, Clause((), negate_formula(f), app)))
            assert goal_disjoint(outside, model), (name, decl.name)
            if linlogic.sat_cube(f) is not None:
                inside = system._replace(goal=(*system.goal, Clause((), TRUE, app)))
                assert not goal_disjoint(inside, model), (name, decl.name)
                meets += 1
        systems += 1
    assert systems > 10 and meets >= systems, (systems, meets)


def test_multi_goal_random_systems_agree_with_the_oracle():
    # Random finite systems with one or two goal entries, solved in alt
    # mode: the model holds every reachable atom, a model that meets a
    # reachable goal atom is not goal-disjoint, and SAFE means that no
    # goal atom is reachable.
    goals = {1: 0, 2: 0}
    verdicts = {"SAFE": 0, "UNKNOWN": 0}
    for seed in range(200):
        system = parse_system(random_goal_text(seed))
        goals[len(system.goal)] += 1
        _, verdict = alternate(system)
        verdicts[verdict.status] += 1
        model = verdict.witness.as_dict()
        reachable = lfp_forward_rel(ground_relation(system))
        for atom in reachable:
            f = model.get(atom.pred, FALSE)
            assert eval_formula(f, dict(zip(param_vars(len(atom.args)), atom.args))), (seed, atom)
        hit = goal_atoms(system) & reachable
        if hit:
            assert not goal_disjoint(system, model), seed
        if verdict.status == "SAFE":
            assert not hit, seed
    assert min(goals.values()) > 50 and min(verdicts.values()) > 20, (goals, verdicts)


def test_refined_model_layers_compose(addition_loops):
    trace, verdict = alternate(addition_loops)
    rm = refined_model(trace)
    assert rm.final == trace.rounds[-1][0]
    assert rm.layers == tuple(trace.rounds[:-1])
    # the witness carried by the verdict is the same construction
    assert verdict.witness.as_dict().keys() == rm.as_dict().keys()


def _as_dict_by_search(model: RefinedModel) -> dict:
    """The refined model's formulas with every part kept or dropped by
    the exact satisfiability search instead of box order."""
    out = {}
    for name, box in model.final.items():
        variables = param_vars(box.arity)
        parts = [box.formula(variables)]
        for d, b in model.layers:
            parts.append(conj([d[name].formula(variables), b[name].complement(variables)]))
        out[name] = disj([p for p in parts if linlogic.sat_cube(p) is not None])
    return out


def test_model_parts_by_box_order_match_the_search(corpus_systems):
    runs = []
    for name, system in corpus_systems:
        runs.append((name, "fwd", alternate(system, config=AnalysisConfig(max_rounds=1))[1]))
        runs.append((name, "alt", alternate(system)[1]))
        runs.append((name, "qa2", qa_two_step(system)[1]))
        runs.append((name, "qa-iter", qa_iterated(system)[1]))
    rounds = parse_system((CORPUS / "stress" / "rounds.chc").read_text(encoding="utf-8"))
    for k in range(1, 9):
        runs.append(("rounds.chc", k, alternate(rounds, config=AnalysisConfig(max_rounds=k))[1]))
    kept = dropped = 0
    for name, how, verdict in runs:
        model = verdict.witness
        assert model.as_dict() == _as_dict_by_search(model), (name, how)
        for d, b in model.layers:
            for name, dp in d.items():
                if dp.leq(b[name]):
                    dropped += not dp.is_empty
                else:
                    kept += 1
    # Both outcomes occur with a nonempty forward box, so the comparison
    # covers layers box order keeps and layers it drops.
    assert kept > 10 and dropped > 10


def test_check_model_flags_violation(ladder):
    from chclab.syntax import FALSE, TRUE

    bogus = {"p": FALSE, "false": FALSE}
    result = check_model(ladder, bogus)
    # A result is falsy exactly when it holds a violation, though as a
    # tuple that is not empty.
    assert not result.ok and not result
    # violations carry the clause index, rendered clause and a witness cube
    idx, clause_text, witness = result.violations[0]
    assert isinstance(idx, int) and clause_text.startswith("p(")
    assert witness
    honest = {"p": TRUE, "false": TRUE}
    assert check_model(ladder, honest).ok and bool(check_model(ladder, honest))


def test_a_missing_model_entry_reads_false(addition_loops):
    # As in parse_model: a mapping without an entry for a predicate
    # (here for every one) is checked as if that entry were ``false``.
    # The result hashes, since its violations are a tuple.
    from chclab.syntax import TRUE

    everything_false = parse_model("", addition_loops)
    result = check_model(addition_loops, {})
    assert result == check_model(addition_loops, everything_false)
    assert [idx for idx, _, _ in result.violations] == [0]
    assert hash(result) == hash(check_model(addition_loops, everything_false))
    assert goal_disjoint(addition_loops, {})
    assert not goal_disjoint(addition_loops, {"false": TRUE})
    assert not check_model(addition_loops, {"p1": TRUE}).ok


def test_default_goal_keeps_a_given_goal(addition_loops):
    # A goal entry replaces the default goal, the body-less clause ``false.``
    system = parse_system("pred q/0. false :- q. goal q.")
    assert system.goal == (Clause((), TRUE, PredApp(system.decls[0], ())),)
    assert addition_loops.goal == (Clause((), TRUE, PredApp(addition_loops.falsity, ())),)
    assert addition_loops.goal[0].head.pred.name == "false"


def test_check_model_of_a_deep_model():
    # A model for p 5,000 levels deep, alternating conjunctions and
    # disjunctions built through conj/disj.  Instantiating and negating
    # it must not recurse.  Every level keeps 0, so the fact holds; the
    # first disjunct of every level reaches x <= 100 at the bottom, which
    # the integrity clause refutes with any x in (5, 100].
    system = parse_system("pred p/1. p(X) :- X = 0. false :- p(X), X > 5.")
    x = LinTerm.var(param_vars(1)[0])
    bounds = [LinTerm.make({}, b) for b in range(6)]
    uppers = [lin(sub(x, b), Rel.LE) for b in bounds]
    lowers = [lin(sub(-b, x), Rel.LE) for b in bounds]
    rng = random.Random(5000)
    f = lin(sub(x, LinTerm.make({}, 100)), Rel.LE)
    for level in range(5000):
        if level % 2:
            f = conj([rng.choice(lowers), f])
        else:
            f = disj([f, rng.choice(uppers)])
    [(idx, _, witness)] = check_model(system, {"p": f, "false": FALSE}).violations
    assert idx == 1 and witness.startswith("-X < -5") and witness.endswith("X <= 100")


def test_check_model_search_budget(monkeypatch):
    system = parse_system((CORPUS / "stress" / "rounds.chc").read_text(encoding="utf-8"))
    trace, verdict = alternate(system, config=AnalysisConfig(max_rounds=8))
    assert trace.certified and check_model(system, verdict.witness.as_dict()).ok
    monkeypatch.setattr(linlogic, "DEFAULT_CUBE_CAP", 16)
    with pytest.raises(linlogic.ResourceLimitError, match="satisfiability search"):
        check_model(system, verdict.witness.as_dict())


def test_check_model_elimination_count(monkeypatch):
    # A guard on work, not time: refuting conflicting one-variable bounds
    # while the rows are built took the model check of this run from 623
    # Fourier-Motzkin steps to 155, and keeping one-variable bounds out of
    # the rows, so that no step is spent on a variable only they mention,
    # to 28.
    system = parse_system((CORPUS / "stress" / "rounds.chc").read_text(encoding="utf-8"))
    _, verdict = alternate(system, config=AnalysisConfig(max_rounds=8))
    steps = []
    step = linlogic.fm_eliminate

    def counted(rows, var):
        steps.append(var)
        return step(rows, var)

    monkeypatch.setattr(linlogic, "fm_eliminate", counted)
    assert check_model(system, verdict.witness.as_dict()).ok
    assert 0 < len(steps) <= 28


def test_check_model_row_normalization_count(monkeypatch):
    # A guard on work, not time: a search branch normalizes only its new
    # rows on top of its parent's conjunction, which took the rows the
    # model check of this run normalizes from 2,673 to 326.
    system = parse_system((CORPUS / "stress" / "rounds.chc").read_text(encoding="utf-8"))
    _, verdict = alternate(system, config=AnalysisConfig(max_rounds=8))
    normalized = 0
    normalize = linlogic.Conjunction._normalize

    def counted(self, rows):
        nonlocal normalized
        rows = tuple(rows)
        normalized += len(rows)
        return normalize(self, rows)

    monkeypatch.setattr(linlogic.Conjunction, "_normalize", counted)
    assert check_model(system, verdict.witness.as_dict()).ok
    assert 0 < normalized <= 326


def test_wide_elimination_row_counts(monkeypatch):
    # A guard on work, not time, on the k = 12 structure of the benchmark's
    # wide family (structure 0, translation 0): refuting conflicting
    # one-variable rows inside each Fourier-Motzkin step took the rows the
    # steps return from 1,147 to 700 while solving and from 1,081 to 300
    # in the model check.  Since one-variable bounds left the row lists,
    # the rows a step returns hold none of them: 699 and 300.
    system = parse_system((CORPUS / "stress" / "wide-k12.chc").read_text(encoding="utf-8"))
    returned = 0
    step = linlogic.fm_eliminate

    def counted(rows, var):
        nonlocal returned
        out = step(rows, var)
        returned += len(out.cons)
        return out

    monkeypatch.setattr(linlogic, "fm_eliminate", counted)
    _, verdict = alternate(system)
    assert verdict.status == "SAFE"
    assert 0 < returned <= 700
    returned = 0
    assert check_model(system, verdict.witness.as_dict()).ok
    assert 0 < returned <= 300


def _tightened(model: RefinedModel):
    """Models made from ``model`` by tightening one side of one interval
    of one predicate's final box: most of them violate a clause."""
    for name, box in model.final.items():
        for k, (lo, hi) in enumerate(box.intervals or ()):
            if hi.value is not None:
                if lo.value is not None and hi.value - 1 <= lo.value:
                    continue
                tight = Interval(lo, hi._replace(value=hi.value - 1))
            elif lo.value is not None:
                tight = Interval(lo._replace(value=lo.value + 1), hi)
            else:
                tight = interval(0, None)
            final = AbstractElement(model.final)
            final[name] = Box.make(box.arity, [*box.intervals[:k], tight, *box.intervals[k + 1 :]])
            yield RefinedModel(final, model.layers)


def _relational_model(system, rng: random.Random) -> dict:
    """A model whose formulas mix atoms over two or more parameters, with
    fractional coefficients, under conjunctions and disjunctions."""

    def atom(params):
        chosen = rng.sample(params, min(len(params), rng.randint(1, 3)))
        coeffs = {v: F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2))) for v in chosen}
        return lin(LinTerm.make(coeffs, rng.randint(-3, 3)), rng.choice(list(Rel)))

    def cube(params):
        return conj(atom(params) for _ in range(rng.randint(1, 3)))

    model = {}
    for d in system.decls:
        params = list(param_vars(d.arity))
        if params:
            model[d.name] = disj(cube(params) for _ in range(rng.randint(1, 3)))
    return model


def test_sat_cube_instances_match_the_renamed_conjunction(corpus_systems):
    # sat_cube(f, instances) lowers each instance's atoms through its
    # mapping and skips the children a bound conflict refutes; it must
    # find what the search over the renamed conjunction finds, with the
    # same witness text: on the check of every clause and goal of corpus
    # models in every mode, rounds.chc at every budget, fuzzed systems,
    # models that violate clauses and models with atoms over several
    # parameters, and on mappings that leave a variable unnamed or merge
    # two variables.
    rng = random.Random(27)
    cases = []
    for _, system in corpus_systems:
        models = [
            alternate(system, AnalysisConfig(max_rounds=1))[1].witness,
            alternate(system)[1].witness,
            qa_two_step(system)[1].witness,
            qa_iterated(system)[1].witness,
        ]
        cases += [(system, m.as_dict()) for m in (*models, *_tightened(models[1]))]
        cases += [(system, _relational_model(system, rng)) for _ in range(4)]
    rounds = parse_system((CORPUS / "stress" / "rounds.chc").read_text(encoding="utf-8"))
    for budget in range(1, 9):
        model = alternate(rounds, AnalysisConfig(max_rounds=budget))[1].witness
        cases.append((rounds, model.as_dict()))
        if budget == 4:
            cases += [(rounds, m.as_dict()) for m in _tightened(model)]
    for seed in range(60):
        system = parse_system(fuzz_text(seed))
        cases.append((system, alternate(system)[1].witness.as_dict()))
    searches = witnesses = 0
    for system, model in cases:
        formulas = solver._formulas(model)
        # A clause's head formula enters negated, a goal's as it is.
        checks = [(c, True) for c in system.clauses] + [(g, False) for g in system.goal]
        for clause, negated in checks:
            instances = [(formulas[app.pred.name], solver._params(app)) for app in clause.body]
            head = formulas[clause.head.pred.name]
            head = negate_formula(head) if negated else head
            instances.append((head, solver._params(clause.head)))
            params = [m for _, m in instances if m]
            variants = [instances]
            if params:
                # X1 keeps its own name; then X1 and X2 become one variable.
                unnamed = {v: w for v, w in params[0].items() if v != "X1"}
                variants.append([(g, unnamed if m is params[0] else m) for g, m in instances])
                merged = {**params[0], "X2": params[0].get("X1", "X1")}
                variants.append([(g, merged if m is params[0] else m) for g, m in instances])
            for variant in variants:
                renamed = [rename_formula(g, m) for g, m in variant]
                want = linlogic.sat_cube(conj([clause.constraint, *renamed]))
                got = linlogic.sat_cube(clause.constraint, variant)
                assert (got is None) == (want is None), (format_clause(clause), str(want))
                assert str(got) == str(want), format_clause(clause)
                searches += 1
                witnesses += got is not None
    assert searches > 4000 and witnesses > 800, (searches, witnesses)


def test_goal_disjoint_requires_empty_overlap(ladder):
    from chclab.syntax import TRUE

    assert not goal_disjoint(ladder, {"p": TRUE, "false": TRUE})


# -- configuration knobs ------------------------------------------------------------


def test_max_rounds_cap_respected(ladder):
    trace, verdict = alternate(ladder, config=AnalysisConfig(max_rounds=1))
    assert verdict.rounds_used <= 1
    assert len(trace.rounds) <= 1


def test_more_rounds_never_lose_safety(corpus_systems):
    for name, system in corpus_systems:
        prev_safe = False
        for k in (1, 3, 5):
            _, verdict = alternate(system, config=AnalysisConfig(max_rounds=k))
            safe = verdict.status == "SAFE"
            assert not (prev_safe and not safe), (name, k)
            prev_safe = safe


def test_backward_start_direction(addition_loops):
    config = AnalysisConfig(start="backward")
    trace, verdict = alternate(addition_loops, config=config)
    assert verdict.status == "SAFE"
    assert trace.certified


def test_coarse_first_sound(corpus_systems):
    config = AnalysisConfig(start="coarse")
    for name, system in corpus_systems:
        trace, verdict = alternate(system, config=config)
        model = verdict.witness.as_dict()
        assert check_model(system, model).ok, name
        if verdict.status == "SAFE":
            assert goal_disjoint(system, model), name


@pytest.mark.parametrize(
    "fields",
    [
        {"max_rounds": 0},
        {"widening_delay": -1},
        {"descending_passes": -1},
        {"start": "sideways"},
    ],
)
def test_config_rejects_out_of_range_values(fields):
    with pytest.raises(ValueError):
        AnalysisConfig(**fields)


@pytest.mark.parametrize(
    "fields",
    [
        {"max_rounds": 0},
        {"widening_delay": -1},
        {"descending_passes": -1},
        {"start": "sideways"},
    ],
)
def test_config_copies_are_checked(fields):
    # ``chclab solve --mode fwd`` runs on a copy made by _replace, which
    # must check the values it changes as the constructor does.
    with pytest.raises(ValueError):
        AnalysisConfig()._replace(**fields)
    copy = AnalysisConfig(max_rounds=3)._replace(start="backward")
    assert type(copy) is AnalysisConfig
    assert copy == AnalysisConfig(max_rounds=3, start="backward")


def test_records_hash_as_the_tuple_of_their_fields(ladder):
    # Every record is a NamedTuple and hashes as the tuple of its fields,
    # as the frozen dataclasses they replaced did, so set and dict orders
    # and with them every report stay the same.
    trace, verdict = alternate(ladder)
    guard = ladder.goal[0].constraint
    con = guard.con
    app = RawApp(ladder.decls[0], (con.term,))
    consequence = next(iter(ground_relation(ladder)))
    qa = qa_transform(ladder)
    records = [
        con.term,
        con,
        guard,
        TRUE,
        FALSE,
        conj([guard, lin(con.term, Rel.LT)]),
        disj([guard, lin(con.term, Rel.LT)]),
        ladder.decls[0],
        ladder.clauses[1].head,
        ladder.clauses[1],
        ladder.goal[0],
        ladder,
        *linlogic.to_dnf(guard),
        app,
        RawClause((), TRUE, app),
        *dependency_order(ladder),
        trace.rounds[0][0]["p"],
        AnalysisConfig(),
        *trace.certs,
        solver.ModelCheckResult(()),
        qa.pairs[0],
        qa,
        consequence,
        consequence.conclusion,
        *forward_trees(ladder, 2),
        check_tree_props(ladder, depth_cap=4),
    ]
    assert len({type(r) for r in records}) == 25
    for r in records:
        assert hash(r) == hash(tuple(r)), type(r).__name__
    # An element is a dict and does not hash; the records that hold
    # elements are NamedTuples all the same.
    assert isinstance(trace.rounds[0][0], dict)
    for r in (trace, verdict.witness, verdict):
        assert isinstance(r, tuple) and r._fields, type(r).__name__


def test_default_config_values():
    config = AnalysisConfig()
    assert config.max_rounds == 5
    assert config.widening_delay == 2
    assert config.descending_passes == 1


# -- soundness against the ground semantics ------------------------------------------


def finite_systems(seeds: int):
    """``random_finite_system`` of each of its first ``seeds`` seeds, then
    the arity 3-4 systems of ``wide_finite_text``, with a label each."""
    for seed in range(seeds):
        yield seed, random_finite_system(seed)
    for seed in range(WIDE_SEEDS):
        yield f"wide-{seed}", parse_system(wide_finite_text(seed))


def test_forward_covers_concrete_on_seeded_systems():
    for label, system in finite_systems(40):
        elem = forward(system)
        for atom in lfp_forward_rel(ground_relation(system)):
            assert point_box(atom.args).leq(elem[atom.pred]), (label, str(atom))


def _model_contains(model, atom) -> bool:
    """Is the ground atom in the denotation of the refined model?"""

    def inside(elem) -> bool:
        return point_box(atom.args).leq(elem[atom.pred])

    return inside(model.final) or any(inside(d) and not inside(b) for d, b in model.layers)


def test_unknown_never_lies_on_seeded_systems():
    # whenever the concrete goal set is actually reachable, the abstract
    # verdict must not claim SAFE; SAFE or not, the refined model holds
    # on every concretely derivable atom
    flagged = 0
    for label, system in finite_systems(60):
        rel = ground_relation(system)
        goal = goal_atoms(system)
        _, verdict = alternate(system)
        if lfp_combined_rel(rel, goal) & goal:
            assert verdict.status != "SAFE", label
            flagged += 1
        for atom in lfp_forward_rel(rel):
            assert _model_contains(verdict.witness, atom), (label, str(atom))
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


WIDE_SEEDS = 60


def wide_finite_text(seed: int) -> str:
    """A random system of 1-3 predicates of arity 3-4 over a universe of
    2-3 values.  Grounding a clause enumerates the universe to the power
    of its variable count, and normalization gives each argument position
    its own variable, so a clause has at most seven argument positions and
    its comparisons mention only variables of its atoms."""
    rng = random.Random(seed)
    arities = [rng.randint(3, 4) for _ in range(rng.randint(1, 3))]
    universe = sorted(rng.sample(range(4), rng.randint(2, 3)))
    lines = [f"pred p{i}/{a}." for i, a in enumerate(arities)]
    lines.append("universe {" + ", ".join(map(str, universe)) + "}.")
    nclauses = rng.randint(2, 6)
    for k in range(nclauses):
        head = None if k == nclauses - 1 else rng.randrange(len(arities))
        room = 7 - (0 if head is None else arities[head])
        preds = [] if head is None else [head]
        for _ in range(rng.choices([0, 1, 2], weights=[30, 50, 20])[0]):
            i = rng.randrange(len(arities))
            if arities[i] <= room:
                preds.append(i)
                room -= arities[i]
        atoms = [f"p{i}({', '.join(rng.choice('ABCD') for _ in range(arities[i]))})" for i in preds]
        used = sorted({v for a in atoms for v in a if v in "ABCD"}) or ["A"]
        body = atoms if head is None else atoms[1:]
        body += [_fuzz_comparison(rng, used) for _ in range(rng.randint(0, 2))]
        head_text = "false" if head is None else atoms[0]
        lines.append(f"{head_text} :- {', '.join(body)}." if body else f"{head_text}.")
    return "\n".join(lines) + "\n"


def test_multi_round_models_certify_on_seeded_systems():
    for seed in range(200):
        system = parse_system(fuzz_text(seed))
        trace, verdict = alternate(system, config=AnalysisConfig(max_rounds=8))
        assert trace.certified, seed
        assert check_model(system, verdict.witness.as_dict()).ok, seed
        if verdict.safe:
            assert goal_disjoint(system, verdict.witness.as_dict()), seed

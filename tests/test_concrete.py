"""Finite-universe ground semantics: frozen examples and closure laws."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chclab import concrete
from chclab.cli import main as cli_main
from chclab.concrete import (
    GroundAtom,
    check_combined_closure,
    goal_atoms,
    ground_relation,
    lfp_backward_rel,
    lfp_combined_rel,
    lfp_forward_rel,
    post,
    pre,
    pre_restricted,
)
from chclab.linlogic import ResourceLimitError
from chclab.parser import parse_system
from formula_reference import eval_formula
from randgen import random_finite_system, random_goal_text

F = Fraction


def p(*args):
    return GroundAtom("p", tuple(F(a) for a in args))


def atom_set(*atoms):
    return frozenset(atoms)


LADDER_FWD = atom_set(p(1), p(2), p(3), p(5))
LADDER_BWD = atom_set(p(1), p(2), p(3), p(4), p(5))
LADDER_COMBINED = atom_set(p(1), p(3), p(5))


def test_ladder_relation_contains_expected_consequences(ladder):
    rel = ground_relation(ladder)
    pairs = {(c.premises, c.conclusion) for c in rel}
    assert (frozenset(), p(1)) in pairs
    assert (frozenset({p(1)}), p(2)) in pairs
    assert (frozenset({p(2), p(4)}), p(5)) in pairs


def test_ladder_goal_atoms(ladder):
    assert goal_atoms(ladder) == atom_set(p(5))


def test_post_from_empty(ladder):
    rel = ground_relation(ladder)
    assert post(rel, frozenset()) == atom_set(p(1))


def test_pre_of_goal(ladder):
    rel = ground_relation(ladder)
    assert pre(rel, atom_set(p(5))) == atom_set(p(2), p(3), p(4))


def test_pre_restricted_blocks_underivable_premise(ladder):
    # the rule via p(2), p(4) needs p(4), which forward never derives
    rel = ground_relation(ladder)
    assert pre_restricted(rel, LADDER_FWD, atom_set(p(5))) == atom_set(p(3))


def test_ladder_fixpoints(ladder):
    rel = ground_relation(ladder)
    assert lfp_forward_rel(rel) == LADDER_FWD
    goal = goal_atoms(ladder)
    assert lfp_backward_rel(rel, goal) == LADDER_BWD
    assert lfp_combined_rel(rel, goal) == LADDER_COMBINED


def test_combined_strictly_below_intersection(ladder):
    rel = ground_relation(ladder)
    goal = goal_atoms(ladder)
    inter = lfp_forward_rel(rel) & lfp_backward_rel(rel, goal)
    combined = lfp_combined_rel(rel, goal)
    assert combined < inter
    assert p(2) in inter - combined


def test_lockstep_forward(lockstep):
    want = {
        GroundAtom("p", (F(0), F(0))),
        GroundAtom("p", (F(1), F(1))),
        GroundAtom("p", (F(2), F(2))),
    }
    assert lfp_forward_rel(ground_relation(lockstep)) == frozenset(want)


def test_is_model(ladder):
    # a set of atoms is a model when one step derives nothing new
    rel = ground_relation(ladder)
    m = lfp_forward_rel(rel)
    assert post(rel, m) <= m
    assert not post(rel, frozenset()) <= frozenset()  # nothing satisfies the init clause
    assert not post(rel, atom_set(p(1))) <= atom_set(p(1))  # p(2), p(3) missing


def test_combined_closure_ladder(ladder):
    assert check_combined_closure(ground_relation(ladder), goal_atoms(ladder))


def test_least_model_property(ladder):
    # the forward fixpoint is a model and is contained in itself after a step
    rel = ground_relation(ladder)
    m = lfp_forward_rel(rel)
    assert post(rel, m) <= m


def test_no_universe_raises(addition_loops):
    with pytest.raises(ValueError):
        ground_relation(addition_loops)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_post_pre_monotone(seed):
    system = random_finite_system(seed)
    rel = ground_relation(system)
    atoms = sorted(
        {c.conclusion for c in rel} | {a for c in rel for a in c.premises},
        key=lambda a: a.key(),
    )
    small = frozenset(atoms[: len(atoms) // 2])
    large = frozenset(atoms)
    assert post(rel, small) <= post(rel, large)
    assert pre(rel, small) <= pre(rel, large)
    assert pre_restricted(rel, small, small) <= pre(rel, small)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_combined_between_bounds(seed):
    system = random_finite_system(seed)
    rel = ground_relation(system)
    goal = goal_atoms(system)
    fwd = lfp_forward_rel(rel)
    bwd = lfp_backward_rel(rel, goal)
    combined = lfp_combined_rel(rel, goal)
    assert combined <= fwd & bwd


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_closure_on_random_finite_systems(seed):
    system = random_finite_system(seed)
    assert check_combined_closure(ground_relation(system), goal_atoms(system))


def test_goal_grounding_is_capped(monkeypatch, tmp_path):
    # A 5-ary goal over a universe of 3 has 243 valuations, more than the
    # cap; grounding it must raise, as grounding a clause does, and the
    # oracle exit 3 rather than enumerate them.
    text = "pred p/5.\nuniverse {0, 1, 2}.\ngoal p(A, B, C, D, E).\n"
    monkeypatch.setattr(concrete, "VALUATION_CAP", 100)
    with pytest.raises(ResourceLimitError, match="goal"):
        goal_atoms(parse_system(text))
    path = tmp_path / "wide_goal.chc"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["oracle", str(path)]) == 3


def test_oracle_on_a_false_constraint(tmp_path, capsys):
    # The clause ``p(X) :- (false)`` derives nothing: only the fact p(0)
    # holds, and the goal p(1) is reachable from p(1) alone.
    path = tmp_path / "false_body.chc"
    path.write_text(
        "pred p/1.\nuniverse {0, 1}.\np(X) :- (false).\np(0).\ngoal p(X) : X >= 1.\n",
        encoding="utf-8",
    )
    outputs = []
    for semantics in ("fwd", "bwd", "combined"):
        assert cli_main(["oracle", str(path), "--semantics", semantics, "--check-closure"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == ["p(0)\nclosure PASS\n", "p(1)\nclosure PASS\n", "closure PASS\n"]


def _enumerated(universe, clause):
    """Every ground instance of ``clause``, found by enumerating each of
    its variables over ``universe``."""
    variables = sorted(clause.vars)
    for values in itertools.product(universe, repeat=len(variables)):
        env = dict(zip(variables, values))
        if eval_formula(clause.constraint, env):
            body = frozenset(GroundAtom(a.pred.name, tuple(env[v] for v in a.args)) for a in clause.body)
            yield body, GroundAtom(clause.head.pred.name, tuple(env[v] for v in clause.head.args))


def test_grounding_computes_the_variables_equalities_define(monkeypatch):
    # Grounding enumerates only the variables that no top-level equality
    # with a unit coefficient defines, and computes the others.  On
    # random finite systems, whose clauses carry such equalities for
    # repeated arguments and in their constraints, it must find the
    # instances that enumerating every variable finds, and enumerate
    # fewer valuations.
    valuations = concrete._valuations
    enumerated = every = 0

    def counted(universe, n, what):
        nonlocal enumerated
        enumerated += len(universe) ** n
        return valuations(universe, n, what)

    monkeypatch.setattr(concrete, "_valuations", counted)
    for seed in range(80):
        system = parse_system(random_goal_text(seed))
        universe = system.universe
        want = frozenset(
            (body, head) for clause in system.clauses for body, head in _enumerated(universe, clause)
        )
        assert {(c.premises, c.conclusion) for c in ground_relation(system)} == want, seed
        goal = {head for g in system.goal for _, head in _enumerated(universe, g)}
        assert goal_atoms(system) == goal, seed
        every += sum(len(universe) ** len(c.vars) for c in (*system.clauses, *system.goal))
    assert 0 < enumerated < every // 8, (enumerated, every)

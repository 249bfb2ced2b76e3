"""Derivation trees: growth steps, closure properties, set-semantics agreement."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chclab.concrete import (
    GroundAtom,
    goal_atoms,
    ground_relation,
    kleene,
    lfp_backward_rel,
    lfp_forward_rel,
    post,
)
from chclab.linlogic import ResourceLimitError
from chclab.parser import parse_system
from chclab.trees import (
    DerivTree,
    atoms_abstraction,
    check_tree_props,
    tree_post,
    tree_pre,
)
from randgen import random_acyclic_system, random_finite_system

F = Fraction


def forward_trees(system, depth: int) -> frozenset[DerivTree]:
    """``depth`` rounds of bottom-up tree construction from nothing."""
    return kleene(partial(tree_post, ground_relation(system)), depth)[0]


def backward_trees(system, depth: int) -> frozenset[DerivTree]:
    """``depth`` rounds of top-down expansion from the goal atoms."""
    seed = frozenset(DerivTree(a) for a in goal_atoms(system))
    return kleene(partial(tree_pre, ground_relation(system), seed=seed), depth)[0]


def subtrees(t: DerivTree):
    yield t
    for child in t.children:
        yield from subtrees(child)


def p(*args):
    return GroundAtom("p", tuple(F(a) for a in args))


def leaf(atom):
    return DerivTree(atom)


def test_tree_post_from_empty(ladder):
    rel = ground_relation(ladder)
    assert tree_post(rel, frozenset()) == frozenset({leaf(p(1))})


def test_forward_depth_one(ladder):
    assert forward_trees(ladder, depth=1) == frozenset({leaf(p(1))})


def test_tree_pre_expands_goal_leaf(ladder):
    rel = ground_relation(ladder)
    got = tree_pre(rel, frozenset({leaf(p(5))}))
    want = frozenset(
        {
            DerivTree(p(5), (leaf(p(3)),)),
            DerivTree(p(5), (leaf(p(2)), leaf(p(4)))),
        }
    )
    assert got == want


def test_backward_depth_one_is_goal_leaves(ladder):
    assert backward_trees(ladder, depth=1) == frozenset({leaf(p(5))})


def test_forward_trees_ladder_stable(ladder):
    # four complete derivations: p(1); p(2); p(3); p(5) via p(3)
    trees = forward_trees(ladder, depth=6)
    assert len(trees) == 4
    assert atoms_abstraction(trees) == lfp_forward_rel(ground_relation(ladder))
    # the p(5) derivation through p(2), p(4) never completes
    assert all(t.root != p(4) for t in trees)


def test_backward_trees_ladder_stable(ladder):
    trees = backward_trees(ladder, depth=6)
    rel = ground_relation(ladder)
    assert atoms_abstraction(trees) == lfp_backward_rel(rel, goal_atoms(ladder))


def test_forward_trees_are_subtree_closed(ladder):
    trees = forward_trees(ladder, depth=6)
    for t in trees:
        for sub in subtrees(t):
            assert sub in trees


def test_tree_props_ladder(ladder):
    report = check_tree_props(ladder, depth_cap=6)
    assert report.all_pass
    assert report.verdicts == {
        "forward": "PASS",
        "backward": "PASS",
        "combined": "PASS",
    }


def test_tree_props_skip_when_depth_too_small(ladder):
    report = check_tree_props(ladder, depth_cap=1)
    assert not report.all_pass
    assert "SKIPPED" in report.verdicts.values()
    assert report.all_ok  # skipped is not a failure


def test_tree_props_vacuous_without_init():
    system = random_acyclic_system(3)
    report = check_tree_props(system)
    assert report.all_pass


def test_step_law_on_closed_set(ladder):
    # on a stabilized tree set, growing trees then abstracting equals
    # abstracting then applying the ground one-step operator
    rel = ground_relation(ladder)
    trees = forward_trees(ladder, depth=6)
    grown = tree_post(rel, trees)
    assert atoms_abstraction(grown | trees) == post(rel, atoms_abstraction(trees)) | atoms_abstraction(trees)


@contextmanager
def time_budget(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_tree_growth_stops_at_its_cap(monkeypatch):
    # Step 4 holds 1352 forward trees; step 5 would build 916,658 of them,
    # which takes far longer than the budget.  The cap stops the build.
    monkeypatch.setattr("chclab.trees.TREE_CAP", 2000)
    system = parse_system("pred p/1.\nuniverse {0, 1}.\np(X).\np(X) :- p(Y), p(Z).\n")
    with time_budget(2.0), pytest.raises(ResourceLimitError, match="more than 2000 forward trees"):
        check_tree_props(system)


def test_tree_cap_counts_the_goal_seed(ladder, monkeypatch):
    # ladder's last backward step holds 5 trees: the goal leaf and 4 expansions
    monkeypatch.setattr("chclab.trees.TREE_CAP", 5)
    assert check_tree_props(ladder).all_pass
    monkeypatch.setattr("chclab.trees.TREE_CAP", 4)
    with pytest.raises(ResourceLimitError, match="more than 4 backward trees"):
        check_tree_props(ladder)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_tree_props_on_acyclic_systems(seed):
    system = random_acyclic_system(seed)
    report = check_tree_props(system)
    assert report.all_pass, report.verdicts


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_forward_abstraction_never_exceeds_fixpoint(seed):
    system = random_finite_system(seed)
    fwd = lfp_forward_rel(ground_relation(system))
    for depth in (1, 2, 3):
        trees = forward_trees(system, depth)
        assert atoms_abstraction(trees) <= fwd

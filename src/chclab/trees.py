"""Derivation-tree semantics and its agreement with the set semantics.

A derivation tree is a ground atom with subtrees for the premises of
one clause instance; leaves are atoms awaiting derivation (or axioms).
Both tree semantics are least fixpoints, grown by the same Kleene
iteration as the set semantics (:func:`chclab.concrete.kleene`), up to a
depth bound: ``lfp tree_post`` grows complete derivations bottom-up, and
``lfp λX. leaves(G) ∪ tree_pre(X)`` grows partial derivations top-down
from the goal atoms ``G``.  A growth step stops as soon as it has built
more trees than its cap.  Collapsing a tree set to its atoms recovers
the corresponding set semantics, which is checked explicitly by
:func:`check_tree_props`.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product
from typing import NamedTuple

from .concrete import (
    Consequence,
    GroundAtom,
    GroundRelation,
    Interpretation,
    goal_atoms,
    ground_relation,
    kleene,
    lfp_backward_rel,
    lfp_combined_rel,
    lfp_forward_rel,
)
from .linlogic import ResourceLimitError
from .syntax import System

TREE_CAP = 200_000


class DerivTree(NamedTuple):
    root: GroundAtom
    children: tuple["DerivTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def atoms(self) -> frozenset[GroundAtom]:
        out = {self.root}
        for child in self.children:
            out |= child.atoms()
        return frozenset(out)

    def __str__(self) -> str:
        if not self.children:
            return str(self.root)
        return f"{self.root}({'; '.join(str(c) for c in self.children)})"


def _node(root: GroundAtom, children) -> DerivTree:
    # Premise atoms of a clause instance are distinct, so sorting the
    # children by root gives a canonical shape.
    return DerivTree(root, tuple(sorted(children, key=lambda t: t.root.key())))


def _capped(trees, what: str) -> frozenset[DerivTree]:
    """The set of ``trees``, built only while it holds at most
    ``TREE_CAP`` of them, the cap read at call time."""
    cap = TREE_CAP
    out: set[DerivTree] = set()
    for t in trees:
        out.add(t)
        if len(out) > cap:
            raise ResourceLimitError(f"more than {cap} {what} trees")
    return frozenset(out)


def tree_post(rel: GroundRelation, trees: frozenset[DerivTree]) -> frozenset[DerivTree]:
    """Trees built by one clause instance on top of existing trees.

    Raises :class:`ResourceLimitError` as soon as more than ``TREE_CAP``
    have been built.
    """
    by_root: dict[GroundAtom, list[DerivTree]] = {}
    for t in trees:
        by_root.setdefault(t.root, []).append(t)
    built = (
        DerivTree(c.conclusion, combo)
        for c in rel
        for combo in product(
            *(by_root.get(a, ()) for a in sorted(c.premises, key=GroundAtom.key))
        )
    )
    return _capped(built, "forward")


def _expansions(t: DerivTree, by_conclusion):
    """``t`` with one of its leaves expanded by one clause instance, each way."""
    if t.is_leaf:
        for c in by_conclusion.get(t.root, ()):
            yield _node(t.root, (DerivTree(a) for a in c.premises))
    for i, child in enumerate(t.children):
        for sub in _expansions(child, by_conclusion):
            yield DerivTree(t.root, (*t.children[:i], sub, *t.children[i + 1 :]))


def tree_pre(
    rel: GroundRelation, trees: frozenset[DerivTree], seed: frozenset[DerivTree] = frozenset()
) -> frozenset[DerivTree]:
    """``seed`` plus the trees obtained by expanding one leaf with one
    clause instance.

    Only instances with at least one premise apply; expanding by a fact
    would not change the atom set and complete trees are the business
    of :func:`tree_post`.  Raises :class:`ResourceLimitError` as soon as
    the result holds more than ``TREE_CAP`` trees, seed included.
    """
    by_conclusion: dict[GroundAtom, list[Consequence]] = {}
    for c in rel:
        if c.premises:
            by_conclusion.setdefault(c.conclusion, []).append(c)
    built = chain(seed, (e for t in trees for e in _expansions(t, by_conclusion)))
    return _capped(built, "backward")


def _leaves(atoms: Interpretation) -> frozenset[DerivTree]:
    return frozenset(DerivTree(a) for a in atoms)


def atoms_abstraction(trees) -> Interpretation:
    out: set[GroundAtom] = set()
    for t in trees:
        out |= t.atoms()
    return frozenset(out)


class TreePropsReport(NamedTuple):
    """Outcome of comparing tree abstractions with the set semantics.

    Each verdict is PASS, FAIL, or SKIPPED when the tree sets did not
    stabilize within the depth cap (only possible with recursion).
    """

    forward_agrees: str = "SKIPPED"
    backward_agrees: str = "SKIPPED"
    combined_agrees: str = "SKIPPED"
    forward_depth: int | None = None
    backward_depth: int | None = None
    forward_count: int = 0
    backward_count: int = 0

    @property
    def verdicts(self) -> dict[str, str]:
        return {
            "forward": self.forward_agrees,
            "backward": self.backward_agrees,
            "combined": self.combined_agrees,
        }

    @property
    def all_ok(self) -> bool:
        return "FAIL" not in self.verdicts.values()

    @property
    def all_pass(self) -> bool:
        return set(self.verdicts.values()) == {"PASS"}


def check_tree_props(system: System, depth_cap: int = 10) -> TreePropsReport:
    """Grow both tree semantics to a fixed point and compare atom sets.

    The forward comparison targets the forward collecting semantics,
    the backward one the goal-rooted backward semantics, and the
    intersection of the two tree sets must abstract to the combined
    semantics.  Tree sets are grown until they literally stabilize,
    which is guaranteed for systems without recursive derivations.
    A negative ``depth_cap`` raises :class:`ValueError`.
    """
    if depth_cap < 0:
        raise ValueError(f"depth_cap must not be negative, got {depth_cap}")
    rel = ground_relation(system)
    goal_set = goal_atoms(system)
    fwd, fwd_depth = kleene(partial(tree_post, rel), depth_cap)
    bwd, bwd_depth = kleene(partial(tree_pre, rel, seed=_leaves(goal_set)), depth_cap)
    fwd_stable = fwd_depth is not None
    bwd_stable = bwd_depth is not None
    forward = backward = combined = "SKIPPED"
    if fwd_stable:
        agrees = atoms_abstraction(fwd) == lfp_forward_rel(rel)
        forward = "PASS" if agrees else "FAIL"
    if bwd_stable:
        agrees = atoms_abstraction(bwd) == lfp_backward_rel(rel, goal_set)
        backward = "PASS" if agrees else "FAIL"
    if fwd_stable and bwd_stable:
        agrees = atoms_abstraction(fwd & bwd) == lfp_combined_rel(rel, goal_set)
        combined = "PASS" if agrees else "FAIL"
    return TreePropsReport(
        forward,
        backward,
        combined,
        fwd_depth,
        bwd_depth,
        len(fwd) if fwd_stable else 0,
        len(bwd) if bwd_stable else 0,
    )

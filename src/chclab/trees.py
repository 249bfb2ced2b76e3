"""Derivation-tree semantics and its agreement with the set semantics.

A derivation tree is a ground atom with subtrees for the premises of
one clause instance; leaves are atoms awaiting derivation (or axioms).
Growing trees bottom-up enumerates complete derivations; growing them
top-down from a goal enumerates partial derivations rooted in the goal.
Collapsing a tree set to its atoms recovers the corresponding set
semantics, which is checked explicitly by :func:`check_tree_props`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .concrete import (
    Consequence,
    GroundAtom,
    GroundRelation,
    Interpretation,
    goal_atoms,
    ground_relation,
    lfp_backward_rel,
    lfp_combined_rel,
    lfp_forward_rel,
)
from .linlogic import ResourceLimitError
from .syntax import System


@dataclass(frozen=True)
class DerivTree:
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


def tree_post(rel: GroundRelation, trees: frozenset[DerivTree]) -> frozenset[DerivTree]:
    """Trees built by one clause instance on top of existing trees."""
    by_root: dict[GroundAtom, list[DerivTree]] = {}
    for t in trees:
        by_root.setdefault(t.root, []).append(t)
    out: set[DerivTree] = set()
    for c in rel:
        if not c.premises:
            out.add(DerivTree(c.conclusion))
            continue
        pools = []
        for atom in sorted(c.premises, key=lambda a: a.key()):
            pool = by_root.get(atom)
            if pool is None:
                break
            pools.append(pool)
        else:
            for combo in product(*pools):
                out.add(DerivTree(c.conclusion, tuple(combo)))
    return frozenset(out)


def _leaf_paths(t: DerivTree) -> list[tuple[int, ...]]:
    if t.is_leaf:
        return [()]
    return [(i, *p) for i, c in enumerate(t.children) for p in _leaf_paths(c)]


def _leaf_at(t: DerivTree, path: tuple[int, ...]) -> GroundAtom:
    for i in path:
        t = t.children[i]
    return t.root


def _replace(t: DerivTree, path: tuple[int, ...], sub: DerivTree) -> DerivTree:
    if not path:
        return sub
    kids = list(t.children)
    kids[path[0]] = _replace(kids[path[0]], path[1:], sub)
    return DerivTree(t.root, tuple(kids))


def tree_pre(rel: GroundRelation, trees: frozenset[DerivTree]) -> frozenset[DerivTree]:
    """Trees obtained by expanding one leaf with one clause instance.

    Only instances with at least one premise apply; expanding by a fact
    would not change the atom set and complete trees are the business
    of :func:`tree_post`.
    """
    by_conclusion: dict[GroundAtom, list[Consequence]] = {}
    for c in rel:
        if c.premises:
            by_conclusion.setdefault(c.conclusion, []).append(c)
    out: set[DerivTree] = set()
    for t in trees:
        for path in _leaf_paths(t):
            leaf = _leaf_at(t, path)
            for c in by_conclusion.get(leaf, ()):  # leaf becomes interior
                expansion = _node(leaf, (DerivTree(a) for a in c.premises))
                out.add(_replace(t, path, expansion))
    return frozenset(out)


def _grow(
    step, rounds: int, max_trees: int | None = None, what: str = ""
) -> tuple[frozenset[DerivTree], int | None]:
    """Apply ``step`` to the empty tree set up to ``rounds`` times.

    Returns the last set and the round at which it stopped changing, or
    None if it still changed in the last round.  A set that stops
    changing stays the same, so stopping early returns what the
    remaining rounds would.
    """
    current: frozenset[DerivTree] = frozenset()
    for depth in range(rounds):
        nxt = step(current)
        if max_trees is not None and len(nxt) > max_trees:
            raise ResourceLimitError(f"more than {max_trees} {what} trees")
        if nxt == current:
            return current, depth
        current = nxt
    return current, None


def forward_trees(system: System, depth: int) -> frozenset[DerivTree]:
    """``depth`` rounds of bottom-up tree construction from nothing."""
    return _grow(partial(tree_post, ground_relation(system)), depth)[0]


def _backward_step(rel: GroundRelation, goal_set: Interpretation):
    seed = frozenset(DerivTree(a) for a in goal_set)
    return lambda trees: seed | tree_pre(rel, trees)


def backward_trees(
    system: System, goal: Interpretation | None = None, depth: int = 1
) -> frozenset[DerivTree]:
    """``depth`` rounds of top-down expansion from the goal atoms."""
    goal_set = goal if goal is not None else goal_atoms(system)
    return _grow(_backward_step(ground_relation(system), goal_set), depth)[0]


def atoms_abstraction(trees) -> Interpretation:
    out: set[GroundAtom] = set()
    for t in trees:
        out |= t.atoms()
    return frozenset(out)


def subtrees(t: DerivTree):
    yield t
    for child in t.children:
        yield from subtrees(child)


@dataclass
class TreePropsReport:
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


def check_tree_props(
    system: System,
    goal: Interpretation | None = None,
    depth_cap: int = 10,
    max_trees: int = 200000,
) -> TreePropsReport:
    """Grow both tree semantics to a fixed point and compare atom sets.

    The forward comparison targets the forward collecting semantics,
    the backward one the goal-rooted backward semantics, and the
    intersection of the two tree sets must abstract to the combined
    semantics.  Tree sets are grown until they literally stabilize,
    which is guaranteed for systems without recursive derivations.
    """
    rel = ground_relation(system)
    goal_set = goal if goal is not None else goal_atoms(system)
    report = TreePropsReport()

    fwd, report.forward_depth = _grow(partial(tree_post, rel), depth_cap, max_trees, "forward")
    bwd, report.backward_depth = _grow(
        _backward_step(rel, goal_set), depth_cap, max_trees, "backward"
    )
    fwd_stable = report.forward_depth is not None
    bwd_stable = report.backward_depth is not None
    if fwd_stable:
        report.forward_count = len(fwd)
        agrees = atoms_abstraction(fwd) == lfp_forward_rel(rel)
        report.forward_agrees = "PASS" if agrees else "FAIL"
    if bwd_stable:
        report.backward_count = len(bwd)
        agrees = atoms_abstraction(bwd) == lfp_backward_rel(rel, goal_set)
        report.backward_agrees = "PASS" if agrees else "FAIL"
    if fwd_stable and bwd_stable:
        agrees = atoms_abstraction(fwd & bwd) == lfp_combined_rel(rel, goal_set)
        report.combined_agrees = "PASS" if agrees else "FAIL"
    return report

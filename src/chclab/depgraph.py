"""Predicate dependency graph and iteration order.

Edges run from body predicates to head predicates (:func:`edges`).  One
walk answers every question asked of the graph: :func:`reach` collects
what an adjacency map reaches from some roots.  :func:`dependency_order`
lists the strongly connected components with dependencies first, by
Kosaraju's two passes in the form Sharir wrote for data flow analysis:
a depth-first search along the successors records the order in which
the predicates finish, then a :func:`reach` over the predecessors from
the last-finished predicate not yet placed is the next component.  A
single left-to-right sweep thus sees every body predicate before (or
together with) the heads it feeds.  Members of cyclic components are
the widening candidates of the fixpoint engines.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .syntax import System


class Component(NamedTuple):
    preds: tuple[str, ...]
    recursive: bool


def edges(system: System) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Each predicate's successors (the heads of the clauses whose body
    it occurs in) and predecessors (the body predicates of its clauses),
    keyed in declaration order."""
    succ: dict[str, set[str]] = {d.name: set() for d in system.decls}
    pred: dict[str, set[str]] = {d.name: set() for d in system.decls}
    for clause in system.clauses:
        head = clause.head.pred.name
        for app in clause.body:
            succ[app.pred.name].add(head)
            pred[head].add(app.pred.name)
    return succ, pred


def reach(roots: Iterable[str], step: dict[str, set[str]], placed: set[str]) -> list[str]:
    """The nodes outside ``placed`` that ``step`` reaches from ``roots``
    (the roots included) without passing through ``placed``; each is
    added to ``placed``."""
    found: list[str] = []
    todo = list(roots)
    while todo:
        node = todo.pop()
        if node not in placed:
            placed.add(node)
            found.append(node)
            todo.extend(step[node])
    return found


def dependency_order(system: System) -> list[Component]:
    succ, pred = edges(system)
    finished: list[str] = []
    seen: set[str] = set()
    for root in succ:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(sorted(succ[root])))]
        while stack:
            node, neighbours = stack[-1]
            for nxt in neighbours:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(sorted(succ[nxt]))))
                    break
            else:
                stack.pop()
                finished.append(node)
    placed: set[str] = set()
    order = []
    for node in reversed(finished):
        if node not in placed:
            comp = tuple(sorted(reach((node,), pred, placed)))
            order.append(Component(comp, len(comp) > 1 or node in succ[node]))
    return order

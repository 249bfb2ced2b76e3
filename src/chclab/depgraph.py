"""Predicate dependency graph and iteration order.

Edges run from body predicates to head predicates.  The order lists
strongly connected components with dependencies first, so a single
left-to-right sweep sees every body predicate before (or together with)
the heads it feeds.  Members of cyclic components are the widening
candidates of the fixpoint engines.
"""

from __future__ import annotations

from typing import NamedTuple

from .syntax import System


class Component(NamedTuple):
    preds: tuple[str, ...]
    recursive: bool


def dependency_order(system: System) -> list[Component]:
    nodes = [d.name for d in system.decls]
    succ: dict[str, set[str]] = {n: set() for n in nodes}
    for clause in system.clauses:
        for app in clause.body:
            succ[app.pred.name].add(clause.head.pred.name)

    # Iterative Tarjan; components pop in reverse dependency order.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[tuple[str, ...]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, list[str], int]] = [(root, sorted(succ[root]), 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, neighbours, i = work.pop()
            advanced = False
            while i < len(neighbours):
                nxt = neighbours[i]
                i += 1
                if nxt not in index:
                    work.append((node, neighbours, i))
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, sorted(succ[nxt]), 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            if low[node] == index[node]:
                comp: list[str] = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.append(top)
                    if top == node:
                        break
                sccs.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    ordered = list(reversed(sccs))
    return [
        Component(
            preds=comp,
            recursive=len(comp) > 1 or any(p in succ[p] for p in comp),
        )
        for comp in ordered
    ]

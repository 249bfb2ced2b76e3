"""Dependency components: ordering, recursion flags, partitioning, and
the goal's backward closure, against brute-force references."""

from __future__ import annotations

import random

from chclab import dependency_order, parse_system
from chclab.solver import coarse_backward


def names(component):
    return set(component.preds)


def test_lockstep_proc_order(lockstep_proc):
    comps = dependency_order(lockstep_proc)
    assert [names(c) for c in comps] == [{"f_c"}, {"f"}, {"p"}, {"false"}]
    assert [c.recursive for c in comps] == [False, False, True, False]


def test_dependencies_come_first(corpus_systems):
    for name, system in corpus_systems:
        comps = dependency_order(system)
        position = {p: i for i, c in enumerate(comps) for p in c.preds}
        for clause in system.clauses:
            for app in clause.body:
                assert position[app.pred.name] <= position[clause.head.pred.name], name


def test_components_partition_decls(corpus_systems):
    for name, system in corpus_systems:
        comps = dependency_order(system)
        seen = [p for c in comps for p in c.preds]
        assert sorted(seen) == sorted(d.name for d in system.decls), name
        assert len(seen) == len(set(seen))


def test_self_loop_is_recursive():
    system = parse_system("pred p/1.\np(Y) :- p(X), Y = X + 1.\n")
    comps = dependency_order(system)
    rec = next(c for c in comps if names(c) == {"p"})
    assert rec.recursive


def test_mutual_recursion_single_component():
    text = "pred a/1.\npred b/1.\na(X) :- b(X).\nb(Y) :- a(X), Y = X + 1.\n"
    comps = dependency_order(parse_system(text))
    assert any(names(c) == {"a", "b"} and c.recursive for c in comps)


def test_fact_only_component_not_recursive():
    system = parse_system("pred p/1.\np(X) :- X = 0.\n")
    comps = dependency_order(system)
    solo = next(c for c in comps if names(c) == {"p"})
    assert not solo.recursive


def random_graph_text(seed: int) -> str:
    """A system of 1 to 12 0-ary predicates whose clauses draw their
    heads and bodies at random: self-loops, mutual recursion and
    predicates in no clause all occur, and 0 to 2 goal entries."""
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(rng.randint(1, 12))]
    lines = [f"pred {p}/0." for p in names]
    for _ in range(rng.randint(0, 2 * len(names))):
        head = rng.choice([*names, "false"])
        body = rng.sample(names, rng.randint(0, min(3, len(names))))
        if head != "false" and rng.random() < 0.1:
            body.append(head)
        lines.append(head + (" :- " + ", ".join(body) if body else "") + ".")
    lines += [f"goal {rng.choice(names)}." for _ in range(rng.randint(0, 2))]
    return "\n".join(lines) + "\n"


def reference_reach(system) -> dict[str, set[str]]:
    """For each predicate, the heads it reaches along one or more
    body-to-head edges (a transitive closure, by repeated union)."""
    succ = {d.name: set() for d in system.decls}
    for clause in system.clauses:
        for app in clause.body:
            succ[app.pred.name].add(clause.head.pred.name)
    reach = {p: set(s) for p, s in succ.items()}
    changed = True
    while changed:
        changed = False
        for p, r in reach.items():
            new = set().union(*(succ[q] for q in r)) - r
            if new:
                r |= new
                changed = True
    return reach


def reference_coarse(system) -> frozenset[str]:
    """The backward closure of the goal heads: rescan every clause until
    no body predicate of a clause whose head is in it is added."""
    relevant = {goal.head.pred.name for goal in system.goal}
    changed = True
    while changed:
        changed = False
        for clause in system.clauses:
            if clause.head.pred.name in relevant:
                for app in clause.body:
                    if app.pred.name not in relevant:
                        relevant.add(app.pred.name)
                        changed = True
    return frozenset(relevant)


def test_random_graphs_match_the_references():
    for seed in range(300):
        system = parse_system(random_graph_text(seed))
        reach = reference_reach(system)
        comps = dependency_order(system)
        sccs = {tuple(sorted(q for q in reach[p] | {p} if q == p or p in reach[q])) for p in reach}
        assert len(comps) == len(sccs), seed
        assert {c.preds for c in comps} == sccs, seed
        assert all(c.recursive == (c.preds[0] in reach[c.preds[0]]) for c in comps), seed
        position = {p: i for i, c in enumerate(comps) for p in c.preds}
        for clause in system.clauses:
            for app in clause.body:
                assert position[app.pred.name] <= position[clause.head.pred.name], seed
        assert coarse_backward(system) == reference_coarse(system), seed


def test_long_chain_needs_no_recursion():
    """2,000 predicates in one chain, the falsity predicate last: a
    recursive walk would pass the interpreter's recursion limit."""
    names = [f"p{i}" for i in range(1999)]
    lines = [f"pred {p}/0." for p in names] + ["p0."]
    lines += [f"{b} :- {a}." for a, b in zip(names, names[1:])] + ["false :- p1998."]
    system = parse_system("\n".join(lines) + "\n")
    comps = dependency_order(system)
    assert [c.preds for c in comps] == [(p,) for p in [*names, "false"]]
    assert not any(c.recursive for c in comps)
    assert coarse_backward(system) == frozenset([*names, "false"])

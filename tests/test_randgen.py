"""Seeded system generators: determinism and advertised guarantees."""

from __future__ import annotations

from chclab.concrete import ground_relation
from chclab.depgraph import dependency_order
from chclab.parser import parse_system
from conftest import RAND
from randgen import (
    random_acyclic_system,
    random_acyclic_text,
    random_finite_system,
    random_finite_text,
    rounds_like_text,
)


def test_finite_text_is_deterministic():
    assert random_finite_text(7) == random_finite_text(7)
    assert random_finite_text(7) != random_finite_text(8)


def test_finite_systems_parse_and_bound():
    for seed in range(50):
        system = random_finite_system(seed)
        assert system.universe is not None and len(system.universe) <= 4
        preds = [d for d in system.decls if not d.is_false]
        assert len(preds) <= 4 and all(d.arity <= 2 for d in preds)
        assert len(system.clauses) <= 8


def test_acyclic_systems_have_no_cycles():
    for seed in range(30):
        system = random_acyclic_system(seed)
        assert all(not c.recursive for c in dependency_order(system))


def test_acyclic_relation_stays_small():
    for seed in range(30):
        system = random_acyclic_system(seed)
        assert len(ground_relation(system)) <= 40


def test_acyclic_text_round_trips():
    text = random_acyclic_text(5)
    system = parse_system(text)
    assert system.universe is not None


def test_rounds_like_systems_are_loops_feeding_a_chain():
    assert rounds_like_text(7) == rounds_like_text(7)
    assert rounds_like_text(7) != rounds_like_text(8)
    for seed in range(50):
        system = parse_system(rounds_like_text(seed))
        preds = [d for d in system.decls if not d.is_false]
        assert 3 <= len(preds) <= 5 and all(2 <= d.arity <= 4 for d in preds)
        assert len(system.clauses) == len(preds) + 2
        recursive = [c.preds for c in dependency_order(system) if c.recursive]
        assert recursive == [("p0",)], seed


def test_committed_corpus_matches_generator():
    # corpus/rand was produced by seeds 1000..1019; regeneration must agree
    for i in range(20):
        want = (RAND / f"r{i:02d}.chc").read_text(encoding="utf-8")
        assert random_finite_text(1000 + i) == want, i

"""Metamorphic relations of the analyses: translating every variable,
scaling every variable, and permuting the clauses leave the verdict, the
round count, the stop reason and the certificates unchanged in every
mode, and move the final boxes with the variables."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chclab.cli import MODES, certify, solve
from chclab.domain import Box
from chclab.linlogic import Interval
from chclab.parser import parse_system
from chclab.solver import AnalysisConfig
from chclab.syntax import (
    And,
    Formula,
    Lin,
    LinConstraint,
    LinTerm,
    Or,
    System,
)
from conftest import bound
from fm_reference import add, scale
from randgen import fuzz_text

SEED = 3
FUZZ_SEEDS = range(0, 300, 15)


def _map_terms(f: Formula, fn) -> Formula:
    if isinstance(f, Lin):
        return Lin(LinConstraint(fn(f.con.term), f.con.rel))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_map_terms(g, fn) for g in f.items))
    return f


def _substitute(system: System, replacement) -> System:
    """Substitute ``replacement(v)`` for every variable ``v`` in the
    constraints of the clauses and of the goal clauses."""

    def fn(term: LinTerm) -> LinTerm:
        parts = [scale(replacement(v), c) for v, c in term.coeffs]
        return add(LinTerm.make({}, term.const), *parts)

    def mapped(clauses):
        return tuple(c._replace(constraint=_map_terms(c.constraint, fn)) for c in clauses)

    return system._replace(clauses=mapped(system.clauses), goal=mapped(system.goal))


def _translate(system: System, rng: random.Random):
    """``v + t`` for every ``v``: each solution moves by ``-t``."""
    t = rng.choice([-7, -3, 4, 9])
    return _substitute(system, lambda v: LinTerm.make({v: 1}, t)), lambda x: x - t


def _scale(system: System, rng: random.Random):
    """``k * v`` for every ``v``: each solution is divided by ``k``."""
    k = rng.choice([2, 3, 5])
    return _substitute(system, lambda v: LinTerm.make({v: k})), lambda x: Fraction(x) / k


def _permute(system: System, rng: random.Random):
    clauses = list(system.clauses)
    rng.shuffle(clauses)
    return system._replace(clauses=tuple(clauses)), lambda x: x


def _moved(box: Box, move) -> Box:
    if box.is_empty:
        return box
    return Box(
        box.arity,
        tuple(
            Interval(*(b if b.value is None else bound(move(b.value), b.strict) for b in iv))
            for iv in box.intervals
        ),
    )


def _outcome(system: System, mode: str, move=lambda x: x) -> tuple:
    """What a run decides, with its final boxes moved by ``move``."""
    trace, verdict = solve(system, mode, AnalysisConfig())
    certs, _ = certify(system, trace, verdict, verdict.witness.as_dict())
    final = {name: _moved(box, move) for name, box in verdict.witness.final.items()}
    return verdict.status, verdict.rounds_used, verdict.stop_reason, certs, final


@pytest.mark.parametrize(
    "relation", [_translate, _scale, _permute], ids=["translate", "scale", "permute"]
)
def test_relations_keep_the_outcome(corpus_systems, relation):
    rng = random.Random(f"{SEED}:{relation.__name__}")
    systems = corpus_systems + [(f"fuzz {s}", parse_system(fuzz_text(s))) for s in FUZZ_SEEDS]
    unchanged = 0
    for name, system in systems:
        changed, move = relation(system, rng)
        unchanged += changed == system
        for mode in MODES:
            assert _outcome(changed, mode) == _outcome(system, mode, move), (name, mode)
    assert unchanged < len(systems) // 4

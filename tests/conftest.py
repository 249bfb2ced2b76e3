"""Shared fixtures: parsed corpus systems and corpus paths; bounds,
intervals and the box of one ground tuple; and the join of elements."""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import pytest

from chclab import parse_system
from chclab.domain import AbstractElement, Box
from chclab.linlogic import UNBOUNDED, Bound, Interval

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
RAND = CORPUS / "rand"

# pyproject's ``pythonpath`` puts src/ on the test process's path; the
# tests that run chclab in a child process need it there too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
)


def bound(value, strict: bool = False) -> Bound:
    """A bound at ``value``, held as :class:`Bound` holds it: an ``int``
    when it is integral, a ``Fraction`` otherwise."""
    value = Fraction(value)
    return Bound(value.numerator if value.denominator == 1 else value, strict)


def interval(lo, hi, lo_strict: bool = False, hi_strict: bool = False) -> Interval:
    """The interval from ``lo`` to ``hi``; ``None`` leaves a side unbounded."""
    return Interval(
        UNBOUNDED if lo is None else bound(lo, lo_strict),
        UNBOUNDED if hi is None else bound(hi, hi_strict),
    )


def point_box(args) -> Box:
    """The box that holds the tuple ``args`` alone: a box holds the
    tuple exactly when this box is below it."""
    return Box.make(len(args), (interval(x, x) for x in args))


def join(a: AbstractElement, b: AbstractElement) -> AbstractElement:
    """The join of two elements of one system, predicate by predicate."""
    return AbstractElement((n, x.join(b[n])) for n, x in a.items())


def load(name: str):
    return parse_system((CORPUS / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def lockstep():
    return load("lockstep.chc")


@pytest.fixture(scope="session")
def lockstep_proc():
    return load("lockstep_proc.chc")


@pytest.fixture(scope="session")
def addition_loops():
    return load("addition_loops.chc")


@pytest.fixture(scope="session")
def ladder():
    return load("ladder.chc")


@pytest.fixture(scope="session")
def no_init():
    return load("no_init.chc")


@pytest.fixture(scope="session")
def corpus_paths():
    """Every bundled system: the five named ones plus the random batch."""
    named = sorted(CORPUS.glob("*.chc"))
    rand = sorted(RAND.glob("*.chc"))
    assert len(named) == 5 and len(rand) == 20
    return named + rand


@pytest.fixture(scope="session")
def corpus_systems(corpus_paths):
    return [(p.name, parse_system(p.read_text(encoding="utf-8"))) for p in corpus_paths]

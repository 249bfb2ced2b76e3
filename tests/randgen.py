"""Seeded random systems and cubes for the property suites.

Everything here is deterministic in the seed, so failures reproduce and
the bundled random corpus can be regenerated byte-for-byte with
``PYTHONPATH=src python3 tests/randgen.py corpus/rand``.  Sizes are
tuned to keep the concrete enumeration oracles fast: small universes,
few predicates, and bounded variable counts per clause.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import prod

from chclab.concrete import Consequence, ground_relation
from chclab.parser import parse_system
from chclab.syntax import LinConstraint, LinTerm, Rel, System

_VARS = ("A", "B", "C", "D", "E")


def _random_comparison(rng: random.Random, variables) -> str:
    v = rng.choice(variables)
    op = rng.choice(["<=", "<", "=", ">=", ">"])
    kind = rng.random()
    if kind < 0.5:
        return f"{v} {op} {rng.randint(0, 3)}"
    w = rng.choice(variables)
    if kind < 0.8:
        return f"{v} {op} {w}"
    shift = rng.randint(-2, 2)
    sign = "-" if shift < 0 else "+"
    return f"{v} = {w} {sign} {abs(shift)}"


def random_finite_text(seed: int) -> str:
    """A small random system over a finite universe, as source text."""
    rng = random.Random(seed)
    npreds = rng.randint(1, 4)
    arities = [rng.choice([0, 1, 1, 2, 2]) for _ in range(npreds)]
    names = [f"p{i}" for i in range(npreds)]
    usize = rng.randint(2, 4)
    universe = rng.sample([0, 1, 2, 3], usize)

    lines = [f"pred {n}/{a}." for n, a in zip(names, arities)]
    lines.append("universe {" + ", ".join(str(u) for u in sorted(universe)) + "}.")

    def atom(i: int, variables) -> str:
        if arities[i] == 0:
            return names[i]
        args = ", ".join(rng.choice(variables) for _ in range(arities[i]))
        return f"{names[i]}({args})"

    with_integrity = rng.random() < 0.7
    nclauses = rng.randint(1, 8 - with_integrity)
    for _ in range(nclauses):
        variables = _VARS[: rng.randint(2, 4)]
        head = rng.randrange(npreds)
        nbody = rng.choices([0, 1, 2], weights=[35, 40, 25])[0]
        body = [atom(rng.randrange(npreds), variables) for _ in range(nbody)]
        body += [
            _random_comparison(rng, variables)
            for _ in range(rng.randint(0, 2))
        ]
        if body:
            lines.append(f"{atom(head, variables)} :- {', '.join(body)}.")
        else:
            lines.append(f"{atom(head, variables)}.")
    if with_integrity:
        variables = _VARS[:2]
        target = rng.randrange(npreds)
        guard = _random_comparison(rng, variables)
        lines.append(f"false :- {atom(target, variables)}, {guard}.")
    return "\n".join(lines) + "\n"


def random_finite_system(seed: int) -> System:
    return parse_system(random_finite_text(seed))


def random_goal_text(seed: int) -> str:
    """``random_finite_text(seed)`` with one or two ``goal`` entries
    appended, each on a random predicate with at most one comparison of
    its arguments as guard.  The entries are drawn from a generator of
    their own, so the text before them is ``random_finite_text(seed)``."""
    text = random_finite_text(seed)
    rng = random.Random(f"goal:{seed}")
    decls = [d for d in parse_system(text).decls if not d.is_false]
    lines = []
    for _ in range(rng.randint(1, 2)):
        decl = rng.choice(decls)
        args = _VARS[: decl.arity]
        entry = f"goal {decl.name}({', '.join(args)})" if args else f"goal {decl.name}"
        if args and rng.random() < 0.7:
            entry += f" : {_random_comparison(rng, args)}"
        lines.append(entry + ".")
    return text + "\n".join(lines) + "\n"


def _count_trees(rel, roots) -> int:
    """Number of complete derivation trees rooted at ``roots``.

    ``rel`` must not cycle, which holds by construction for the acyclic
    generator; a cycle would end in ``RecursionError``.
    """

    @cache
    def count(atom) -> int:
        return sum(prod(count(a) for a in c.premises) for c in rel if c.conclusion == atom)

    return sum(count(atom) for atom in roots)


def random_acyclic_text(seed: int, max_trees: int = 3000) -> str:
    """A random system whose derivations cannot cycle.

    Clause bodies only mention strictly lower-numbered predicates, so
    every derivation tree is finite and the tree enumeration stabilizes.
    Instances whose exact numbers of complete plus partial derivation
    trees exceed ``max_trees`` are redrawn from a seed-derived sequence,
    keeping generation deterministic.  A partial tree is a complete tree
    of the relation in which every atom is also a fact, so one counter
    counts both.
    """
    for attempt in range(64):
        rng = random.Random(seed * 1009 + attempt)
        npreds = rng.randint(2, 3)
        arities = [rng.choice([0, 1, 1, 2]) for _ in range(npreds)]
        names = [f"p{i}" for i in range(npreds)]
        usize = rng.randint(2, 3)
        universe = rng.sample([0, 1, 2], usize)

        lines = [f"pred {n}/{a}." for n, a in zip(names, arities)]
        lines.append(
            "universe {" + ", ".join(str(u) for u in sorted(universe)) + "}."
        )

        def atom(i: int, variables) -> str:
            if arities[i] == 0:
                return names[i]
            args = ", ".join(rng.choice(variables) for _ in range(arities[i]))
            return f"{names[i]}({args})"

        for _ in range(rng.randint(1, 5)):
            variables = _VARS[: rng.randint(1, 3)]
            head = rng.randrange(npreds)
            lower = list(range(head))
            nbody = 0 if not lower else rng.choices([0, 1, 2], weights=[25, 50, 25])[0]
            body = [atom(rng.choice(lower), variables) for _ in range(nbody)]
            body += [
                _random_comparison(rng, variables)
                for _ in range(rng.randint(1, 2))
            ]
            lines.append(f"{atom(head, variables)} :- {', '.join(body)}.")
        goal_pred = rng.randrange(npreds)
        if arities[goal_pred] == 0:
            lines.append(f"goal {names[goal_pred]}.")
        else:
            args = ", ".join(_VARS[: arities[goal_pred]])
            lines.append(
                f"goal {names[goal_pred]}({args}) : {_VARS[0]} >= {rng.randint(0, 2)}."
            )
        text = "\n".join(lines) + "\n"

        system = parse_system(text)
        rel = ground_relation(system)
        if len(rel) > 40:
            continue
        roots = {c.conclusion for c in rel}
        facts = {Consequence(frozenset(), a) for c in rel for a in (c.conclusion, *c.premises)}
        if _count_trees(rel, roots) + _count_trees(rel | facts, roots) <= max_trees:
            return text
    raise RuntimeError(f"no tame acyclic system found for seed {seed}")


def random_acyclic_system(seed: int) -> System:
    return parse_system(random_acyclic_text(seed))


def random_interval(rng: random.Random):
    from chclab.linlogic import UNBOUNDED, Bound, Interval

    def side() -> Bound:
        if rng.random() < 0.25:
            return UNBOUNDED
        return Bound(rng.randint(-2, 4), rng.random() < 0.3)

    return Interval(side(), side())


def random_box(rng: random.Random, arity: int):
    from chclab.domain import Box

    if rng.random() < 0.1:
        return Box.empty(arity)
    return Box.make(arity, (random_interval(rng) for _ in range(arity)))


def random_element(rng: random.Random, system: System):
    from chclab.domain import AbstractElement

    return AbstractElement((d.name, random_box(rng, d.arity)) for d in system.decls)


def random_cube(rng: random.Random, max_vars: int = 4) -> list[LinConstraint]:
    """A random conjunction of small-coefficient constraints."""
    nvars = rng.randint(0, max_vars)
    variables = [f"v{i}" for i in range(nvars)]
    ncons = rng.randint(0, 3 + nvars)
    cube = []
    for _ in range(ncons):
        coeffs = []
        for v in variables:
            if rng.random() < 0.6:
                c = rng.randint(-3, 3)
                if c:
                    coeffs.append((v, Fraction(c)))
        const = Fraction(rng.randint(-4, 4))
        term = LinTerm.make(coeffs, const)
        rel = rng.choice([Rel.LE, Rel.LE, Rel.LT, Rel.EQ])
        cube.append(LinConstraint(term, rel))
    return cube


def _main() -> None:
    import pathlib
    import sys

    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "corpus/rand")
    out.mkdir(parents=True, exist_ok=True)
    for i in range(20):
        (out / f"r{i:02}.chc").write_text(random_finite_text(1000 + i))
    print(f"wrote 20 systems under {out}")


if __name__ == "__main__":
    _main()

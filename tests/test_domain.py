"""Interval/box domain: lattice laws, widening, abstraction soundness."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formula_reference
import transformer_reference
from chclab import linlogic
from chclab.concrete import ground_relation, post as concrete_post
from chclab.domain import (
    AbstractElement,
    Box,
    CompiledClause,
    Interval,
    clause_post,
    clause_pre_restricted,
    formula_box,
)
from chclab.linlogic import (
    UNBOUNDED,
    Bound,
    Conjunction,
    ResourceLimitError,
    cube_is_sat,
    sat_cube,
    to_dnf,
)
from chclab.cli import certify
from chclab.parser import parse_system
from chclab.qa import qa_two_step
from chclab.solver import AnalysisConfig, alternate
from chclab.syntax import (
    Clause,
    LinConstraint,
    LinTerm,
    PredApp,
    PredDecl,
    Rel,
    conj,
    param_vars,
)
from conftest import CORPUS, interval, join, point_box
from fm_reference import sub
from randgen import fuzz_text, random_box, random_element, random_finite_system, random_interval
from test_linlogic import pivot_formula

F = Fraction


def boxes(seed: int, arity: int = 2, n: int = 3):
    rng = random.Random(seed)
    return [random_box(rng, arity) for _ in range(n)]


# -- intervals ------------------------------------------------------------------


def test_interval_basics():
    i = interval(0, 2, hi_strict=True)
    assert interval(0, 0).leq(i) and interval(F(3, 2), F(3, 2)).leq(i)
    assert not interval(2, 2).leq(i)
    assert str(i) == "[0, 2)"
    assert interval(2, 1).is_empty
    assert interval(0, 0, lo_strict=True).is_empty


def test_interval_join_meet():
    a, b = interval(0, 1), interval(2, 5)
    assert str(a.join(b)) == "[0, 5]"
    assert a.meet(b).is_empty
    half = interval(0, None)
    assert str(half) == "[0, +oo)"
    assert half.meet(interval(None, 3)).leq(interval(0, 3))


def test_interval_widen_unstable_to_infinity():
    a = interval(0, 1)
    b = interval(0, 2)
    w = a.widen(b)
    assert str(w) == "[0, +oo)"
    assert str(b.widen(a)) == "[0, 2]"  # stable upper bound is kept


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_interval_lattice_laws(seed):
    rng = random.Random(seed)

    def draw():
        # A box never holds an empty interval, and join and widen are
        # defined on non-empty operands only: redraw an empty box.
        box = random_box(rng, 1)
        while box.is_empty:
            box = random_box(rng, 1)
        return box.intervals[0]

    a, b, c = draw(), draw(), draw()
    assert a.join(b).leq(b.join(a)) and b.join(a).leq(a.join(b))
    assert a.meet(b).leq(a) and a.meet(b).leq(b)
    assert a.leq(a.join(b)) and b.leq(a.join(b))
    assert a.join(a).leq(a)
    ab_c = a.join(b).join(c)
    a_bc = a.join(b.join(c))
    assert ab_c.leq(a_bc) and a_bc.leq(ab_c)
    # widening over-approximates join
    assert a.join(b).leq(a.widen(b))


def test_widening_chains_stabilize():
    cur = interval(0, 0)
    steps = 0
    while True:
        nxt = cur.widen(interval(0, steps + 1).join(cur))
        steps += 1
        if nxt.leq(cur) and cur.leq(nxt):
            break
        cur = nxt
        assert steps < 5, "widening failed to stabilize"


# -- boxes ------------------------------------------------------------------------


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_box_lattice_laws(seed):
    rng = random.Random(seed)
    arity = rng.choice([0, 1, 2, 3])
    a, b = random_box(rng, arity), random_box(rng, arity)
    assert a.meet(b).leq(a) and a.meet(b).leq(b)
    assert a.leq(a.join(b)) and b.leq(a.join(b))
    assert a.join(b).leq(a.widen(b))
    assert Box.empty(arity).leq(a) and a.leq(Box.top(arity))
    if a.leq(b) and b.leq(a):
        assert a == b  # canonical representation


def test_zero_ary_box_is_reached_flag():
    assert str(Box.top(0)) == "reached"
    assert str(Box.empty(0)) == "empty"
    assert Box.empty(0).leq(Box.top(0))
    assert not Box.top(0).leq(Box.empty(0))


# A reference lattice that builds a fresh tuple for every result.  A
# bound's key orders it by what it admits: a lower bound's key is the
# smaller, and an upper bound's the larger, the more it admits.


def _lo_key(side: Bound) -> tuple:
    return (0,) if side.value is None else (1, side.value, side.strict)


def _hi_key(side: Bound) -> tuple:
    return (1,) if side.value is None else (0, side.value, not side.strict)


def _reference_interval(op: str, a: Interval, b: Interval):
    if op == "leq":
        return _lo_key(b.lo) <= _lo_key(a.lo) and _hi_key(a.hi) <= _hi_key(b.hi)
    if op == "join":
        return Interval(min(a.lo, b.lo, key=_lo_key), max(a.hi, b.hi, key=_hi_key))
    if op == "meet":
        return Interval(max(a.lo, b.lo, key=_lo_key), min(a.hi, b.hi, key=_hi_key))
    # Widening sends each end of ``a`` that does not admit ``b``'s away.
    lo = a.lo if _lo_key(a.lo) <= _lo_key(b.lo) else UNBOUNDED
    hi = a.hi if _hi_key(b.hi) <= _hi_key(a.hi) else UNBOUNDED
    return Interval(lo, hi)


def _reference_box(op: str, a: Box, b: Box):
    if op == "leq":
        return a.intervals is None or b.intervals is not None and all(
            _reference_interval("leq", x, y) for x, y in zip(a.intervals, b.intervals)
        )
    if op == "meet":
        if a.intervals is None or b.intervals is None:
            return Box(a.arity, None)
        ivs = tuple(_reference_interval("meet", x, y) for x, y in zip(a.intervals, b.intervals))
        return Box(a.arity, None if any(iv.is_empty for iv in ivs) else ivs)
    if a.intervals is None:
        return Box(*b)
    if b.intervals is None:
        return Box(*a)
    return Box(a.arity, tuple(_reference_interval(op, x, y) for x, y in zip(a.intervals, b.intervals)))


def _nonempty_interval(rng: random.Random) -> Interval:
    """A point, or an interval with open, closed or unbounded ends at
    integral and ``Fraction`` values."""
    values = (-1, 0, 2, F(1, 2), F(-7, 3))
    if rng.random() < 0.15:
        side = Bound(rng.choice(values), False)
        return Interval(side, side)
    while True:
        lo, hi = (
            UNBOUNDED if rng.random() < 0.25 else Bound(rng.choice(values), rng.random() < 0.4)
            for _ in range(2)
        )
        if not Interval(lo, hi).is_empty:
            return Interval(lo, hi)


def _second_operand(rng: random.Random, a: Box) -> Box:
    """``a`` itself, an equal copy, the empty box, or ``a`` with some of
    its intervals redrawn."""
    pick = rng.random()
    if pick < 0.15:
        return a
    if a.intervals is None or pick < 0.3:
        return Box(a.arity, a.intervals and tuple(Interval(*iv) for iv in a.intervals))
    if pick < 0.4:
        return Box(a.arity, None)
    return Box(a.arity, tuple(iv if rng.random() < 0.5 else _nonempty_interval(rng) for iv in a.intervals))


def _assert_reuses(got, want, a, b):
    """``got`` equals ``want`` and, when an operand does, is that operand."""
    assert got == want, (a, b)
    operands = [x for x in (a, b) if x == want]
    assert not operands or any(got is x for x in operands), (a, b)


def test_lattice_operations_return_an_operand_when_the_result_equals_it():
    rng = random.Random(0)
    assert Interval.top() is Interval.top() == Interval(UNBOUNDED, UNBOUNDED)
    for arity in range(4):
        assert Box.empty(arity) is Box.empty(arity) == Box(arity, None)
        assert Box.top(arity) is Box.top(arity) == Box(arity, (Interval(UNBOUNDED, UNBOUNDED),) * arity)
        assert Box.make(arity, [Interval(UNBOUNDED, UNBOUNDED)] * arity) is Box.top(arity)
    for _ in range(3000):
        a = _nonempty_interval(rng)
        b = rng.choice([a, Interval(*a), _nonempty_interval(rng)])
        for op in ("join", "meet", "widen"):
            _assert_reuses(getattr(a, op)(b), _reference_interval(op, a, b), a, b)
        assert a.leq(b) == _reference_interval("leq", a, b)
        arity = rng.randrange(4)
        if rng.random() < 0.1:
            a = Box(arity, None)
        else:
            a = Box(arity, tuple(_nonempty_interval(rng) for _ in range(arity)))
        b = _second_operand(rng, a)
        for x, y in ((a, b), (b, a)):
            for op in ("join", "meet", "widen"):
                _assert_reuses(getattr(x, op)(y), _reference_box(op, x, y), x, y)
            assert x.leq(y) == _reference_box("leq", x, y)


def test_box_make_rejects_wrong_arity():
    with pytest.raises(ValueError, match="arity 2"):
        Box.make(2, (Interval.top(),))


def test_box_never_holds_an_empty_interval():
    # Interval.join and widen are defined on non-empty operands only;
    # Box.make keeps them from meeting an empty one.
    for empty in (interval(1, 0), interval(0, 0, lo_strict=True), interval(2, 2, hi_strict=True)):
        for ivs in ((empty, Interval.top()), (interval(0, 5), empty)):
            box = Box.make(2, ivs)
            assert box.is_empty and box == Box.empty(2)


def test_box_formula_and_complement_round_trip():
    box = Box.make(2, (interval(3, None), interval(None, -1)))
    vs = param_vars(2)
    inside = box.formula(vs)
    outside = box.complement(vs)
    holds = formula_reference.eval_formula
    for args in [(F(3), F(-1)), (F(10), F(-5))]:
        env = dict(zip(vs, args))
        assert holds(inside, env) and not holds(outside, env)
    for args in [(F(2), F(-1)), (F(3), F(0)), (F(-7), F(7))]:
        env = dict(zip(vs, args))
        assert not holds(inside, env) and holds(outside, env)
    # the two pieces partition the plane
    assert sat_cube(conj((inside, outside))) is None


@pytest.mark.parametrize(
    "box, text",
    [
        (Box.make(1, (interval(3, 3),)), "x < 3; -x < -3"),
        (
            Box.make(2, (interval(0, None, lo_strict=True), interval(None, F(5, 2), hi_strict=True))),
            "x <= 0; -y <= -5/2",
        ),
        (Box.make(2, (interval(-1, 4), interval(0, 2, hi_strict=True))), "x < -1; -x < -4; y < 0; -y <= -2"),
        (Box.make(2, (interval(F(1, 3), F(1, 3)), interval(2, None))), "x < 1/3; -x < -1/3; y < 2"),
        (Box.top(2), "false"),
        (Box.empty(2), "true"),
        (Box.top(0), "false"),
        (Box.empty(0), "true"),
    ],
    ids=["point", "half-open-strict", "closed", "point-and-ray", "top", "empty", "reached", "unreached"],
)
def test_box_complement_text(box, text):
    assert str(box.complement(("x", "y")[: box.arity])) == text


def test_point_box_formula_uses_equality():
    box = Box.make(1, (interval(4, 4),))
    f = box.formula(("X1",))
    assert "=" in str(f) and formula_reference.eval_formula(f, {"X1": F(4)})


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_formula_box_galois_round_trip(seed):
    """Abstraction of a box formula gives back the same box."""
    rng = random.Random(seed)
    arity = rng.choice([1, 2, 3])
    box = random_box(rng, arity)
    vs = param_vars(arity)
    assert formula_box(box.formula(vs), vs) == box


# -- elements ----------------------------------------------------------------------


def test_element_order_and_bottom(addition_loops):
    bot = AbstractElement.bottom(addition_loops)
    top = AbstractElement.top(addition_loops)
    assert bot.is_bottom and bot.leq(top) and not top.leq(bot)
    assert top.meet(bot).is_bottom
    assert join(bot, top).leq(top) and top.leq(join(bot, top))
    # Keys follow the declarations; a copy with one box changed leaves
    # the element it copies as it was.
    assert list(bot) == list(top) == [d.name for d in addition_loops.decls]
    lifted = AbstractElement(bot, p1=Box.top(2))
    assert not lifted.is_bottom and bot.is_bottom
    assert lifted["p1"] == Box.top(2) and lifted["p2"].is_empty


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_element_lattice_laws(seed):
    rng = random.Random(seed)
    system = random_finite_system(rng.randrange(10**6))
    a = random_element(rng, system)
    b = random_element(rng, system)
    assert a.meet(b).leq(a) and a.leq(join(a, b))


# -- abstract transformers vs. ground truth ------------------------------------------


def _element_from_atoms(system, atoms):
    """Smallest box element whose concretization covers the given atoms."""
    elem = AbstractElement.bottom(system)
    for atom in atoms:
        elem[atom.pred] = elem[atom.pred].join(point_box(atom.args))
    return elem


def test_clause_post_sound_on_seeded_systems():
    checked = 0
    for seed in range(60):
        system = random_finite_system(seed)
        rel = ground_relation(system)
        atoms = set()
        for cons in rel:
            atoms.update(cons.premises)
            atoms.add(cons.conclusion)
        rng = random.Random(seed)
        sub = {a for a in atoms if rng.random() < 0.5}
        elem = _element_from_atoms(system, sub)
        stepped = concrete_post(rel, sub)
        for clause in system.clauses:
            box = clause_post(clause, elem)
            for atom in stepped:
                if atom.pred != clause.head.pred.name:
                    continue
                # every concretely derivable head atom lands in some head box;
                # the per-clause check is the union over clauses, so only
                # assert for single-clause heads
                if sum(c.head.pred == clause.head.pred for c in system.clauses) == 1:
                    assert point_box(atom.args).leq(box), (seed, str(clause), str(atom))
                    checked += 1
    assert checked > 50


def test_clause_post_example():
    system = parse_system(
        "pred p/1.\npred q/1.\nq(Y) :- p(X), Y = X + 1, X >= 0.\n"
    )
    elem = AbstractElement(AbstractElement.bottom(system), p=Box.make(1, (interval(-5, 3),)))
    clause = system.clauses[0]
    box = clause_post(clause, elem)
    assert str(box) == "[1, 4]"


def test_clause_pre_restricted_example():
    # head bound [0, 10] flows back through Y = X + 1 onto p, but only
    # within the restriction X <= 2
    system = parse_system(
        "pred p/1.\npred q/1.\nq(Y) :- p(X), Y = X + 1, X >= 0.\n"
    )
    clause = system.clauses[0]
    elem = AbstractElement(AbstractElement.bottom(system), q=Box.make(1, (interval(0, 10),)))
    restriction = AbstractElement(AbstractElement.top(system), p=Box.make(1, (interval(None, 2),)))
    box = clause_pre_restricted(clause, 0, restriction, elem)
    assert str(box) == "[0, 2]"


# -- compiled transformers vs. the formula route ---------------------------------

# Repeated argument variables: the parser gives each position its own
# variable and an equality, which the compiled templates pivot on.
REPEATED_TEXT = """\
pred p1/2.
pred p2/4.
p1(X, Y) :- X >= 0, Y = X + 1.
p2(C, C, A, A) :- p1(A, C), C <= A + 3.
p1(A, C) :- p2(C, C, A, A), A < 5.
p2(A, B, A, B) :- p2(B, A, B, A), p1(A, A), A + B <= 7.
false :- p2(A, B, C, D), A + B > C + D + 10.
"""


def _repeated_clauses():
    """Clauses built directly, so that one variable fills several
    argument positions of an atom, which the parser never produces."""
    p1, p2 = PredDecl("p1", 2), PredDecl("p2", 4)
    a, c = LinTerm.var("A"), LinTerm.var("C")
    le = LinConstraint(sub(c, a, LinTerm.make({}, 3)), Rel.LE).formula()
    eq = LinConstraint(sub(c, a), Rel.EQ).formula()
    return [
        Clause((PredApp(p2, ("C", "C", "A", "A")),), le, PredApp(p1, ("A", "C"))),
        Clause((PredApp(p1, ("A", "A")), PredApp(p1, ("C", "A"))), eq, PredApp(p2, ("C", "C", "A", "C"))),
    ]


def _probe_interval(rng, kind):
    if kind == "top":
        return Interval.top()
    if kind == "point":
        v = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        return interval(v, v)
    if kind == "half-open":
        v = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 3)))
        return rng.choice(
            (
                interval(v, None, lo_strict=rng.random() < 0.5),
                interval(None, v, hi_strict=rng.random() < 0.5),
                interval(v, v + 2, hi_strict=True),
            )
        )
    return random_interval(rng)


def _probe_element(rng, decls):
    """Every box top, empty, a point, half-open or a mix of those."""
    boxes = {}
    for d in decls:
        kind = rng.choice(("top", "empty", "point", "half-open", "mixed"))
        if kind == "empty":
            boxes[d.name] = Box.empty(d.arity)
            continue
        kinds = [
            rng.choice(("top", "point", "half-open", "random")) if kind == "mixed" else kind
            for _ in range(d.arity)
        ]
        boxes[d.name] = Box.make(d.arity, (_probe_interval(rng, k) for k in kinds))
    return AbstractElement(boxes)


def _row_text(vec: list[int], rel: str, const: int) -> str:
    terms = " + ".join(f"{a}*X{j}" for j, a in enumerate(vec) if a)
    return f"{terms.replace('+ -', '- ')} {rel} {const}"


def _cube_text(rng) -> str:
    """A system of one clause whose constraint is one cube over 3-6
    variables: 2-6 rows over two or three of them, some strict and some
    equalities.  About two cubes in five get one more row: a positive
    combination of the others, negated, with its constant lowered or made
    strict, so that the cube is unsatisfiable, most often with no conflict
    that normalization finds."""
    n = rng.randint(3, 6)
    rows = []
    for _ in range(rng.randint(2, 6)):
        vec = [0] * n
        for j in rng.sample(range(n), rng.randint(2, 3)):
            vec[j] = rng.choice((-3, -2, -1, 1, 2, 3))
        rows.append((vec, rng.choice(("<=", "<=", "<=", "<", "=")), rng.randint(-6, 6)))
    texts = [_row_text(*row) for row in rows]
    if rng.random() < 0.4:
        # Each row holds as ``vec·x <= const``, so the combination does.
        weights = [rng.randint(1, 2) for _ in rows]
        vec = [-sum(w * row[0][j] for w, row in zip(weights, rows)) for j in range(n)]
        const = -sum(w * row[2] for w, row in zip(weights, rows))
        lowered = rng.randint(0, 2)
        if any(vec):
            texts.append(_row_text(vec, "<" if not lowered else "<=", const - lowered))
    head = rng.sample(range(n), rng.randint(1, 2))
    body = rng.sample(range(n), rng.randint(1, 2))
    atoms = [f"q({', '.join(f'X{j}' for j in body)})"] if rng.random() < 0.7 else []
    return (
        f"pred p/{len(head)}. pred q/{len(body)}.\n"
        f"p({', '.join(f'X{j}' for j in head)}) :- {', '.join(atoms + texts)}.\n"
    )


def _assert_matches_reference(clauses, decls, rng, count, label):
    """One compiled form per clause, called on ``count`` elements."""
    compiled = [CompiledClause(c) for c in clauses]
    for k in range(count):
        elem, restriction = _probe_element(rng, decls), _probe_element(rng, decls)
        for clause, cc in zip(clauses, compiled):
            body = [elem[app.pred.name] for app in clause.body]
            want = transformer_reference.clause_post(clause, elem)
            assert cc.post(body) == want, (label, k, str(clause))
            head = elem[clause.head.pred.name]
            body = [restriction[app.pred.name] for app in clause.body]
            for j in range(len(clause.body)):
                want = transformer_reference.clause_pre_restricted(clause, j, restriction, elem)
                assert cc.pre(j, head, body) == want, (label, k, j, str(clause))


def test_compiled_transformers_match_formula_route(corpus_systems):
    rng = random.Random(7)
    for name, system in corpus_systems:
        _assert_matches_reference(system.clauses, system.decls, rng, 6, name)
    for seed in range(200):
        system = parse_system(fuzz_text(seed))
        _assert_matches_reference(system.clauses, system.decls, rng, 2, seed)
    system = parse_system(REPEATED_TEXT)
    _assert_matches_reference(system.clauses, system.decls, rng, 100, "repeated")
    decls = (PredDecl("p1", 2), PredDecl("p2", 4))
    _assert_matches_reference(_repeated_clauses(), decls, rng, 100, "shared")
    # the calls on the fly compile the same way
    elem = _probe_element(rng, system.decls)
    for clause in system.clauses[1:]:
        assert clause_post(clause, elem) == transformer_reference.clause_post(clause, elem)
        assert clause_pre_restricted(clause, 0, elem, elem) == (
            transformer_reference.clause_pre_restricted(clause, 0, elem, elem)
        )
    # Seeded cubes over 3-6 variables, a share of them refuted only by
    # elimination, which the template build decides: post and pre must
    # still equal the formula route, and a dead cube keeps no template.
    rng = random.Random(35)
    live = dead = 0
    for seed in range(160):
        system = parse_system(_cube_text(random.Random(seed)))
        _assert_matches_reference(system.clauses, system.decls, rng, 3, seed)
        (clause,) = system.clauses
        cc = CompiledClause(clause)
        names, _, (cube,) = cc.lowered
        if cube_is_sat(to_dnf(clause.constraint)[0]):
            live += 1
            continue
        if Conjunction(names, cube, 0).rowset.unsat:
            continue
        dead += 1
        for j in (None, *range(len(clause.body))):
            args = clause.head.args if j is None else clause.body[j].args
            assert cc._template(j, args) == []
    assert live >= 50 and dead >= 50, (live, dead)


def test_compiled_clause_projects_each_call_once(monkeypatch, addition_loops, lockstep_proc):
    # A compiled clause owns its transformer calls.  A call with an empty
    # input box returns the shared empty box of its target and projects
    # nothing; a call whose target and input boxes equal an earlier
    # call's returns that call's box, projected once.  qa2's second step
    # posts through the first step's compiled answer clauses, so no
    # projection of a default qa2 run of lockstep_proc.chc repeats one of
    # the first step: 37 projections, 39 when each step kept its own
    # results.
    applied = []
    apply = CompiledClause._apply

    def counted(self, target, boxes):
        applied.append((self, target, boxes))
        return apply(self, target, boxes)

    monkeypatch.setattr(CompiledClause, "_apply", counted)
    for clause in addition_loops.clauses:
        cc = CompiledClause(clause)
        arities = [app.pred.arity for app in (clause.head, *clause.body)]
        # Equal boxes, built anew for each call.
        boxes = [[Box.make(n, [interval(0, 3)] * n) for n in arities] for _ in range(2)]
        first = cc.post(boxes[0][1:])
        assert cc.post(boxes[1][1:]) is first
        for j in range(len(clause.body)):
            first = cc.pre(j, boxes[0][0], boxes[0][1:])
            assert cc.pre(j, boxes[1][0], boxes[1][1:]) is first
        assert [call[1] for call in applied] == [None, *range(len(clause.body))]
        applied.clear()
        for k, n in enumerate(arities):
            empty = [Box.empty(m) if i == k else Box.top(m) for i, m in enumerate(arities)]
            if k:
                assert cc.post(empty[1:]) is Box.empty(arities[0])
            for j in range(len(clause.body)):
                assert cc.pre(j, empty[0], empty[1:]) is Box.empty(arities[j + 1])
        assert applied == []
    qa_two_step(lockstep_proc)
    assert len(applied) == len(set(applied)) == 37


def test_empty_input_box_skips_elimination(monkeypatch, addition_loops):
    calls = 0
    eliminate = linlogic._eliminate

    def counting(rows, mask):
        nonlocal calls
        calls += 1
        return eliminate(rows, mask)

    monkeypatch.setattr(linlogic, "_eliminate", counting)
    bottom = AbstractElement.bottom(addition_loops)
    top = AbstractElement.top(addition_loops)
    for clause in addition_loops.clauses:
        cc = CompiledClause(clause)
        empty = [bottom[app.pred.name] for app in clause.body]
        full = [top[app.pred.name] for app in clause.body]
        if clause.body:
            assert cc.post(empty) == Box.empty(clause.head.pred.arity)
        for j, app in enumerate(clause.body):
            assert cc.pre(j, bottom[clause.head.pred.name], full) == Box.empty(app.pred.arity)
            assert cc.pre(j, top[clause.head.pred.name], empty) == Box.empty(app.pred.arity)
        # not even the constraint's DNF was computed
        assert "lowered" not in vars(cc)
    assert calls == 0
    # A call whose templates hold no row reads its intervals off their
    # bounds and runs no elimination either.
    row_free = CompiledClause(addition_loops.clauses[1])
    assert not row_free.post([Box.top(2)]).is_empty
    assert not any(t.rowset.cons for t in row_free._template(None, row_free.clause.head.args))
    assert calls == 0
    # A template that keeps rows eliminates the variables outside its
    # target.
    system = parse_system("pred q/2.\npred p/1.\np(X) :- q(X, Y), X + Y <= 3, X - Y <= 1.\n")
    kept = CompiledClause(system.clauses[0])
    assert kept.post([Box.top(2)]) == Box(1, (interval(None, 2),))
    assert all(t.rowset.cons for t in kept._template(None, kept.clause.head.args))
    assert calls > 0


def _assert_both_directions_match(clause, elems):
    """``post`` and every ``pre`` of one compiled clause equal the formula
    route on each of ``elems``, used as input and as restriction."""
    cc = CompiledClause(clause)
    for elem in elems:
        body = [elem[app.pred.name] for app in clause.body]
        assert cc.post(body) == transformer_reference.clause_post(clause, elem), str(elem)
        head = elem[clause.head.pred.name]
        for j in range(len(clause.body)):
            want = transformer_reference.clause_pre_restricted(clause, j, elem, elem)
            assert cc.pre(j, head, body) == want, (j, str(elem))
    return cc


def test_point_bound_outside_the_target_adds_rows(monkeypatch):
    # No equality of the templates pivots on X or Y.  A point box for the
    # body atom of post, or for the head of pre, bounds a variable
    # outside the target; like a range box, it is met into the template's
    # intervals on top of the template's build.  Both targets' templates
    # are made first, so a build that starts empty would be a fresh one.
    system = parse_system("pred p/1. pred q/1.\np(Y) :- q(X), X >= 0, Y >= 2 * X.\n")
    clause = system.clauses[0]
    cc = CompiledClause(clause)
    assert cc.post([Box.top(1)]) == Box.make(1, [interval(0, None)])
    assert cc.pre(0, Box.top(1), [Box.top(1)]) == Box.make(1, [interval(0, None)])
    builds = 0
    normalize = Conjunction._normalize

    def counting(self, rows):
        nonlocal builds
        builds += not self.out
        return normalize(self, rows)

    monkeypatch.setattr(Conjunction, "_normalize", counting)
    assert cc.post([Box.make(1, [interval(1, 2)])]) == Box.make(1, [interval(2, None)])
    assert builds == 0
    assert cc.post([Box.make(1, [interval(3, 3)])]) == Box.make(1, [interval(6, None)])
    assert builds == 0
    assert cc.pre(0, Box.make(1, [interval(3, 3)]), [Box.top(1)]) == Box.make(
        1, [interval(0, F(3, 2))]
    )
    assert builds == 0
    monkeypatch.undo()
    elems = [
        AbstractElement(p=Box.make(1, [p]), q=Box.make(1, [q]))
        for p, q in [
            (interval(3, 3), interval(1, 1)),
            (interval(F(1, 2), F(1, 2)), interval(F(1, 2), F(1, 2))),
            (interval(7, 9), interval(4, 4)),
            (interval(-1, -1), interval(1, 2)),
            (Interval.top(), interval(1, 2)),
        ]
    ]
    _assert_both_directions_match(clause, elems)


def test_refuted_cube_gets_no_template():
    # The first disjunct is unsatisfiable on its own, so its conjunction
    # is refuted as the template is made, and only the second is extended.
    system = parse_system("pred p/1. pred q/1.\np(X) :- q(X), (X > 0, X < 0 ; X >= 5).\n")
    clause = system.clauses[0]
    elems = [
        AbstractElement(p=Box.make(1, [p]), q=Box.make(1, [q]))
        for p, q in [
            (Interval.top(), Interval.top()),
            (interval(0, 6), interval(-1, 3)),
            (interval(6, 8), interval(2, 9)),
            (Interval.top(), interval(0, 0)),
        ]
    ]
    cc = _assert_both_directions_match(clause, elems)
    assert cc.post([Box.top(1)]) == Box.make(1, [interval(5, None)])
    assert [len(templates) for templates in cc._templates.values()] == [1, 1]


def test_cube_refuted_only_by_elimination_gets_no_template():
    # No two rows of the first disjunct bound one variable, so its rows
    # pass normalization; X + Y <= 0, Y >= Z + 1 and Z >= -X give X + Y
    # >= 1, which one elimination over every variable finds as the
    # template is built.  Only the second disjunct keeps a template.
    text = "pred p/1. pred q/1.\np(X) :- q(Y), (X + Y <= 0, Y - Z >= 1, Z + X >= 0 ; X >= 5, Y <= X).\n"
    clause = parse_system(text).clauses[0]
    cc = CompiledClause(clause)
    names, _, cubes = cc.lowered
    assert not Conjunction(names, cubes[0], 0).rowset.unsat
    elems = [
        AbstractElement(p=Box.make(1, [p]), q=Box.make(1, [q]))
        for p, q in [
            (Interval.top(), Interval.top()),
            (interval(0, 6), interval(-1, 3)),
            (interval(6, 8), interval(2, 9)),
            (Interval.top(), interval(0, 0)),
            (interval(-3, 1), Interval.top()),
        ]
    ]
    cc = _assert_both_directions_match(clause, elems)
    assert cc.post([Box.top(1)]) == Box.make(1, [interval(5, None)])
    assert [len(templates) for templates in cc._templates.values()] == [1, 1]


def test_each_cube_is_decided_once_per_clause(monkeypatch):
    # A cube's satisfiability does not depend on the target its template
    # pivots for: after the head's templates are decided, the body
    # target builds no template of the dead cube and decides the live
    # one's no more.
    text = "pred p/1. pred q/1.\np(X) :- q(Y), (X + Y <= 0, Y - Z >= 1, Z + X >= 0 ; X >= 5, Y <= X + Z, Z <= 1).\n"
    clause = parse_system(text).clauses[0]
    calls = {"built": 0, "satisfiable": 0}
    build, satisfiable = Conjunction.__init__, Conjunction.satisfiable

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(Conjunction, "__init__", counted("built", build))
    monkeypatch.setattr(Conjunction, "satisfiable", counted("satisfiable", satisfiable))
    cc = CompiledClause(clause)
    assert cc.post([Box.top(1)]) == Box.make(1, [interval(5, None)])
    assert calls == {"built": 2, "satisfiable": 2}
    assert cc.pre(0, Box.top(1), [Box.top(1)]) == Box.top(1)
    assert calls == {"built": 3, "satisfiable": 2}
    assert [len(templates) for templates in cc._templates.values()] == [1, 1]
    monkeypatch.undo()
    elems = [
        AbstractElement(p=Box.make(1, [p]), q=Box.make(1, [q]))
        for p, q in [
            (Interval.top(), Interval.top()),
            (interval(0, 6), interval(-1, 3)),
            (interval(6, 8), interval(2, 9)),
            (interval(-3, 1), Interval.top()),
        ]
    ]
    _assert_both_directions_match(clause, elems)


# A satisfiable cube of 14 rows over 7 variables: with DEFAULT_FM_CAP at
# 21, one elimination over every variable exceeds it, and the projection
# onto the head does not.
DENSE_TEXT = """\
pred p/3.
p(X0, X1, X2) :- 2*X0 + 2*X1 + 3*X5 <= -5, X1 - 2*X3 - 2*X6 <= -6,
  2*X1 - 2*X3 - 2*X5 <= -10, -3*X0 + X1 - X3 <= -6, 3*X1 + 3*X4 + 3*X5 <= -2,
  -2*X1 - 2*X3 - 3*X4 <= -1, -3*X2 + 2*X5 + 2*X6 <= -2, X0 - 2*X4 - 2*X5 <= 1,
  X0 - X3 - 2*X6 <= 2, 2*X2 + 3*X3 + 3*X6 <= -5, 2*X1 - 2*X2 + 3*X6 <= 7,
  -2*X0 - 3*X1 - X3 <= 1, -3*X3 + X5 - 2*X6 <= 5, X1 + 2*X4 + X6 <= -5.
"""


def test_decision_past_the_cap_keeps_the_template(monkeypatch):
    # A template whose decision exceeds the cap is kept: the call gives
    # the box, or the ResourceLimitError, of projecting that template.
    (clause,) = parse_system(DENSE_TEXT).clauses
    args = clause.head.args
    outcomes = set()
    for cap in range(2, 80):
        monkeypatch.setattr(linlogic, "DEFAULT_FM_CAP", cap)
        cc = CompiledClause(clause)
        names, index, (cube,) = cc.lowered
        targets = sum(1 << index[v] for v in args)
        template = Conjunction(names, cube, ((1 << len(names)) - 1) & ~targets, targets)
        try:
            assert template.satisfiable()
            decided = True
        except ResourceLimitError:
            decided = False
        try:
            intervals = transformer_reference.project(template, args)
            want = Box.empty(3) if intervals is None else Box.make(3, intervals)
        except ResourceLimitError as exc:
            want = str(exc)
        try:
            got = cc.post([])
        except ResourceLimitError as exc:
            got = str(exc)
        assert got == want, cap
        assert len(cc._templates[None]) == 1, cap
        # A decision past the cap is not kept for the clause's other targets.
        assert cc._decided == ({0: True} if decided else {}), cap
        outcomes.add((decided, type(want)))
    assert {(False, str), (False, Box), (True, Box)} <= outcomes


PIVOT_TEXT = """\
pred p/1.
pred q/1.
pred r/2.
pred s/2.
p(X1) :- q(X), X1 = X + 1.
p(Y) :- q(X), 2 * X = Y + 1.
r(X1, Y1) :- s(X, Y), X1 = X + Y, Y1 = 2 * Y - 1.
p(Y) :- q(X), s(Z, W), Y = X + Z, W >= Z.
r(X, Y) :- q(X), X = 3, Y = 2 * X.
p(Y) :- q(X), p(Z), (3 * Y = X + Z ; Y = X, Z <= 1).
p(Y) :- q(X), X + Y = 0.
"""


def _conjoin_bounds(template: Conjunction, intervals) -> Conjunction | None:
    """The set ``template`` derives with ``intervals``, the pairs
    ``(position, interval)`` of a call, as ``project_bounds`` builds it
    before it projects: ``None`` at a conflict."""
    met = template._met(intervals, template._images()[0])
    return None if met is None else template._child(*met)


def test_box_bounds_met_as_intervals_match_the_row_route():
    # A call meets each bound of its input boxes through the image of its
    # variable under the template's pivots; the reference builds each
    # cube afresh with every bound as a row after it.  On templates that
    # pivot, with point, strict and fractional bounds, both must build
    # the same box, and the same row set wherever the reference solves
    # the template's pivots and no more.  Where it pivots on a point
    # bound, the call keeps the template's pivots, and both must project
    # the same.  The bounds hold each end as an int when it is integral.
    # A call projects what its derived set projects, also where it reads
    # the targets off the met bounds and builds no set.
    system = parse_system(PIVOT_TEXT)
    rng = random.Random(27)
    routes = dict.fromkeys(("image", "rows", "pivot", "conflict"), 0)
    for clause in system.clauses:
        cc = CompiledClause(clause)
        names, index, _ = cc.lowered
        for k in range(80):
            elem = _probe_element(rng, system.decls)
            body = [elem[app.pred.name] for app in clause.body]
            head = elem[clause.head.pred.name]
            calls = [(None, clause.body, body)]
            apps = (clause.head, *clause.body)
            calls += [(j, apps, (head, *body)) for j in range(len(clause.body))]
            for target, apps, boxes in calls:
                label = (str(clause), k, target)
                got = cc.post(boxes) if target is None else cc.pre(target, boxes[0], boxes[1:])
                assert got == transformer_reference.apply_by_rows(cc, target, apps, boxes), label
                if any(box.is_empty for box in boxes):
                    continue
                rows = transformer_reference.bound_rows(cc, apps, boxes)
                bounded = [
                    (index[v], iv)
                    for app, box in zip(apps, boxes)
                    for v, iv in zip(app.args, box.intervals)
                    if iv != Interval.top()
                ]
                args = clause.head.args if target is None else clause.body[target].args
                templates = cc._template(target, args)
                # The fresh builds of the cubes that keep a template.
                fresh = transformer_reference.by_rows(cc, args, rows)
                fresh = [want for i, want in enumerate(fresh) if cc._decided.get(i) is not False]
                for template, want in zip(templates, fresh, strict=True):
                    got = _conjoin_bounds(template, bounded)
                    projected = template.project_bounds(bounded, args)
                    assert projected == (got and transformer_reference.project(got, args)), label
                    if got is None:
                        # A conflict builds no set: the fresh build
                        # projects to nothing.
                        assert transformer_reference.project(want, args) is None, label
                        routes["conflict"] += 1
                        continue
                    assert got.pivots is template.pivots, label
                    ends = [b.value for iv in got.rowset.bounds.values() for b in iv]
                    assert all(type(v) is int or v.denominator > 1 for v in ends if v is not None)
                    if want.pivots != template.pivots:
                        want_box = transformer_reference.project(want, args)
                        assert transformer_reference.project(got, args) == want_box, label
                        routes["pivot"] += 1
                        continue
                    assert got.rowset == want.rowset, label
                    pivots = {j for j, _, _ in template.pivots}
                    routes["image"] += any(j in pivots for j, _ in bounded)
                    routes["rows"] += len(got.rowset.cons) > len(template.rowset.cons)
    assert all(count > 20 for count in routes.values()), routes


# Atoms that repeat a variable or carry a constant or a term: the parser
# gives such a position its own variable and an equation, which leaves an
# equality between two variables of the atom, both targets of its
# transformer.
TIED_TEXT = """\
pred p/2.
pred q/2.
pred r/3.
p(X, X) :- q(X, Y), Y >= 0.
p(X, 2*X + 1) :- q(X, Y), X <= Y.
q(Y, 1 - Y) :- p(Y, Z), Z > 1.
q(X, Y) :- r(X, Y, Z), 2*X = 3*Y + 1, Z >= X.
r(X, X, 3) :- p(X, Y), q(Y, Y).
r(2*X, 1 - 3*X, X) :- q(X, X), p(X, 4).
q(X, Y) :- p(X, Y), 2*X + 3*Y = 1.
q(X, -X) :- p(X, Y), Y >= X.
false :- r(A, B, C), A + B > C.
"""


def test_tied_targets_match_the_formula_route(monkeypatch):
    # Each template ties the equalities between two of its targets and
    # reads a tied target's interval off its partner's, x_j = (a·x_k +
    # c) / s, with no elimination; the formula route eliminates.  The
    # inputs are point, strict, half-open and fractional boxes, and the
    # tied route must run with a < 0 and with s > 1, on a nonempty box.
    system = parse_system(TIED_TEXT)
    seen = []
    read = Conjunction._read

    def recording(at, variables, ties):
        # Each projection that finds no conflict reads its targets here,
        # off the met bounds or off project_rows' intervals.  A tie is a
        # pivot outside ``free``; its image has one variable.
        seen.extend((a, scale) for _, _, a, _, scale in ties)
        return read(at, variables, ties)

    monkeypatch.setattr(Conjunction, "_read", staticmethod(recording))
    _assert_matches_reference(system.clauses, system.decls, random.Random(28), 150, "tied")
    assert len(seen) > 300
    assert sum(a < 0 for a, _ in seen) > 50, seen
    assert sum(s > 1 for _, s in seen) > 100, seen
    assert sum(a < 0 and s > 1 for a, s in seen) > 10, seen


def test_an_interval_whose_image_has_one_variable_is_met_once(monkeypatch):
    # A bounded interval of an input box whose image under the template's
    # pivots has one variable, its own when no pivot rewrites it, is
    # mapped whole and met once, not met as two half-lines.  An interval
    # whose image has no variable is decided against the value the
    # pivots fix, and one whose image has two or more adds rows; neither
    # is met.  No call changes the template's pivots, and a conflicting
    # call builds no set and stops at its first empty meet.
    meets = 0
    meet = linlogic._meet

    def counting(bounds, j, interval):
        nonlocal meets
        meets += sys._getframe(1).f_code.co_name == "_met"
        return meet(bounds, j, interval)

    calls = []
    met = Conjunction._met

    def recording(self, intervals, images):
        nonlocal meets
        meets = 0
        out = met(self, intervals, images)
        calls.append((self, intervals, out and self._child(*out), meets))
        return out

    monkeypatch.setattr(linlogic, "_meet", counting)
    monkeypatch.setattr(Conjunction, "_met", recording)
    rng = random.Random(29)
    for text in (PIVOT_TEXT, TIED_TEXT):
        system = parse_system(text)
        _assert_matches_reference(system.clauses, system.decls, rng, 40, "met once")
    closed = 0
    for template, intervals, out, count in calls:
        images, _ = template._images()
        single = [iv for j, iv in intervals if j not in images or images[j][0].bit_count() == 1]
        if out is None:
            assert count <= len(single)
        else:
            assert out.pivots is template.pivots
            assert count == len(single)
            closed += sum(None not in (iv.lo.value, iv.hi.value) and iv.lo != iv.hi for iv in single)
    assert closed > 100, closed


# Clauses whose templates fix a variable (``Z = 3``, ``W = 2*Z - 1``) or
# define one through several others, with and without rows over two or
# more variables, next to PIVOT_TEXT's and TIED_TEXT's.
FIXED_TEXT = """\
pred p/1.
pred q/2.
pred s/3.
p(X) :- q(X, Z), Z = 3.
p(X) :- s(X, Z, W), Z = 3, W = 2 * Z - 1.
p(Y) :- q(Z, W), s(X, Y, U), Z = 1, 2 * W = 3, U = 0, X <= Y.
q(X, Y) :- s(X, Z, W), Z = 1, Y = X + W.
q(X, Y) :- s(X, Z, W), Y = Z - W, X <= W + Z.
s(X, Y, Z) :- q(X, W), p(Y), W = 2, Z = X + Y.
"""


def test_project_bounds_matches_the_derived_set_and_the_formula_route():
    # ``project_bounds`` reads the targets off the met bounds, with no
    # derived set, when neither the template nor the intervals leave a
    # row over two or more variables, and derives the set and projects it
    # otherwise.  Both must project what the derived set projects
    # (``_conjoin_bounds`` and ``project``), and each call what the
    # formula route and the row route of ``transformer_reference`` derive.
    # The intervals are points, half-lines, closed, strict and fractional,
    # drawn for the atoms' variables and for the others: images with a
    # fixed value, with one variable and with several, and intervals that
    # conflict with the template or with each other.
    rng = random.Random(46)
    seen = dict.fromkeys(("read", "rows", "tied", "fixed", "several", "conflict"), 0)
    kinds = ("point", "half-open", "random", "random")
    for text in (PIVOT_TEXT, TIED_TEXT, FIXED_TEXT):
        system = parse_system(text)
        _assert_matches_reference(system.clauses, system.decls, rng, 30, "project_bounds")
        for clause in system.clauses:
            cc = CompiledClause(clause)
            names = cc.lowered[0]
            apps = (clause.head, *clause.body)
            for _ in range(10):
                elem = _probe_element(rng, system.decls)
                boxes = [elem[app.pred.name] for app in apps]
                want = transformer_reference.apply_by_rows(cc, None, clause.body, boxes[1:])
                assert cc.post(boxes[1:]) == want, str(clause)
                for j in range(len(clause.body)):
                    want = transformer_reference.apply_by_rows(cc, j, apps, boxes)
                    assert cc.pre(j, boxes[0], boxes[1:]) == want, (str(clause), j)
            targets = [(None, clause.head.args)]
            targets += [(j, app.args) for j, app in enumerate(clause.body)]
            for target, args in targets:
                for template in cc._template(target, args):
                    images, ties = template._images()
                    for _ in range(60):
                        bounded = []
                        for j in rng.sample(range(len(names)), rng.randint(0, len(names))):
                            iv = _probe_interval(rng, rng.choice(kinds))
                            if not iv.is_empty:
                                bounded.append((j, iv))
                        label = (str(clause), target, bounded)
                        got = template.project_bounds(bounded, args)
                        derived = _conjoin_bounds(template, bounded)
                        assert got == (derived and transformer_reference.project(derived, args)), label
                        if derived is None:
                            seen["conflict"] += 1
                            continue
                        bounds, rows = template._met(bounded, images)
                        seen["rows" if rows or template.rowset.cons else "read"] += 1
                        seen["tied"] += bool(ties) and got is not None
                        masks = [images[j][0] for j, _ in bounded if j in images]
                        seen["fixed"] += 0 in masks
                        seen["several"] += any(m & (m - 1) for m in masks)
    assert min(seen.values()) > 50, seen


def test_derived_sets_normalize_only_rows_over_two_or_more_variables(monkeypatch):
    # A set derived from a Conjunction, a search child or a template with
    # the intervals of its input boxes, decides every constraint over
    # fewer than two variables by an interval meet: each row that reaches
    # ``_child`` mentions two or more variables.  A conflict builds no
    # set, so no transformer call projects a refuted one.  The traffic:
    # the probes of PIVOT_TEXT and TIED_TEXT, whose templates fix and tie
    # variables, every corpus and stress file solved in alt with its
    # model checked, and seeded searches whose children bring equalities
    # and one-variable rows.
    received = conflicts = 0
    child = Conjunction._child

    def checked(self, bounds, rows):
        nonlocal received
        assert all(len(vec) - vec.count(0) >= 2 for vec, _, _ in rows), rows
        received += len(rows)
        return child(self, bounds, rows)

    met = Conjunction._met

    def counted(self, intervals, images):
        nonlocal conflicts
        out = met(self, intervals, images)
        conflicts += out is None
        return out

    project = Conjunction.project

    def projected(self, variables, ties):
        # Only a transformer call projects a Conjunction on this traffic.
        assert not self.rowset.unsat
        return project(self, variables, ties)

    monkeypatch.setattr(Conjunction, "_child", checked)
    monkeypatch.setattr(Conjunction, "_met", counted)
    monkeypatch.setattr(Conjunction, "project", projected)
    rng = random.Random(41)
    for text in (PIVOT_TEXT, TIED_TEXT):
        system = parse_system(text)
        _assert_matches_reference(system.clauses, system.decls, rng, 40, "derived")
    paths = sorted(CORPUS.glob("**/*.chc"))
    assert len(paths) == 27
    for path in paths:
        system = parse_system(path.read_text(encoding="utf-8"))
        trace, verdict = alternate(system, AnalysisConfig(max_rounds=5))
        assert certify(system, trace, verdict, verdict.witness.as_dict())[1] == [], path.name
    for seed in range(200):
        for root_equalities in (False, True):
            f = pivot_formula(random.Random(seed), root_equalities)
            assert (sat_cube(f) is None) == (not any(cube_is_sat(c) for c in to_dnf(f))), seed
    assert received > 1000 and conflicts > 100, (received, conflicts)

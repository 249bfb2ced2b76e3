"""Exact linear reasoning: DNF, variable elimination, satisfiability.

The satisfiability routines are cross-checked against ``brute.py``, an
independent vertex-enumeration decision procedure that shares no code
with the package beyond the constraint AST, and against
``fm_reference.py``, Fourier-Motzkin elimination without history pruning.
"""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fm_reference
from brute import brute_cube_sat
from chclab import linlogic
from chclab.domain import AbstractElement, Box, CompiledClause
from chclab.linlogic import (
    UNBOUNDED,
    Bound,
    ConjCube,
    Conjunction,
    Interval,
    ResourceLimitError,
    RowSet,
    cube_is_sat,
    fm_eliminate,
    project_rows,
    project_to_box,
    sat_cube,
    to_dnf,
)
from chclab.parser import parse_system
from chclab.solver import ClauseResults
from chclab.syntax import (
    FALSE,
    TRUE,
    And,
    Lin,
    LinConstraint,
    LinTerm,
    Or,
    Rel,
    conj,
    disj,
    fold_formula,
    format_formula,
    formula_vars,
    iter_formula_constraints,
    negate_formula,
    param_vars,
)
from conftest import bound, interval
from fm_reference import sub
from formula_reference import rename_formula
from randgen import random_cube, random_element

X, Y, Z = (LinTerm.var(n) for n in "xyz")


def le(term):
    return LinConstraint(term, Rel.LE)


def lt(term):
    return LinConstraint(term, Rel.LT)


def eq(term):
    return LinConstraint(term, Rel.EQ)


def cube(*cons):
    return ConjCube.make(cons)


def as_cube(rows):
    """The inequalities a row set stands for: its rows, and each side of
    each interval in its ``bounds``."""
    cons = [
        LinConstraint(LinTerm.make(zip(rows.names, vec), const), Rel.LT if strict else Rel.LE)
        for vec, const, strict, _, _ in rows.cons
    ]
    for j, (lo, hi) in rows.bounds.items():
        x = LinTerm.var(rows.names[j])
        if lo.value is not None:
            cons.append(LinConstraint(sub(LinTerm.make({}, lo.value), x), Rel.LT if lo.strict else Rel.LE))
        if hi.value is not None:
            cons.append(LinConstraint(sub(x, LinTerm.make({}, hi.value)), Rel.LT if hi.strict else Rel.LE))
    return ConjCube.make(cons)


# -- DNF ---------------------------------------------------------------------


def test_dnf_flat_conjunction():
    f = And((Lin(le(X)), Lin(le(Y))))
    cubes = to_dnf(f)
    assert len(cubes) == 1 and len(cubes[0].cons) == 2


def test_dnf_distributes():
    # (x<=0 or y<=0) and (z<=0 or x<1)  ->  4 cubes
    f = And((Or((Lin(le(X)), Lin(le(Y)))), Or((Lin(le(Z)), Lin(lt(sub(X, LinTerm.make({}, 1))))))))
    assert len(to_dnf(f)) == 4


def test_dnf_true_false():
    assert [c.cons for c in to_dnf(TRUE)] == [()]
    assert to_dnf(FALSE) == []


def test_dnf_cap_raises():
    parts = tuple(
        Or((Lin(le(LinTerm.var(f"v{i}"))), Lin(lt(LinTerm.var(f"v{i}")))))
        for i in range(13)
    )
    with pytest.raises(ResourceLimitError):
        to_dnf(And(parts))


def test_dnf_of_a_formula_without_a_disjunction_is_one_cube_without_the_fold(monkeypatch):
    # A formula that holds no Or is the one cube of its atoms, or no cube
    # when it holds false, with no fold; a formula that holds one, even
    # one with a true child, goes through the fold.  Both give the fold's
    # cubes.
    folds = 0

    def counted(f, leaf, node):
        nonlocal folds
        folds += 1
        return fold_formula(f, leaf, node)

    monkeypatch.setattr(linlogic, "fold_formula", counted)
    plain = 0
    for seed in range(1500):
        f = random_formula(random.Random(seed), 3)
        has_or = any(isinstance(g, Or) for g in _subformulas(f))
        folds = 0
        got = to_dnf(f)
        assert got == [ConjCube.make(cs) for cs in fold_formula(f, linlogic._dnf_leaf, linlogic._dnf_node)]
        assert folds == has_or or (folds == 1 and FALSE in _subformulas(f)), seed
        plain += not has_or
    assert plain > 300, plain
    # x <= 0 and (true or y <= 0): the fold's two cubes.
    f = And((Lin(le(X)), Or((TRUE, Lin(le(Y))))))
    assert [len(c.cons) for c in to_dnf(f)] == [1, 2]
    assert sat_cube(f) == ConjCube((le(X),))


def _subformulas(f):
    """``f`` and every formula below it."""
    stack, out = [f], []
    while stack:
        g = stack.pop()
        out.append(g)
        if isinstance(g, (And, Or)):
            stack.extend(g.items)
    return out


# -- Fourier–Motzkin ----------------------------------------------------------


def test_eliminate_transitivity():
    # x <= y and y <= z  --(drop y)-->  x <= z
    c = cube(le(sub(X, Y)), le(sub(Y, Z)))
    out = fm_eliminate(RowSet.of(c), "y")
    assert as_cube(out) == cube(le(sub(X, Z)))


def test_eliminate_strictness_propagates():
    c = cube(lt(sub(X, Y)), le(sub(Y, Z)))
    out = fm_eliminate(RowSet.of(c), "y")
    assert as_cube(out) == cube(lt(sub(X, Z)))


def test_eliminate_equality_substitutes():
    # y = x + 1 and y <= 5  -->  x <= 4
    c = cube(eq(sub(Y, X, LinTerm.make({}, 1))), le(sub(Y, LinTerm.make({}, 5))))
    # y is not requested: the equality is solved for y and substituted
    assert as_cube(RowSet.of(c, {"x"})) == cube(le(sub(X, LinTerm.make({}, 4))))
    # both are requested: the equality becomes two inequalities
    out = fm_eliminate(RowSet.of(c, {"x", "y"}), "y")
    assert as_cube(out) == cube(le(sub(X, LinTerm.make({}, 4))))


def test_eliminate_unbounded_side_drops_all():
    c = cube(lt(sub(X, Y)))  # no lower bound on y
    assert fm_eliminate(RowSet.of(c), "y").cons == ()


def test_eliminate_keeps_ground_contradiction():
    c = cube(le(sub(LinTerm.make({}, 3), X)), le(sub(X, LinTerm.make({}, 2))))
    out = fm_eliminate(RowSet.of(c), "x")
    assert out.unsat
    assert not cube_is_sat(as_cube(out))


def test_eliminate_returns_unsat_input_unchanged():
    # A failing ground row refutes the set as it is built; eliminating a
    # variable afterwards must not drop the mark.
    rows = Conjunction(("x", "y"), [([0, 0], 3, Rel.LE), ([1, 1], 0, Rel.LE)], 0).rowset
    assert rows.unsat
    assert fm_eliminate(rows, "x") == rows


# -- one-variable bound conflicts -----------------------------------------------


def _rows_cube(names, rows):
    """The cube the lowered rows over ``names`` stand for."""
    return ConjCube.make(
        LinConstraint(LinTerm.make(zip(names, vec), const), rel) for vec, const, rel in rows
    )


def _extended(parent: Conjunction, rows) -> Conjunction:
    """``parent`` and the lowered ``rows``, as a search child or
    ``conjoin_bounds`` derives it: the rows rewritten through the
    parent's pivots and added to a copy of its bounds."""
    return parent._child(parent.bounds.copy(), [linlogic._substitute(r, parent.pivots) for r in rows])


def test_bound_conflict_frozen_cases():
    x_le_2, x_ge_2 = ([1], -2, Rel.LE), ([-1], 2, Rel.LE)
    got = Conjunction(("x",), [x_le_2, x_ge_2], 0).rowset
    assert not got.unsat and got.bounds == {0: interval(2, 2)}
    # x < 2, x >= 2: the meet is empty, and the set holds 1 <= 0.
    got = Conjunction(("x",), [([1], -2, Rel.LT), x_ge_2], 0).rowset
    assert got.unsat and got.cons == (((0,), 1, False, 0, 0),)
    # 2x <= 3, 3x >= 5: 3/2 < 5/3.
    assert Conjunction(("x",), [([2], -3, Rel.LE), ([-3], 5, Rel.LE)], 0).rowset.unsat
    # x = 1, x <= 0: the equality's lower side meets the bound.
    assert Conjunction(("x",), [([1], -1, Rel.EQ), ([1], 0, Rel.LE)], 0).rowset.unsat
    # The refuted set keeps none of the rows before the conflict.
    got = Conjunction(("x", "y"), [([0, 1], 0, Rel.LE), ([2, 0], -3, Rel.LE), ([-1, 0], 2, Rel.LE)], 0).rowset
    assert got.unsat and got.cons == (((0, 0), 1, False, 0, 0),)


def test_one_variable_equality_is_met_once_as_a_point(monkeypatch):
    # The row builder meets a one-variable row into ``bounds`` once, an
    # equality as its point and not as two half-lines, and a search
    # child's meet of a one-variable atom into a copy of its parent's
    # bounds refutes exactly the rows whose conjunction with the bounds
    # the builder refutes.
    meets = []
    meet = linlogic._meet

    def recording(bounds, j, interval):
        meets.append((j, interval))
        return meet(bounds, j, interval)

    monkeypatch.setattr(linlogic, "_meet", recording)
    rng = random.Random(30)
    refuted = points = 0
    for _ in range(400):
        # 2x >= lo and 2x <= hi, each strict or not, or no bound on x.
        sides = []
        if rng.random() < 0.85:
            lo = rng.randint(-6, 4)
            hi = rng.randint(lo, 6)
            sides += [([-2, 0], lo, rng.choice((Rel.LE, Rel.LT)))]
            sides += [([2, 0], -hi, rng.choice((Rel.LE, Rel.LT)))]
        base = Conjunction(("x", "y"), [*sides, ([1, 1], 0, Rel.LE)], 0)
        if base.rowset.unsat:
            continue
        a = rng.choice((-3, -2, -1, 1, 2, 3))
        row = ([a, 0], rng.randint(-9, 9), rng.choice((Rel.EQ, Rel.EQ, Rel.LE, Rel.LT)))
        meets.clear()
        child = _extended(base, [row])
        assert len(meets) == 1 and meets[0][0] == 0, row
        if row[2] is Rel.EQ:
            point = Bound(Fraction(-row[1], a), False)
            assert meets[0][1] == Interval(point, point), row
            points += 1
        # What a search child decides of the row as ``grow`` adds it.
        atom = linlogic._Atom(row, 0, base.pivots)
        if atom.position < 0:
            refutes = atom.fails
        else:
            refutes = meet(base.bounds.copy(), atom.position, atom.bound())
        assert refutes == child.rowset.unsat, (base.bounds, row)
        refuted += child.rowset.unsat
    assert points > 150 and 50 < refuted < 250, (points, refuted)


def test_step_refutes_conflicting_one_variable_rows():
    # -x <= 0, x + y <= 0, x - y + 1 <= 0, y + z + 5 <= 0: no two
    # one-variable rows conflict as the set is built.  Eliminating x makes
    # y <= 0 and -y + 1 <= 0, which the step itself must refute.
    rows = Conjunction(
        ("x", "y", "z"),
        [
            ([-1, 0, 0], 0, Rel.LE),
            ([1, 1, 0], 0, Rel.LE),
            ([1, -1, 0], 1, Rel.LE),
            ([0, 1, 1], 5, Rel.LE),
        ],
        0,
    ).rowset
    assert not rows.unsat
    got = fm_eliminate(rows, "x")
    assert got.unsat and got.cons == (((0, 0, 0), 1, False, 0, 0),)
    assert got.eliminated == 0b001
    # A row the step carries over counts too: y <= 0 conflicts with the
    # -y + 1 <= 0 that eliminating x makes.
    rows = Conjunction(("x", "y"), [([0, 1], 0, Rel.LE), ([-1, 0], 0, Rel.LE), ([1, -1], 1, Rel.LE)], 0).rowset
    assert not rows.unsat
    got = fm_eliminate(rows, "x")
    assert got.unsat and got.cons == (((0, 0), 1, False, 0, 0),)


def _bound_rows(rng):
    """Lowered rows over 1-3 variables: mostly one-variable bounds of
    either sign with coefficients up to 3, strict, non-strict or
    equalities, some repeated, some over two or three variables, and now
    and then a ground row."""
    names = ("x", "y", "z")[: rng.randint(1, 3)]
    rows = []
    for _ in range(rng.randint(1, 7)):
        if rows and rng.random() < 0.15:
            rows.append(rng.choice(rows))
            continue
        vec = [0] * len(names)
        width = 1 if rng.random() < 0.75 else rng.randint(0, len(names))
        for j in rng.sample(range(len(names)), width):
            vec[j] = rng.choice((-3, -2, -1, 1, 2, 3))
        rows.append((vec, rng.randint(-6, 6), rng.choice((Rel.LE, Rel.LE, Rel.LT, Rel.EQ))))
    return names, rows


def test_bound_conflicts_match_unpruned_reference():
    # The conflict check refutes only what elimination refutes.  A set it
    # does not refute keeps, as its rows, the rows over two or more
    # variables that the builder made without it, in order and numbered
    # by their own histories; its bounds are the meet of the one-variable
    # rows that builder made.
    refuted = satisfiable = 0
    for seed in range(1200):
        names, rows = _bound_rows(random.Random(seed))
        got = Conjunction(names, rows, 0).rowset
        want = fm_reference.from_rows(names, rows)
        sat = not linlogic._eliminate(got, (1 << len(names)) - 1).unsat
        assert sat == fm_reference.cube_is_sat(_rows_cube(names, rows)), f"seed {seed}: {rows}"
        if got.unsat:
            assert got.cons == (((0,) * len(names), 1, False, 0, 0),), f"seed {seed}: {rows}"
            refuted += not want.unsat
        else:
            multi = [row for row in want.cons if row[4] & (row[4] - 1)]
            assert [row[:3] + row[4:] for row in got.cons] == [row[:3] + row[4:] for row in multi]
            assert [row[3] for row in got.cons] == [1 << i for i in range(len(multi))]
            assert got.bounds == fm_reference.bounds_of(want.cons), f"seed {seed}: {rows}"
            assert (got.names, got.eliminated) == (want.names, want.eliminated)
        satisfiable += sat
    assert refuted > 200 and satisfiable > 200


def test_extended_builder_matches_a_fresh_build():
    # Building a prefix and deriving a set from it with the rest gives
    # the set a fresh build of the whole gives.  Neither that nor a
    # sibling derived with other rows changes the prefix's set.
    extended = refuted = siblings = 0
    for seed in range(1500):
        rng = random.Random(seed)
        names, rows = _bound_rows(rng)
        whole = Conjunction(names, rows, 0).rowset
        split = rng.randint(0, len(rows))
        base = Conjunction(names, rows[:split], 0)
        prefix = base.rowset
        if prefix.unsat:
            assert whole.unsat, f"seed {seed}: {rows}"
            refuted += 1
            continue
        assert _extended(base, rows[split:]).rowset == whole, f"seed {seed}: {rows}"
        other_names, other = _bound_rows(random.Random(-1 - seed))
        if other_names == names:
            want = Conjunction(names, rows[:split] + other, 0).rowset
            assert _extended(base, other).rowset == want, f"seed {seed}: {rows}, {other}"
            siblings += 1
        assert _extended(base, ()).rowset == prefix, f"seed {seed}: {rows}"
        assert prefix == Conjunction(names, rows[:split], 0).rowset, f"seed {seed}: {rows}"
        extended += 1
    assert extended > 1000 and refuted > 100 and siblings > 300


def _batches(rng: random.Random):
    """Variable names, a mask of free positions and batches of lowered
    rows over them: equalities on free positions that solve new pivots,
    equalities over requested (non-free) positions only, and inequalities
    of one or two variables."""
    n = rng.randint(2, 5)
    names = tuple("abcde"[:n])
    free = rng.randrange(1 << n)
    requested = [j for j in range(n) if not free >> j & 1]
    batches = []
    for _ in range(rng.randint(2, 4)):
        batch = []
        for _ in range(rng.randint(1, 3)):
            rel = rng.choice((Rel.LE, Rel.LE, Rel.LT, Rel.EQ, Rel.EQ))
            positions = requested if rel is Rel.EQ and requested and rng.random() < 0.3 else range(n)
            vec = [0] * n
            for j in rng.sample(positions, rng.randint(1, min(2, len(positions)))):
                vec[j] = rng.choice((-3, -2, -1, 1, 2, 3))
            batch.append((vec, rng.randint(-6, 6), rel))
        batches.append(batch)
    return names, free, batches


def test_conjoining_batches_matches_conjoining_them_at_once():
    # A conjunction solves its pivots as it is built from the first
    # batch, and each later batch is derived from it, rewritten through
    # those pivots: an equality left with a coefficient at a free
    # position is split into two inequalities.  Without such an
    # equality, the derived set has the pivots and set that building
    # all the batches at once gives; with one, the two sets agree on
    # satisfiability and on the projection onto the requested variables.
    # Once a set is refuted, the whole conjunction is unsatisfiable.
    split = copied = refuted = requested_only = 0
    for seed in range(2000):
        names, free, batches = _batches(random.Random(seed))
        everything = (1 << len(names)) - 1
        whole = Conjunction(names, [row for batch in batches for row in batch], free)
        requested_only += any(
            rel is Rel.EQ and not any(x and free >> j & 1 for j, x in enumerate(vec))
            for batch in batches
            for vec, _, rel in batch
        )
        step = Conjunction(names, batches[0], free)
        splits = 0
        for batch in batches[1:]:
            if step.rowset.unsat:
                break
            splits += sum(
                rel is Rel.EQ and any(x and free >> j & 1 for j, x in enumerate(vec))
                for vec, _, rel in (linlogic._substitute(r, step.pivots) for r in batch)
            )
            step = _extended(step, batch)
            copied += not step.rowset.unsat
        split += splits
        if step.rowset.unsat:
            assert linlogic._eliminate(whole.rowset, everything).unsat, f"seed {seed}"
            refuted += 1
            continue
        if not splits:
            assert step.pivots == whole.pivots, f"seed {seed}"
            assert step.rowset == whole.rowset, f"seed {seed}"
            continue
        unsat = linlogic._eliminate(step.rowset, everything).unsat
        assert unsat == linlogic._eliminate(whole.rowset, everything).unsat, f"seed {seed}"
        requested = [v for j, v in enumerate(names) if not free >> j & 1]
        got = project_rows(step.rowset, requested)
        assert got == project_rows(whole.rowset, requested), f"seed {seed}"
    assert split > 300 and copied > 1000 and refuted > 200 and requested_only > 500


def test_cube_sat_frozen_cases():
    assert cube_is_sat(cube())
    assert cube_is_sat(cube(lt(sub(X, Y))))
    assert not cube_is_sat(cube(le(sub(LinTerm.make({}, 3), X)), le(sub(X, LinTerm.make({}, 2)))))
    assert not cube_is_sat(cube(lt(X), lt(-X)))
    assert cube_is_sat(cube(le(X), le(-X)))  # x = 0


def test_is_sat_formulas():
    assert sat_cube(FALSE) is None
    assert sat_cube(TRUE) is not None
    assert sat_cube(Or((FALSE, Lin(le(X))))) is not None
    assert sat_cube(And((Lin(lt(X)), Lin(lt(sub(LinTerm.make({}, 0), X)))))) is None


def test_deep_formula_decided_without_recursion():
    # 5,000 levels of alternating conjunctions and disjunctions, built
    # through conj/disj.  The search descends the first disjunct of each
    # level, meets x >= 100 at the bottom, and takes the last level's
    # second disjunct instead.
    rng = random.Random(5000)
    leaf = Lin(le(sub(LinTerm.make({}, 100), X)))
    uppers, lowers = [], []
    f = leaf
    for level in range(5000):
        if level % 2:
            uppers.append(Lin(le(sub(X, LinTerm.make({}, rng.randint(0, 9))))))
            f = conj([uppers[-1], f])
        else:
            lowers.append(Lin(le(sub(LinTerm.make({}, -rng.randint(0, 9)), X))))
            f = disj([f, lowers[-1]])
    assert isinstance(f, And)
    # Pre-order: the conjuncts top down, then the disjuncts bottom up.
    atoms = [*reversed(uppers), leaf, *lowers]
    assert list(iter_formula_constraints(f)) == [a.con for a in atoms]
    assert formula_vars(f) == {"x"}
    assert sat_cube(f) == ConjCube.make(a.con for a in (*uppers, lowers[0]))


def test_deep_formula_walkers_do_not_recurse():
    # 5,000 levels of alternating conjunctions and disjunctions, built
    # through conj/disj: each conjunction adds (x >= 1; x >= 2) and each
    # disjunction x >= 3.  Hashing, comparing, printing and evaluating
    # walk the whole spine.  The DNF doubles at every conjunction, so
    # to_dnf hits its cap; a chain of one-item connectives as deep has
    # one cube.
    leaf = Lin(le(-X))  # x >= 0
    pair = disj([Lin(le(sub(LinTerm.make({}, 1), X))), Lin(le(sub(LinTerm.make({}, 2), X)))])
    other = Lin(le(sub(LinTerm.make({}, 3), X)))
    f, suffixes, repr_suffixes = leaf, [], []
    for level in range(5000):
        if level % 2:
            f = disj([f, other])
            suffixes.append(f"; {other}")
            repr_suffixes.append(f", {other!r}))")
        else:
            f = conj([f, pair])
            suffixes.append(f", ({pair})")
            repr_suffixes.append(f", {pair!r}))")
    assert isinstance(f, Or)
    assert f in {f} and hash(f) == hash(tuple(f))
    copy = rename_formula(f, {})
    assert copy is not f and copy == f and not copy != f
    assert copy != rename_formula(f, {"x": "y"})
    # The repr is the NamedTuple's, checked on shallow formulas first.
    assert repr(pair) == f"Or(items=({pair.items[0]!r}, {pair.items[1]!r}))"
    assert repr(And((leaf,))) == f"And(items=({leaf!r},))"
    prefixes = ("Or(items=(" if level % 2 else "And(items=(" for level in range(4999, -1, -1))
    assert repr(f) == "".join(prefixes) + repr(leaf) + "".join(repr_suffixes)
    # Every level but the top prints its spine child in parentheses.
    text = "(" * 4999 + str(leaf) + suffixes[0] + "".join(")" + s for s in suffixes[1:])
    assert format_formula(f) == text
    with pytest.raises(ResourceLimitError):
        to_dnf(f)
    chain = leaf
    for level in range(5000):
        chain = (And if level % 2 else Or)((chain,))
    assert to_dnf(chain) == [ConjCube((leaf.con,))]


def random_formula(rng, depth):
    """An And/Or tree of depth at most ``depth`` over atoms of random cubes
    (at most four variables), with ``true`` and ``false`` leaves."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.1:
            return TRUE
        if r < 0.2:
            return FALSE
        cons = random_cube(rng)
        return Lin(rng.choice(cons)) if cons else TRUE
    kind = And if rng.random() < 0.5 else Or
    return kind(tuple(random_formula(rng, depth - 1) for _ in range(rng.randint(1, 3))))


def test_sat_cube_agrees_with_full_dnf():
    found = 0
    for seed in range(1000):
        f = random_formula(random.Random(seed), 3)
        cubes = to_dnf(f)
        got = sat_cube(f)
        assert (got is None) == (not any(cube_is_sat(c) for c in cubes)), f"seed {seed}: {f}"
        if got is not None:
            found += 1
            assert got in cubes and cube_is_sat(got), f"seed {seed}: {f}"
    # both answers occur often enough to mean something
    assert 200 < found < 900


def _pivot_atom(rng, names, rels):
    coeffs = [
        (v, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2))))
        for v in rng.sample(names, rng.randint(1, 3))
    ]
    term = LinTerm.make(coeffs, Fraction(rng.randint(-4, 4)))
    return Lin(LinConstraint(term, rng.choice(rels)))


def pivot_formula(rng, root_equalities=False):
    """Inequalities over 5-7 variables at the root, and one or two
    disjunctions whose children bring equalities over the same variables
    (some under a nested disjunction): the search meets each equality in
    a child, after the rows it has to be substituted into.

    With ``root_equalities``, the root holds only one or two equalities
    over 4 variables, which it solves as pivots, and two or three
    disjunctions of two or three children bring more equalities.  Three
    atoms are drawn once and may go into children of any disjunction, so
    one atom object comes up in branches of different disjunctions.  A
    child of a root that holds only pivots could solve more of them, and
    one that did would build atoms through pivots its siblings lack."""
    if root_equalities:
        names = [f"v{i}" for i in range(4)]
        root = [_pivot_atom(rng, names, (Rel.EQ,)) for _ in range(rng.randint(1, 2))]
        shared = [_pivot_atom(rng, names, (Rel.EQ, Rel.LE, Rel.LT)) for _ in range(3)]

        def pick():
            parts = [_pivot_atom(rng, names, (Rel.EQ,))]
            parts += [_pivot_atom(rng, names, (Rel.LE, Rel.LT)) for _ in range(rng.randint(0, 1))]
            if rng.random() < 0.5:
                parts.append(rng.choice(shared))
            return And(tuple(parts))

        ors = [Or(tuple(pick() for _ in range(rng.randint(2, 3)))) for _ in range(rng.randint(2, 3))]
        return And((*root, *ors))
    names = [f"v{i}" for i in range(rng.randint(5, 7))]
    ineqs = [_pivot_atom(rng, names, (Rel.LE, Rel.LT)) for _ in range(rng.randint(2, len(names) + 2))]

    def child(depth):
        parts = [_pivot_atom(rng, names, (Rel.EQ,)) for _ in range(rng.randint(1, 2))]
        parts += [_pivot_atom(rng, names, (Rel.LE, Rel.LT)) for _ in range(rng.randint(0, 1))]
        if depth and rng.random() < 0.5:
            parts.append(Or(tuple(child(depth - 1) for _ in range(rng.randint(1, 3)))))
        return And(tuple(parts))

    ors = [Or(tuple(child(1) for _ in range(rng.randint(1, 3)))) for _ in range(rng.randint(1, 2))]
    return And((*ineqs, *ors))


def test_incremental_search_agrees_with_cube_is_sat(monkeypatch):
    # Only the root of a search solves pivots: each search builds one
    # conjunction, at its root, and every other branch derives its set
    # from it, adding its atoms' rows rewritten through the root's pivots.
    calls = 0
    build = Conjunction.__init__

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(Conjunction, "__init__", counted)
    for root_equalities, floor, ceiling in ((False, 40, 360), (True, 100, 300)):
        found = 0
        for seed in range(400):
            f = pivot_formula(random.Random(seed), root_equalities)
            cubes = to_dnf(f)
            calls = 0
            got = sat_cube(f)
            assert calls <= 1, f"seed {seed}: {calls} builds: {f}"
            assert (got is None) == (not any(cube_is_sat(c) for c in cubes)), f"seed {seed}: {f}"
            if got is not None:
                found += 1
                assert got in cubes and cube_is_sat(got), f"seed {seed}: {f}"
        assert floor < found < ceiling, (root_equalities, found)


def _atom(coeffs, const, rel):
    """``coeffs·x + const rel 0`` as a formula."""
    return Lin(LinConstraint(LinTerm.make(coeffs, const), rel))


def _self_conflicting_children(rng):
    """A box over 1-3 variables, around an integer point, with a row over
    two of them that the point satisfies, and then a disjunction: 2-4
    children of two one-variable atoms on one variable, each atom in the
    box's interval on its own but conflicting with the other, and a child
    that puts one variable at the point, after at least two of them."""
    names = [f"v{i}" for i in range(rng.randint(1, 3))]
    point = {v: rng.randint(-3, 3) for v in names}
    box = {v: (point[v] - rng.randint(1, 4), point[v] + rng.randint(1, 4)) for v in names}
    root = []
    for v, (lo, hi) in box.items():
        root += [_atom({v: -1}, lo, Rel.LE), _atom({v: 1}, -hi, Rel.LE)]
    if len(names) > 1:
        coeffs = {v: rng.choice((-2, -1, 1, 2)) for v in rng.sample(names, 2)}
        const = -sum(a * point[v] for v, a in coeffs.items()) - rng.randint(0, 2)
        root.append(_atom(coeffs, const, Rel.LE))
    children = []
    for _ in range(rng.randint(2, 4)):
        v = rng.choice(names)
        lo, hi = box[v]
        # k·v <= k·a and k'·v >= k'·(a + d), or v < a and v >= a.
        a = rng.randint(lo, hi - 1)
        d = rng.randint(0, hi - a)
        k, k2 = rng.randint(1, 3), rng.randint(1, 3)
        below = _atom({v: k}, -k * a, Rel.LT if d == 0 else rng.choice((Rel.LE, Rel.LT)))
        above = _atom({v: -k2}, k2 * (a + d), rng.choice((Rel.LE, Rel.LT)))
        children.append(And((below, above)))
    v = rng.choice(names)
    children.insert(rng.randint(2, len(children)), _atom({v: 1}, -point[v], Rel.EQ))
    return And((*root, Or(tuple(children))))


def test_children_whose_atoms_conflict_with_each_other_are_no_branches(monkeypatch):
    # A child whose fresh one-variable atoms conflict with each other,
    # though none does with its parent's bounds, is dropped as ``grow``
    # builds it and is not a branch: with the cap at 3, each search gets
    # past the 2-4 such children before its satisfiable one.  First
    # ``p(X) :- X >= 0, X <= 10, (X <= 3, X >= 4; X <= 2, X >= 5;
    # X <= 1, X >= 6; X = 7)``.
    dead = [And((_atom({"x": 1}, -a, Rel.LE), _atom({"x": -1}, b, Rel.LE))) for a, b in ((3, 4), (2, 5), (1, 6))]
    box = (_atom({"x": -1}, 0, Rel.LE), _atom({"x": 1}, -10, Rel.LE))
    formulas = [And((*box, Or((*dead, _atom({"x": 1}, -7, Rel.EQ)))))]
    formulas += [_self_conflicting_children(random.Random(seed)) for seed in range(300)]
    # The DNF conversion has the same cap: take it first.
    cubes = [to_dnf(f) for f in formulas]
    monkeypatch.setattr(linlogic, "DEFAULT_CUBE_CAP", 3)
    for f, dnf in zip(formulas, cubes):
        got = sat_cube(f)
        sat = [c for c in dnf if fm_reference.cube_is_sat(c)]
        assert len(sat) == 1 and got == sat[0], format_formula(f)
    assert str(sat_cube(formulas[0])) == "-x <= 0, x <= 10, x = 7"


def _layered(rng, arity, layers):
    """A formula over ``X1 .. X<arity>`` built the way
    ``RefinedModel.as_dict`` writes one: the Or of a box and of up to
    ``layers`` layers ``d and not b`` with ``d`` outside ``b``, the boxes
    drawn from small integer intervals, some ends open or unbounded."""
    variables = param_vars(arity)

    def box():
        intervals = []
        for _ in range(arity):
            lo = rng.randint(-3, 2)
            hi = rng.randint(lo, 3)
            lo = None if rng.random() < 0.15 else lo
            hi = None if rng.random() < 0.15 else hi
            intervals.append(interval(lo, hi, rng.random() < 0.2, rng.random() < 0.2))
        return Box.make(arity, intervals)

    parts = [box().formula(variables)]
    for _ in range(layers):
        d, b = box(), box()
        if not d.leq(b):
            parts.append(conj([d.formula(variables), b.complement(variables)]))
    return disj(parts)


def test_search_over_layered_instances_agrees_with_the_formula_route(monkeypatch):
    # The search lowers each atom once per renaming and a branch that
    # only tightens bounds meets them into the set its parent's
    # elimination ended with, when that run left them.  On layered
    # model formulas entered as instances, one formula under two
    # renamings and one with a repeated argument, under a constraint over
    # two or more variables, it must find a cube exactly when a cube of
    # the renamed conjunction's DNF is satisfiable, and the cube it
    # returns must be satisfiable.
    calls = met = 0
    resume = linlogic._resume

    def counted(end, bounds, tightened):
        nonlocal calls, met
        got = resume(end, bounds, tightened)
        calls += 1
        met += got is not None
        return got

    monkeypatch.setattr(linlogic, "_resume", counted)
    names = ["A", "B", "C"]
    found = 0
    for seed in range(200):
        rng = random.Random(seed)
        # The negation of a layered formula multiplies its cubes: one
        # layer keeps the DNF of the whole conjunction under the cap.
        p, q = _layered(rng, 2, 2), _layered(rng, 2, 1)
        constraint = conj(_pivot_atom(rng, names, (Rel.LE, Rel.LT)) for _ in range(rng.randint(1, 3)))
        first, second = rng.sample(names, 2), rng.sample(names, 2)
        repeated = rng.choice(names)
        instances = [
            (p, {"X1": first[0], "X2": first[1]}),
            (p, {"X1": second[0], "X2": second[1]}),
            (negate_formula(q) if rng.random() < 0.5 else q, {"X1": repeated, "X2": repeated}),
        ]
        cubes = to_dnf(conj([constraint, *(rename_formula(f, m) for f, m in instances)]))
        got = sat_cube(constraint, instances)
        assert (got is None) == (not any(cube_is_sat(c) for c in cubes)), f"seed {seed}"
        if got is not None:
            found += 1
            assert got in cubes and cube_is_sat(got), f"seed {seed}"
    assert 50 < found < 150 and calls > 400 and met > 100, (found, calls, met)


# -- box projection ------------------------------------------------------------


def test_project_half_open():
    # 0 <= x and x < 2, projected onto x
    c = cube(le(sub(LinTerm.make({}, 0), X)), lt(sub(X, LinTerm.make({}, 2))))
    [(lo, hi)] = project_to_box(c, ["x"])
    assert lo == (Fraction(0), False)
    assert hi == (Fraction(2), True)


def test_project_through_equality():
    # y = x + 1, 0 <= x <= 3  ->  y in [1, 4]
    c = cube(eq(sub(Y, X, LinTerm.make({}, 1))), le(-X), le(sub(X, LinTerm.make({}, 3))))
    [(lo, hi)] = project_to_box(c, ["y"])
    assert lo == (Fraction(1), False) and hi == (Fraction(4), False)


def test_project_unsat_is_none():
    c = cube(lt(X), lt(-X))
    assert project_to_box(c, ["x"]) is None


def test_project_unbounded():
    [(lo, hi)] = project_to_box(cube(), ["x"])
    assert lo == (None, True) and hi == (None, True)


# -- canonical bounds -----------------------------------------------------------


def canonical(interval: Interval) -> bool:
    """Is every side of ``interval`` unbounded, an ``int``, or a
    ``Fraction`` that is not integral?"""
    return all(
        b.value is None
        or type(b.value) is int
        or (type(b.value) is Fraction and b.value.denominator > 1)
        for b in interval
    )


def test_bound_values_are_canonical(corpus_systems):
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        c = ConjCube.make(random_cube(rng))
        for iv in project_to_box(c, sorted(c.vars)) or ():
            assert canonical(iv), f"seed {seed}: {iv!r}"
            kinds.update(type(b.value) for b in iv)
    assert kinds == {int, Fraction, type(None)}
    for name, system in corpus_systems:
        rng = random.Random(name)
        for clause in system.clauses:
            compiled = CompiledClause(clause)
            for _ in range(4):
                elem = random_element(rng, system)
                head = elem[clause.head.pred.name]
                body = [elem[app.pred.name] for app in clause.body]
                got = [compiled.post(body)]
                got += [compiled.pre(j, head, body) for j in range(len(body))]
                for box in got:
                    assert all(canonical(iv) for iv in box.intervals or ()), name
    for value in (4, -3, Fraction(4), Fraction(-6, 2), Fraction(3, 2), "5", "-7/2"):
        assert canonical(Interval(bound(value), bound(value, True)))
        assert canonical(interval(value, value))
        assert canonical(interval(value, None)) and canonical(interval(None, value))
    assert bound(Fraction(4)) == bound(4) == (4, False)
    assert hash(bound(Fraction(4))) == hash(bound(4))
    assert type(bound(Fraction(4)).value) is int


def test_clause_table_hits_across_bound_types(addition_loops):
    # A box whose bounds are integral Fractions is the same key as the box
    # the projections build, with int bounds.
    results = ClauseResults(addition_loops)
    i = next(i for i, c in enumerate(addition_loops.clauses) if c.body)
    pred = addition_loops.clauses[i].body[0].pred.name

    def element(value):
        box = Box(2, (Interval(Bound(value(0), False), Bound(value(3), True)), Interval.top()))
        return AbstractElement(
            (d.name, box if d.name == pred else Box.top(d.arity)) for d in addition_loops.decls
        )

    stored = results.post(i, element(int))
    assert results.post(i, element(Fraction)) is stored


def _contains_by_hand(interval: Interval, x) -> bool:
    # Does ``interval`` hold ``x``?  Written from the bounds, apart from
    # the interval order the test compares it with.
    if interval.lo.value is not None:
        if x < interval.lo.value or (x == interval.lo.value and interval.lo.strict):
            return False
    if interval.hi.value is not None:
        if x > interval.hi.value or (x == interval.hi.value and interval.hi.strict):
            return False
    return True


def test_contains_matches_the_hand_written_order():
    rng = random.Random(17)
    values = [Fraction(n, 2) for n in range(-6, 7)]

    def side():
        if rng.random() < 0.2:
            return UNBOUNDED
        return bound(rng.choice(values), rng.random() < 0.4)

    shapes = set()
    for _ in range(600):
        iv = Interval(side(), side())
        lo, hi = iv
        if iv.is_empty:
            shapes.add("empty")
        elif lo.value is None or hi.value is None:
            shapes.add("unbounded")
        elif lo.strict == hi.strict:
            shapes.add("strict" if lo.strict else "closed")
        else:
            shapes.add("half-open")
        for x in (*range(-4, 5), *values):
            assert interval(x, x).leq(iv) == _contains_by_hand(iv, x), (iv, x)
    assert shapes == {"empty", "unbounded", "strict", "closed", "half-open"}


# -- agreement with the brute-force oracle -------------------------------------


def test_is_sat_matches_brute_on_seeded_cubes():
    for seed in range(300):
        rng = random.Random(seed)
        cons = random_cube(rng)
        got = cube_is_sat(ConjCube.make(cons))
        want = brute_cube_sat(cons)
        assert got == want, f"seed {seed}: {[str(c) for c in cons]}"


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_elimination_preserves_sat(seed):
    rng = random.Random(seed)
    cons = random_cube(rng)
    c = ConjCube.make(cons)
    before = cube_is_sat(c)
    rows = RowSet.of(c)
    assert cube_is_sat(as_cube(rows)) == before
    for v in rows.names:
        if rows.unsat:
            break
        rows = fm_eliminate(rows, v)
        assert cube_is_sat(as_cube(rows)) == before
    # every variable eliminated: decided by the ground rows alone
    assert rows.unsat == (not before)
    assert all(not any(vec) for vec, *_ in rows.cons)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_projection_bounds_are_sound(seed):
    rng = random.Random(seed)
    cons = random_cube(rng)
    c = ConjCube.make(cons)
    variables = sorted(c.vars)
    raw = project_to_box(c, variables)
    if raw is None:
        assert not cube_is_sat(c)
        return
    for v, (lo, hi) in zip(variables, raw):
        # each projected bound must itself be entailed: conjoining its
        # negation makes the cube unsatisfiable
        if lo[0] is not None:
            rel = Rel.LE if lo[1] else Rel.LT
            breach = LinConstraint(sub(LinTerm.var(v), LinTerm.make({}, lo[0])), rel)
            assert not cube_is_sat(ConjCube.make((*c.cons, breach)))
        if hi[0] is not None:
            rel = Rel.LE if hi[1] else Rel.LT
            breach = LinConstraint(sub(LinTerm.make({}, hi[0]), LinTerm.var(v)), rel)
            assert not cube_is_sat(ConjCube.make((*c.cons, breach)))


# -- agreement with unpruned elimination ----------------------------------------


def _differential_cube(rng):
    """1-8 variables, up to n + 3 constraints over 1-3 of them with
    rational coefficients and constants, and 1-3 requested variables."""
    n = rng.randint(1, 8)
    names = [f"x{i}" for i in range(n)]
    cons = []
    for _ in range(rng.randint(1, n + 3)):
        coeffs = [
            (v, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 1, 2, 3))))
            for v in rng.sample(names, rng.randint(1, min(3, n)))
        ]
        const = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))
        rel = rng.choice((Rel.LE, Rel.LE, Rel.LT, Rel.EQ))
        cons.append(LinConstraint(LinTerm.make(coeffs, const), rel))
    return ConjCube.make(cons), rng.sample(names, rng.randint(1, min(3, n)))


def test_pruned_elimination_matches_unpruned_reference():
    # Pruning must drop only rows that the kept ones imply.  Keeping just
    # the tightest row per coefficient vector, across histories, fails
    # here on about one cube in a hundred.
    for seed in range(2000):
        c, requested = _differential_cube(random.Random(seed))
        assert cube_is_sat(c) == fm_reference.cube_is_sat(c), f"seed {seed}: {c}"
        got = project_to_box(c, requested)
        want = fm_reference.project_to_box(c, requested)
        assert got == want, f"seed {seed}: {c} onto {requested}"


def _wide_cube(rng):
    """6-8 variables, n + 2 to 2n constraints, most over one or two of
    them and some over three, with rational coefficients and constants,
    and 1-3 requested variables."""
    n = rng.randint(6, 8)
    names = [f"x{i}" for i in range(n)]
    cons = []
    for _ in range(rng.randint(n + 2, 2 * n)):
        coeffs = [
            (v, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 1, 2))))
            for v in rng.sample(names, rng.choice((1, 1, 2, 2, 2, 3)))
        ]
        const = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))
        rel = rng.choice((Rel.LE, Rel.LE, Rel.LT, Rel.EQ))
        cons.append(LinConstraint(LinTerm.make(coeffs, const), rel))
    return ConjCube.make(cons), rng.sample(names, rng.randint(1, 3))


def _one_variable_meet(names, cube):
    """:func:`fm_reference.bounds_of` the inequalities of ``cube``, lowered
    over ``names``."""
    index = {v: j for j, v in enumerate(names)}
    return fm_reference.bounds_of(
        (vec, const, rel is Rel.LT) for vec, const, rel in (linlogic.lower(c, index) for c in cube.cons)
    )


def test_bounds_index_is_the_meet_of_one_variable_rows():
    # A built set keeps, per position, the meet of the one-variable rows
    # the builder makes.  Each step of a full elimination keeps the meet
    # of the one-variable rows that unpruned elimination of the same
    # variable makes from the cube the step's input stands for.  The one
    # exception is a one-variable row that history pruning drops: the
    # rows kept imply it, but the index alone need not, so there the
    # step's interval only lies between the reference's and the input's.
    # A set or a step is refuted only where its reference holds a failing
    # ground row or an empty meet.
    checked = differs = 0
    top = Interval.top()
    for seed in range(300):
        c, requested = _wide_cube(random.Random(seed))
        for free in ((), requested):
            rows = RowSet.of(c, frozenset(free))
            index = {v: j for j, v in enumerate(rows.names)}
            mask = sum(1 << j for j, v in enumerate(rows.names) if v not in free)
            built, _ = linlogic.extend([linlogic.lower(k, index) for k in c.cons], mask)
            want = fm_reference.from_rows(rows.names, built)
            if rows.unsat:
                assert want.unsat or any(iv.is_empty for iv in want.bounds.values()), f"seed {seed}: {c}"
            else:
                assert rows.bounds == want.bounds, f"seed {seed}: {c}"
            checked += 1
            while True:
                left = [v for j, v in enumerate(rows.names) if not rows.eliminated >> j & 1]
                if rows.unsat or not left:
                    break
                step = fm_eliminate(rows, left[0])
                reference = fm_reference.fm_eliminate(as_cube(rows), left[0])
                checked += 1
                want = _one_variable_meet(rows.names, reference)
                if step.unsat:
                    ground = [k for k in reference.cons if not k.term.coeffs]
                    assert any(not k.rel.holds(k.term.const) for k in ground) or any(
                        iv.is_empty for iv in want.values()
                    ), f"seed {seed}: {c}"
                    break
                if step.bounds != want:
                    differs += 1
                    for j in want.keys() | step.bounds.keys():
                        got = step.bounds.get(j, top)
                        assert want.get(j, top).leq(got) and got.leq(rows.bounds.get(j, top)), f"seed {seed}: {c}"
                rows = step
    assert checked > 2000 and differs < checked // 100


def test_step_refutation_matches_unpruned_reference_on_wide_cubes(monkeypatch):
    # Refuting conflicting one-variable rows inside each elimination step
    # must decide satisfiability, and project, as unpruned elimination
    # does, on cubes wider than the other differential tests reach.
    cases = []
    for seed in range(160):
        c, requested = _wide_cube(random.Random(seed))
        cases.append((seed, c, requested, RowSet.of(c), RowSet.of(c, frozenset(requested))))
    in_step = 0
    meet = linlogic._meet

    def counted(bounds, j, interval):
        nonlocal in_step
        empty = meet(bounds, j, interval)
        in_step += empty and sys._getframe(1).f_code.co_name == "fm_eliminate"
        return empty

    monkeypatch.setattr(linlogic, "_meet", counted)
    satisfiable = 0
    for seed, c, requested, rows, restricted in cases:
        sat = not linlogic._eliminate(rows, (1 << len(rows.names)) - 1).unsat
        assert sat == fm_reference.cube_is_sat(c), f"seed {seed}: {c}"
        got = project_rows(restricted, requested)
        want = fm_reference.project_to_box(c, requested)
        assert got == want, f"seed {seed}: {c} onto {requested}"
        satisfiable += sat
    assert in_step > 20 and 20 < satisfiable < len(cases) - 20


def test_elimination_order_matches_the_recounting_reference(monkeypatch):
    # _eliminate counts each position's bounds by column; it must pick
    # the variable the loop that recounted every row picked, ties
    # included, and so build the same rows.
    order = []

    def recorded(rows, var):
        order.append(var)
        return fm_eliminate(rows, var)

    monkeypatch.setattr(linlogic, "fm_eliminate", recorded)
    for seed in range(500):
        c, requested = _differential_cube(random.Random(seed))
        rows = RowSet.of(c, frozenset(requested))
        everything = (1 << len(rows.names)) - 1
        got = linlogic._eliminate(rows, everything)
        got_order = order[:]
        order.clear()
        want = fm_reference.eliminate_by_recount(rows, everything, recorded)
        assert got == want and got_order == order, f"seed {seed}: {c}"
        order.clear()


def _mixed_step(rng):
    """A row set and the variable ``x0`` to eliminate from it: rows over
    ``x0`` and one other variable, rows over ``x0`` and two or more
    others, rows without ``x0``, and, in about half the sets, bounds on
    ``x0``.  A quarter of the sets hold two rows over ``x0`` and one
    other variable that conflict, and a quarter two wider rows whose
    combination cancels every variable and fails.  Half the sets first
    lose another variable to the in-order step, so their rows carry
    combined histories and an eliminated position."""
    n = rng.randint(3, 6)
    names = tuple(f"x{i}" for i in range(n))
    coeff = (-3, -2, -1, 1, 2, 3)

    def row(positions, const=None, rel=None):
        vec = [0] * n
        for j in positions:
            vec[j] = rng.choice(coeff)
        return (vec, rng.randint(-6, 6) if const is None else const, rel or rng.choice((Rel.LE, Rel.LE, Rel.LT)))

    rows = [row((0, rng.randrange(1, n))) for _ in range(rng.randint(1, 5))]
    rows += [row([0, *rng.sample(range(1, n), rng.randint(2, n - 1))]) for _ in range(rng.randint(1, 5))]
    rows += [row(rng.sample(range(1, n), rng.randint(1, min(3, n - 1)))) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        rows += [row((0,)) for _ in range(rng.randint(1, 2))]
    kind = rng.randrange(4)
    if kind < 2:
        positions = [0, *rng.sample(range(1, n), 1 if kind == 0 else rng.randint(2, n - 1))]
        vec, const, _ = row(positions)
        rows += [(vec, const, Rel.LE), ([-x for x in vec], -const - rng.randint(0, 1), Rel.LT)]
    rng.shuffle(rows)
    rowset = Conjunction(names, rows, 0).rowset
    if rng.random() < 0.5:
        rowset = fm_reference.fm_eliminate_in_order(rowset, names[rng.randrange(1, n)])
    return rowset, "x0"


def test_short_pairs_first_match_the_in_order_step(monkeypatch):
    # A step combines its pairs over the eliminated variable and one same
    # other variable, and those of such a row with a side of the
    # variable's interval, before the rest; those pairs only meet bounds
    # or test ground rows.  Wherever the in-order step returns a set, the
    # step must return the same rows in the same order, with the same
    # histories, masks, bounds, eliminated positions and refutation.
    # Conflicts among the short pairs and conflicts only among wider
    # rows that cancel both occur.  Past the cap, the in-order step
    # raises where the step may find its conflict first.
    mixed = short_conflicts = wide_conflicts = 0
    cases = [_mixed_step(random.Random(seed)) for seed in range(800)]
    for rows, var in cases:
        want = fm_reference.fm_eliminate_in_order(rows, var)
        assert fm_eliminate(rows, var) == want, rows
        j = rows.names.index(var)
        over = [row for row in rows.cons if row[0][j]]
        short = [row for row in over if row[0].count(0) == len(rows.names) - 2]
        mixed += 0 < len(short) < len(over)
        if want.unsat and not rows.unsat and 0 < len(short) < len(over):
            alone = rows._replace(cons=tuple(row for row in rows.cons if row not in over or row in short))
            if fm_reference.fm_eliminate_in_order(alone, var).unsat:
                short_conflicts += 1
            else:
                wide_conflicts += 1
    assert mixed > 400 and short_conflicts > 50 and wide_conflicts > 50
    monkeypatch.setattr(linlogic, "DEFAULT_FM_CAP", 1)
    earlier = 0
    for rows, var in cases:
        try:
            want = fm_reference.fm_eliminate_in_order(rows, var)
        except ResourceLimitError:
            try:
                got = fm_eliminate(rows, var)
            except ResourceLimitError:
                continue
            assert got.unsat, rows
            earlier += 1
            continue
        assert fm_eliminate(rows, var) == want, rows
    assert earlier > 10


def _tightened_rows(rng, n):
    """Lowered rows over ``n`` positions: two to ``n + 3`` over two or
    three positions and up to three one-variable bounds."""
    rows = []
    for width in [rng.choice((2, 2, 3)) for _ in range(rng.randint(2, n + 3))] + [1] * rng.randint(0, 3):
        vec = [0] * n
        for j in rng.sample(range(n), min(width, n)):
            vec[j] = rng.choice((-3, -2, -1, 1, 2, 3))
        rows.append((vec, rng.randint(-6, 6), rng.choice((Rel.LE, Rel.LE, Rel.LT, Rel.EQ))))
    return rows


def _tightening(rng, n):
    """One to three one-variable rows, bounds of either side or points."""
    rows = []
    for j in rng.sample(range(n), rng.randint(1, min(3, n))):
        vec = [0] * n
        vec[j] = rng.choice((-2, -1, 1, 2))
        rows.append((vec, rng.randint(-4, 4), rng.choice((Rel.LE, Rel.LE, Rel.LT, Rel.EQ))))
    return rows


def test_resumed_elimination_matches_a_fresh_run():
    # A set that only tightens the bounds of its parent meets the
    # tightened intervals into the set the parent's run ended with, and
    # gives up when that run eliminated a tightened position.  Along
    # chains of up to three tightenings, each from the set the last one
    # ended with, eliminating every position or only some, a set it
    # returns must be refuted exactly when a fresh run's is, and
    # otherwise hold the fresh run's rows in order, bounds and
    # eliminated positions.
    met = met_refuted = fresh_runs = refuted = 0
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        names = tuple(f"x{i}" for i in range(n))
        mask = (1 << n) - 1 if rng.random() < 0.6 else rng.randint(1, (1 << n) - 1)
        branch = Conjunction(names, _tightened_rows(rng, n), 0)
        if branch.rowset.unsat:
            continue
        end = linlogic._eliminate(branch.rowset, mask)
        for depth in range(rng.randint(1, 3)):
            if end.unsat:
                break
            tightening = _tightening(rng, n)
            child = _extended(branch, tightening)
            if child.rowset.unsat:
                break
            tightened = {vec.index(next(filter(None, vec))) for vec, _, _ in tightening}
            got = linlogic._resume(end, child.rowset.bounds, tightened)
            fresh = linlogic._eliminate(child.rowset, mask)
            refuted += fresh.unsat
            if got is None:
                assert any(end.eliminated >> j & 1 for j in tightened), f"seed {seed} depth {depth}"
                fresh_runs += 1
                end = fresh
            else:
                assert got.unsat == fresh.unsat, f"seed {seed} depth {depth}"
                if not fresh.unsat:
                    assert got.cons == fresh.cons, f"seed {seed} depth {depth}"
                    assert got.bounds == fresh.bounds, f"seed {seed} depth {depth}"
                    assert got.eliminated == fresh.eliminated, f"seed {seed} depth {depth}"
                met += 1
                met_refuted += got.unsat
                end = got
            branch = child
    assert met > 300 and met_refuted > 30 and fresh_runs > 1000, (met, met_refuted, fresh_runs)
    assert 300 < refuted < met + fresh_runs - 500, (met, fresh_runs, refuted)


def _block_cube(rng, unsat_block):
    """2-3 sub-cubes over disjoint sets of 1-3 variables, and 2-4
    requested variables.  With ``unsat_block``, one more block holds a
    cycle of strict differences, unsatisfiable only as a whole, and one
    of its variables is requested along with variables of other blocks."""
    blocks = []
    for b in range(rng.randint(2, 3)):
        names = [f"b{b}x{i}" for i in range(rng.randint(1, 3))]
        cons = []
        for _ in range(rng.randint(1, len(names) + 2)):
            coeffs = [
                (v, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2))))
                for v in rng.sample(names, rng.randint(1, len(names)))
            ]
            const = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))
            cons.append(LinConstraint(LinTerm.make(coeffs, const), rng.choice(list(Rel))))
        blocks.append((names, cons))
    if unsat_block:
        names = [f"u{i}" for i in range(rng.randint(2, 3))]
        cycle = [
            lt(sub(LinTerm.var(a), LinTerm.var(b)))
            for a, b in zip(names, names[1:] + names[:1])
        ]
        blocks.insert(rng.randint(1, len(blocks)), (names, cycle))
    everything = [v for names, _ in blocks for v in names]
    requested = rng.sample(everything, rng.randint(2, min(4, len(everything))))
    if unsat_block and not any(v[0] == "u" for v in requested):
        requested[rng.randrange(len(requested))] = rng.choice([v for v in everything if v[0] == "u"])
    return ConjCube.make(c for _, cons in blocks for c in cons), requested


def _groups(rows: RowSet) -> int:
    """The number of groups the rows of ``rows`` fall into when rows that
    share a variable go together."""
    masks: list[int] = []
    for vec, *_ in rows.cons:
        mask = sum(1 << j for j, a in enumerate(vec) if a)
        for m in [m for m in masks if m & mask]:
            masks.remove(m)
            mask |= m
        masks.append(mask)
    return len(masks)


def test_block_projection_matches_unpruned_reference():
    # The rows left after the unrequested variables are eliminated can
    # fall into groups over disjoint variables.  An unsatisfiable group
    # makes the whole projection None even when every requested variable
    # of the other groups is bounded, and the rows of one group leave
    # another's intervals as they are.
    split = 0
    for seed in range(600):
        rng = random.Random(seed)
        c, requested = _block_cube(rng, unsat_block=seed % 3 == 0)
        got = project_to_box(c, requested)
        want = fm_reference.project_to_box(c, requested)
        assert got == want, f"seed {seed}: {c} onto {requested}"
        rows = RowSet.of(c, frozenset(requested))
        keep = sum(1 << j for j, v in enumerate(rows.names) if v in requested)
        left = linlogic._eliminate(rows, ((1 << len(rows.names)) - 1) & ~keep)
        split += not left.unsat and _groups(left) > 1
    assert split > 10, split


# -- elimination budget -----------------------------------------------------------

# Six variables in a cycle of differences: eliminating any one of them
# combines two lower with two upper bounds.
CYCLE_TEXT = (
    "pred p/2.\n"
    "p(V0, V1) :- "
    + ", ".join(
        f"V{i} - V{(i + 1) % 6} <= {i}, V{(i + 1) % 6} - V{i} <= {i + 1}" for i in range(6)
    )
    + ".\n"
    "false :- p(A, B), A > B + 100.\n"
)


def test_fm_cap_raises(monkeypatch):
    [c] = to_dnf(parse_system(CYCLE_TEXT).clauses[0].constraint)
    assert len(c.vars) == 6 and cube_is_sat(c)
    monkeypatch.setattr(linlogic, "DEFAULT_FM_CAP", 2)
    with pytest.raises(ResourceLimitError, match="Fourier-Motzkin"):
        cube_is_sat(c)
    with pytest.raises(ResourceLimitError, match="Fourier-Motzkin"):
        project_to_box(c, sorted(c.vars)[:2])


def test_fm_cap_exits_3_from_cli(tmp_path):
    path = tmp_path / "cycle.chc"
    path.write_text(CYCLE_TEXT, encoding="utf-8")
    script = (
        "import sys; import chclab.linlogic as l; l.DEFAULT_FM_CAP = 2; "
        "from chclab.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve", str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource limit: Fourier-Motzkin")
    assert "Traceback" not in proc.stderr

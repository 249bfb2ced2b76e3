"""Exact reasoning about negation-free linear rational formulas.

Satisfiability of a formula is decided by :func:`sat_cube`, a depth-first
search over the disjunct choices of its And/Or tree that never builds the
disjunctive normal form: it gathers the atoms of the current conjunction,
drops the branch as soon as they are unsatisfiable, and branches on the
pending disjunction with the fewest children first.  A child whose new
atoms conflict on their own with its parent's bounds is never built, and
one whose atoms add no row is as satisfiable as its parent.  The
formula may come with instances, formulas under a renaming of their
variables, whose atoms are lowered through the renaming instead of
renamed.  A search that visits more than ``DEFAULT_CUBE_CAP`` branches
raises :class:`ResourceLimitError`.  Only projections, which need every
cube, convert a formula to disjunctive normal form (:func:`to_dnf`, under
the same cap).

Constraints are lowered to integer rows once (:func:`lower`), and one
Fourier-Motzkin engine works on those rows:

* **Equalities first.**  :func:`extend` rewrites new rows through the
  recorded pivots, solves each new equality for one of its free
  variables and substitutes it into the other new rows.  A projection
  pivots on variables it was not asked for, and a conjunction only until
  it holds a normalized row or bound.  A transformer template, as it is
  built from its cube, also ties each equality left between exactly two
  of its targets: it pivots on one, and :meth:`Conjunction.project`
  reads that target's interval off the other's through the equality.
  Any other equality becomes two inequalities.
* **Integer rows.**  :meth:`Conjunction.conjoin` turns every remaining
  constraint into inequality rows: integer coefficients and constant
  without a common divisor, a strict flag, a history (the bitmask of the
  original inequalities the row combines) and the mask of the variables
  those originals mention.  Combining a strict with a non-strict row
  yields a strict one.  A one-variable row lives only in the ``bounds``
  of its :class:`RowSet`, the :class:`Interval` meet of each position's
  one-variable rows, each a point for an equality and a half-line
  otherwise (:func:`_bound`); the rows of a set all mention two or more
  variables.  An empty meet refutes the set before any elimination runs,
  which decides most unsatisfiable branches of the search.  Each
  elimination step carries the bounds over and meets the one-variable
  rows it makes into them, so a conflict is refuted in the step that
  makes it, not left for the step on its variable.  A
  :class:`Conjunction` keeps the pivots and build state of a
  conjunction, so the search extends a branch with a child's atoms,
  normalizing only the new rows.
  :class:`chclab.domain.CompiledClause` extends the template of a
  constraint cube with the intervals of its input boxes
  (:meth:`Conjunction.conjoin_bounds`), which never adds a pivot: an
  interval on ``x_j`` is mapped through the image of ``x_j`` under the
  template's pivots and met once into a copy of the template's
  ``bounds`` when that image has one variable; only an interval whose
  image spans two or more variables, or none, becomes rows, one per
  bounded side (:func:`_rows`).
* **Elimination order.**  The next variable eliminated is the one with
  the smallest |L|·|U| − |L| − |U|, where L and U are the rows that bound
  it from below and from above.  A variable that only ``bounds`` mention
  is dropped without a step, and the step that eliminates a variable
  enters its interval as at most one lower and one upper row.
* **History pruning.**  A combined row is dropped when its history has
  more than 1 + k members, k being the number of eliminated variables its
  originals mention (Chernikov's rule with Kohler's count, after Imbert
  1993): such a row is implied by rows with smaller histories.  Only
  exact duplicates merge, and the copy with the smaller history stays.
  Keeping just the tightest of the rows that share a coefficient vector
  would drop rows whose histories the pruning of later steps relies on,
  and it gives wrong answers.  A bound has no history bit: a row a step
  makes from a bound has the history ``-1``, and neither it nor any row
  later combined from it is ever pruned.  That only keeps rows the rule
  would have dropped, so every answer stays exact.
* **Budget.**  An elimination step that holds more than
  ``DEFAULT_FM_CAP`` rows raises :class:`ResourceLimitError`.

The solve path projects the rows of clause constraints and goal guards
that :class:`chclab.domain.CompiledClause` lowered and extended onto one
:class:`Interval` per requested variable with :func:`project_rows`
(through :meth:`Conjunction.project`, which adds the tied targets): that
eliminates the variables it was not asked for once.  A requested
variable's interval is then its ``bounds`` entry once the other
requested variables that rows mention are eliminated; a variable that
no row mentions needs no elimination.
:class:`Interval` and its sides (:class:`Bound`) are the one interval
type of the package: :mod:`chclab.domain` builds its boxes from them.
:func:`cube_is_sat`, :func:`project_to_box` and :meth:`RowSet.of` take
a whole :class:`ConjCube` instead: that is the formula route the tests
compare the search and the compiled transformers against.

A bound's value, and every coefficient and constant of a term of
:mod:`chclab.syntax`, is held by one rule (:func:`~chclab.syntax.rat`):
an ``int`` when it is integral and a ``Fraction`` with a denominator
above 1 otherwise.  So :func:`lower`, the compares of the interval
order and the hashes of boxes and rows run on ``int`` for nearly every
number.  ``int`` and ``Fraction`` compare and hash equal, so the rule
never changes an answer or a table lookup.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Mapping, NamedTuple

from .syntax import (
    And,
    FalseF,
    Formula,
    Lin,
    LinConstraint,
    Or,
    Rel,
    TrueF,
    fold_formula,
    formula_vars,
)

DEFAULT_CUBE_CAP = 4096
DEFAULT_FM_CAP = 4096


class ResourceLimitError(Exception):
    """An enumeration or conversion exceeded its configured cap."""


class ConjCube(NamedTuple):
    """A conjunction of linear constraints, deduplicated and sorted."""

    cons: tuple[LinConstraint, ...]

    @staticmethod
    def make(cons) -> ConjCube:
        return ConjCube(tuple(sorted(set(cons), key=lambda c: c.key())))

    @property
    def vars(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.cons:
            out.update(c.vars)
        return frozenset(out)

    def __str__(self) -> str:
        if not self.cons:
            return "true"
        return ", ".join(str(c) for c in self.cons)


def to_dnf(formula: Formula) -> list[ConjCube]:
    """Disjunctive normal form as a list of cubes.

    ``true`` yields one empty cube, ``false`` yields no cube.  Raises
    :class:`ResourceLimitError` when an intermediate cube count exceeds
    ``DEFAULT_CUBE_CAP``.  An explicit stack keeps deep formulas off the
    call stack.
    """
    return [ConjCube.make(cs) for cs in fold_formula(formula, _dnf_leaf, _dnf_node)]


def _dnf_leaf(f: Formula) -> list[tuple[LinConstraint, ...]]:
    if isinstance(f, TrueF):
        return [()]
    if isinstance(f, FalseF):
        return []
    if isinstance(f, Lin):
        return [(f.con,)]
    raise TypeError(f"not a formula: {f!r}")


def _dnf_node(f: And | Or, items: list) -> list[tuple[LinConstraint, ...]]:
    """The cubes of ``f`` from the cubes of its items, checking the cap
    after each item as the items are combined left to right."""
    cap = DEFAULT_CUBE_CAP
    acc: list[tuple[LinConstraint, ...]]
    if isinstance(f, And):
        acc = [()]
        for branches in items:
            acc = [a + b for a in acc for b in branches]
            if len(acc) > cap:
                raise ResourceLimitError(f"DNF conversion exceeded {cap} cubes")
        return acc
    acc = []
    for branches in items:
        acc.extend(branches)
        if len(acc) > cap:
            raise ResourceLimitError(f"DNF conversion exceeded {cap} cubes")
    return acc


def _gather(f: Formula, atoms: list[LinConstraint], pending: list[Or]) -> bool:
    """Add the atoms of the conjunction ``f`` to ``atoms`` and its
    disjunctions to ``pending``, in pre-order; ``False`` when ``f`` holds
    a ``false`` conjunct.  A disjunction with a ``true`` child holds
    already.  An explicit stack keeps deep formulas off the call stack."""
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, Lin):
            atoms.append(f.con)
        elif isinstance(f, And):
            stack.extend(reversed(f.items))
        elif isinstance(f, Or):
            if not any(isinstance(g, TrueF) for g in f.items):
                pending.append(f)
        elif isinstance(f, FalseF):
            return False
        elif not isinstance(f, TrueF):
            raise TypeError(f"not a formula: {f!r}")
    return True


def sat_cube(formula: Formula, instances=()) -> ConjCube | None:
    """A satisfiable cube of the DNF of ``formula`` conjoined with its
    ``instances``, or ``None`` if it has none.

    Each instance is a ``(formula, mapping)`` pair that stands for the
    formula with its variables renamed by ``mapping``; a variable the
    mapping does not name keeps its own name.  The renamed formula is
    never built: each atom of an instance is lowered straight onto the
    positions of the variables it is renamed to, adding up the
    coefficients of variables renamed to one name, and only the atoms of
    the cube returned are renamed.

    Depth-first search over the disjunct choices.  The variables are
    indexed once, and each branch carries the :class:`Conjunction` of
    the atoms its choices imply: a child lowers only its new atoms,
    conjoins them with its parent's and eliminates a copy of the result.
    A branch is dropped as soon as its atoms are unsatisfiable; it then
    branches on the pending disjunction with the fewest children, trying
    them in formula order.  Before a child is pushed, its new rows are
    rewritten through the parent's pivots (:meth:`Conjunction.rewrite`).
    A child with a row refuted on its own, a ground row that fails or a
    one-variable row whose interval meets the parent's ``bounds`` to
    empty, is never built and is not a branch; any other child conjoins
    the rewritten rows when it is popped, and a child that adds no row
    is as satisfiable as its parent and needs no check.  The first branch
    left with no pending disjunction is the answer.  Raises
    :class:`ResourceLimitError` after ``DEFAULT_CUBE_CAP`` branches.
    """
    # A constant needs no search, and indexing its variables would cost
    # more than the answer: the refined model's formulas are mostly
    # constants.
    if isinstance(formula, FalseF) or any(isinstance(f, FalseF) for f, _ in instances):
        return None
    instances = [(f, mapping) for f, mapping in instances if not isinstance(f, TrueF)]
    if isinstance(formula, TrueF) and not instances:
        return ConjCube(())
    cap = DEFAULT_CUBE_CAP
    # Each instance lowers its atoms onto the positions of the names its
    # variables are renamed to.
    renamed = [{v: mapping.get(v, v) for v in formula_vars(f)} for f, mapping in instances]
    found = set(formula_vars(formula))
    for targets in renamed:
        found.update(targets.values())
    names = tuple(sorted(found))
    index = {v: j for j, v in enumerate(names)}
    n = len(names)
    everything = (1 << n) - 1
    # A part is a formula, the mapping its atoms are renamed by (``None``
    # for ``formula`` itself) and the position of each of its variables.
    parts = [(formula, None, index)]
    for (f, mapping), targets in zip(instances, renamed):
        parts.append((f, mapping, {v: index[w] for v, w in targets.items()}))

    def grow(choices, keys: frozenset, branch: Conjunction):
        """The atoms, the pending disjunctions and the fresh rows,
        rewritten through the pivots of ``branch``, that ``choices`` add
        to it; ``None`` when one of them is refuted on its own."""
        atoms: list[tuple[LinConstraint, Mapping | None]] = []
        pending: list[tuple[Or, Mapping | None, Mapping]] = []
        fresh: dict[tuple, Lowered] = {}
        for f, mapping, columns in choices:
            new_atoms: list[LinConstraint] = []
            new_pending: list[Or] = []
            if not _gather(f, new_atoms, new_pending):
                return None
            for c in new_atoms:
                row = lower(c, columns, n)
                key = (*row[0], row[1], row[2])
                if key in keys or key in fresh:
                    continue
                row = branch.rewrite(row)
                if row is None:
                    return None
                fresh[key] = row
            atoms += [(c, mapping) for c in new_atoms]
            pending += [(g, mapping, columns) for g in new_pending]
        return tuple(atoms), pending, fresh

    # A branch: the atoms chosen so far with the mapping of each, the keys
    # of their distinct rows, the conjunction of those rows, the
    # disjunctions still to decide, and what its last choice adds.  Rows
    # hash far faster than the Fractions of their atoms, and two atoms
    # with one row are the same constraint.
    branch = Conjunction(names, everything)
    root = grow(parts, frozenset(), branch)
    if root is None:
        return None
    stack: list[tuple] = [((), frozenset(), branch, (), root)]
    visited = 0
    while stack:
        visited += 1
        if visited > cap:
            raise ResourceLimitError(f"satisfiability search exceeded {cap} branches")
        atoms, keys, branch, pending, (new_atoms, new_pending, fresh) = stack.pop()
        atoms += new_atoms
        pending = [*pending, *new_pending]
        if fresh:
            keys = keys.union(fresh)
            branch = branch.conjoin(fresh.values())
            if branch.rowset.unsat or _eliminate(branch.rowset, everything).unsat:
                continue
        if not pending:
            return ConjCube.make(c if m is None else c.rename(m) for c, m in atoms)
        fewest = min(range(len(pending)), key=lambda k: len(pending[k][0].items))
        split, mapping, columns = pending.pop(fewest)
        pending = tuple(pending)
        for c in reversed(split.items):
            child = grow(((c, mapping, columns),), keys, branch)
            if child is not None:
                stack.append((atoms, keys, branch, pending, child))
    return None


# A constraint lowered to integers: (vec, const, rel) stands for
# ``sum(vec[i] * names[i]) + const rel 0`` over the names of its run.
Lowered = tuple[list[int], int, Rel]
# An equality solved for position j: (j, vec, const) of that equality.
Pivot = tuple[int, list[int], int]


def lower(con: LinConstraint, index: Mapping[str, int], width: int | None = None) -> Lowered:
    """``con`` over the positions of ``index``, a row of ``width``
    positions (``len(index)`` by default), with its coefficients and
    constant multiplied by the lcm of their denominators.  Variables that
    ``index`` puts at one position add up there, so the row is a positive
    multiple of the lowered renamed constraint."""
    term = con.term
    den = term.const.denominator
    for _, a in term.coeffs:
        den = lcm(den, a.denominator)
    vec = [0] * (len(index) if width is None else width)
    for v, a in term.coeffs:
        vec[index[v]] += a.numerator * (den // a.denominator)
    return (vec, term.const.numerator * (den // term.const.denominator), con.rel)


def _substitute(row: Lowered, pivots) -> Lowered:
    """``row`` with the position of each pivot rewritten away, in order."""
    vec, const, rel = row
    vec, const, _ = _rewrite(vec, const, pivots)
    return (vec, const, rel)


def _rewrite(vec: list[int], const: int, pivots) -> tuple[list[int], int, int]:
    """``vec·x + const`` with the position of each pivot rewritten away,
    in order, and the positive factor ``s`` it was multiplied by: on the
    solutions of the pivots, the result is ``s`` times the input."""
    scale = 1
    for j, evec, econst in pivots:
        f = vec[j]
        if f:
            # Add the multiple of the equality that cancels position j to
            # |a| times the row; |a| > 0 keeps an inequality's direction.
            a = evec[j]
            s = abs(a)
            if a < 0:
                f = -f
            vec = [s * x - f * y for x, y in zip(vec, evec)]
            const = s * const - f * econst
            scale *= s
    return vec, const, scale


def extend(
    pivots: tuple[Pivot, ...], new, free: int, tie: int = 0
) -> tuple[tuple[Lowered, ...], tuple[Pivot, ...]]:
    """Rewrite the lowered constraints ``new`` through ``pivots``, the
    equalities substituted away so far; then, while one of them is an
    equality with a coefficient at a position in the mask ``free``, solve
    it for the first such position and substitute it into the others.
    After that, while one is an equality over exactly two positions, both
    in the mask ``tie``, solve it for the first of them in the same way.
    Returns the rows left and the pivots.  Neither input is modified, so
    a template can be extended again and again.
    """
    new = [_substitute(r, pivots) for r in new] if pivots else list(new)
    # An equality passed over has no coefficient at a free position, so no
    # later substitution changes it and the scan never has to restart.
    k = 0
    while k < len(new):
        evec, econst, rel = new[k]
        j = -1
        if rel is Rel.EQ:
            j = next((j for j, x in enumerate(evec) if x and free >> j & 1), -1)
        if j < 0:
            k += 1
            continue
        del new[k]
        solved = ((j, evec, econst),)
        pivots += solved
        new = [_substitute(r, solved) if r[0][j] else r for r in new]
    # A tie rewrites rows passed over into pairs, so each scan starts anew.
    while tie:
        pair = next((r for r in new if r[2] is Rel.EQ and _pair(r[0], tie)), None)
        if pair is None:
            break
        new.remove(pair)
        j = next(j for j, x in enumerate(pair[0]) if x)
        pivots += ((j, pair[0], pair[1]),)
        new = [_substitute(r, pivots[-1:]) if r[0][j] else r for r in new]
    return tuple(new), pivots


def _pair(vec: list[int], mask: int) -> bool:
    """Does ``vec`` mention exactly two positions, both in ``mask``?"""
    positions = [j for j, x in enumerate(vec) if x]
    return len(positions) == 2 and all(mask >> j & 1 for j in positions)


# One row of a RowSet: (coeffs, const, strict, history, varmask) stands for
# ``sum(coeffs[i] * names[i]) + const < 0`` if strict, else ``<= 0``.  The
# integers share no common divisor; ``history`` has bit i set when the row
# combines original inequality i, and ``varmask`` has bit j set when one of
# those originals mentions ``names[j]``.
Row = tuple[tuple[int, ...], int, bool, int, int]


class RowSet(NamedTuple):
    """The inequalities of one elimination run: integer rows over two or
    more variables, and an interval per variable for the rest.

    ``cons`` holds the rows that mention at least two variables.
    ``bounds`` maps each position that a one-variable inequality of the
    set bounds to the :class:`Interval` meet of those inequalities; such
    an inequality lives there and never in ``cons``.  The set stands for
    the conjunction of both.  ``eliminated`` is the mask of the variable
    positions eliminated so far; ``unsat`` is set once the set is
    refuted, and it then holds the one row ``1 <= 0`` and no bound.  A
    set shares its ``bounds`` and never changes them.
    """

    names: tuple[str, ...]
    cons: tuple[Row, ...]
    eliminated: int = 0
    unsat: bool = False
    bounds: Mapping[int, Interval] = {}

    @staticmethod
    def of(cube: ConjCube, requested=frozenset()) -> RowSet:
        """The rows of ``cube`` once its equalities are substituted away,
        pivoting only on variables outside ``requested``; formula route."""
        names = tuple(sorted(cube.vars))
        index = {v: j for j, v in enumerate(names)}
        free = sum(1 << j for j, v in enumerate(names) if v not in requested)
        return Conjunction(names, free).conjoin([lower(c, index) for c in cube.cons]).rowset


def _refuted(names: tuple[str, ...], eliminated: int = 0) -> RowSet:
    """The refuted set over ``names``: the one row ``1 <= 0``."""
    return RowSet(names, (((0,) * len(names), 1, False, 0, 0),), eliminated, True)


class Conjunction:
    """A conjunction of lowered constraints over ``names``, conjoined one
    batch at a time.

    ``pivots`` are the equalities :func:`extend` solved, each for a
    position in the mask ``free``, and ``rowset`` is the :class:`RowSet`
    of the rows left, as :meth:`conjoin` describes it.  ``out`` (the
    distinct rows over two or more variables, by key) and ``bounds``
    (the set's intervals) are the state of that build between rows.  A
    batch adds only its own rows to a copy of the two dicts.  Pivots are
    solved only while both are empty: once a bound sits in ``bounds``, a
    pivot on its variable would leave the bound behind.  ``images``
    holds the images of the pivots and the ties among them
    (:meth:`_images`) once a call has needed them; a child with the same
    pivots shares them.
    """

    __slots__ = ("names", "free", "pivots", "out", "bounds", "rowset", "images")

    def __init__(self, names: tuple[str, ...], free: int):
        self.names = names
        self.free = free
        self.pivots: tuple[Pivot, ...] = ()
        self.out: dict[tuple, Row] = {}
        self.bounds: dict[int, Interval] = {}
        self.rowset = RowSet(names, ())
        self.images = None

    def conjoin(self, lowered, tie: int = 0) -> Conjunction:
        """This conjunction and the lowered constraints ``lowered``.

        New pivots are solved only while no row and no bound is
        normalized; while none is, :func:`extend` then also ties each
        equality left between two positions of the mask ``tie``, which
        lies outside ``free``.  Its ``rowset`` holds the inequalities of
        the rows over two or more variables: each divided by the gcd of
        its integers, an equality split into two inequalities, and exact
        duplicates merged.  A one-variable row is met into the ``bounds``
        of its variable as its interval (:func:`_bound`) instead of kept
        as a row, and a ground row that holds is dropped.  A ground row
        that fails (:meth:`~chclab.syntax.Rel.holds`) refutes the set,
        and so does an empty meet.  Such a conflict refutes most
        unsatisfiable branches of :func:`sat_cube` before any
        elimination runs.  A refuted build stopped part way, so a
        refuted conjunction comes back unchanged.
        """
        if self.rowset.unsat:
            return self
        free = self.free
        if self.out or self.bounds:
            free = tie = 0
        rows, pivots = extend(self.pivots, lowered, free, tie)
        return self._child(pivots, self.bounds.copy(), rows)

    def conjoin_bounds(self, intervals) -> Conjunction:
        """This conjunction and the pairs ``(j, interval)`` in the list
        ``intervals``, each ``x_j`` in ``interval``: the set
        :meth:`conjoin` builds from the intervals' rows (:func:`_rows`)
        when it solves no pivot, built without most of those rows.  The
        pivots stay as they are.

        An interval on ``x_j`` whose image under the pivots
        (:meth:`_images`) has one variable is mapped onto that variable
        (:func:`_map`) and met once into a copy of ``bounds``; when no
        pivot rewrites ``x_j``, or its image is ``x_k`` itself, the
        interval is met as it is.  An interval whose image has no
        variable or two or more adds its rows, normalized as by
        :meth:`conjoin`.  With no such interval, the result keeps the
        rows of this set: nothing is copied or normalized.
        """
        if self.rowset.unsat:
            return self
        images, _ = self._images()
        met = self.bounds.copy()
        rows = []
        for j, interval in intervals:
            image = images.get(j)
            if image is None:
                k = j
            else:
                mask, vec, const, scale = image
                if not mask or mask & (mask - 1):
                    rows += _rows(vec, const, scale, interval)
                    continue
                # scale·x_j = a·x_k + const, so x_k = (scale·x_j - const) / a,
                # with the signs moved so that the divisor is positive; an
                # identity x_j = x_k leaves the interval as it is.
                k = mask.bit_length() - 1
                if vec[k] != scale or const:
                    sign = 1 if vec[k] > 0 else -1
                    interval = _map(interval, sign * scale, -sign * const, sign * vec[k])
            if _meet(met, k, interval):
                refuted = self._child(self.pivots, met, ())
                refuted.rowset = _refuted(self.names)
                return refuted
        return self._child(self.pivots, met, rows)

    def _child(self, pivots: tuple[Pivot, ...], bounds: dict[int, Interval], rows) -> Conjunction:
        """This conjunction with ``pivots``, ``bounds`` and the normalized
        ``rows`` added to a copy of ``out``."""
        # Set every slot here: __init__ would make a state and a set only
        # to drop them.
        child = object.__new__(Conjunction)
        child.names, child.free, child.pivots = self.names, self.free, pivots
        child.bounds = bounds
        child.images = self.images if pivots is self.pivots else None
        # No row to add: share ``out``, as only a copy made here is written to.
        if rows:
            child.out = self.out.copy()
            child.rowset = child._normalize(rows)
        else:
            child.out, child.rowset = self.out, RowSet(self.names, self.rowset.cons, 0, False, bounds)
        return child

    def project(self, variables) -> list[Interval] | None:
        """:func:`project_rows` of ``rowset`` onto ``variables``, which
        must name every position of the ``tie`` mask.  A tied ``x_j``,
        which no row mentions, gets the interval of its partner ``x_k``
        mapped through its image (:func:`_map`), or as it is when the
        image is ``x_k`` itself."""
        intervals = project_rows(self.rowset, variables)
        _, ties = self._images()
        if not ties or intervals is None:
            return intervals
        at = dict(zip(variables, intervals))
        for tied, partner, a, c, s in ties:
            at[tied] = at[partner] if a == s and not c else _map(at[partner], a, c, s)
        return [at[v] for v in variables]

    def _images(self) -> tuple[dict[int, tuple[int, list[int], int, int]], tuple]:
        """For each pivot position ``j``, ``x_j`` rewritten through the
        pivots: ``(mask, vec, const, scale)``, with ``scale * x_j = vec·x
        + const`` on the solutions of the pivots, the integers divided by
        their gcd, and ``mask`` the positions ``vec`` mentions; the pivots
        leave any other ``x_j`` as it is.  Then the ties, the pivots a
        :meth:`conjoin` with ``tie`` solved for positions outside
        ``free``: ``(names[j], names[k], a, c, s)`` with ``x_j = (a·x_k +
        c) / s``.  Computed once and kept in ``images``."""
        if self.images is None:
            names, free = self.names, self.free
            n = len(names)
            bits = [1 << j for j in range(n)]
            images, ties = {}, []
            for j, _, _ in self.pivots:
                vec, const, scale = _rewrite([int(i == j) for i in range(n)], 0, self.pivots)
                d = gcd(*vec, const, scale)
                if d > 1:
                    vec, const, scale = [x // d for x in vec], const // d, scale // d
                mask = sum(compress(bits, vec))
                images[j] = (mask, vec, const, scale)
                if not free >> j & 1:
                    k = mask.bit_length() - 1
                    ties.append((names[j], names[k], vec[k], const, scale))
            self.images = (images, tuple(ties))
        return self.images

    def rewrite(self, row: Lowered) -> Lowered | None:
        """The lowered ``row`` rewritten through the pivots, or ``None``
        when it is refuted on its own: a ground row that fails, or a
        one-variable row whose interval meets ``bounds`` to empty."""
        if self.pivots:
            row = _substitute(row, self.pivots)
        vec, const, rel = row
        zeros = vec.count(0)
        if zeros == len(vec):
            return row if rel.holds(const) else None
        if zeros == len(vec) - 1:
            j = vec.index(next(filter(None, vec)))
            if j in self.bounds and _bound(vec, const, rel, j).meet(self.bounds[j]).is_empty:
                return None
        return row

    def _normalize(self, rows) -> RowSet:
        """The set of the rows normalized so far and ``rows``, processed
        in order as :meth:`conjoin` describes."""
        names, out, bounds = self.names, self.out, self.bounds
        bits = [1 << j for j in range(len(names))]
        for vec, const, rel in rows:
            mask = sum(compress(bits, vec))
            if not mask:
                if not rel.holds(const):
                    return _refuted(names)
                continue
            if not mask & (mask - 1):
                j = mask.bit_length() - 1
                if _meet(bounds, j, _bound(vec, const, rel, j)):
                    return _refuted(names)
                continue
            d = gcd(*vec, const)
            if d > 1:
                vec = [x // d for x in vec]
                const //= d
            if rel is Rel.EQ:
                sides = ((vec, const, False), ([-x for x in vec], -const, False))
            else:
                sides = ((vec, const, rel is Rel.LT),)
            for vec, const, strict in sides:
                key = (tuple(vec), const, strict)
                if key not in out:
                    out[key] = (*key, 1 << len(out), mask)
        return RowSet(names, tuple(out.values()), 0, False, bounds)


def _ratio(num: int, den: int) -> int | Fraction:
    """``num / den``, an ``int`` when it is integral, else a
    ``Fraction``."""
    end, r = divmod(num, den)
    return Fraction(num, den) if r else end


def _map(interval: Interval, a: int, c: int, s: int) -> Interval:
    """The image of ``interval`` under ``x -> (a·x + c) / s``, ``s > 0``:
    each end mapped with its strictness kept and held as by
    :func:`_ratio`, and the ends swapped when ``a < 0``."""
    sides = []
    for side in interval:
        if side.value is not None:
            p, q = side.value.numerator, side.value.denominator
            side = Bound(_ratio(a * p + c * q, s * q), side.strict)
        sides.append(side)
    lo, hi = sides
    return Interval(hi, lo) if a < 0 else Interval(lo, hi)


def _rows(vec: list[int], const: int, scale: int, interval: Interval) -> list[Lowered]:
    """The rows over ``y`` that put ``x`` in ``interval``, where ``scale·x
    = vec·y + const`` and ``scale > 0``: for an end ``p/q``, ``scale·p -
    q·(vec·y + const)`` below and its negation above, ``<= 0`` or ``< 0``
    as the end is closed or open; a point is the one row above ``= 0``."""
    lo, hi = interval
    point = lo.value is not None and lo == hi
    rows = []
    for side, sign in ((hi, 1),) if point else ((lo, -1), (hi, 1)):
        if side.value is not None:
            p, q = side.value.numerator, side.value.denominator
            rel = Rel.EQ if point else Rel.LT if side.strict else Rel.LE
            rows.append(([sign * q * x for x in vec], sign * (q * const - scale * p), rel))
    return rows


def _bound(vec: list[int] | tuple[int, ...], const: int, rel: Rel, j: int) -> Interval:
    """The interval that the one-variable row ``vec·x + const rel 0``, a
    row on position ``j``, allows ``x_j``: a point for an equality and a
    half-line otherwise."""
    a = vec[j]
    side = Bound(_ratio(-const, a), rel is Rel.LT)
    if rel is Rel.EQ:
        return Interval(side, side)
    return Interval(UNBOUNDED, side) if a > 0 else Interval(side, UNBOUNDED)


def _meet(bounds: dict[int, Interval], j: int, interval: Interval) -> bool:
    """Meet ``interval`` into ``bounds[j]``: ``True`` when the meet is
    empty."""
    if j in bounds:
        interval = interval.meet(bounds[j])
    bounds[j] = interval
    return interval.is_empty


def _side(n: int, j: int, side: Bound, upper: bool) -> Row:
    """The row of one side of position ``j``'s interval: ``x_j - value``
    if ``upper``, else ``value - x_j``.  Its history is ``-1``: no pair's
    history test prunes it, every row combined from it inherits it, and
    it counts as one member when duplicates merge."""
    vec = [0] * n
    value = side.value
    sign = 1 if upper else -1
    vec[j] = sign * value.denominator
    return (tuple(vec), -sign * value.numerator, side.strict, -1, 1 << j)


def fm_eliminate(rows: RowSet, var: str) -> RowSet:
    """Eliminate ``var`` from ``rows``, preserving the projection.

    Every pair of a lower and an upper row on ``var`` is combined, unless
    history pruning shows the combination redundant.  The interval of
    ``var`` in ``bounds`` enters as at most one lower and one upper row,
    each combined only with the rows of the other sign; a bound has no
    history, and neither the rows it makes nor any row later combined
    from them is ever pruned.  The result carries the ``bounds`` of
    ``rows`` without ``var`` and meets each new one-variable row into
    them instead of keeping it.  A ground contradiction or an empty meet
    ends the run: the result is then refuted (see :class:`RowSet`).
    Rows already marked ``unsat`` come back unchanged.  Raises
    :class:`ResourceLimitError` when the result would hold more than
    ``DEFAULT_FM_CAP`` rows.
    """
    if rows.unsat:
        return rows
    names = rows.names
    j = names.index(var)
    eliminated = rows.eliminated | (1 << j)
    out: dict[tuple, Row] = {}
    bounds = dict(rows.bounds)
    lo, hi = bounds.pop(j, Interval.top())
    # A one-variable row has a zero at every other position.
    zeros = len(names) - 1
    lowers: list[Row] = []
    # Each upper row carries the eliminated part of its variable mask,
    # which the pruning test of every pair reads.
    uppers: list[tuple] = []
    for row in rows.cons:
        a = row[0][j]
        if a == 0:
            out[row[:3]] = row
        elif a > 0:
            uppers.append((*row, row[4] & eliminated))
        else:
            lowers.append(row)
    # Each lower row is paired with every upper row.  A side of the
    # interval pairs only with the rows of the other sign, not with the
    # other side, with which it cannot conflict.
    partners = uppers
    if lowers and hi.value is not None:
        partners = [*uppers, (*_side(len(names), j, hi, True), 1 << j)]
    pairs = [(row, partners) for row in lowers]
    if uppers and lo.value is not None:
        pairs.append((_side(len(names), j, lo, False), uppers))

    for (lvec, lconst, lstrict, lhist, lmask), partners in pairs:
        al = -lvec[j]
        lgone = lmask & eliminated
        for uvec, uconst, ustrict, uhist, umask, ugone in partners:
            hist = lhist | uhist
            size = hist.bit_count()
            if size > 1 + (lgone | ugone).bit_count():
                continue
            mask = lmask | umask
            au = uvec[j]
            g = gcd(al, au)
            ml, mu = au // g, al // g
            vec = tuple([ml * x + mu * y for x, y in zip(lvec, uvec)])
            const = ml * lconst + mu * uconst
            strict = lstrict or ustrict
            rel = Rel.LT if strict else Rel.LE
            zero = vec.count(0)
            if zero > zeros:
                if not rel.holds(const):
                    return _refuted(names, eliminated)
                continue
            if zero == zeros:
                k = vec.index(next(filter(None, vec)))
                if _meet(bounds, k, _bound(vec, const, rel, k)):
                    return _refuted(names, eliminated)
                continue
            d = gcd(*vec, const)
            if d > 1:
                vec = tuple([x // d for x in vec])
                const //= d
            key = (vec, const, strict)
            old = out.get(key)
            if old is not None:
                if size < old[3].bit_count():
                    out[key] = (vec, const, strict, hist, mask)
                continue
            out[key] = (vec, const, strict, hist, mask)
        if len(out) > DEFAULT_FM_CAP:
            raise ResourceLimitError(
                f"Fourier-Motzkin elimination exceeded {DEFAULT_FM_CAP} rows"
            )
    return RowSet(names, tuple(out.values()), eliminated, False, bounds)


def _eliminate(rows: RowSet, mask: int) -> RowSet:
    """Eliminate the variables at the positions in ``mask``, cheapest
    first, until none is left or the rows turn out unsatisfiable."""
    positions = [j for j in range(len(rows.names)) if mask >> j & 1]
    while positions and rows.cons and not rows.unsat:
        # Count each position's lower and upper rows in its column of
        # coefficients; ``(0).__gt__`` tests ``a < 0``.  A variable no row
        # mentions stays absent: combining never brings it back, and an
        # interval in ``bounds`` alone, never empty, constrains nothing
        # else.
        columns = list(zip(*[row[0] for row in rows.cons]))
        mentioned: list[int] = []
        best = least = -1
        for j in positions:
            column = columns[j]
            lowers = sum(map((0).__gt__, column))
            uppers = len(column) - column.count(0) - lowers
            if lowers or uppers:
                mentioned.append(j)
                cost = lowers * uppers - lowers - uppers
                if best < 0 or cost < least:
                    best, least = j, cost
        if best < 0:
            break
        rows = fm_eliminate(rows, rows.names[best])
        mentioned.remove(best)
        positions = mentioned
    return rows


def cube_is_sat(cube: ConjCube) -> bool:
    """Exact satisfiability of a cube over the rationals; the formula
    route the tests compare :func:`sat_cube` against."""
    rows = RowSet.of(cube)
    return not _eliminate(rows, (1 << len(rows.names)) - 1).unsat


class Bound(NamedTuple):
    """One side of an interval; ``value None`` means unbounded.

    An integral value is held as an ``int`` and any other as a
    ``Fraction`` with a denominator above 1.  The two compare and hash
    equal, so a bound made from ``Fraction(4)`` equals one made from
    ``4``; the ``int`` only spares the ``Fraction`` methods on every
    compare and hash.
    """

    value: int | Fraction | None
    strict: bool


UNBOUNDED = Bound(None, True)


def _lower_covers(a: Bound, b: Bound) -> bool:
    """Does lower bound ``a`` admit everything lower bound ``b`` admits?"""
    if a.value is None:
        return True
    if b.value is None:
        return False
    if a.value != b.value:
        return a.value < b.value
    return b.strict or not a.strict


def _upper_covers(a: Bound, b: Bound) -> bool:
    if a.value is None:
        return True
    if b.value is None:
        return False
    if a.value != b.value:
        return a.value > b.value
    return b.strict or not a.strict


class Interval(NamedTuple):
    """A rational interval with open or closed ends.  ``join`` and
    ``widen`` take nonempty operands: a :class:`~chclab.domain.Box`
    never holds an empty interval."""

    lo: Bound
    hi: Bound

    @staticmethod
    def top() -> Interval:
        return Interval(UNBOUNDED, UNBOUNDED)

    @property
    def is_empty(self) -> bool:
        if self.lo.value is None or self.hi.value is None:
            return False
        if self.lo.value > self.hi.value:
            return True
        return self.lo.value == self.hi.value and (self.lo.strict or self.hi.strict)

    def leq(self, other: Interval) -> bool:
        if self.is_empty:
            return True
        return _lower_covers(other.lo, self.lo) and _upper_covers(other.hi, self.hi)

    def join(self, other: Interval) -> Interval:
        lo = self.lo if _lower_covers(self.lo, other.lo) else other.lo
        hi = self.hi if _upper_covers(self.hi, other.hi) else other.hi
        return Interval(lo, hi)

    def meet(self, other: Interval) -> Interval:
        lo = other.lo if _lower_covers(self.lo, other.lo) else self.lo
        hi = other.hi if _upper_covers(self.hi, other.hi) else self.hi
        return Interval(lo, hi)

    def widen(self, other: Interval) -> Interval:
        """Standard interval widening: unstable bounds go unbounded."""
        lo = self.lo if _lower_covers(self.lo, other.lo) else UNBOUNDED
        hi = self.hi if _upper_covers(self.hi, other.hi) else UNBOUNDED
        return Interval(lo, hi)

    def __str__(self) -> str:
        if self.is_empty:
            return "(empty)"
        left = "(-oo" if self.lo.value is None else ("(" if self.lo.strict else "[") + str(self.lo.value)
        right = "+oo)" if self.hi.value is None else str(self.hi.value) + (")" if self.hi.strict else "]")
        return f"{left}, {right}"


def project_to_box(cube: ConjCube, variables) -> list[Interval] | None:
    """Tightest per-variable intervals of a cube.

    Returns ``None`` when the cube is unsatisfiable; otherwise one
    interval per requested variable.  Variables not mentioned by the
    cube come back unbounded.  The formula route (see the module
    docstring).
    """
    return project_rows(RowSet.of(cube, frozenset(variables)), variables)


def project_rows(rows: RowSet, variables) -> list[Interval] | None:
    """:func:`project_to_box` of the conjunction ``rows`` stands for.

    The variables not asked for are eliminated once.  A requested
    variable that no row left mentions keeps its interval in ``bounds``.
    For each that rows mention, the others they mention are eliminated
    and its interval is read off ``bounds``.  Rows are not split into
    variable-disjoint groups, so ``DEFAULT_FM_CAP`` counts all of them.
    A set with no rows reads every interval off ``bounds``, with no
    elimination.
    """
    names = rows.names
    if rows.cons:
        keep = sum(1 << j for j, v in enumerate(names) if v in variables)
        rows = _eliminate(rows, ((1 << len(names)) - 1) & ~keep)
        if rows.unsat:
            return None
    columns = zip(*[row[0] for row in rows.cons])
    mentioned = [j for j, column in enumerate(columns) if any(column)]
    mask = sum(1 << j for j in mentioned)
    out = {names[j]: interval for j, interval in rows.bounds.items()}
    for j in mentioned:
        single = _eliminate(rows, mask & ~(1 << j))
        if single.unsat:
            return None
        out[names[j]] = single.bounds.get(j, Interval.top())
    return [out.get(v, Interval.top()) for v in variables]

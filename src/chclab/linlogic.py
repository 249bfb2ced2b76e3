"""Exact reasoning about negation-free linear rational formulas.

Satisfiability of a formula is decided by :func:`sat_cube`, a depth-first
search over the disjunct choices of its And/Or tree that never builds the
disjunctive normal form: it gathers the atoms of the current conjunction,
drops the branch as soon as they are unsatisfiable, and branches on the
pending disjunction with the fewest children first.  A child whose new
atoms conflict with its parent's bounds or with each other is dropped
before it is built and is not a branch, and one whose atoms add no row
is as satisfiable as its parent.  The
formula may come with instances, formulas under a renaming of their
variables, whose atoms are lowered through the renaming instead of
renamed.  The search is incremental in the way of the theory solvers of
DPLL(T) (Dutertre and de Moura 2006), which assert a bound on top of the
state a branch already holds:

* **Atom table.**  Only the root of a search solves pivots, so every
  branch has the root's.  Each atom is lowered once per search and per
  renaming of its part, and rewritten through the root's pivots once,
  as it is built (:class:`_Atom`); its one-variable interval is
  computed the first time a child meets it.  A branch below the root
  is a derived set (see "Integer rows"): it adds the rewritten rows as
  they are.
* **Resumed elimination.**  A branch keeps the set its elimination
  ended with.  A child that adds no row over two or more variables,
  and only tightens ``bounds``, meets the tightened intervals
  into that set's ``bounds`` when no step eliminated a tightened
  position, and runs a fresh elimination otherwise (:func:`_resume`).
  The rows a step makes depend on the interval of no position but the
  one it eliminates, and meets commute, so the meet ends where a fresh
  run would.
* **No rows, no elimination.**  A branch with no row over two or more
  variables runs no elimination: its ``bounds`` are not empty, so it is
  satisfiable.

A search that visits more than ``DEFAULT_CUBE_CAP`` branches raises
:class:`ResourceLimitError`.  Only projections, which need every cube,
convert a formula to disjunctive normal form (:func:`to_dnf`, under the
same cap); a formula without a disjunction is one cube and needs no
conversion.

Constraints are lowered to integer rows once (:func:`lower`), and one
Fourier-Motzkin engine works on those rows:

* **Equalities first.**  A :class:`Conjunction` solves its pivots
  once, when it is built: :func:`extend` solves each equality for one
  of its free variables and substitutes it into the other rows.  A
  projection pivots on variables it was not asked for.  A transformer
  template, as it is built from its cube, also ties each equality left
  between exactly two of its targets: it pivots on one, and
  :meth:`Conjunction.project` reads that target's interval off the
  other's through the equality.  Any other equality becomes two
  inequalities.
* **Integer rows.**  :class:`Conjunction` turns every remaining
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
  conjunction.  A set derived from it, a search child or a transformer
  template with the intervals of its input boxes
  (:meth:`Conjunction.project_bounds`, through the image of each
  interval's variable under the pivots), shares its pivots and follows
  one rule.  A constraint over fewer than two variables is decided by
  an interval meet: a one-variable one is met into a copy of the
  parent's ``bounds``, a ground one is checked as it is, and an
  interval whose image has no variable is checked against the value
  the pivots fix.  Only the rows over two or more variables, an
  interval's one per bounded side (:func:`_rows`), are normalized
  (:meth:`Conjunction._child`), and a conflict builds no set.  Nor
  does a transformer call that leaves no such row, neither in its
  template nor from its intervals: it decides with bounds before any
  row work, as a theory solver does (Dutertre and de Moura 2006), and
  reads each target's interval off the met ``bounds``, with no
  projection.
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
* **Short pairs first.**  A short pair of a step is two rows over the
  eliminated variable and one same other variable, or one such row and
  a side of the eliminated variable's interval.  It makes a bound or a
  ground row and no row to keep, so a step whose rows over the variable
  include both short rows and wider ones combines its short pairs first
  and is refuted as soon as one of them empties a meet or fails, before
  any wider pair runs, as a theory solver checks its bounds before any
  tableau work (Dutertre and de Moura 2006).  Then it combines the other
  pairs in row order, each short pair left out.  Which pairs the pruning
  drops does not depend on their order, meets commute, and the step is
  refuted exactly when a meet is empty or a ground row fails, so the
  rows kept, their order, histories and masks, the bounds and the
  refutation are those of combining every pair in row order.  A step
  whose rows over the variable are all short, or none is, combines its
  pairs in row order.
* **Budget.**  An elimination step that holds more than
  ``DEFAULT_FM_CAP`` rows raises :class:`ResourceLimitError`; a step
  whose short pairs conflict is refuted before it counts its rows.

The solve path projects the rows of clause constraints and goal guards
that :class:`chclab.domain.CompiledClause` lowered and extended, when a
call leaves rows over two or more variables, onto one :class:`Interval`
per requested variable with :func:`project_rows` (through
:meth:`Conjunction.project`, which adds the tied targets): that
eliminates the variables it was not asked for once.  A requested
variable's interval is then its ``bounds`` entry once the other
requested variables that rows mention are eliminated; a variable that
no row mentions needs no elimination.  Each template that holds rows
over two or more variables is decided once as it is built
(:meth:`Conjunction.satisfiable`, one cheapest-first elimination over
every position), and one that this refutes is dropped, so a cube with
no solution is never projected; a decision past ``DEFAULT_FM_CAP``
keeps its template.
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

    ``true`` yields one empty cube, ``false`` yields no cube.  A formula
    that holds no disjunction is the one cube of its atoms
    (:func:`_gather`); any other goes through the fold, which raises
    :class:`ResourceLimitError` when an intermediate cube count exceeds
    ``DEFAULT_CUBE_CAP``.  An explicit stack keeps deep formulas off the
    call stack.
    """
    atoms: list[LinConstraint] = []
    pending: list[Or] = []
    if _gather(formula, atoms, pending) and not pending:
        return [ConjCube.make(atoms)]
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
    a ``false`` conjunct.  An explicit stack keeps deep formulas off the
    call stack."""
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, Lin):
            atoms.append(f.con)
        elif isinstance(f, And):
            stack.extend(reversed(f.items))
        elif isinstance(f, Or):
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
    the atoms its choices imply: a child adds only its new atoms to its
    parent's.  A branch is dropped as soon as its atoms are
    unsatisfiable; it then branches on the pending disjunction with the
    fewest children, trying them in formula order.

    Only the root solves pivots: it is pushed with no conjunction, and
    when it is popped it builds the :class:`Conjunction` of its atoms'
    rows.  Every other branch derives its set from its parent's by the
    rule of the module docstring, so an equality a child brings becomes
    two inequalities.  The search keeps one table of atoms
    (:class:`_Atom`), keyed by the atom and the renaming of its part,
    and every branch that adds an atom shares its row.  Before a child
    is pushed, its new rows are read off the table and the interval of
    each one-variable row is met into a copy of its parent's
    ``bounds``: a child whose new atoms conflict with those bounds or
    with each other is dropped before it is built and is not a branch,
    and one that adds no row is as satisfiable as its parent and needs
    no check.

    A branch with no row over two or more variables runs no
    elimination: its ``bounds`` are not empty, so it is satisfiable.  A
    branch that adds no such row, and only tightens
    ``bounds`` at positions its parent's elimination left, meets them
    into the set that elimination ended with (:func:`_resume`).  Any
    other branch runs :func:`_eliminate` and keeps the set it ends with
    for its children.  The first branch left with no pending
    disjunction is the answer.
    Raises :class:`ResourceLimitError` after ``DEFAULT_CUBE_CAP``
    branches.
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
    # The atom table, by the columns of a part, which are its renaming,
    # and then by atom: one atom under two renamings is two rows.  Atoms
    # with one lowered row share its number.
    table: dict[int, dict[int, _Atom]] = {}
    numbers: dict[tuple, int] = {}

    def grow(choices, keys: frozenset, pivots: tuple[Pivot, ...], bounds: dict[int, Interval] | None):
        """The atoms, the pending disjunctions and the table entries of
        the fresh rows that ``choices`` add to a branch with ``pivots``
        and ``bounds``, an atom built here rewritten through ``pivots``,
        and the bounds of the child: each fresh one-variable row's
        interval met into a copy of ``bounds``, made at the first meet
        (the root passes ``None`` and meets nothing).  ``None`` at the
        first empty meet or ground row that fails."""
        atoms: list[tuple[LinConstraint, Mapping | None]] = []
        pending: list[tuple[Or, Mapping | None, Mapping]] = []
        fresh: dict[int, _Atom] = {}
        met = bounds
        for f, mapping, columns in choices:
            new_atoms: list[LinConstraint] = []
            new_pending: list[Or] = []
            if not _gather(f, new_atoms, new_pending):
                return None
            renamed = table.get(id(columns))
            if renamed is None:
                renamed = table[id(columns)] = {}
            for c in new_atoms:
                atom = renamed.get(id(c))
                if atom is None:
                    row = lower(c, columns, n)
                    key = numbers.setdefault((*row[0], row[1], row[2]), len(numbers))
                    atom = renamed[id(c)] = _Atom(row, key, pivots)
                if atom.key in keys or atom.key in fresh:
                    continue
                if atom.fails:
                    return None
                if atom.position >= 0 and bounds is not None:
                    if met is bounds:
                        met = bounds.copy()
                    if _meet(met, atom.position, atom.bound()):
                        return None
                fresh[atom.key] = atom
            atoms += [(c, mapping) for c in new_atoms]
            # A disjunction with a ``true`` child holds already.
            pending += [
                (g, mapping, columns)
                for g in new_pending
                if not any(isinstance(h, TrueF) for h in g.items)
            ]
        return tuple(atoms), pending, fresh, met

    # A branch: the atoms chosen so far with the mapping of each, the
    # numbers of their distinct rows, the conjunction of those rows
    # (``None`` for the root until it is popped), the set its elimination
    # ended with (``None`` when it has no row to eliminate), the
    # disjunctions still to decide, and what its last choice adds.  Two
    # atoms with one row are the same constraint.
    root = grow(parts, frozenset(), (), None)
    if root is None:
        return None
    stack: list[tuple] = [((), frozenset(), None, None, (), root)]
    visited = 0
    while stack:
        visited += 1
        if visited > cap:
            raise ResourceLimitError(f"satisfiability search exceeded {cap} branches")
        atoms, keys, branch, end, pending, (new_atoms, new_pending, fresh, met) = stack.pop()
        atoms += new_atoms
        pending = [*pending, *new_pending]
        if branch is None or fresh:
            keys = keys.union(fresh)
            if branch is None:
                # The root, the one branch that solves pivots: its atoms
                # were built before it had any.
                child = Conjunction(names, [atom.row for atom in fresh.values()], everything)
                if child.rowset.unsat:
                    continue
            else:
                # ``grow`` met the one-variable rows and checked the ground
                # ones: add the rows over two or more variables as they are.
                wide = [atom.row for atom in fresh.values() if atom.position < 0 and any(atom.row[0])]
                child = branch._child(met, wide)
            rows = child.rowset
            if not rows.cons:
                end = None
            elif end is not None and len(child.out) == len(branch.out):
                tightened = {atom.position for atom in fresh.values() if atom.position >= 0}
                end = _resume(end, rows.bounds, tightened) or _eliminate(rows, everything)
            else:
                end = _eliminate(rows, everything)
            if end is not None and end.unsat:
                continue
            branch = child
        if not pending:
            return ConjCube.make(c if m is None else c.rename(m) for c, m in atoms)
        fewest = min(range(len(pending)), key=lambda k: len(pending[k][0].items))
        split, mapping, columns = pending.pop(fewest)
        pending = tuple(pending)
        for c in reversed(split.items):
            child = grow(((c, mapping, columns),), keys, branch.pivots, branch.bounds)
            if child is not None:
                stack.append((atoms, keys, branch, end, pending, child))
    return None


class _Atom:
    """An atom of one :func:`sat_cube` search under the renaming of its
    part, built once: ``key``, the number the search gives its lowered
    row and deduplicates by; ``row``, the lowered row rewritten through
    ``pivots``, the pivots of the search's root (an atom of the root is
    built before the root solves them, so its ``row`` is the lowered
    row); and what the derived-set rule of the module docstring reads
    off it: ``position``, that of its one variable (``-1`` when it has
    none or several), ``fails`` for a ground row that fails, and
    ``interval``, the one-variable row's interval, computed once."""

    __slots__ = ("key", "row", "position", "fails", "interval")

    def __init__(self, lowered: Lowered, key: int, pivots: tuple[Pivot, ...]):
        row = _substitute(lowered, pivots) if pivots else lowered
        vec, const, rel = row
        zeros = vec.count(0)
        self.key, self.row, self.interval = key, row, None
        self.position = vec.index(next(filter(None, vec))) if zeros == len(vec) - 1 else -1
        self.fails = zeros == len(vec) and not rel.holds(const)

    def bound(self) -> Interval:
        """The interval of the one-variable row, computed once."""
        if self.interval is None:
            vec, const, rel = self.row
            self.interval = _bound(vec, const, rel, self.position)
        return self.interval


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


def extend(new, free: int, tie: int = 0) -> tuple[tuple[Lowered, ...], tuple[Pivot, ...]]:
    """While one of the lowered constraints ``new`` is an equality with a
    coefficient at a position in the mask ``free``, solve it for the
    first such position and substitute it into the others.  After that,
    while one is an equality over exactly two positions, both in the mask
    ``tie``, solve it for the first of them in the same way.  Returns the
    rows left and the pivots, in the order solved.  ``new`` is not
    modified.
    """
    new = list(new)
    pivots: tuple[Pivot, ...] = ()
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
        return Conjunction(names, [lower(c, index) for c in cube.cons], free).rowset


def _refuted(names: tuple[str, ...], eliminated: int = 0) -> RowSet:
    """The refuted set over ``names``: the one row ``1 <= 0``."""
    return RowSet(names, (((0,) * len(names), 1, False, 0, 0),), eliminated, True)


class Conjunction:
    """The conjunction of the lowered constraints ``lowered`` over
    ``names``, built once.

    :func:`extend` solves its ``pivots``, each for a position in the mask
    ``free``, and then ties each equality left between two positions of
    the mask ``tie``, which lies outside ``free``.  ``rowset`` holds the
    inequalities of the rows left over two or more variables: each
    divided by the gcd of its integers, an equality split into two
    inequalities, and exact duplicates merged.  A one-variable row is
    met into the ``bounds`` of its variable as its interval
    (:func:`_bound`) instead of kept as a row, and a ground row that
    holds is dropped.  A ground row that fails
    (:meth:`~chclab.syntax.Rel.holds`) refutes the set, and so does an
    empty meet.

    ``out`` (the distinct rows over two or more variables, by key) and
    ``bounds`` (the set's intervals) are the state of that build between
    rows.  Every set derived from it (:meth:`_child`, by the rule of the
    module docstring) shares its pivots and adds only its own rows to a
    copy of the two dicts.  ``images`` holds the images of the pivots
    and the ties among them (:meth:`_images`) once a call has needed
    them; every derived set shares them.
    """

    __slots__ = ("names", "free", "pivots", "out", "bounds", "rowset", "images")

    def __init__(self, names: tuple[str, ...], lowered, free: int, tie: int = 0):
        self.names = names
        self.free = free
        rows, self.pivots = extend(lowered, free, tie)
        self.out: dict[tuple, Row] = {}
        self.bounds: dict[int, Interval] = {}
        self.images = None
        self.rowset = self._normalize(rows) if rows else RowSet(names, (), 0, False, self.bounds)

    def project_bounds(self, intervals, variables) -> list[Interval] | None:
        """The projection onto ``variables`` of the set derived from this
        conjunction and the pairs ``(j, interval)`` in the list
        ``intervals``, each ``x_j`` in ``interval``; ``None`` at the first
        conflict.  ``variables`` must name every position of the ``tie``
        mask.

        The intervals are met as the module docstring's derived-set rule
        says (:meth:`_met`).  When neither the conjunction nor the
        intervals leave a row over two or more variables, each variable
        that no pivot defines takes its met interval and a tied one its
        partner's through its image (:meth:`_read`), with no derived set
        and no elimination.  Otherwise the derived set is built
        (:meth:`_child`) and projected (:meth:`project`).  Its caller
        passes only a conjunction whose own rows are not refuted.
        """
        images, ties = self._images()
        met = self._met(intervals, images)
        if met is None:
            return None
        bounds, rows = met
        if rows or self.rowset.cons:
            return self._child(bounds, rows).project(variables, ties)
        names = self.names
        return self._read({names[j]: interval for j, interval in bounds.items()}, variables, ties)

    def _met(self, intervals, images) -> tuple[dict[int, Interval], list[Lowered]] | None:
        """A copy of ``bounds`` with each ``(j, interval)`` of
        ``intervals`` met in, and the rows of the intervals that no meet
        decides; ``None`` at the first empty meet.

        ``x_j`` is read through its image under the pivots in ``images``
        (:meth:`_images`): an interval on an image with one variable is
        mapped onto it (:func:`_map`), or met as it is when no pivot
        rewrites ``x_j`` or its image is ``x_k`` itself.  An interval on
        an image with no variable is checked against the value the pivots
        fix, and one on an image with several becomes rows (:func:`_rows`).
        """
        met = self.bounds.copy()
        rows = []
        for j, interval in intervals:
            image = images.get(j)
            if image is None:
                k = j
            else:
                mask, vec, const, scale = image
                if not mask:
                    # The pivots fix x_j at const / scale.
                    value = Bound(_ratio(const, scale), False)
                    if interval.meet(Interval(value, value)).is_empty:
                        return None
                    continue
                if mask & (mask - 1):
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
                return None
        return met, rows

    def _child(self, bounds: dict[int, Interval], rows) -> Conjunction:
        """This conjunction with ``bounds`` and the normalized ``rows``,
        each over two or more variables, added to a copy of ``out``; it
        shares the pivots and their images."""
        # Set every slot here: __init__ would build the conjunction anew.
        child = object.__new__(Conjunction)
        child.names, child.free, child.pivots = self.names, self.free, self.pivots
        child.bounds, child.images = bounds, self.images
        # No row to add: share ``out``, as only a copy made here is written to.
        if rows:
            child.out = self.out.copy()
            child.rowset = child._normalize(rows)
        else:
            child.out, child.rowset = self.out, RowSet(self.names, self.rowset.cons, 0, False, bounds)
        return child

    def project(self, variables, ties) -> list[Interval] | None:
        """:func:`project_rows` of ``rowset`` onto ``variables``, which
        must name every position of the ``tie`` mask, with each tied
        variable of ``ties``, the ties of :meth:`_images`, read off its
        partner's interval (:meth:`_read`)."""
        intervals = project_rows(self.rowset, variables)
        if not ties or intervals is None:
            return intervals
        return self._read(dict(zip(variables, intervals)), variables, ties)

    @staticmethod
    def _read(at: dict[str, Interval], variables, ties) -> list[Interval]:
        """The interval of each of ``variables`` in ``at``, top when it has
        none, where a tied ``x_j`` of ``ties``, which no row mentions, gets
        the interval of its partner ``x_k`` mapped through its image
        (:func:`_map`), or as it is when the image is ``x_k`` itself."""
        top = Interval.top()
        for tied, partner, a, c, s in ties:
            interval = at.get(partner, top)
            at[tied] = interval if a == s and not c else _map(interval, a, c, s)
        return [at.get(v, top) for v in variables]

    def satisfiable(self) -> bool:
        """Whether the conjunction has a solution: ``rowset`` is not
        refuted and, when it holds rows over two or more variables, one
        cheapest-first elimination of every position (:func:`_eliminate`)
        does not refute it.  Each pivot defines a variable no row
        mentions, so it holds on every solution of the rows.  Raises
        :class:`ResourceLimitError` when a step exceeds
        ``DEFAULT_FM_CAP`` rows."""
        rows = self.rowset
        if rows.cons and not rows.unsat:
            rows = _eliminate(rows, (1 << len(self.names)) - 1)
        return not rows.unsat

    def _images(self) -> tuple[dict[int, tuple[int, list[int], int, int]], tuple]:
        """For each pivot position ``j``, ``x_j`` rewritten through the
        pivots: ``(mask, vec, const, scale)``, with ``scale * x_j = vec·x
        + const`` on the solutions of the pivots and ``mask`` the
        positions ``vec`` mentions; the pivots leave any other ``x_j`` as
        it is.  Then the ties, the pivots solved for positions outside
        ``free``: ``(names[j], names[k], a, c, s)`` with ``x_j = (a·x_k +
        c) / s``.  Computed once and kept in ``images``."""
        if self.images is None:
            names, free = self.names, self.free
            n = len(names)
            bits = [1 << j for j in range(n)]
            images, ties = {}, []
            for j, _, _ in self.pivots:
                vec, const, scale = _rewrite([int(i == j) for i in range(n)], 0, self.pivots)
                mask = sum(compress(bits, vec))
                images[j] = (mask, vec, const, scale)
                if not free >> j & 1:
                    k = mask.bit_length() - 1
                    ties.append((names[j], names[k], vec[k], const, scale))
            self.images = (images, tuple(ties))
        return self.images

    def _normalize(self, rows) -> RowSet:
        """The set of the rows normalized so far and ``rows``, processed
        in order as the class docstring describes."""
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
    Rows already marked ``unsat`` come back unchanged.

    The step counts its rows on ``var`` that mention one other variable,
    by their zeros, as it sorts them by sign.  When some rows do and some
    do not, the short pairs (see the module docstring), which make only
    bounds and ground rows, are combined first (:func:`_short_first`),
    and the others follow in the order above, so no pair is combined
    twice.  The result is the one that order gives alone.
    Raises :class:`ResourceLimitError` when the result would hold more
    than ``DEFAULT_FM_CAP`` rows, checked after each lower row's pairs
    in that order: a step whose conflict lies among its short pairs is
    refuted first.
    """
    if rows.unsat:
        return rows
    names = rows.names
    n = len(names)
    j = names.index(var)
    eliminated = rows.eliminated | (1 << j)
    out: dict[tuple, Row] = {}
    bounds = dict(rows.bounds)
    lo, hi = bounds.pop(j, Interval.top())
    # A one-variable row has a zero at every other position.
    zeros = n - 1
    lowers: list[Row] = []
    # Each upper row carries the eliminated part of its variable mask,
    # which the pruning test of every pair reads.
    uppers: list[tuple] = []
    # How many rows on var mention one other variable: such a row has
    # zeros - 1 zeros.
    short = 0
    for row in rows.cons:
        vec = row[0]
        a = vec[j]
        if a == 0:
            out[row[:3]] = row
            continue
        if a > 0:
            uppers.append((*row, row[4] & eliminated))
        else:
            lowers.append(row)
        short += vec.count(0) == zeros - 1
    # Each lower row is paired with every upper row.  A side of the
    # interval pairs only with the rows of the other sign, not with the
    # other side, with which it cannot conflict.
    hi_side = (*_side(n, j, hi, True), 1 << j) if lowers and hi.value is not None else None
    lo_side = _side(n, j, lo, False) if uppers and lo.value is not None else None
    partners = uppers if hi_side is None else [*uppers, hi_side]
    if 0 < short < len(lowers) + len(uppers):
        pairs, first = _short_first(j, zeros - 1, lowers, uppers, partners, hi_side, lo_side)
    else:
        pairs, first = [(row, partners) for row in lowers], 0
        if lo_side is not None:
            pairs.append((lo_side, uppers))

    for at, ((lvec, lconst, lstrict, lhist, lmask), partners) in enumerate(pairs):
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
        # A short pair adds no row: the cap is checked where the pairs
        # in order are.
        if at >= first and len(out) > DEFAULT_FM_CAP:
            raise ResourceLimitError(
                f"Fourier-Motzkin elimination exceeded {DEFAULT_FM_CAP} rows"
            )
    return RowSet(names, tuple(out.values()), eliminated, False, bounds)


def _short_first(j: int, two: int, lowers, uppers, partners, hi_side, lo_side) -> tuple[list, int]:
    """The pairs of :func:`fm_eliminate` on position ``j`` with its short
    pairs first, and how many entries those take.  A row of ``lowers`` or
    ``uppers`` with ``two`` zeros mentions ``x_j`` and one other
    position.  A short pair is two such rows over the same other
    position, or one such row and a side of ``x_j``'s interval: it makes
    a bound or a ground row, never a row to keep.  The other pairs follow
    in the order the step pairs all of them, each short pair left out."""
    # The other position of each upper row over two positions, -1 for
    # the rest.
    uother = [_other(row[0], j) if row[0].count(0) == two else -1 for row in uppers]
    sides = [] if hi_side is None else [hi_side]
    first, pairs = [], []
    # For each other position k, the partners of a lower row over k in
    # its short pairs, and in the rest.
    split: dict[int, tuple[list, list]] = {}
    for row in lowers:
        if row[0].count(0) != two:
            pairs.append((row, partners))
            continue
        k = _other(row[0], j)
        if k not in split:
            same = [u for u, m in zip(uppers, uother) if m == k]
            split[k] = (same + sides, [u for u, m in zip(uppers, uother) if m != k] if same else uppers)
        same, rest = split[k]
        first.append((row, same))
        pairs.append((row, rest))
    if lo_side is not None:
        first.append((lo_side, [row for row, m in zip(uppers, uother) if m >= 0]))
        pairs.append((lo_side, [row for row, m in zip(uppers, uother) if m < 0]))
    return first + pairs, len(first)


def _other(vec: tuple[int, ...], j: int) -> int:
    """The one position besides ``j`` of a row over two positions."""
    k = vec.index(next(filter(None, vec)))
    return k if k != j else vec.index(next(filter(None, vec[j + 1 :])), j + 1)


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


def _resume(end: RowSet, bounds: Mapping[int, Interval], tightened) -> RowSet | None:
    """The set a fresh elimination ends with on the rows that ended as
    ``end``, with the intervals ``bounds``, which tighten the starting
    ones at the positions ``tightened`` and nowhere else: ``end`` with
    those intervals met in, refuted when a meet is empty.  ``None`` when
    a step eliminated a tightened position.

    The rows a step makes depend on the interval of no position but the
    one it eliminates, so a fresh run makes the same steps, and meets
    commute.
    """
    if any(end.eliminated >> j & 1 for j in tightened):
        return None
    met = dict(end.bounds)
    for j in tightened:
        if _meet(met, j, bounds[j]):
            return _refuted(end.names, end.eliminated)
    return end._replace(bounds=met)


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
    """A rational interval with open or closed ends.  ``leq``, ``join``
    and ``widen`` take nonempty operands: a :class:`~chclab.domain.Box`
    never holds an empty interval.

    An interval is immutable, so it is shared rather than copied:
    :meth:`top` is one interval, and ``join``, ``meet`` and ``widen``
    return an operand when the result equals it and build a new interval
    only when it differs from both."""

    lo: Bound
    hi: Bound

    @staticmethod
    def top() -> Interval:
        return _TOP

    @property
    def is_empty(self) -> bool:
        if self.lo.value is None or self.hi.value is None:
            return False
        if self.lo.value > self.hi.value:
            return True
        return self.lo.value == self.hi.value and (self.lo.strict or self.hi.strict)

    def leq(self, other: Interval) -> bool:
        if self is other:
            return True
        return _lower_covers(other.lo, self.lo) and _upper_covers(other.hi, self.hi)

    def join(self, other: Interval) -> Interval:
        lo = self.lo if _lower_covers(self.lo, other.lo) else other.lo
        hi = self.hi if _upper_covers(self.hi, other.hi) else other.hi
        return _either(self, other, lo, hi)

    def meet(self, other: Interval) -> Interval:
        lo = other.lo if _lower_covers(self.lo, other.lo) else self.lo
        hi = other.hi if _upper_covers(self.hi, other.hi) else self.hi
        return _either(self, other, lo, hi)

    def widen(self, other: Interval) -> Interval:
        """Standard interval widening: unstable bounds go unbounded."""
        lo = self.lo if _lower_covers(self.lo, other.lo) else UNBOUNDED
        hi = self.hi if _upper_covers(self.hi, other.hi) else UNBOUNDED
        return _either(self, other, lo, hi)

    def __str__(self) -> str:
        if self.is_empty:
            return "(empty)"
        left = "(-oo" if self.lo.value is None else ("(" if self.lo.strict else "[") + str(self.lo.value)
        right = "+oo)" if self.hi.value is None else str(self.hi.value) + (")" if self.hi.strict else "]")
        return f"{left}, {right}"


_TOP = Interval(UNBOUNDED, UNBOUNDED)


def _either(a: Interval, b: Interval, lo: Bound, hi: Bound) -> Interval:
    """``a`` or ``b`` when it is the interval from ``lo`` to ``hi``, else
    a new interval."""
    if lo == a.lo and hi == a.hi:
        return a
    if lo == b.lo and hi == b.hi:
        return b
    return Interval(lo, hi)


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

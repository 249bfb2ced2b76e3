"""Exact reasoning about negation-free linear rational formulas.

Satisfiability of a formula is decided by :func:`sat_cube`, a depth-first
search over the disjunct choices of its And/Or tree that never builds the
disjunctive normal form: it gathers the atoms of the current conjunction,
drops the branch as soon as they are unsatisfiable, and branches on the
pending disjunction with the fewest children first.  A search that visits
more than ``DEFAULT_CUBE_CAP`` branches raises :class:`ResourceLimitError`.
Only projections, which need every cube, convert a formula to disjunctive
normal form (:func:`to_dnf`, under the same cap).

Cubes are decided (:func:`cube_is_sat`) and projected onto interval bounds
(:func:`project_to_box`) by one Fourier-Motzkin engine:

* **Equalities first.**  Each equality is solved for one of its variables
  and substituted away.  A projection pivots only on variables it was not
  asked for; an equality over requested variables alone becomes two
  inequalities.
* **Integer rows.**  Every remaining inequality becomes a row of a
  :class:`RowSet`: integer coefficients and constant without a common
  divisor, a strict flag, a history (the bitmask of the original
  inequalities the row combines) and the mask of the variables those
  originals mention.  Combining a strict with a non-strict row yields a
  strict one.
* **Elimination order.**  The next variable eliminated is the one with
  the smallest |L|·|U| − |L| − |U|, where L and U are the rows that bound
  it from below and from above.
* **History pruning.**  A combined row is dropped when its history has
  more than 1 + k members, k being the number of eliminated variables its
  originals mention (Chernikov's rule with Kohler's count, after Imbert
  1993): such a row is implied by rows with smaller histories.  Only
  exact duplicates merge, and the copy with the smaller history stays.
  Keeping just the tightest of the rows that share a coefficient vector
  would drop rows whose histories the pruning of later steps relies on,
  and it gives wrong answers.
* **Budget.**  An elimination step that holds more than
  ``DEFAULT_FM_CAP`` rows raises :class:`ResourceLimitError`.

:func:`project_to_box` eliminates the variables it was not asked for once,
then reads each requested variable's bounds off its single-variable
projection, which also decides satisfiability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .syntax import (
    And,
    FalseF,
    Formula,
    Lin,
    LinConstraint,
    Or,
    Rel,
    TrueF,
)

DEFAULT_CUBE_CAP = 4096
DEFAULT_FM_CAP = 4096


class ResourceLimitError(Exception):
    """An enumeration or conversion exceeded its configured cap."""


@dataclass(frozen=True)
class ConjCube:
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
    ``DEFAULT_CUBE_CAP``.
    """
    cap = DEFAULT_CUBE_CAP

    def go(f: Formula) -> list[tuple[LinConstraint, ...]]:
        if isinstance(f, TrueF):
            return [()]
        if isinstance(f, FalseF):
            return []
        if isinstance(f, Lin):
            return [(f.con,)]
        if isinstance(f, And):
            acc: list[tuple[LinConstraint, ...]] = [()]
            for child in f.items:
                branches = go(child)
                nxt = [a + b for a in acc for b in branches]
                if len(nxt) > cap:
                    raise ResourceLimitError(
                        f"DNF conversion exceeded {cap} cubes"
                    )
                acc = nxt
            return acc
        if isinstance(f, Or):
            acc = []
            for child in f.items:
                acc.extend(go(child))
                if len(acc) > cap:
                    raise ResourceLimitError(
                        f"DNF conversion exceeded {cap} cubes"
                    )
            return acc
        raise TypeError(f"not a formula: {f!r}")

    return [ConjCube.make(cs) for cs in go(formula)]


def _gather(f: Formula, atoms: list[LinConstraint], pending: list[Or]) -> bool:
    """Add the atoms of the conjunction ``f`` to ``atoms`` and its
    disjunctions to ``pending``; ``False`` when ``f`` holds a ``false``
    conjunct.  A disjunction with a ``true`` child holds already."""
    if isinstance(f, Lin):
        atoms.append(f.con)
    elif isinstance(f, And):
        return all(_gather(g, atoms, pending) for g in f.items)
    elif isinstance(f, Or):
        if not any(isinstance(g, TrueF) for g in f.items):
            pending.append(f)
    elif isinstance(f, FalseF):
        return False
    elif not isinstance(f, TrueF):
        raise TypeError(f"not a formula: {f!r}")
    return True


def sat_cube(formula: Formula) -> ConjCube | None:
    """A satisfiable cube of the formula's DNF, or ``None`` if it has none.

    Depth-first search over the disjunct choices.  Each branch gathers
    every atom its choices imply and is dropped as soon as those atoms
    are unsatisfiable; it then branches on the pending disjunction with
    the fewest children, trying them in formula order.  The first branch
    left with no pending disjunction is the answer.  Raises
    :class:`ResourceLimitError` after ``DEFAULT_CUBE_CAP`` branches.
    """
    cap = DEFAULT_CUBE_CAP
    # A branch: the atoms chosen so far (satisfiable together), the
    # disjunctions still to decide, and the child just chosen.
    stack: list[tuple[frozenset[LinConstraint], tuple[Or, ...], Formula]] = [
        (frozenset(), (), formula)
    ]
    visited = 0
    while stack:
        visited += 1
        if visited > cap:
            raise ResourceLimitError(f"satisfiability search exceeded {cap} branches")
        atoms, pending, choice = stack.pop()
        new_atoms: list[LinConstraint] = []
        pending = list(pending)
        if not _gather(choice, new_atoms, pending):
            continue
        if not atoms.issuperset(new_atoms):
            atoms = atoms.union(new_atoms)
            if not cube_is_sat(ConjCube.make(atoms)):
                continue
        if not pending:
            return ConjCube.make(atoms)
        split = pending.pop(min(range(len(pending)), key=lambda k: len(pending[k].items)))
        stack.extend((atoms, tuple(pending), child) for child in reversed(split.items))
    return None


# One row of a RowSet: (coeffs, const, strict, history, varmask) stands for
# ``sum(coeffs[i] * names[i]) + const < 0`` if strict, else ``<= 0``.  The
# integers share no common divisor; ``history`` has bit i set when the row
# combines original inequality i, and ``varmask`` has bit j set when one of
# those originals mentions ``names[j]``.
Row = tuple[tuple[int, ...], int, bool, int, int]


@dataclass(frozen=True)
class RowSet:
    """The inequalities of one elimination run, as integer rows.

    ``eliminated`` is the mask of the variable positions eliminated so
    far; ``unsat`` is set once a ground contradiction has been derived.
    """

    names: tuple[str, ...]
    cons: tuple[Row, ...]
    eliminated: int = 0
    unsat: bool = False

    @staticmethod
    def of(cube: ConjCube, requested=frozenset()) -> RowSet:
        """The rows of ``cube`` once its equalities are substituted away,
        pivoting only on variables outside ``requested``."""
        names = tuple(sorted(cube.vars))
        index = {v: j for j, v in enumerate(names)}
        n = len(names)
        free = [v not in requested for v in names]
        rows: list[tuple[list[int], int, Rel]] = []
        for c in cube.cons:
            term = c.term
            den = term.const.denominator
            for _, a in term.coeffs:
                den = lcm(den, a.denominator)
            vec = [0] * n
            for v, a in term.coeffs:
                vec[index[v]] = a.numerator * (den // a.denominator)
            rows.append((vec, term.const.numerator * (den // term.const.denominator), c.rel))

        while True:
            pivot = next(
                (
                    (k, j)
                    for k, (vec, _, rel) in enumerate(rows)
                    if rel is Rel.EQ
                    for j in range(n)
                    if vec[j] and free[j]
                ),
                None,
            )
            if pivot is None:
                break
            k, j = pivot
            evec, econst, _ = rows.pop(k)
            a = evec[j]
            # Add the multiple of the equality that cancels position j to
            # |a| times each other row; |a| > 0 keeps an inequality's
            # direction.
            scale, sign = abs(a), (1 if a > 0 else -1)
            for i, (vec, const, rel) in enumerate(rows):
                if vec[j]:
                    f = sign * vec[j]
                    rows[i] = (
                        [scale * x - f * y for x, y in zip(vec, evec)],
                        scale * const - f * econst,
                        rel,
                    )

        out: dict[tuple, Row] = {}
        for vec, const, rel in rows:
            if rel is Rel.EQ:
                sides = ((vec, const, False), ([-x for x in vec], -const, False))
            else:
                sides = ((vec, const, rel is Rel.LT),)
            for vec, const, strict in sides:
                d = gcd(*vec, const)
                if d > 1:
                    vec = [x // d for x in vec]
                    const //= d
                if not any(vec):
                    if const > 0 or (const == 0 and strict):
                        return RowSet(names, ((tuple(vec), const, strict, 0, 0),), unsat=True)
                    continue
                key = (tuple(vec), const, strict)
                if key not in out:
                    mask = sum(1 << j for j, x in enumerate(vec) if x)
                    out[key] = (*key, 1 << len(out), mask)
        return RowSet(names, tuple(out.values()))


def fm_eliminate(rows: RowSet, var: str) -> RowSet:
    """Eliminate ``var`` from ``rows``, preserving the projection.

    Every pair of a lower and an upper bound on ``var`` is combined,
    unless history pruning shows the combination redundant.  A ground
    contradiction ends the run: the result then holds that row alone and
    is marked ``unsat``.  Raises :class:`ResourceLimitError` when the
    result would hold more than ``DEFAULT_FM_CAP`` rows.
    """
    j = rows.names.index(var)
    eliminated = rows.eliminated | (1 << j)
    out: dict[tuple, Row] = {}
    lowers: list[Row] = []
    uppers: list[Row] = []
    for row in rows.cons:
        a = row[0][j]
        if a == 0:
            out[row[:3]] = row
        elif a > 0:
            uppers.append(row)
        else:
            lowers.append(row)

    for lvec, lconst, lstrict, lhist, lmask in lowers:
        al = -lvec[j]
        for uvec, uconst, ustrict, uhist, umask in uppers:
            hist = lhist | uhist
            mask = lmask | umask
            if hist.bit_count() > 1 + (mask & eliminated).bit_count():
                continue
            au = uvec[j]
            g = gcd(al, au)
            ml, mu = au // g, al // g
            vec = tuple([ml * x + mu * y for x, y in zip(lvec, uvec)])
            const = ml * lconst + mu * uconst
            strict = lstrict or ustrict
            d = gcd(*vec, const)
            if d > 1:
                vec = tuple([x // d for x in vec])
                const //= d
            if not any(vec):
                if const > 0 or (const == 0 and strict):
                    row = (vec, const, strict, hist, mask)
                    return RowSet(rows.names, (row,), eliminated, True)
                continue
            key = (vec, const, strict)
            old = out.get(key)
            if old is None or hist.bit_count() < old[3].bit_count():
                out[key] = (vec, const, strict, hist, mask)
        if len(out) > DEFAULT_FM_CAP:
            raise ResourceLimitError(
                f"Fourier-Motzkin elimination exceeded {DEFAULT_FM_CAP} rows"
            )
    return RowSet(rows.names, tuple(out.values()), eliminated)


def _eliminate(rows: RowSet, mask: int) -> RowSet:
    """Eliminate the variables at the positions in ``mask``, cheapest
    first, until none is left or the rows turn out unsatisfiable."""
    positions = [j for j in range(len(rows.names)) if mask >> j & 1]
    while positions and not rows.unsat:
        lowers = dict.fromkeys(positions, 0)
        uppers = dict.fromkeys(positions, 0)
        for vec, *_ in rows.cons:
            for j in positions:
                a = vec[j]
                if a > 0:
                    uppers[j] += 1
                elif a < 0:
                    lowers[j] += 1
        # A variable no row mentions stays absent: combining never
        # brings it back.
        positions = [j for j in positions if lowers[j] or uppers[j]]
        if not positions:
            break
        best = min(
            positions,
            key=lambda j: lowers[j] * uppers[j] - lowers[j] - uppers[j],
        )
        rows = fm_eliminate(rows, rows.names[best])
        positions.remove(best)
    return rows


def cube_is_sat(cube: ConjCube) -> bool:
    """Exact satisfiability of a cube over the rationals."""
    rows = RowSet.of(cube)
    return not _eliminate(rows, (1 << len(rows.names)) - 1).unsat


def is_sat(formula: Formula) -> bool:
    return sat_cube(formula) is not None


# A one-sided bound: (value, strict); value None means unbounded.
RawBound = tuple[Fraction | None, bool]

_UNBOUNDED: RawBound = (None, True)


def _tighten_lower(cur: RawBound, cand: RawBound) -> RawBound:
    if cur[0] is None or cand[0] > cur[0]:
        return cand
    if cand[0] == cur[0]:
        return (cur[0], cur[1] or cand[1])
    return cur


def _tighten_upper(cur: RawBound, cand: RawBound) -> RawBound:
    if cur[0] is None or cand[0] < cur[0]:
        return cand
    if cand[0] == cur[0]:
        return (cur[0], cur[1] or cand[1])
    return cur


def project_to_box(
    cube: ConjCube, variables
) -> list[tuple[RawBound, RawBound]] | None:
    """Tightest per-variable interval bounds of a cube.

    Returns ``None`` when the cube is unsatisfiable; otherwise one
    ``(lower, upper)`` pair per requested variable, where each side is a
    ``(value, strict)`` pair and ``value None`` means unbounded.
    Variables not mentioned by the cube come back unbounded.
    """
    requested = frozenset(variables)
    rows = RowSet.of(cube, requested)
    keep = {j for j, v in enumerate(rows.names) if v in requested}
    rows = _eliminate(rows, sum(1 << j for j in range(len(rows.names)) if j not in keep))
    if rows.unsat:
        return None
    bounds: dict[str, tuple[RawBound, RawBound]] = {}
    for j in sorted(keep):
        single = _eliminate(rows, sum(1 << i for i in keep if i != j))
        if single.unsat:
            return None
        lo = hi = _UNBOUNDED
        for vec, const, strict, _, _ in single.cons:
            a = vec[j]
            if a > 0:
                hi = _tighten_upper(hi, (Fraction(-const, a), strict))
            else:
                lo = _tighten_lower(lo, (Fraction(-const, a), strict))
        # The projection onto one variable is exact, so an empty interval
        # means an unsatisfiable cube.
        if lo[0] is not None and hi[0] is not None and (
            lo[0] > hi[0] or (lo[0] == hi[0] and (lo[1] or hi[1]))
        ):
            return None
        bounds[rows.names[j]] = (lo, hi)
    return [bounds.get(v, (_UNBOUNDED, _UNBOUNDED)) for v in variables]

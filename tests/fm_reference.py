"""Unpruned Fourier-Motzkin elimination over ``Fraction`` constraints.

A reference for the differential tests of ``chclab.linlogic``: it keeps
every combined inequality, eliminates variables in name order and runs
one full elimination per requested variable, so it shares no pruning,
ordering or row representation with the engine under test.

:func:`from_rows` is the engine's row builder as it was before it refuted
conflicting one-variable bounds itself: the rows of every set it does not
refute must come out the same.  :func:`eliminate_by_recount` is the
engine's elimination loop as it was before it counted bounds by column:
it must eliminate the same variables in the same order.
:func:`fm_eliminate_in_order` is the engine's elimination step as it was
before it combined its two-variable pairs first: it combines every pair
in one order and must return the same set wherever it returns one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from chclab import linlogic
from chclab.linlogic import Bound, ConjCube, Interval, ResourceLimitError, RowSet
from chclab.syntax import LinConstraint, LinTerm, Rel


def scale(term: LinTerm, k: int | Fraction) -> LinTerm:
    """``k`` times ``term``."""
    return LinTerm.make([(v, c * k) for v, c in term.coeffs], term.const * k)


def add(*terms: LinTerm) -> LinTerm:
    """The sum of ``terms``."""
    return LinTerm.make([p for t in terms for p in t.coeffs], sum(t.const for t in terms))


def sub(term: LinTerm, *others: LinTerm) -> LinTerm:
    """``term`` minus each of ``others``."""
    return add(term, *(scale(t, -1) for t in others))


def _coeff(term: LinTerm, var: str) -> Fraction:
    return dict(term.coeffs).get(var, Fraction(0))


def _subst(term: LinTerm, var: str, replacement: LinTerm) -> LinTerm:
    """``term`` with ``replacement`` put for ``var``."""
    return add(term, scale(sub(replacement, LinTerm.var(var)), _coeff(term, var)))


def fm_eliminate(cube: ConjCube, var: str) -> ConjCube:
    """Eliminate ``var``: substitute an equality that mentions it, else
    combine every lower with every upper bound."""
    free: list[LinConstraint] = []
    eqs: list[LinConstraint] = []
    lowers: list[LinConstraint] = []
    uppers: list[LinConstraint] = []
    for c in cube.cons:
        a = _coeff(c.term, var)
        if a == 0:
            free.append(c)
        elif c.rel is Rel.EQ:
            eqs.append(c)
        elif a > 0:
            uppers.append(c)
        else:
            lowers.append(c)

    if eqs:
        pivot = min(eqs, key=lambda c: c.key())
        a = _coeff(pivot.term, var)
        replacement = scale(sub(pivot.term, scale(LinTerm.var(var), a)), Fraction(-1) / a)
        out = [
            LinConstraint(_subst(c.term, var, replacement), c.rel)
            for c in cube.cons
            if c is not pivot
        ]
        return ConjCube.make(out)

    out = list(free)
    for lo in lowers:
        al = _coeff(lo.term, var)
        for up in uppers:
            au = _coeff(up.term, var)
            combined = add(scale(lo.term, au), scale(up.term, -al))
            rel = Rel.LT if (lo.rel is Rel.LT or up.rel is Rel.LT) else Rel.LE
            out.append(LinConstraint(combined, rel))
    return ConjCube.make(out)


def cube_is_sat(cube: ConjCube) -> bool:
    current = cube
    while True:
        for c in current.cons:
            if not c.term.coeffs and not c.rel.holds(c.term.const):
                return False
        remaining = sorted(current.vars)
        if not remaining:
            return True
        current = fm_eliminate(current, remaining[0])


def _tighten(cur, cand, better):
    if cur[0] is None or better(cand[0], cur[0]):
        return cand
    if cand[0] == cur[0]:
        return (cur[0], cur[1] or cand[1])
    return cur


def project_to_box(cube: ConjCube, variables):
    """``None`` if unsatisfiable, else ``((lo, strict), (hi, strict))``
    per variable, ``None`` values meaning unbounded."""
    if not cube_is_sat(cube):
        return None
    result = []
    for v in variables:
        current = cube
        while True:
            others = sorted(current.vars - {v})
            if not others:
                break
            current = fm_eliminate(current, others[0])
        lo = hi = (None, True)
        for c in current.cons:
            a = _coeff(c.term, v)
            if a == 0:
                continue
            value = Fraction(-c.term.const) / a
            if c.rel is Rel.EQ:
                lo = _tighten(lo, (value, False), lambda x, y: x > y)
                hi = _tighten(hi, (value, False), lambda x, y: x < y)
            elif a > 0:
                hi = _tighten(hi, (value, c.rel is Rel.LT), lambda x, y: x < y)
            else:
                lo = _tighten(lo, (value, c.rel is Rel.LT), lambda x, y: x > y)
        result.append((lo, hi))
    return result


def bounds_of(cons):
    """The interval of each position one of the rows ``cons`` alone
    mentions: the greatest lower and the least upper bound such a row
    sets, in ``Fraction`` arithmetic, strict on a tie if either is."""
    lower: dict = {}
    upper: dict = {}
    for vec, const, strict, *_ in cons:
        positions = [j for j, a in enumerate(vec) if a]
        if len(positions) != 1:
            continue
        [j] = positions
        value = (Fraction(-const, vec[j]), strict)
        if vec[j] > 0:
            upper[j] = _tighten(upper.get(j, (None, True)), value, lambda x, y: x < y)
        else:
            lower[j] = _tighten(lower.get(j, (None, True)), value, lambda x, y: x > y)
    return {
        j: Interval(Bound(*lower.get(j, (None, True))), Bound(*upper.get(j, (None, True))))
        for j in lower.keys() | upper.keys()
    }


def from_rows(names, rows) -> RowSet:
    """The row set the :class:`chclab.linlogic.Conjunction` constructor
    builds without pivots, less the conflict check: only a failing
    ground row refutes the set.  Its ``bounds`` are :func:`bounds_of`
    its rows."""
    out = {}
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
    cons = tuple(out.values())
    return RowSet(names, cons, bounds=bounds_of(cons))


def eliminate_by_recount(rows: RowSet, mask: int, fm_eliminate) -> RowSet:
    """Eliminate the positions in ``mask`` with ``fm_eliminate``: before
    each step, recount the lower and upper bounds of every remaining
    position over every row, and take the first position of least
    |L|·|U| − |L| − |U|."""
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


def fm_eliminate_in_order(rows: RowSet, var: str) -> RowSet:
    """:func:`chclab.linlogic.fm_eliminate` combining every lower row with
    every upper row, and then the lower side of ``var``'s interval with
    every upper row, in row order, with the upper side last among each
    lower row's partners; a conflict ends the step when it is reached,
    and the cap is checked after each lower row and after the side."""
    if rows.unsat:
        return rows
    names = rows.names
    j = names.index(var)
    eliminated = rows.eliminated | (1 << j)
    out = {}
    bounds = dict(rows.bounds)
    lo, hi = bounds.pop(j, Interval.top())
    zeros = len(names) - 1
    lowers = []
    uppers = []
    for row in rows.cons:
        a = row[0][j]
        if a == 0:
            out[row[:3]] = row
        elif a > 0:
            uppers.append((*row, row[4] & eliminated))
        else:
            lowers.append(row)
    partners = uppers
    if lowers and hi.value is not None:
        partners = [*uppers, (*linlogic._side(len(names), j, hi, True), 1 << j)]
    pairs = [(row, partners) for row in lowers]
    if uppers and lo.value is not None:
        pairs.append((linlogic._side(len(names), j, lo, False), uppers))
    for (lvec, lconst, lstrict, lhist, lmask), partners in pairs:
        al = -lvec[j]
        lgone = lmask & eliminated
        for uvec, uconst, ustrict, uhist, umask, ugone in partners:
            hist = lhist | uhist
            size = hist.bit_count()
            if size > 1 + (lgone | ugone).bit_count():
                continue
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
                    return linlogic._refuted(names, eliminated)
                continue
            if zero == zeros:
                k = vec.index(next(filter(None, vec)))
                if linlogic._meet(bounds, k, linlogic._bound(vec, const, rel, k)):
                    return linlogic._refuted(names, eliminated)
                continue
            d = gcd(*vec, const)
            if d > 1:
                vec = tuple([x // d for x in vec])
                const //= d
            key = (vec, const, strict)
            old = out.get(key)
            if old is None or size < old[3].bit_count():
                out[key] = (vec, const, strict, hist, lmask | umask)
        if len(out) > linlogic.DEFAULT_FM_CAP:
            raise ResourceLimitError(f"Fourier-Motzkin elimination exceeded {linlogic.DEFAULT_FM_CAP} rows")
    return RowSet(names, tuple(out.values()), eliminated, False, bounds)

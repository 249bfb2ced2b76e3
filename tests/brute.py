"""Brute-force rational satisfiability oracle for test cross-checks.

Decides a conjunction of linear constraints by vertex enumeration, with
no shared code with the package's own decision procedure.  Each strict
constraint ``t < 0`` is rewritten as ``t + eps <= 0`` with a shared
slack variable ``0 <= eps <= 1``; the conjunction is satisfiable over
the rationals iff the closed, box-bounded augmented polytope has a
feasible vertex with ``eps > 0``.  Since the polytope is bounded, the
maximum of ``eps`` is attained at a vertex, so checking all vertices is
complete.

The bounding box ``|x| <= BOX_BOUND`` is far larger than any vertex
coordinate reachable with the small integer coefficients used by the
test generators, so it never cuts off a satisfiable instance here; this
is not a general-purpose solver.

The arithmetic is in integers.  Every constraint is scaled to integer
coefficients, and each square system is solved by fraction-free
Gauss-Jordan elimination (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968): every
division is exact, and the vertex comes out as integer numerators over
the system's determinant.  A row ``coeffs . x <= rhs`` then holds at the
vertex iff ``coeffs . num <= rhs * det`` with ``det > 0``.  A vertex with
``eps <= 0`` cannot be the witness, so it is skipped before its
feasibility test.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from chclab.syntax import Rel

BOX_BOUND = 10**9


def _solve_square(rows: list[tuple[list[int], int]]) -> tuple[list[int], int] | None:
    """Solve a square integer system: ``(num, det)`` with ``det > 0`` and
    ``x[i] = num[i] / det``, or ``None`` if it is singular."""
    n = len(rows)
    a = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        pv = top[col]
        for r in range(n):
            if r == col:
                continue
            row = a[r]
            f = row[col]
            if not f and pv == previous:
                continue
            # Sylvester's identity makes each division exact.
            row[col:] = [(pv * x - f * y) // previous for x, y in zip(row[col:], top[col:])]
        previous = pv
    # Every diagonal entry is now the determinant, and the last column
    # holds the numerators of Cramer's rule.
    det = previous
    num = [a[r][n] for r in range(n)]
    if det < 0:
        det, num = -det, [-x for x in num]
    return num, det


def brute_cube_sat(constraints) -> bool:
    """Satisfiability of a conjunction of LinConstraints over Q."""
    constraints = list(constraints)
    variables = sorted({v for c in constraints for v in c.term.vars})
    # Position 0 is eps: a square system no strict row takes part in is
    # singular, and elimination finds that in its first column.
    eps = 0
    index = {v: i for i, v in enumerate(variables, 1)}
    dims = len(variables) + 1

    # Rows mean coeffs . (x, eps) <= rhs, or == rhs when is_eq, scaled
    # to integers.
    rows: list[tuple[list[int], int, bool]] = []
    for c in constraints:
        den = c.term.const.denominator
        for _, q in c.term.coeffs:
            den = lcm(den, q.denominator)
        coeffs = [0] * dims
        for v, q in c.term.coeffs:
            coeffs[index[v]] = int(q * den)
        rhs = int(-c.term.const * den)
        if c.rel is Rel.EQ:
            rows.append((coeffs, rhs, True))
        elif c.rel is Rel.LE:
            rows.append((coeffs, rhs, False))
        else:
            coeffs[eps] = den
            rows.append((coeffs, rhs, False))

    # Ground rows (all-zero coefficients) cannot take part in vertex
    # systems; decide them directly.
    live: list[tuple[list[int], int, bool]] = []
    for coeffs, rhs, is_eq in rows:
        if any(coeffs):
            live.append((coeffs, rhs, is_eq))
        elif is_eq:
            if rhs != 0:
                return False
        elif rhs < 0:
            return False

    def unit(i: int, sign: int) -> list[int]:
        row = [0] * dims
        row[i] = sign
        return row

    live.append((unit(eps, -1), 0, False))  # eps >= 0
    live.append((unit(eps, 1), 1, False))  # eps <= 1
    for i in range(1, dims):
        live.append((unit(i, 1), BOX_BOUND, False))
        live.append((unit(i, -1), BOX_BOUND, False))

    for subset in combinations(range(len(live)), dims):
        solved = _solve_square([live[i][:2] for i in subset])
        if solved is None:
            continue
        num, det = solved
        if num[eps] <= 0:
            continue
        for coeffs, rhs, is_eq in live:
            value = sum(c * x for c, x in zip(coeffs, num) if c)
            if value != rhs * det if is_eq else value > rhs * det:
                break
        else:
            return True
    return False

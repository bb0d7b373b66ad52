"""Simplex from a given feasible basis, over exact rationals, on an
integer tableau.

Standard form: minimize c.x subject to A x = b, x >= 0, for integer A, b
and c (a caller scales a rational LP: a positive factor on c scales the
value and keeps every pivot).  The caller hands over a feasible basis,
one column per row: its columns are pivoted in row by row (a crash
basis, Bixby 1992), and the simplex runs from there.  Bland's rule is
used for both the entering and leaving choices, so the method terminates
on degenerate problems and, given identical input, always performs the
identical pivot sequence.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968; as in Avis's
lrs): the whole tableau shares one positive common denominator d, so
row i stands for the rational row T_i / d.  A pivot on (r, s) sets
every other row to (T_i * T_rs - T_is * T_r) // d, which divides
exactly, and then d = T_rs.  Every choice is a sign test or a
cross-multiplied ratio, and each row and column differs from the
rational tableau of the same basis only by a positive factor, so the
pivot path is the rational method's, pivot for pivot.  Entries become
Fractions once, in the returned point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import LpUnboundedError

_ZERO = Fraction(0)


@dataclass
class LpResult:
    x: list[Fraction]
    value: Fraction


def _pivot(tableau: list[list[int]], basis: list[int], row: int, col: int, d: int) -> int:
    """Pivot on (row, col) under common denominator d; returns the new one."""
    if tableau[row][col] < 0:
        # Only a start-basis pivot can be negative: negating the row keeps
        # the new denominator positive.
        tableau[row] = [-v for v in tableau[row]]
    pivot_row = tableau[row]
    p = pivot_row[col]
    for i, r in enumerate(tableau):
        if i == row:
            continue
        f = r[col]
        if f:
            tableau[i] = [(a * p - f * b) // d for a, b in zip(r, pivot_row)]
        elif p != d:
            tableau[i] = [a * p // d for a in r]
    basis[row] = col
    return p


def _run(tableau: list[list[int]], basis: list[int], d: int) -> int | None:
    """Pivot to optimality; returns the final denominator, or None if unbounded."""
    nrows = len(tableau) - 1
    ncols = len(tableau[-1]) - 1
    while True:
        cost = tableau[-1]
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return d
        leave = None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                rhs = tableau[i][-1]
                if leave is None:
                    leave, best_rhs, best_a = i, rhs, a
                    continue
                # rhs / a against best_rhs / best_a; both divisors are positive.
                lhs, rhs_best = rhs * best_a, best_rhs * a
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, rhs, a
        if leave is None:
            return None
        d = _pivot(tableau, basis, leave, enter, d)


def solve_standard_lp(a_eq: list[list[int]], b_eq: list[int],
                      cost: list[int], basis: list[int]) -> LpResult:
    """Minimize cost.x over {x >= 0 : A x = b}, for integer rows A, b and
    cost, from a feasible basis.

    `basis` holds one column per row: column basis[i] is pivoted in at
    row i, and the simplex runs from that basis.  It raises ValueError
    unless the columns are independent and the basic point is >= 0, and
    LpUnboundedError when the objective is unbounded below.
    """
    ncols = len(cost)
    tableau = [[*a, b] for a, b in zip(a_eq, b_eq)]
    basis, d = _start(tableau, basis, ncols)
    # The reduced-cost row times d.
    reduced = [d * v for v in cost] + [0]
    for row, bv in zip(tableau, basis):
        cb = cost[bv]
        if cb:
            reduced = [rj - cb * tij for rj, tij in zip(reduced, row)]
    tableau.append(reduced)
    d = _run(tableau, basis, d)
    if d is None:
        raise LpUnboundedError("objective unbounded below")

    x = [_ZERO] * ncols
    for row, bv in zip(tableau, basis):
        x[bv] = Fraction(row[-1], d)
    return LpResult(x=x, value=Fraction(-tableau[-1][-1], d))


def _start(rows: list[list[int]], start: list[int], ncols: int) -> tuple[list[int], int]:
    """Pivot column start[i] in at row i, in place; returns the basis and
    the denominator.  ValueError unless it is a basis whose point is >= 0."""
    if len(start) != len(rows) or not all(0 <= j < ncols for j in start):
        raise ValueError("a start basis needs one column index per row")
    basis = [-1] * len(rows)
    d = 1
    for i, col in enumerate(start):
        if rows[i][col] == 0:
            raise ValueError("the start basis is singular")
        d = _pivot(rows, basis, i, col, d)
    if any(row[-1] < 0 for row in rows):
        raise ValueError("the start basis is infeasible")
    return basis, d

"""Exact rational linear algebra used by the geometry and solver layers.

One fraction-free kernel (Bareiss elimination over integer rows) serves
the rank, square solves and the vertex scan; rational input is scaled
to integers row by row first.  No floating point enters any decision.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .errors import DimensionCapError


def _integer_rows(matrix) -> list[list[int]]:
    """Scale each row by the lcm of its denominators; scaling keeps the row space."""
    out = []
    for row in matrix:
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def _eliminate(a: list[list[int]], square: bool = False) -> list[int] | None:
    """Bareiss fraction-free forward elimination of integer rows, in place.

    Columns are scanned left to right; each pivot is the first row at or
    below the current one with a nonzero entry, swapped up.  Each
    division by the previous pivot is exact (Sylvester's identity), so
    every entry stays an integer.  Returns the pivot columns.  With
    square=True the rows hold an n x n system plus a right-hand side
    column, only the first n columns are scanned, and the result is None
    at the first column without a pivot (the system is singular).
    """
    nrows = len(a)
    ncols = nrows if square or not a else len(a[0])
    pivots: list[int] = []
    prev = 1
    k = 0
    for col in range(ncols):
        piv = next((i for i in range(k, nrows) if a[i][col]), None)
        if piv is None:
            if square:
                return None
            continue
        a[k], a[piv] = a[piv], a[k]
        row_k = a[k]
        akk = row_k[col]
        for i in range(k + 1, nrows):
            # Rows at or below k are zero left of col, so whole rows update.
            aik = a[i][col]
            a[i] = [(x * akk - aik * y) // prev for x, y in zip(a[i], row_k)]
        prev = akk
        pivots.append(col)
        k += 1
        if k == nrows:
            break
    return pivots


def rank(matrix: list[list[Fraction]]) -> int:
    return len(_eliminate(_integer_rows(matrix)))


def solve_square_int(matrix: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Solve an integer square system exactly, or return None if singular.

    After elimination the last pivot d is the determinant up to sign, and
    d * x is an integer vector (Cramer's rule), so back substitution stays
    in integers too; each entry becomes a Fraction once, at the end.
    """
    n = len(matrix)
    a = [[*row, b] for row, b in zip(matrix, rhs)]
    if _eliminate(a, square=True) is None:
        return None
    det = a[-1][-2] if n else 1
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = det * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    return [Fraction(v, det) for v in y]


def enumerate_basic_feasible(matrix: list[list[Fraction]], rhs: list[Fraction],
                             candidate_cap: int | None = None) -> list[tuple[Fraction, ...]]:
    """All vertices of {x >= 0 : A x = b}, as exact tuples.

    Vertices are basic feasible solutions: supports of size rank(A)
    whose columns are independent and whose unique solve is nonnegative.
    The solves use a basis of A's rows, once b is known to lie in A's
    column span, so every support is one square solve.  Candidate
    supports are enumerated exhaustively, so the cost is C(ncols, rank);
    candidate_cap (if given) bounds that count.
    """
    aug = _integer_rows([[*row, b] for row, b in zip(matrix, rhs)])
    ncols = len(aug[0]) - 1 if aug else 0
    # Pivot columns of A^T: the first rows of A that are independent.
    basis = _eliminate([list(col) for col in zip(*aug)][:ncols])
    r = len(basis)
    if len(_eliminate([list(row) for row in aug])) > r:
        return []  # b lies outside the column span of A
    if r and candidate_cap is not None and comb(ncols, r) > candidate_cap:
        raise DimensionCapError(f"support enumeration too large: "
                                f"C({ncols},{r}) > {candidate_cap}")

    int_rows = [aug[i][:ncols] for i in basis]
    int_rhs = [aug[i][ncols] for i in basis]
    seen: dict[tuple[Fraction, ...], None] = {}
    zero = Fraction(0)
    for support in combinations(range(ncols), r):
        sub = [[row[j] for j in support] for row in int_rows]
        sol = solve_square_int(sub, int_rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        full = [zero] * ncols
        for j, v in zip(support, sol):
            full[j] = v
        seen[tuple(full)] = None
    return list(seen.keys())

"""Exact rational linear algebra used by the geometry and solver layers.

Everything here works over fractions.Fraction (or plain ints for the
fraction-free fast path).  No floating point enters any decision.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns (R, pivots) where pivots[i] is the pivot column of row i.
    The input is not modified.
    """
    rows = [list(map(Fraction, row)) for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col]
        if inv != 1:
            rows[r] = [v / inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def rank(matrix: list[list[Fraction]]) -> int:
    if not matrix:
        return 0
    return len(rref(matrix)[1])


def solve_square_int(matrix: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Solve an integer square system exactly, or return None if singular.

    Bareiss fraction-free elimination: all intermediate values stay
    integers, which is much faster than Fraction arithmetic in the hot
    enumeration loop.
    """
    n = len(matrix)
    a = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n + 1):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(a[i][n])
        for j in range(i + 1, n):
            if a[i][j] and x[j]:
                acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


def _clear_denominators(matrix: list[list[Fraction]], rhs: list[Fraction]) -> tuple[list[list[int]], list[int]]:
    """Row-scale an exact system to integers; scaling preserves solutions."""
    int_rows: list[list[int]] = []
    int_rhs: list[int] = []
    for row, b in zip(matrix, rhs):
        denoms = [Fraction(v).denominator for v in row] + [Fraction(b).denominator]
        scale = 1
        for d in denoms:
            scale = scale * d // _gcd(scale, d)
        int_rows.append([int(Fraction(v) * scale) for v in row])
        int_rhs.append(int(Fraction(b) * scale))
    return int_rows, int_rhs


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def enumerate_basic_feasible(matrix: list[list[Fraction]], rhs: list[Fraction],
                             candidate_cap: int | None = None) -> list[tuple[Fraction, ...]]:
    """All vertices of {x >= 0 : A x = b}, as exact tuples.

    Vertices are basic feasible solutions: supports of size rank(A)
    whose columns are independent and whose unique solve is nonnegative.
    Candidate supports of that size are enumerated exhaustively, so the
    cost is C(ncols, rank); candidate_cap (if given) bounds that count.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    r = rank(matrix)
    if r == 0:
        return [tuple(Fraction(0) for _ in range(ncols))] if all(b == 0 for b in rhs) else []
    if candidate_cap is not None and comb(ncols, r) > candidate_cap:
        raise ValueError(f"support enumeration too large: C({ncols},{r}) > {candidate_cap}")

    int_rows, int_rhs = _clear_denominators(matrix, rhs)
    square = nrows == r
    seen: dict[tuple[Fraction, ...], None] = {}
    zero = Fraction(0)
    for support in combinations(range(ncols), r):
        if square:
            sub = [[int_rows[i][j] for j in support] for i in range(nrows)]
            sol = solve_square_int(sub, int_rhs)
            if sol is None or any(v < 0 for v in sol):
                continue
        else:
            sub_aug = [[Fraction(int_rows[i][j]) for j in support] + [Fraction(int_rhs[i])]
                       for i in range(nrows)]
            reduced, pivots = rref(sub_aug)
            if r in pivots:
                continue  # pivot in the rhs column: inconsistent
            if len(pivots) < r:
                continue  # dependent columns: not a basis
            sol = [zero] * r
            for i, pc in enumerate(pivots):
                sol[pc] = reduced[i][r]
            if any(v < 0 for v in sol):
                continue
        full = [zero] * ncols
        for j, v in zip(support, sol):
            full[j] = v
        seen[tuple(full)] = None
    return list(seen.keys())

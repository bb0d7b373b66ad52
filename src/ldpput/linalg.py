"""Exact rational linear algebra used by the geometry and solver layers.

One fraction-free kernel (Bareiss elimination over integer rows) serves
the rank, square solves and the vertex scan; rational input is scaled
to integers row by row first.  No floating point enters any decision.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import DimensionCapError
from .groups import FiniteAlphabet, generate_group
from .rationals import integer_matrix


def _integer_rows(matrix) -> list[list[int]]:
    """Scale each row of ints and Fractions by the lcm of its denominators;
    scaling keeps the row space."""
    return [integer_matrix([row])[0][0] for row in matrix]


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
                             candidate_cap: int | None = None,
                             symmetries: Sequence[Sequence[int]] = ()
                             ) -> list[tuple[Fraction, ...]]:
    """All vertices of {x >= 0 : A x = b}, as exact tuples.

    Vertices are basic feasible solutions: supports of size rank(A)
    whose columns are independent and whose unique solve is nonnegative.
    The solves use a basis of A's rows, once b is known to lie in A's
    column span, so each solved support is one square solve.  The
    candidates are the C(ncols, rank) supports; candidate_cap (if
    given) bounds that count.

    `symmetries` are column permutations (images[j] is the image of
    column j) that map the rows of [A | b] onto themselves; anything
    else raises ValueError.  They generate a group G, and a support is
    solved only when it comes first in scan order among its G-images,
    so the solves are one per G-orbit of supports; each nonnegative
    solution is then mapped onto every image support.  A basic feasible
    solution is fixed by its nonzero support, so vertices are told
    apart by that support alone.  Without symmetries the vertices come
    in scan order of their first support.
    """
    aug = _integer_rows([[*row, b] for row, b in zip(matrix, rhs)])
    ncols = len(aug[0]) - 1 if aug else 0
    elements = _column_group(matrix, rhs, ncols, symmetries)
    # Pivot columns of A^T: the first rows of A that are independent.
    basis = _eliminate([list(col) for col in zip(*aug)][:ncols])
    r = len(basis)
    if len(_eliminate([list(row) for row in aug])) > r:
        return []  # b lies outside the column span of A
    if r and candidate_cap is not None and comb(ncols, r) > candidate_cap:
        raise DimensionCapError(f"support enumeration too large: "
                                f"C({ncols},{r}) > {candidate_cap}")

    # Bit-reversed keys: column 0 is the highest bit, so a support that
    # comes earlier in combinations() order has the larger key, and a
    # support is first of its orbit when no image's key is larger.
    # tables[g][j] is the key bit of g's image of column j.
    tables = [[1 << (ncols - 1 - image) for image in g] for g in elements]
    key_of = tables[0].__getitem__
    image_keys = [bits.__getitem__ for bits in tables[1:]]
    # A support first of its orbit starts with a column first of its own
    # orbit (an image moving that column lower would come earlier), so
    # most supports are passed over without a key comparison.
    leads = {j for j in range(ncols) if all(g[j] >= j for g in elements)}
    int_rows = [aug[i][:ncols] for i in basis]
    int_rhs = [aug[i][ncols] for i in basis]
    found: dict[int, tuple[Fraction, ...]] = {}  # nonzero-support key -> vertex
    zero = Fraction(0)
    for support in combinations(range(ncols), r):
        if support and support[0] not in leads:
            continue
        if not _first_of_orbit(support, key_of, image_keys):
            continue
        sub = [[row[j] for j in support] for row in int_rows]
        sol = solve_square_int(sub, int_rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        nonzero = [(j, v) for j, v in zip(support, sol) if v]
        for g, bits in zip(elements, tables):
            key = sum(bits[j] for j, _ in nonzero)
            if key not in found:
                full = [zero] * ncols
                for j, v in nonzero:
                    full[g[j]] = v
                found[key] = tuple(full)
    return list(found.values())


def _first_of_orbit(support, key_of, image_keys) -> bool:
    """No group image of the support has a larger key (early exit)."""
    key = sum(map(key_of, support))
    for image_key in image_keys:
        if sum(map(image_key, support)) > key:
            return False
    return True


def _column_group(matrix, rhs, ncols: int,
                  symmetries: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The column permutations generated by `symmetries`, identity first.

    Each generator must map the rows of [A | b] onto themselves as a
    multiset (a row may land on another row); ValueError otherwise.
    """
    if not symmetries:
        return [tuple(range(ncols))]
    rows = [(*map(Fraction, row), Fraction(b)) for row, b in zip(matrix, rhs)]
    target = Counter(rows)
    for g in symmetries:
        g = tuple(g)
        if sorted(g) != list(range(ncols)):
            raise ValueError(f"not a permutation of the {ncols} columns: {g}")
        inverse = sorted(range(ncols), key=g.__getitem__)
        if Counter(tuple(row[i] for i in inverse) + row[ncols:] for row in rows) != target:
            raise ValueError(f"column permutation {g} is not a symmetry of [A | b]")
    # Elements are sorted by image tuple, so the identity comes first.
    group = generate_group(FiniteAlphabet.of_size(ncols), symmetries)
    return [p.images for p in group.elements]

"""Exact linear algebra on integer rows for the geometry and solver layers.

One fraction-free kernel (Bareiss elimination) serves the rank, square
solves and the vertex scan; a caller scales a rational system to integers
first.  No floating point enters any decision.
"""

from __future__ import annotations

from collections import Counter
from math import comb, gcd, lcm
from operator import add
from typing import Sequence

from .errors import DimensionCapError
from .groups import FiniteAlphabet, generate_group


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


def rank(matrix: list[list[int]]) -> int:
    """The rank of integer rows."""
    return len(_eliminate([list(row) for row in matrix]))


def solve_square_int(matrix: list[list[int]], rhs: list[int]) -> tuple[list[int], int] | None:
    """Solve an integer square system exactly, or return None if singular.

    The solution is x = numerators / det with det > 0.  After elimination
    the last pivot is the determinant up to sign, and det * x is an
    integer vector (Cramer's rule), so back substitution stays in
    integers too.
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
    if det < 0:
        return [-v for v in y], -det
    return y, det


def enumerate_basic_feasible(matrix: list[list[int]], rhs: list[int],
                             candidate_cap: int | None = None,
                             symmetries: Sequence[Sequence[int]] = ()
                             ) -> list[tuple[tuple[int, ...], int]]:
    """All vertices of {x >= 0 : A x = b} for integer rows [A | b], exactly:
    vertex x is a pair (numerators, d) with x = numerators / d.  Every
    vertex has the same d > 0, the least common denominator of the list.

    Vertices are basic feasible solutions: supports of size rank(A)
    whose columns are independent and whose unique solve is nonnegative.
    The solves use a basis of A's rows, once b is known to lie in A's
    column span, so each solved support is one square solve.  The
    candidates are the C(ncols, rank) supports; candidate_cap (if
    given) bounds that count.

    `symmetries` are column permutations (images[j] is the image of
    column j) that map the rows of [A | b] onto themselves; anything
    else raises ValueError.  They generate a group G, and a support is
    solved only when it comes first in lexicographic order among its
    G-images, so the solves are one per G-orbit of supports; each
    nonnegative solution is then mapped onto every image support.  A
    basic feasible solution is fixed by its nonzero support, so
    vertices are told apart by that support alone.  Without symmetries
    the vertices come in lexicographic order of their first support.
    """
    aug = [[*row, b] for row, b in zip(matrix, rhs)]
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

    # Bit-reversed keys: column 0 is the highest bit, so of two supports
    # of one size the lexicographically first has the larger key.
    # columns[j][g] is the key bit of element g's image of column j.
    columns = [[1 << (ncols - 1 - g[j]) for g in elements] for j in range(ncols)]
    int_rows = [aug[i][:ncols] for i in basis]
    int_rhs = [aug[i][ncols] for i in basis]
    seen: dict[int, None] = {}  # keys of the vertices found (smaller than a set)
    solves = []  # (nonzero entries, det, the elements mapping them to new vertices)
    for support, keys in _orderly_supports(columns, r, (), [0] * len(elements)):
        solved = solve_square_int([[row[j] for j in support] for row in int_rows], int_rhs)
        if solved is None or min(solved[0], default=0) < 0:
            continue
        sol, det = solved
        common = gcd(det, *sol)  # lowest terms
        nonzero = [(j, v // common) for j, v in zip(support, sol) if v]
        if len(nonzero) < r:  # degenerate: key the nonzero support (maybe empty)
            keys = [sum(bits) for bits in zip([0] * len(keys), *(columns[j] for j, _ in nonzero))]
        images = []
        for g, key in zip(elements, keys):
            if key not in seen:
                seen[key] = None
                images.append(g)
        solves.append((nonzero, det // common, images))
    # Over the common denominator, the images of one solve share their entries.
    d = lcm(*(det for _, det, _ in solves))
    vertices = []
    for nonzero, det, images in solves:
        nonzero = [(j, v * (d // det)) for j, v in nonzero]
        for g in images:
            full = [0] * ncols
            for j, v in nonzero:
                full[g[j]] = v
            vertices.append((tuple(full), d))
    return vertices


def _orderly_supports(columns: list[list[int]], r: int, support: tuple[int, ...],
                      keys: list[int]):
    """In lexicographic order, the r-column supports extending `support`
    whose key is the largest of their images' keys, each with those keys
    (one per group element, identity first).

    If an image gP of a prefix P has a larger key, so has gS for each S
    extending P: the first column where gP and P differ is below max(P),
    and the columns of S outside P are above it.  So such a prefix is
    never extended (orderly generation: Read 1978; McKay 1998).
    """
    if len(support) == r:
        yield support, keys
        return
    for j in range(support[-1] + 1 if support else 0, len(columns) - r + len(support) + 1):
        image_keys = list(map(add, keys, columns[j]))
        if max(image_keys) == image_keys[0]:
            yield from _orderly_supports(columns, r, (*support, j), image_keys)


def _column_group(matrix, rhs, ncols: int,
                  symmetries: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The column permutations generated by `symmetries`, identity first.

    Each generator must map the integer rows of [A | b] onto themselves
    as a multiset (a row may land on another row); ValueError otherwise.
    """
    if not symmetries:
        return [tuple(range(ncols))]
    rows = [(*row, b) for row, b in zip(matrix, rhs)]
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

"""Exact linear algebra on integer rows for the geometry and solver layers.

One fraction-free kernel (Bareiss elimination) serves the rank, the row
basis and the vertex scan, which eliminates along its tree of supports;
a caller scales a rational system to integers first.  No floating point
enters any decision.
"""

from __future__ import annotations

from collections import Counter
from math import comb, gcd, lcm
from typing import Sequence

from .errors import DimensionCapError
from .groups import FiniteAlphabet, generate_group


def _eliminate(a: list[list[int]]) -> list[int]:
    """Bareiss fraction-free forward elimination of integer rows, in place.

    Columns are scanned left to right; each pivot is the first row at or
    below the current one with a nonzero entry, swapped up.  Each
    division by the previous pivot is exact (Sylvester's identity), so
    every entry stays an integer.  Returns the pivot columns.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    prev = 1
    k = 0
    for col in range(ncols):
        piv = next((i for i in range(k, nrows) if a[i][col]), None)
        if piv is None:
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


def enumerate_basic_feasible(matrix: list[list[int]], rhs: list[int],
                             candidate_cap: int | None = None,
                             symmetries: Sequence[Sequence[int]] = ()
                             ) -> list[tuple[tuple[int, ...], int]]:
    """All vertices of {x >= 0 : A x = b} for integer rows [A | b], exactly:
    vertex x is a pair (numerators, d) with x = numerators / d.  Every
    vertex has the same d > 0, the least common denominator of the list.

    Vertices are basic feasible solutions: supports of size r = rank(A),
    solved on a basis of A's rows once b lies in A's column span, whose
    columns are independent and whose solve is nonnegative; candidate_cap
    (if given) bounds the C(ncols, r) candidates.  Supports grow column by
    column, depth first in lexicographic order, and each prefix keeps its
    rows Bareiss-eliminated over its pivots: a child costs one elimination
    step, a full support one back substitution.  A column with no pivot
    left depends on the prefix, so no support through it is built.

    `symmetries` are column permutations (images[j] is the image of
    column j) that map the rows of [A | b] onto themselves; anything
    else raises ValueError.  Of each orbit of supports under the group G
    they generate, only the lexicographically first is kept.  If an
    image gP of a prefix P sorts first, so does gS for every S extending
    P (gP and P first differ below max(P), where S adds nothing), so P is
    never extended (orderly generation: Read 1978; McKay 1998).  Each
    nonnegative solution is mapped onto every image support; a basic
    feasible solution is fixed by its nonzero support, which tells the
    vertices apart.  Without symmetries the vertices come in
    lexicographic order of their first support.

    A support's key has bit ncols - 1 - j for each column j, so of two
    supports of one size the lexicographically first has the larger key.
    Each prefix keeps the keys of its |G| images as one int: element g's
    key sits in lane g (identity first), ncols key bits under one guard
    bit, so a child adds its column's packed bits, and the guard bits
    test all lanes against lane 0 at once (`_identity_first`).  The keys
    are unpacked (`_unpack`) only for a solve whose nonzero support is
    new: the keys of the vertices found always make up whole G-orbits,
    so a degenerate solve whose identity key is among them adds nothing.
    """
    aug = [[*row, b] for row, b in zip(matrix, rhs)]
    ncols = len(aug[0]) - 1 if aug else 0
    elements = _column_group(matrix, rhs, ncols, symmetries)
    # Pivot columns of A^T: the first rows of A that are independent.
    basis = _eliminate([list(col) for col in zip(*aug)][:ncols])
    r = len(basis)
    if len(_eliminate([list(row) for row in aug])) > r:
        return []  # b lies outside the column span of A
    if not r:
        return [((0,) * ncols, 1)]  # b = 0, and the empty support solves it
    if candidate_cap is not None and comb(ncols, r) > candidate_cap:
        raise DimensionCapError(f"support enumeration too large: "
                                f"C({ncols},{r}) > {candidate_cap}")

    bits = [1 << (ncols - 1 - j) for j in range(ncols)]  # the identity's key bits
    shifts = [i * (ncols + 1) for i in range(len(elements))]  # where lane i starts
    packed = [sum(bits[g[j]] << s for g, s in zip(elements, shifts)) for j in range(ncols)]
    lane = (1 << ncols) - 1  # masks lane 0
    spread = sum(1 << s for s in shifts)  # a 1 in each lane
    guards = spread << ncols  # each lane's guard bit
    seen: dict[int, None] = {}  # keys of the vertices found (smaller than a set)
    solves = []  # (nonzero entries, det, the elements mapping them to new vertices)

    def keep(support: tuple[int, ...], sol: list[int], det: int, keys: int) -> None:
        # A nonnegative solve of an orbit-first support, with its packed keys.
        common = gcd(det, *sol)  # lowest terms
        nonzero = [(j, v // common) for j, v in zip(support, sol) if v]
        if len(nonzero) < r:  # degenerate: key the nonzero support (maybe empty)
            if sum(bits[j] for j, _ in nonzero) in seen:
                return  # seen holds whole orbits: this vertex and its det are kept
            keys = sum(packed[j] for j, _ in nonzero)
        images = []
        for g, key in zip(elements, _unpack(keys, ncols, len(elements))):
            if key not in seen:
                seen[key] = None
                images.append(g)
        solves.append((nonzero, det // common, images))

    # A node is a prefix, its pivot rows (each from column start on, with
    # start), the other rows eliminated over those pivots from column start
    # on, the last pivot and the prefix's packed image keys.
    stack = [((), (), [aug[i] for i in basis], 0, 1, 0)]
    while stack:
        prefix, pivot_rows, active, start, prev, keys = stack.pop()
        children = []
        for j in range(start, ncols - r + len(prefix) + 1):
            pos = j - start
            for piv, row in enumerate(active):
                if row[pos]:
                    break
            else:
                continue  # column j depends on the prefix
            support, rows = (*prefix, j), (*pivot_rows, (active[piv], start))
            if len(support) == r:  # back-substitute first: few solves are nonnegative
                solved = _back_substitute(rows, support)
                if solved and _identity_first(child := keys + packed[j], lane, spread, guards):
                    keep(support, *solved, child)
            elif _identity_first(child := keys + packed[j], lane, spread, guards):
                akk, tail = active[piv][pos], active[piv][pos + 1:]
                rest = active[:piv] + active[piv + 1:]  # every row but the pivot row
                children.append((support, rows, [
                    [(x * akk - aik * y) // prev for x, y in zip(row[pos + 1:], tail)]
                    for row in rest for aik in (row[pos],)], j + 1, akk, child))
        stack += reversed(children)  # depth first, in lexicographic order
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


def _back_substitute(pivot_rows: tuple[tuple[list[int], int], ...],
                     support: tuple[int, ...]) -> tuple[list[int], int] | None:
    """x = numerators / det (det > 0) on a support, or None once an entry
    is negative, from pivot rows (row from column start on, b last; row i
    pivots in column support[i]).  The last pivot is the determinant up
    to sign, and det * x is an integer vector (Cramer's rule)."""
    row, start = pivot_rows[-1]
    det = row[support[-1] - start]
    y = [0] * len(support)
    for i in reversed(range(len(support))):
        row, start = pivot_rows[i]
        acc = det * row[-1]
        for l in range(i + 1, len(support)):
            acc -= row[support[l] - start] * y[l]
        y[i] = acc // row[support[i] - start]
        if y[i] * det < 0:
            return None
    return ([-v for v in y], -det) if det < 0 else (y, det)


def _identity_first(keys: int, lane: int, spread: int, guards: int) -> bool:
    """Whether no lane of packed keys holds a larger key than lane 0.

    Lane i is bits i * (ncols + 1) on: a key below 2**ncols (lane =
    2**ncols - 1) and a guard bit above it, clear in keys; spread has a 1
    in each lane, guards a 1 in each guard bit.  guards + key_0 * spread
    - keys holds 2**ncols + key_0 - key_i in lane i, which lies in [1,
    2**(ncols + 1)), so no lane borrows from the next, and lane i's guard
    bit is set exactly when key_0 >= key_i.
    """
    return (guards + (keys & lane) * spread - keys) & guards == guards


def _unpack(keys: int, ncols: int, count: int) -> list[int]:
    """The keys in the first `count` lanes of a packed int, lane 0 first:
    lane i is the ncols bits from bit i * (ncols + 1) on."""
    lane = (1 << ncols) - 1
    return [keys >> (i * (ncols + 1)) & lane for i in range(count)]


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

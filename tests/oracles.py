"""Test oracles: independent checks that the library itself never needs.

Each recomputes a quantity the library derives another way (extremality
from the rank of the active cone facets, the circular task's risk by
grid integration, a transitive group's vertex weights by double
counting, orbits by calling a group action on every point, kernels by
elimination, LP optima and pivot paths on a Fraction tableau, channel
products, Bayes and minimax risks one Fraction per multiply-add, the
per-subset Bayes form one integer staircase row at a time, the circular
task's root-of-unity sum and orbit risk one mask at a time, the
audit's samples through Fraction weights and composed channels, the
polytope's vertex list by one fresh square solve per orderly support,
the vertex sweep on Fraction weights, the ray behind each channel row and
a maximal channel's canonical weight on Fraction rows and the full
polytope), so a test can compare the two.
numpy is needed here only.

It also holds what tests use to check other library code or to build
inputs, and what no command runs: permutation inverses, the group-action
laws, channel columns, Blackwell dominance and equivalence, the
dominating maximal channel of a private channel, direct sums,
relabeling and symmetrization of channels, staircase matrices, weight
vectors, the maximal channel with one row per subset (zero rows
included), maximality and canonical weights, subset selection and lifting,
the JSON writers no command calls, the equalizer check, and the spot
checks of the paper's four properties of a risk (data processing, direct
sums, concavity, invariance) on the library's risks.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from ldpput.applications import CardioidSpec
from ldpput.channels import Channel, PrivacyLevel, as_level, compose, require_ldp
from ldpput.decision import DecisionProblem, Prior, _bayes_costs
from ldpput.errors import (
    AlphabetMismatchError,
    LdpPutError,
    LpUnboundedError,
    NotTransitiveError,
    ObjectiveMismatchError,
    PolytopeViolationError,
    RepresentativeMismatchError,
)
from ldpput.groups import (
    FiniteAlphabet,
    PermGroup,
    Permutation,
    all_subset_masks,
    cyclic_group,
    symmetric_generators,
)
from ldpput.ldp_geometry import (
    SubsetOrbit,
    WeightPolytope,
    WeightVector,
    enumerate_polytope_vertices,
    full_polytope,
    in_weight_polytope,
    ray_subsets,
    staircase_row,
    subset_column_symmetries,
    weight_polytope,
)
from ldpput.linalg import _column_group, _eliminate, rank
from ldpput.put_solver import FLOAT_TOLERANCE
from ldpput.rationals import as_fraction, format_fraction, integer_matrix
from ldpput.serialize import letter_to_json
from ldpput.simplex import LpResult

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NotInConeError(LdpPutError):
    """A vector lies outside the privacy cone."""


class ZeroVectorError(LdpPutError):
    """The zero vector was supplied where a nonzero one is required."""


class NotMaximalError(LdpPutError):
    """A channel is not maximal, so no canonical weight exists."""


# -- privacy cone -------------------------------------------------------------


@dataclass(frozen=True)
class ConeConstraintMatrix:
    """Facet description of the privacy cone.

    One row t*e_z - e_{z'} per ordered pair z != z' (lexicographic order),
    then the identity block for nonnegativity.
    """

    input_alphabet: FiniteAlphabet
    level: PrivacyLevel
    pairs: tuple[tuple[int, int], ...]

    def pair_rows(self) -> list[list[Fraction]]:
        m = self.input_alphabet.size
        t = self.level.t
        out = []
        for z, z2 in self.pairs:
            row = [_ZERO] * m
            row[z] += t
            row[z2] -= _ONE
            out.append(row)
        return out

    def all_rows(self) -> list[list[Fraction]]:
        m = self.input_alphabet.size
        rows = self.pair_rows()
        for x in range(m):
            row = [_ZERO] * m
            row[x] = _ONE
            rows.append(row)
        return rows

    def active_rows(self, v: Sequence[Fraction]) -> list[list[Fraction]]:
        """Rows whose inequality holds with equality at v."""
        m = self.input_alphabet.size
        t = self.level.t
        active = []
        for z, z2 in self.pairs:
            if t * v[z] == v[z2]:
                row = [_ZERO] * m
                row[z] += t
                row[z2] -= _ONE
                active.append(row)
        for x in range(m):
            if v[x] == 0:
                row = [_ZERO] * m
                row[x] = _ONE
                active.append(row)
        return active


def cone_constraint_matrix(alphabet: FiniteAlphabet, level) -> ConeConstraintMatrix:
    m = alphabet.size
    pairs = tuple((z, z2) for z in range(m) for z2 in range(m) if z != z2)
    return ConeConstraintMatrix(input_alphabet=alphabet, level=as_level(level), pairs=pairs)


def in_cone(v: Sequence[Fraction], level) -> bool:
    """Membership in the privacy cone: v >= 0 and t*min(v) >= max(v)."""
    t = as_level(level).t
    if any(x < 0 for x in v):
        return False
    return t * min(v) >= max(v)


def is_extreme_direction(v: Sequence, alphabet: FiniteAlphabet, level) -> int | None:
    """The subset behind an extreme ray, or None, on Fractions.

    Extreme rays of the privacy cone are exactly the positive multiples
    of staircase rows: value t*c on a nonempty proper subset Z, value c
    elsewhere.  Returns Z as a bitmask when v has that shape.  At t = 1
    the cone degenerates to the constant ray; the lowest singleton is
    returned as the canonical subset there.  An alphabet of fewer than
    two letters has no such subset and raises ValueError.
    """
    if alphabet.size < 2:
        raise ValueError("maximality needs at least two input letters")
    t = as_level(level).t
    vals = [as_fraction(x) for x in v]
    if len(vals) != alphabet.size:
        raise ValueError("vector length must match the alphabet size")
    if all(x == 0 for x in vals):
        raise ZeroVectorError("the zero vector spans no ray")
    distinct = sorted(set(vals))
    if len(distinct) == 1:
        if t == 1 and distinct[0] > 0:
            return 1  # degenerate cone: every subset gives the same ray
        return None
    if len(distinct) != 2:
        return None
    lo, hi = distinct
    if lo <= 0 or hi != t * lo:
        return None
    mask = 0
    for x, val in enumerate(vals):
        if val == hi:
            mask |= 1 << x
    return mask


def kernel_rank_check(v: Sequence, alphabet: FiniteAlphabet, level) -> bool:
    """Extremality via active constraints: true iff the rows of the cone
    description that are tight at v have rank m - 1, i.e. their kernel
    is exactly the line through v."""
    level = as_level(level)
    m = alphabet.size
    vals = [as_fraction(x) for x in v]
    if len(vals) != m:
        raise ValueError("vector length must match the alphabet size")
    if all(x == 0 for x in vals):
        raise ZeroVectorError("the zero vector spans no ray")
    if not in_cone(vals, level):
        raise NotInConeError(f"vector {vals} is outside the t={level.t} cone")
    active = cone_constraint_matrix(alphabet, level).active_rows(vals)
    if not active:
        return m == 1
    return rank(integer_matrix(active)[0]) == m - 1


# -- group actions and their orbits ------------------------------------------


@dataclass(frozen=True)
class GroupAction:
    """A group acting on an ordered carrier of points.

    `act(g, point)` must satisfy the usual laws (identity fixes every
    point, compatibility with composition).
    """

    group: PermGroup
    carrier: tuple[Hashable, ...]
    act: Callable[[Permutation, Hashable], Hashable] = field(compare=False)


def natural_action(group: PermGroup) -> GroupAction:
    """The group acting on its own alphabet letters."""
    letters = group.alphabet.letters

    def act(g: Permutation, letter):
        return letters[g.images[letters.index(letter)]]

    return GroupAction(group=group, carrier=letters, act=act)


def subset_action(action: GroupAction) -> GroupAction:
    """Lift an action on letters to nonempty proper subsets (as bitmasks)."""
    group = action.group
    letters = group.alphabet.letters
    m = len(letters)
    if m < 2:
        raise ValueError("subset action needs at least two letters")
    if action.carrier != letters:
        raise ValueError("subset action must be built over the letter action")
    index = {letter: i for i, letter in enumerate(letters)}

    def act(g: Permutation, mask: int) -> int:
        out = 0
        for i in mask_to_positions(mask):
            out |= 1 << index[action.act(g, letters[i])]
        return out

    return GroupAction(group=group, carrier=all_subset_masks(m), act=act)


def orbits(action: GroupAction) -> tuple[tuple[Hashable, ...], ...]:
    """Orbit partition of the carrier, closed point by point through the
    action's callable: the reference for `ldpput.groups.orbits`.

    Points inside an orbit keep carrier order; orbits are sorted by
    their smallest member's carrier position.
    """
    position = {p: i for i, p in enumerate(action.carrier)}
    unseen = set(action.carrier)
    out = []
    for p in action.carrier:
        if p not in unseen:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            nxt = []
            for q in frontier:
                for g in action.group.generators:
                    image = action.act(g, q)
                    if image not in orbit:
                        orbit.add(image)
                        nxt.append(image)
            frontier = nxt
        unseen -= orbit
        out.append(tuple(sorted(orbit, key=position.__getitem__)))
    return tuple(out)


def orbit_column_sum_reference(group: PermGroup, letter_orbit: tuple, orbit: SubsetOrbit,
                               level) -> int:
    """`orbit_column_sum` by scanning the orbit's masks once per letter."""
    t = as_level(level).t
    letters = group.alphabet.letters
    counts = [sum(1 for mask in orbit.masks if mask >> letters.index(letter) & 1)
              for letter in letter_orbit]
    if len(set(counts)) != 1:
        raise RepresentativeMismatchError(
            f"incidence count varies over the letter orbit: {counts}")
    r = counts[0]
    return t.numerator * r + t.denominator * (orbit.size - r)


def subset_column_symmetries_reference(m: int) -> list[tuple[int, ...]]:
    """`subset_column_symmetries` by decoding every mask into positions."""
    return [tuple(sum(1 << g.images[x] for x in mask_to_positions(mask)) - 1
                  for mask in all_subset_masks(m))
            for g in symmetric_generators(m)]


# -- circular location family ------------------------------------------------


def cardioid_orbit_risk_numeric(spec: CardioidSpec, mask: int,
                                theta_grid: int = 10 ** 4,
                                action_grid: int = 10 ** 4) -> float:
    """Grid-integration oracle for the pure orbit channel's Bayes risk.

    Works from the raw model and loss: the posterior cost of each
    action is integrated over theta on a trapezoid grid (the integrand
    is a trigonometric polynomial, so the full-period trapezoid rule is
    extremely accurate), and the best action is found by scanning an
    action grid.  No step reuses the analytic risk formula.
    """
    m = spec.m
    t = float(spec.level.t)
    gamma = float(spec.gamma)
    k = len(mask_to_positions(mask))
    orbit_masks = _rotation_orbit(mask, m)
    weight = m / (len(orbit_masks) * (k * t + m - k))

    thetas = np.linspace(0.0, 2.0 * np.pi, theta_grid, endpoint=False)
    dtheta = 2.0 * np.pi / theta_grid
    # Per-letter moments of the model against 1, cos, sin; the loss
    # 1 - cos(theta - a) expands over exactly this basis.
    xs = np.arange(m)
    model = (1.0 + gamma * np.cos(2.0 * np.pi * xs[:, None] / m - thetas[None, :])) / m
    prior_density = 1.0 / (2.0 * np.pi)
    m0 = (model * prior_density).sum(axis=1) * dtheta
    mc = (model * np.cos(thetas)[None, :] * prior_density).sum(axis=1) * dtheta
    ms = (model * np.sin(thetas)[None, :] * prior_density).sum(axis=1) * dtheta

    actions = np.linspace(0.0, 2.0 * np.pi, action_grid, endpoint=False)
    total = 0.0
    for member in orbit_masks:
        srow = np.array([t if member >> x & 1 else 1.0 for x in range(m)])
        c0 = float((srow * m0).sum())
        cc = float((srow * mc).sum())
        cs = float((srow * ms).sum())
        costs = c0 - np.cos(actions) * cc - np.sin(actions) * cs
        total += weight * float(costs.min())
    return total


def _rotation_orbit(mask: int, m: int) -> tuple[int, ...]:
    """The subset's orbit under rotations of the m letters, ascending."""
    action = subset_action(natural_action(cyclic_group(FiniteAlphabet.of_size(m))))
    return next(orbit for orbit in orbits(action) if mask in orbit)


def cardioid_rule_risk(spec: CardioidSpec, mask: int, theta: float) -> float:
    """Risk at a fixed direction for the pure orbit channel and the
    point-the-subset rule a(y) = arg(Z_y).

    For informative orbits of size >= 3 this curve is flat in theta (an
    equalizer), which is how the location family's Bayes risk doubles
    as its worst-case risk.
    """
    m = spec.m
    t = float(spec.level.t)
    gamma = float(spec.gamma)
    k = len(mask_to_positions(mask))
    orbit_masks = _rotation_orbit(mask, m)
    weight = m / (len(orbit_masks) * (k * t + m - k))
    total = 0.0
    for member in orbit_masks:
        z = sum(cmath.exp(2j * cmath.pi * x / m) for x in mask_to_positions(member))
        mass = 0.0
        for x in range(m):
            p_x = (1.0 + gamma * math.cos(2.0 * math.pi * x / m - theta)) / m
            s_x = t if member >> x & 1 else 1.0
            mass += p_x * s_x
        if abs(z) > 1e-12:
            loss = 1.0 - math.cos(theta - cmath.phase(z))
        else:
            # Uninformative member: a uniform random action has average
            # loss exactly 1 at every direction.
            loss = 1.0
        total += weight * mass * loss
    return total


# -- transitive closed forms --------------------------------------------------


def is_transitive(action: GroupAction) -> bool:
    return len(orbits(action)) == 1


def transitive_vertex_weight(group: PermGroup, orbit: SubsetOrbit, level) -> Fraction:
    """Vertex weight of the collapsed simplex for a transitive group.

    Double counting letter-subset incidences over the orbit gives
    m * incidence = orbit_size * subset_size, which turns the single
    membership constraint into the closed form below.
    """
    if not is_transitive(natural_action(group)):
        raise NotTransitiveError("closed-form vertex weights need a transitive group")
    t = as_level(level).t
    m = group.alphabet.size
    k = orbit.subset_size
    return Fraction(m, 1) / (orbit.size * (k * t + m - k))


def pure_orbit_weights(group: PermGroup, orbit_index: int, level) -> WeightVector:
    """The collapsed-simplex vertex supported on a single subset orbit."""
    polytope = weight_polytope(group, level)
    weight = transitive_vertex_weight(group, polytope.orbits[orbit_index], level)
    values = [_ZERO] * len(polytope.orbits)
    values[orbit_index] = weight
    return WeightVector.of_values(polytope, values)


# -- linear algebra -----------------------------------------------------------


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


def basic_feasible_reference(matrix: list[list[Fraction]],
                              rhs: list[Fraction]) -> list[tuple[Fraction, ...]]:
    """Vertices of {x >= 0 : A x = b} by one rref of [A_S | b] per support S.

    Supports of size rank(A) in lexicographic order; a support counts when
    its columns are independent, the reduced system is consistent and the
    solution is nonnegative.  Duplicates keep their first position.
    """
    ncols = len(matrix[0]) if matrix else 0
    r = len(rref(matrix)[1]) if matrix else 0
    if r == 0:
        return [(_ZERO,) * ncols] if all(b == 0 for b in rhs) else []
    seen: dict[tuple[Fraction, ...], None] = {}
    for support in combinations(range(ncols), r):
        reduced, pivots = rref([[row[j] for j in support] + [b]
                                for row, b in zip(matrix, rhs)])
        if r in pivots or len(pivots) < r:
            continue  # inconsistent, or dependent columns
        sol = [reduced[i][r] for i in range(r)]
        if any(v < 0 for v in sol):
            continue
        full = [_ZERO] * ncols
        for j, v in zip(support, sol):
            full[j] = v
        seen[tuple(full)] = None
    return list(seen)


def basic_feasible_orbit_reference(matrix: list[list[Fraction]], rhs: list[Fraction],
                                   symmetries: Sequence[Sequence[int]] = ()
                                   ) -> list[tuple[Fraction, ...]]:
    """The vertex list of `enumerate_basic_feasible`, order included, by a
    flat scan of every support.

    Supports of size rank(A) in lexicographic order; one is solved (by
    rref, as in `basic_feasible_reference`) unless an image under the
    group of `symmetries` sorts before it.  Each nonnegative solution is
    mapped onto its images, element by element in the group's order, and
    a vertex keeps the position of its first image found.
    """
    ncols = len(matrix[0]) if matrix else 0
    elements = _column_group(*integer_system(matrix, rhs), ncols, symmetries)
    r = len(rref(matrix)[1]) if matrix else 0
    found: dict[frozenset[int], tuple[Fraction, ...]] = {}  # nonzero support -> vertex
    for support in combinations(range(ncols), r):
        if any(tuple(sorted(g[j] for j in support)) < support for g in elements):
            continue
        reduced, pivots = rref([[row[j] for j in support] + [b]
                                for row, b in zip(matrix, rhs)])
        if r in pivots or len(pivots) < r:
            continue  # inconsistent, or dependent columns
        sol = [reduced[i][r] for i in range(r)]
        if any(v < 0 for v in sol):
            continue
        nonzero = [(j, v) for j, v in zip(support, sol) if v]
        for g in elements:
            image = frozenset(g[j] for j, _ in nonzero)
            if image not in found:
                full = [_ZERO] * ncols
                for j, v in nonzero:
                    full[g[j]] = v
                found[image] = tuple(full)
    return list(found.values())


def integer_system(matrix: list[list[Fraction]], rhs: list[Fraction]
                   ) -> tuple[list[list[int]], list[int]]:
    """A rational system A x = b as the integer system the exact kernels
    take: [A | b] scaled by one positive denominator, which keeps every
    solution, then split back into A and b."""
    aug, _ = integer_matrix([*row, b] for row, b in zip(matrix, rhs))
    return [row[:-1] for row in aug], [row[-1] for row in aug]


# -- the polytope layer in Fractions ------------------------------------------


def fraction_vertices(vertices: Iterable[tuple[Sequence[int], int]]
                      ) -> list[tuple[Fraction, ...]]:
    """`enumerate_basic_feasible`'s (numerators, d) pairs as Fraction tuples."""
    return [tuple(Fraction(v, d) for v in n) for n, d in vertices]


def fraction_rows(polytope: WeightPolytope) -> list[list[Fraction]]:
    """A weight polytope's equality rows as Fractions (rows / denominator)."""
    return [[Fraction(v, polytope.denominator) for v in row] for row in polytope.rows]


def solve_square_int(matrix: list[list[int]], rhs: list[int]) -> tuple[list[int], int] | None:
    """Solve an integer square system exactly, or return None if singular.

    The solution is x = numerators / det with det > 0, by a fresh Bareiss
    elimination of [A | b]: A is nonsingular when its n columns are the
    first n pivots.  The last pivot is then the determinant up to sign,
    and det * x is an integer vector (Cramer's rule), so back
    substitution stays in integers too.
    """
    n = len(matrix)
    a = [[*row, b] for row, b in zip(matrix, rhs)]
    if _eliminate(a) != list(range(n)):
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


def basic_feasible_fraction_reference(matrix: list[list[Fraction]], rhs: list[Fraction],
                                      symmetries: Sequence[Sequence[int]] = ()
                                      ) -> list[tuple[Fraction, ...]]:
    """`enumerate_basic_feasible` with a Fraction per vertex entry, by
    a fresh square solve per orbit-first support: the orderly supports,
    all built in lexicographic order, each solved on its own and turned
    into Fractions, each vertex kept as a Fraction tuple, so the list and
    its order must match."""
    int_a, int_b = integer_system(matrix, rhs)
    aug = [[*row, b] for row, b in zip(int_a, int_b)]
    ncols = len(aug[0]) - 1 if aug else 0
    elements = _column_group(int_a, int_b, ncols, symmetries)
    basis = _eliminate([list(col) for col in zip(*aug)][:ncols])
    r = len(basis)
    if len(_eliminate([list(row) for row in aug])) > r:
        return []
    columns = [[1 << (ncols - 1 - g[j]) for g in elements] for j in range(ncols)]
    int_rows = [aug[i][:ncols] for i in basis]
    int_rhs = [aug[i][ncols] for i in basis]
    found: dict[int, tuple[Fraction, ...]] = {}
    for support, keys in _orderly_supports(columns, r, (), [0] * len(elements)):
        solved = solve_square_int([[row[j] for j in support] for row in int_rows], int_rhs)
        if solved is None or any(v < 0 for v in solved[0]):
            continue
        sol = [Fraction(v, solved[1]) for v in solved[0]]
        nonzero = [(j, v) for j, v in zip(support, sol) if v]
        if len(nonzero) < r:
            keys = [sum(bits) for bits in zip([0] * len(keys), *(columns[j] for j, _ in nonzero))]
        for g, key in zip(elements, keys):
            if key not in found:
                full = [_ZERO] * ncols
                for j, v in nonzero:
                    full[g[j]] = v
                found[key] = tuple(full)
    return list(found.values())


def polytope_vertices_reference(polytope: WeightPolytope) -> list[tuple[Fraction, ...]]:
    """The values of `polytope_vertices(polytope)`, in order: the
    Fraction scan of the Fraction rows (under S_m for the full polytope),
    sorted as Fraction tuples."""
    rows = fraction_rows(polytope)
    m = polytope.group.alphabet.size
    symmetries = subset_column_symmetries(m) if polytope.group.is_trivial else ()
    return sorted(basic_feasible_fraction_reference(rows, [_ONE] * len(rows), symmetries))


def vertex_sweep_reference(vertices: Sequence[WeightVector],
                           coefficients: Sequence) -> tuple[Fraction | float, int]:
    """The vertex sweep's value and argmin index by Fraction weights: each
    vertex scores sum over orbits of weight * (sum of the orbit's
    coefficients); the first lowest score wins."""
    costs = [sum((coefficients[mask - 1] for mask in orbit.masks), _ZERO)
             for orbit in vertices[0].orbits]
    scores = [sum((w * c for w, c in zip(v.values, costs) if w), _ZERO) for v in vertices]
    best = min(range(len(scores)), key=lambda i: (scores[i], i))
    return scores[best], best


# -- reference simplex --------------------------------------------------------


class LpInfeasibleError(LdpPutError):
    """The linear program has no feasible point."""


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    if piv != 1:
        inv = _ONE / piv
        tableau[row] = [v * inv for v in tableau[row]]
    pivot_row = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [a - f * b for a, b in zip(r, pivot_row)]
    basis[row] = col


def _run(tableau: list[list[Fraction]], basis: list[int], allowed_cols: int) -> bool:
    """Pivot to optimality.  Returns False if unbounded."""
    nrows = len(tableau) - 1
    cost = tableau[-1]
    while True:
        enter = next((j for j in range(allowed_cols) if cost[j] < 0), None)
        if enter is None:
            return True
        leave = None
        best = None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return False
        _pivot(tableau, basis, leave, enter)
        cost = tableau[-1]


def solve_standard_lp_reference(a_eq: list[list[Fraction]], b_eq: list[Fraction],
                                cost: list[Fraction],
                                basis: list[int] | None = None) -> LpResult:
    """Minimize cost.x over {x >= 0 : A x = b} on a Fraction tableau.

    The rational two-phase simplex with Bland's rule.  With basis,
    column basis[i] is pivoted in at row i and phase 2 runs from there,
    the path the integer tableau of ldpput.simplex must follow pivot for
    pivot; ValueError unless that basis is nonsingular and its point
    >= 0.  Without basis, phase 1 starts from artificial columns: the
    optimum that `put_by_lp`, started at randomized response, is checked
    against.
    Raises LpInfeasibleError / LpUnboundedError accordingly.
    """
    nrows = len(a_eq)
    ncols = len(cost)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(nrows):
        row = [Fraction(v) for v in a_eq[i]]
        b = Fraction(b_eq[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        rows.append(row)
        rhs.append(b)

    if basis is not None:
        if len(basis) != nrows or not all(0 <= j < ncols for j in basis):
            raise ValueError("a start basis needs one column index per row")
        tableau = [row + [b] for row, b in zip(rows, rhs)]
        start, basis = basis, [-1] * nrows
        for i, col in enumerate(start):
            if tableau[i][col] == 0:
                raise ValueError("the start basis is singular")
            _pivot(tableau, basis, i, col)
        if any(row[-1] < 0 for row in tableau):
            raise ValueError("the start basis is infeasible")
        return _phase2_reference(tableau, basis, cost)

    # Phase 1: artificial basis, minimize the artificial mass.
    tableau = []
    for i in range(nrows):
        art = [_ZERO] * nrows
        art[i] = _ONE
        tableau.append(rows[i] + art + [rhs[i]])
    basis = [ncols + i for i in range(nrows)]
    phase1_cost = [_ZERO] * (ncols + nrows + 1)
    for j in range(ncols):
        phase1_cost[j] = -sum(rows[i][j] for i in range(nrows))
    phase1_cost[-1] = -sum(rhs)
    tableau.append(phase1_cost)
    if not _run(tableau, basis, ncols + nrows):
        raise AssertionError("phase 1 cannot be unbounded")
    if tableau[-1][-1] != 0:
        raise LpInfeasibleError("no feasible point")

    # Drive any artificial variables out of the basis; drop redundant rows
    # and the artificial columns.
    keep = []
    for i in range(nrows):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if col is None:
                continue  # 0 = 0 row
            _pivot(tableau, basis, i, col)
        keep.append(i)
    tableau = [tableau[i][:ncols] + tableau[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    return _phase2_reference(tableau, basis, cost)


def _phase2_reference(tableau: list[list[Fraction]], basis: list[int],
                      cost: list[Fraction]) -> LpResult:
    """Phase 2 from a feasible basis of the real columns."""
    ncols = len(cost)
    cost = [Fraction(v) for v in cost]
    reduced = list(cost) + [_ZERO]
    for i, bv in enumerate(basis):
        cb = cost[bv]
        if cb != 0:
            reduced = [rj - cb * tij for rj, tij in zip(reduced, tableau[i])]
    tableau.append(reduced)
    if not _run(tableau, basis, ncols):
        raise LpUnboundedError("objective unbounded below")

    x = [_ZERO] * ncols
    for i, bv in enumerate(basis):
        x[bv] = tableau[i][-1]
    value = sum((cv * xv for cv, xv in zip(cost, x)), _ZERO)
    return LpResult(x=x, value=value)


def kernel_basis(matrix: list[list[Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel {v : A v = 0}.

    An empty matrix (no rows) has the full space as kernel, so ncols
    must be supplied in that case.
    """
    if not matrix:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    n = len(matrix[0])
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    basis = []
    for free in free_cols:
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][free]
        basis.append(v)
    return basis


def mat_vec(matrix: list[list[Fraction]], vec: list[Fraction]) -> list[Fraction]:
    return [sum((row[j] * vec[j] for j in range(len(vec))), Fraction(0)) for row in matrix]


# -- channel products and Bayes risk on Fractions ------------------------------


def compose_reference(post: Channel, channel: Channel) -> Channel:
    """channels.compose with a Fraction per multiply-add."""
    if post.input_alphabet != channel.output_alphabet:
        raise AlphabetMismatchError("post-processor input must match channel output")
    mid = channel.num_outputs
    rows = tuple(
        tuple(sum((post.rows[z][y] * channel.rows[y][x] for y in range(mid)), _ZERO)
              for x in range(channel.num_inputs))
        for z in range(post.num_outputs)
    )
    return Channel.of_rows(input_alphabet=channel.input_alphabet,
                           output_alphabet=post.output_alphabet,
                           rows=rows)


def bayes_action_costs_reference(problem: DecisionProblem, prior: Prior,
                                 row: Sequence[Fraction]) -> list[Fraction]:
    """Prior-weighted loss of each action at one output whose channel row
    is `row`, through the output's likelihood under each parameter."""
    m = problem.input_alphabet.size
    n_par = len(problem.parameters)
    likelihoods = [sum((row[x] * problem.model[x][i] for x in range(m)), _ZERO)
                   for i in range(n_par)]
    mass = [prior.values[i] * likelihoods[i] for i in range(n_par)]
    return [sum((mass[i] * problem.loss[i][a] for i in range(n_par)), _ZERO)
            for a in range(len(problem.actions))]


@dataclass(frozen=True)
class DecisionRule:
    """Randomized rule: probs[y][a] is the chance of action a at output y."""

    probs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for row in self.probs:
            if any(v < 0 for v in row) or sum(row) != 1:
                raise ValueError("each output needs a distribution over actions")


def deterministic_rule(choices: Sequence[int], n_actions: int) -> DecisionRule:
    """The rule that takes action choices[y] at output y."""
    return DecisionRule(probs=tuple(
        tuple(_ONE if a == choice else _ZERO for a in range(n_actions))
        for choice in choices))


def bayes_linear_coefficients_reference(problem: DecisionProblem, prior: Prior,
                                        level) -> list[Fraction]:
    """decision.bayes_linear_coefficients row by row: the integer cost of
    every staircase row, m products per action, in mask order."""
    t = as_level(level).t
    p, q = t.numerator, t.denominator
    m = problem.input_alphabet.size
    rows = [[p if mask >> x & 1 else q for x in range(m)] for mask in all_subset_masks(m)]
    costs, d = _bayes_costs(problem, prior, rows, q)
    return [Fraction(min(row), d) for row in costs]


def bayes_optimal_risk_reference(problem: DecisionProblem, prior: Prior,
                                 channel: Channel) -> tuple[Fraction, DecisionRule]:
    """decision.bayes_optimal_risk row by row on Fractions; ties go to the
    lowest action."""
    if channel.input_alphabet != problem.input_alphabet:
        raise AlphabetMismatchError("channel input must match the problem's alphabet")
    if len(prior.values) != len(problem.parameters):
        raise ValueError("prior length must match the parameter list")
    total = _ZERO
    choices = []
    for row in channel.rows:
        costs = bayes_action_costs_reference(problem, prior, row)
        best = min(costs)
        total += best
        choices.append(costs.index(best))
    return total, deterministic_rule(choices, len(problem.actions))


# -- minimax risk and invariance on Fractions -----------------------------------


def output_given_parameter_reference(problem: DecisionProblem,
                                     channel: Channel) -> list[list[Fraction]]:
    """w[y][i] = chance of output y under parameter i."""
    m = problem.input_alphabet.size
    return [[sum((row[x] * problem.model[x][i] for x in range(m)), _ZERO)
             for i in range(len(problem.parameters))]
            for row in channel.rows]


def risk_reference(problem: DecisionProblem, parameter_index: int, channel: Channel,
                   rule: DecisionRule) -> Fraction:
    """decision.risk on Fractions."""
    if channel.input_alphabet != problem.input_alphabet:
        raise AlphabetMismatchError("channel input must match the problem's alphabet")
    w = output_given_parameter_reference(problem, channel)
    loss_row = problem.loss[parameter_index]
    total = _ZERO
    for y in range(channel.num_outputs):
        wy = w[y][parameter_index]
        if wy:
            total += wy * sum((rule.probs[y][a] * loss_row[a]
                               for a in range(len(problem.actions))), _ZERO)
    return total


def minimax_risk_reference(problem: DecisionProblem,
                           channel: Channel) -> tuple[Fraction, DecisionRule]:
    """decision.minimax_risk as a Fraction LP with a rule block for every
    output row, solved on the Fraction tableau."""
    if channel.input_alphabet != problem.input_alphabet:
        raise AlphabetMismatchError("channel input must match the problem's alphabet")
    w = output_given_parameter_reference(problem, channel)
    n_actions = len(problem.actions)
    n_out = channel.num_outputs
    n_par = len(problem.parameters)
    nvars = n_out * n_actions + 2 + n_par  # rule block, s+, s-, slacks
    s_plus = n_out * n_actions
    s_minus = s_plus + 1
    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for y in range(n_out):
        row = [_ZERO] * nvars
        for a in range(n_actions):
            row[y * n_actions + a] = _ONE
        a_eq.append(row)
        b_eq.append(_ONE)
    for i in range(n_par):
        row = [_ZERO] * nvars
        for y in range(n_out):
            wy = w[y][i]
            if wy:
                for a in range(n_actions):
                    row[y * n_actions + a] = wy * problem.loss[i][a]
        row[s_plus] = -_ONE
        row[s_minus] = _ONE
        row[s_minus + 1 + i] = _ONE
        a_eq.append(row)
        b_eq.append(_ZERO)
    cost = [_ZERO] * nvars
    cost[s_plus] = _ONE
    cost[s_minus] = -_ONE
    res = solve_standard_lp_reference(a_eq, b_eq, cost)
    probs = tuple(tuple(res.x[y * n_actions + a] for a in range(n_actions))
                  for y in range(n_out))
    return res.value, DecisionRule(probs=probs)


def check_equalizer_reference(problem: DecisionProblem, prior: Prior, channel: Channel,
                              tolerance: Fraction = _ZERO) -> bool:
    """decision.check_equalizer from the Fraction Bayes, risk and minimax
    references."""
    costs = [bayes_action_costs_reference(problem, prior, row) for row in channel.rows]
    rows = []
    for row in costs:
        ties = [a for a, cost in enumerate(row) if cost == min(row)]
        rows.append(tuple(Fraction(1, len(ties)) if a in ties else _ZERO
                          for a in range(len(row))))
    rule = DecisionRule(probs=tuple(rows))
    risks = [risk_reference(problem, i, channel, rule)
             for i in range(len(problem.parameters))]
    if max(risks) - min(risks) > tolerance:
        return False
    minimax_value, _ = minimax_risk_reference(problem, channel)
    bayes_value = sum((min(row) for row in costs), _ZERO)
    if abs(minimax_value - bayes_value) > tolerance:
        raise AssertionError(
            f"equalizer held but minimax {minimax_value} != bayes {bayes_value}")
    return True


@dataclass(frozen=True)
class InvarianceDeclaration:
    """A group with actions on parameters and actions (letters use the
    natural action)."""

    group: PermGroup
    parameter_action: GroupAction
    action_action: GroupAction


def verify_invariance(problem: DecisionProblem, declaration: InvarianceDeclaration,
                      prior: Prior | None = None) -> bool:
    """Exhaustively check model, loss, and optionally prior invariance."""
    group = declaration.group
    letters = problem.input_alphabet.letters
    par_index = {p: i for i, p in enumerate(problem.parameters)}
    act_index = {a: i for i, a in enumerate(problem.actions)}
    for g in group.elements:
        for i, par in enumerate(problem.parameters):
            gi = par_index[declaration.parameter_action.act(g, par)]
            for x in range(len(letters)):
                if problem.model[g.images[x]][gi] != problem.model[x][i]:
                    return False
            for a, act in enumerate(problem.actions):
                ga = act_index[declaration.action_action.act(g, act)]
                if problem.loss[gi][ga] != problem.loss[i][a]:
                    return False
            if prior is not None and prior.values[gi] != prior.values[i]:
                return False
    return True


# -- permutations, group actions and channel columns -------------------------


def inverse(g: Permutation) -> Permutation:
    inv = [0] * g.degree
    for i, j in enumerate(g.images):
        inv[j] = i
    return Permutation(tuple(inv))


def validate_action(action: GroupAction) -> None:
    """Check the action laws by exhaustion: the identity fixes every
    point, acting is compatible with composition, and every element
    permutes the carrier.  ValueError otherwise."""
    identity = Permutation.identity(action.group.alphabet.size)
    carrier_set = set(action.carrier)
    for p in action.carrier:
        if action.act(identity, p) != p:
            raise ValueError(f"identity moves {p!r}")
    for g in action.group.elements:
        for h in action.group.elements:
            gh = g * h
            for p in action.carrier:
                if action.act(g, action.act(h, p)) != action.act(gh, p):
                    raise ValueError("action is not compatible with composition")
    for g in action.group.elements:
        image = {action.act(g, p) for p in action.carrier}
        if image != carrier_set:
            raise ValueError("action does not permute the carrier")


def column(channel: Channel, x: int) -> tuple[Fraction, ...]:
    """The output distribution of input x."""
    return tuple(row[x] for row in channel.rows)


# -- the Blackwell order, direct sums and relabeling --------------------------


class WeightSumError(LdpPutError):
    """Mixture weights are negative or do not sum to one."""


class DecompositionInfeasibleError(LdpPutError):
    """A conic decomposition that should exist could not be found."""


@dataclass(frozen=True)
class DominanceWitness:
    """A stochastic post-processor W with derived == compose(W, base)."""

    base: Channel
    derived: Channel
    post_processor: Channel

    def __post_init__(self):
        if compose(self.post_processor, self.base) != self.derived:
            raise ValueError("post-processor does not reproduce the derived channel")


def feasible_point(a_eq: list[list[Fraction]], b_eq: list[Fraction],
                   ncols: int) -> list[Fraction] | None:
    """A point of {x >= 0 : A x = b}, or None if the set is empty."""
    try:
        res = solve_standard_lp_reference(a_eq, b_eq, [_ZERO] * ncols)
    except LpInfeasibleError:
        return None
    return res.x


def dominates(q1: Channel, q2: Channel) -> DominanceWitness | None:
    """Exact Blackwell dominance test: is q2 a post-processing of q1?

    Decided by a rational feasibility LP over the post-processor
    entries; returns the witness found, or None when infeasible.
    """
    if q1.input_alphabet != q2.input_alphabet:
        raise AlphabetMismatchError("dominance needs a common input alphabet")
    n1 = q1.num_outputs
    n2 = q2.num_outputs
    n_in = q1.num_inputs
    nvars = n1 * n2  # W[z][y] at index z * n1 + y
    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for z in range(n2):
        for x in range(n_in):
            row = [_ZERO] * nvars
            for y in range(n1):
                row[z * n1 + y] = q1.rows[y][x]
            a_eq.append(row)
            b_eq.append(q2.rows[z][x])
    for y in range(n1):
        row = [_ZERO] * nvars
        for z in range(n2):
            row[z * n1 + y] = _ONE
        a_eq.append(row)
        b_eq.append(_ONE)
    solution = feasible_point(a_eq, b_eq, nvars)
    if solution is None:
        return None
    w_rows = tuple(tuple(solution[z * n1 + y] for y in range(n1)) for z in range(n2))
    post = Channel.of_rows(input_alphabet=q1.output_alphabet,
                           output_alphabet=q2.output_alphabet,
                           rows=w_rows)
    return DominanceWitness(base=q1, derived=q2, post_processor=post)


def equivalent(q1: Channel, q2: Channel) -> bool:
    """Blackwell equivalence: each channel post-processes into the other."""
    return dominates(q1, q2) is not None and dominates(q2, q1) is not None


def dominating_maximal(channel: Channel, level) -> tuple[Channel, DominanceWitness]:
    """A maximal channel above the given one, with the exact witness.

    Each nonzero row is split into a conic combination of staircase
    rows (a feasibility LP; one always exists inside the cone), the
    pieces are gathered by subset, and the bookkeeping of the split
    doubles as the post-processing witness.
    """
    level = as_level(level)
    require_ldp(channel, level)
    polytope = full_polytope(channel.input_alphabet, level)
    n = len(polytope.orbits)
    a_eq = [list(eq) for eq in polytope.rows]
    decompositions: list[list[Fraction]] = []
    for row in channel.rows:
        if all(x == 0 for x in row):
            decompositions.append([_ZERO] * n)
            continue
        sol = feasible_point(a_eq, [x * polytope.denominator for x in row], n)
        if sol is None:
            raise DecompositionInfeasibleError("row is not a conic combination of "
                                               "staircase rows")
        decompositions.append(sol)
    totals = [sum((d[j] for d in decompositions), _ZERO) for j in range(n)]
    maximal = extremal_channel_reference(WeightVector.of_values(polytope, totals))
    w_rows = [[d[j] / totals[j] if totals[j] else _ZERO for j in range(n)]
              for d in decompositions]
    # Zero-weight subsets have zero rows in the maximal channel; their
    # witness columns can carry arbitrary mass, parked on the first output.
    for j in range(n):
        if totals[j] == 0:
            w_rows[0][j] = _ONE
    post = Channel.of_rows(maximal.output_alphabet, channel.output_alphabet, w_rows)
    witness = DominanceWitness(base=maximal, derived=channel, post_processor=post)
    return maximal, witness


def direct_sum(weights: Sequence, channels: Sequence[Channel]) -> Channel:
    """Mixture with labeled components: run channel j with probability p_j.

    Output letters are (block_index, letter) pairs, so the result keeps
    every component's rows even at weight zero.
    """
    if len(weights) != len(channels) or not channels:
        raise WeightSumError("need one weight per channel, at least one of each")
    probs = [as_fraction(w) for w in weights]
    if any(p < 0 for p in probs):
        raise WeightSumError("mixture weights must be nonnegative")
    if sum(probs) != 1:
        raise WeightSumError(f"mixture weights sum to {sum(probs)}, not 1")
    base_input = channels[0].input_alphabet
    for q in channels:
        if q.input_alphabet != base_input:
            raise AlphabetMismatchError("direct sum needs a common input alphabet")
    letters = []
    rows = []
    for j, (p, q) in enumerate(zip(probs, channels)):
        for y, letter in enumerate(q.output_alphabet.letters):
            letters.append((j, letter))
            rows.append(tuple(p * v for v in q.rows[y]))
    return Channel.of_rows(input_alphabet=base_input,
                           output_alphabet=FiniteAlphabet(tuple(letters)),
                           rows=tuple(rows))


def apply_group_element(g: Permutation, sigma: GroupAction, channel: Channel) -> Channel:
    """Relabel a channel by g on inputs and sigma_g on outputs.

    The result Q' satisfies Q'[y, x] = Q[sigma_{g^-1}(y), g^-1 x], so a
    channel is invariant exactly when this returns it unchanged for
    every group element.
    """
    m = channel.num_inputs
    if g.degree != m:
        raise AlphabetMismatchError("group element degree must match the input size")
    if set(sigma.carrier) != set(channel.output_alphabet.letters):
        raise AlphabetMismatchError("output action carrier must match the output alphabet")
    g_inv = inverse(g)
    out_index = {letter: i for i, letter in enumerate(channel.output_alphabet.letters)}
    rows = tuple(
        tuple(channel.rows[out_index[sigma.act(g_inv, y_letter)]][g_inv.images[x]]
              for x in range(m))
        for y_letter in channel.output_alphabet.letters
    )
    return Channel.of_rows(input_alphabet=channel.input_alphabet,
                           output_alphabet=channel.output_alphabet,
                           rows=rows)


def symmetrize(group: PermGroup, channel: Channel) -> Channel:
    """Average a channel over a group, keeping one labeled block per element.

    Block g holds (1/|G|) Q[y, g^-1 x]; the result is invariant under
    the action that sends block g to block h*g (see
    symmetrized_output_action) and is dominated by the original channel.
    """
    if group.alphabet != channel.input_alphabet:
        raise AlphabetMismatchError("group must act on the channel's input alphabet")
    share = Fraction(1, group.order)
    letters = []
    rows = []
    for gidx, g in enumerate(group.elements):
        g_inv = inverse(g)
        for y, letter in enumerate(channel.output_alphabet.letters):
            letters.append((gidx, letter))
            rows.append(tuple(share * channel.rows[y][g_inv.images[x]]
                              for x in range(channel.num_inputs)))
    return Channel.of_rows(input_alphabet=channel.input_alphabet,
                           output_alphabet=FiniteAlphabet(tuple(letters)),
                           rows=tuple(rows))


def symmetrized_output_action(group: PermGroup, channel: Channel) -> GroupAction:
    """The output action (block g, y) -> (block h*g, y) for symmetrize(group, channel)."""
    index = {g: i for i, g in enumerate(group.elements)}
    carrier = tuple((gidx, letter)
                    for gidx in range(group.order)
                    for letter in channel.output_alphabet.letters)

    def act(h: Permutation, point):
        gidx, letter = point
        return (index[h * group.elements[gidx]], letter)

    return GroupAction(group=group, carrier=carrier, act=act)


# -- staircase geometry and maximal channels ----------------------------------


@dataclass(frozen=True)
class StaircaseMatrix:
    """All staircase rows for an alphabet, one per nonempty proper subset."""

    input_alphabet: FiniteAlphabet
    level: PrivacyLevel
    rows: tuple[tuple[Fraction, ...], ...]


def staircase_matrix(alphabet: FiniteAlphabet, level) -> StaircaseMatrix:
    level = as_level(level)
    m = alphabet.size
    if m < 2:
        raise ValueError("staircase geometry needs at least two letters")
    rows = tuple(staircase_row(mask, m, level.t) for mask in all_subset_masks(m))
    return StaircaseMatrix(input_alphabet=alphabet, level=level, rows=rows)


def make_weight_vector(domain: FiniteAlphabet | PermGroup, level,
                       values: Sequence) -> WeightVector:
    """Weights on the full polytope of an alphabet, or on the polytope
    collapsed by a group."""
    level = as_level(level)
    polytope = weight_polytope(domain, level) if isinstance(domain, PermGroup) \
        else full_polytope(domain, level)
    return WeightVector.of_values(polytope, [as_fraction(v) for v in values])


def extremal_channel_reference(weights: WeightVector) -> Channel:
    """The maximal channel of the weights with one output row per subset,
    zero-weight subsets included, orbit by orbit: the subset bitmasks
    are the output letters, and every channel on one polytope has the
    same alphabet.  `ldp_geometry.extremal_channel` is this channel with
    its zero rows removed."""
    polytope = weights.polytope
    if not in_weight_polytope(weights):
        raise PolytopeViolationError("weights are not a member of the weight polytope")
    m = polytope.group.alphabet.size
    p, q = polytope.level.t.numerator, polytope.level.t.denominator
    masks = tuple(mask for orbit in polytope.orbits for mask in orbit.masks)
    rows = tuple(tuple(w * p if mask >> x & 1 else w * q for x in range(m))
                 for orbit, w in zip(polytope.orbits, weights.numerators)
                 for mask in orbit.masks)
    return Channel(input_alphabet=weights.input_alphabet,
                   output_alphabet=FiniteAlphabet(masks), numerators=rows,
                   denominator=weights.denominator * q)


def without_zero_rows(channel: Channel) -> Channel:
    """The channel with its zero rows and their output letters removed."""
    live = [y for y, row in enumerate(channel.numerators) if any(row)]
    letters = channel.output_alphabet.letters
    return Channel(input_alphabet=channel.input_alphabet,
                   output_alphabet=FiniteAlphabet(tuple(letters[y] for y in live)),
                   numerators=tuple(channel.numerators[y] for y in live),
                   denominator=channel.denominator)


def is_maximal(channel: Channel, level) -> bool:
    """A private channel is maximal (not strictly below any other in the
    post-processing order) iff each nonzero row is an extreme direction."""
    return None not in ray_subsets(channel, level)


def ray_subsets_reference(channel: Channel, level) -> list[int | None]:
    """ray_subsets on the Fraction rows: the privacy check, then
    is_extreme_direction on each nonzero row (0 for a zero row)."""
    level = as_level(level)
    require_ldp(channel, level)
    return [0 if all(x == 0 for x in row)
            else is_extreme_direction(row, channel.input_alphabet, level)
            for row in channel.rows]


def canonical_weight_from_rays(channel: Channel, level: PrivacyLevel,
                               subsets: list[int | None]) -> WeightVector:
    """Gather a maximal channel's rows into its full-polytope
    representative, given the channel's ray subsets (not rescanned).

    Rows proportional to the same staircase row pool their scales, so
    equivalent maximal channels (up to relabeling, zero rows, and row
    splits) map to the same weight vector.
    """
    if None in subsets:
        raise NotMaximalError("only maximal channels have a canonical weight")
    m = channel.input_alphabet.size
    totals = [0] * ((1 << m) - 2)
    for row, mask in zip(channel.numerators, subsets):
        if mask:
            totals[mask - 1] += min(row)
    weights = WeightVector(full_polytope(channel.input_alphabet, level), tuple(totals),
                           channel.denominator)
    if not in_weight_polytope(weights):
        raise PolytopeViolationError("gathered weights left the polytope; "
                                     "channel columns cannot be stochastic")
    return weights


def canonical_weight(channel: Channel, level) -> WeightVector:
    """Gather a maximal channel's rows into its full-polytope
    representative, the rays found on Fractions."""
    level = as_level(level)
    return canonical_weight_from_rays(channel, level, ray_subsets_reference(channel, level))


def subset_size(mask: int) -> int:
    return len(mask_to_positions(mask))


# -- subset selection and lifting ---------------------------------------------


class BadSubsetSizeError(LdpPutError):
    """Subset size is outside the valid range 1..m-1."""


def lift_weights(weights: WeightVector) -> WeightVector:
    """Spread each orbit weight onto all of the orbit's subsets."""
    m = weights.input_alphabet.size
    return WeightVector.of_values(full_polytope(weights.input_alphabet, weights.level),
                                  [weights.weight(mask) for mask in all_subset_masks(m)])


def ss_mechanism(alphabet: FiniteAlphabet, k: int, level) -> Channel:
    """Subset selection: report a uniform random size-k subset, tilted to
    favor subsets containing the true letter.

    Equals the fully symmetric invariant channel on the k-subset orbit;
    built directly so large alphabets need no group closure.
    """
    level = as_level(level)
    m = alphabet.size
    if not 1 <= k <= m - 1:
        raise BadSubsetSizeError(f"subset size must be in 1..{m - 1}, got {k}")
    t = level.t
    w = Fraction(m, 1) / (comb(m, k) * (k * t + m - k))
    masks = [mask for mask in all_subset_masks(m) if len(mask_to_positions(mask)) == k]
    rows = tuple(tuple(v * w for v in staircase_row(mask, m, t)) for mask in masks)
    return Channel.of_rows(input_alphabet=alphabet,
                           output_alphabet=FiniteAlphabet(tuple(masks)),
                           rows=rows)


def invariant_output_action(group: PermGroup, channel: Channel) -> GroupAction:
    """Subset action restricted to a channel whose outputs are masks."""
    base = subset_action(natural_action(group))
    return GroupAction(group=group, carrier=tuple(channel.output_alphabet.letters),
                       act=base.act)


# -- the circular family's maximizing subsets ---------------------------------


def positions_to_mask(positions: Iterable[int]) -> int:
    mask = 0
    for i in positions:
        mask |= 1 << i
    return mask


def mask_to_positions(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def z_magnitude(mask: int, m: int) -> float:
    """Magnitude of the subset's sum of m-th roots of unity, one complex
    exponential per letter, added in ascending letter order."""
    total = sum(cmath.exp(2j * cmath.pi * x / m) for x in mask_to_positions(mask))
    return abs(total)


def cardioid_orbit_risk_reference(spec: CardioidSpec, mask: int) -> float:
    """applications.cardioid_orbit_risk with |Z| rebuilt from the mask's
    letters, the floats combined in the same order."""
    m = spec.m
    k = mask.bit_count()
    t = spec.level.t
    amplitude = z_magnitude(mask, m)
    return 1.0 - float(spec.gamma) * (float(t) - 1.0) * amplitude \
        / (2.0 * (k * float(t) + m - k))


def cardioid_consecutive_maximizer(m: int, k: int) -> int:
    """The size-k subset maximizing |Z|: a consecutive run.

    For m <= 12 this is verified against every size-k subset rather
    than assumed.
    """
    if not 1 <= k <= m - 1:
        raise ValueError(f"subset size must be in 1..{m - 1}")
    best = positions_to_mask(range(k))
    if m <= 12:
        target = z_magnitude(best, m)
        for positions in combinations(range(m), k):
            if z_magnitude(positions_to_mask(positions), m) > target + 1e-9:
                raise AssertionError("a non-consecutive subset beat the run")
    return best


# -- JSON writers the commands never use --------------------------------------


def group_to_json(group: PermGroup) -> dict:
    return {
        "alphabet": [letter_to_json(v) for v in group.alphabet.letters],
        "generators": [list(g.images) for g in group.generators],
    }


def problem_to_json(problem: DecisionProblem, prior: Prior | None = None) -> dict:
    data = {
        "parameters": [letter_to_json(v) for v in problem.parameters],
        "inputs": [letter_to_json(v) for v in problem.input_alphabet.letters],
        "actions": [letter_to_json(v) for v in problem.actions],
        "model": [[format_fraction(v) for v in row] for row in problem.model],
        "loss": [[format_fraction(v) for v in row] for row in problem.loss],
    }
    if prior is not None:
        data["prior"] = [format_fraction(v) for v in prior.values]
    return data


def weights_from_json(data: dict) -> WeightVector:
    m = int(data["m"])
    values = [Fraction(0)] * ((1 << m) - 2)
    for mask, value in zip(data["support"], data["weights"]):
        values[int(mask) - 1] = as_fraction(value)
    return WeightVector.of_values(full_polytope(FiniteAlphabet.of_size(m), as_level(data["t"])),
                                  values)


# -- the audit's reference sampler --------------------------------------------


def _random_counts_reference(rng: random.Random, n: int) -> list[int]:
    """n random weights in 0..9, not all zero, drawn by randint."""
    raw = [rng.randint(0, 9) for _ in range(n)]
    if sum(raw) == 0:
        raw[rng.randrange(n)] = 1
    return raw


def random_polytope_point(rng: random.Random,
                          vertices: Sequence[WeightVector]) -> WeightVector:
    """A random convex combination of the polytope vertices, exact.

    Count c_k on vertex k gives it the Fraction weight c_k / sum(c).
    """
    picks = rng.sample(range(len(vertices)), k=min(len(vertices), rng.randint(1, 3)))
    counts = _random_counts_reference(rng, len(picks))
    total = sum(counts)
    mixed = [sum((Fraction(c, total) * vertices[k].values[j] for c, k in zip(counts, picks)),
                 _ZERO)
             for j in range(len(vertices[0].values))]
    return WeightVector.of_values(vertices[0].polytope, mixed)


def random_post_processing(rng: random.Random, channel: Channel) -> Channel:
    """Compose with a random exact stochastic map into a fresh alphabet
    of at most two more outputs than the channel has.

    Column y of the map is its random counts over their sum s_y, written
    over the lcm of the column sums.
    """
    n_in = channel.num_outputs
    n_out = rng.randint(1, n_in + 2)
    cols = [_random_counts_reference(rng, n_out) for _ in range(n_in)]
    d = math.lcm(*map(sum, cols))
    cols = [[v * (d // sum(col)) for v in col] for col in cols]
    post = Channel(input_alphabet=channel.output_alphabet,
                   output_alphabet=FiniteAlphabet(tuple(range(n_out))),
                   numerators=tuple(zip(*cols)),
                   denominator=d)
    return compose(post, channel)


def random_private_channel_reference(rng: random.Random,
                                     vertices: Sequence[WeightVector]) -> Channel:
    """`put_solver.random_private_channel` one step at a time: a polytope
    point as Fraction weights, its extremal channel with one row per
    subset, and two times in three a post-processor channel composed
    after it (one column drawn per subset, zero rows included).  It draws
    the same numbers in the same order; its maximal draws keep their
    zero rows, which the library's drop."""
    q = extremal_channel_reference(random_polytope_point(rng, vertices))
    if rng.random() < Fraction(2, 3):
        q = random_post_processing(rng, q)
    return q


# -- spot checks of the paper's four properties of a risk ---------------------


@dataclass(frozen=True)
class RiskTraits:
    """Properties a risk is claimed to have, for `spot_check_traits`.

    data_processing: post-processing never lowers the value.
    direct_sum_affine: labeled mixtures average the value exactly.
    direct_sum_quasiconvex: labeled mixtures never exceed the max component.
    concave: plain (same-output) mixtures never fall below the average.
    group_invariant: relabeling by the supplied group preserves the value.
    """

    data_processing: bool = True
    direct_sum_affine: bool = False
    direct_sum_quasiconvex: bool = False
    concave: bool = False
    group_invariant: bool = False


BAYES_TRAITS = RiskTraits(data_processing=True, direct_sum_affine=True,
                          direct_sum_quasiconvex=True, concave=True, group_invariant=True)


def _close(lhs, rhs, cmp) -> bool:
    """cmp(lhs, rhs, tolerance): exact for two Fractions, otherwise on
    floats within FLOAT_TOLERANCE."""
    if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        return cmp(lhs, rhs, 0)
    return cmp(float(lhs), float(rhs), FLOAT_TOLERANCE)


_ge = lambda a, b, tol: a >= b - tol
_eq = lambda a, b, tol: abs(a - b) <= tol
_le = lambda a, b, tol: a <= b + tol


def spot_check_traits(objective: Callable[[Channel], Fraction | float],
                      alphabet: FiniteAlphabet, level, traits: RiskTraits,
                      group: PermGroup | None = None, *,
                      rng: random.Random, trials: int = 3) -> None:
    """Randomized sanity check that a risk has the claimed properties.

    Exact values are compared exactly; float-valued objectives get a
    tolerance of FLOAT_TOLERANCE.  A property that fails raises
    ObjectiveMismatchError.
    """
    level = as_level(level)
    vertices = enumerate_polytope_vertices(alphabet, level)
    for _ in range(trials):
        q1 = extremal_channel_reference(random_polytope_point(rng, vertices))
        q2 = extremal_channel_reference(random_polytope_point(rng, vertices))
        if traits.data_processing:
            degraded = random_post_processing(rng, q1)
            if not _close(objective(degraded), objective(q1), _ge):
                raise ObjectiveMismatchError("data-processing attestation failed")
        lam = Fraction(rng.randint(0, 4), 4)
        if traits.direct_sum_affine or traits.direct_sum_quasiconvex:
            mixed = direct_sum([lam, 1 - lam], [q1, q2])
            v1, v2, vm = objective(q1), objective(q2), objective(mixed)
            if traits.direct_sum_affine:
                target = lam * v1 + (1 - lam) * v2 if isinstance(v1, Fraction) \
                    else float(lam) * float(v1) + float(1 - lam) * float(v2)
                if not _close(vm, target, _eq):
                    raise ObjectiveMismatchError("direct-sum affinity attestation failed")
            if traits.direct_sum_quasiconvex:
                if not _close(vm, max(v1, v2), _le):
                    raise ObjectiveMismatchError("direct-sum quasiconvexity attestation failed")
        if traits.concave:
            rows = tuple(tuple(lam * a + (1 - lam) * b for a, b in zip(r1, r2))
                         for r1, r2 in zip(q1.rows, q2.rows))
            blend = Channel.of_rows(input_alphabet=q1.input_alphabet,
                                    output_alphabet=q1.output_alphabet, rows=rows)
            v1, v2 = objective(q1), objective(q2)
            target = lam * v1 + (1 - lam) * v2 if isinstance(v1, Fraction) \
                else float(lam) * float(v1) + float(1 - lam) * float(v2)
            if not _close(objective(blend), target, _ge):
                raise ObjectiveMismatchError("concavity attestation failed")
        if traits.group_invariant and group is not None and group.order > 1:
            g = group.elements[rng.randrange(group.order)]
            sigma = subset_action(natural_action(group))
            moved = apply_group_element(g, sigma, q1)
            if not _close(objective(moved), objective(q1), _eq):
                raise ObjectiveMismatchError("group-invariance attestation failed")

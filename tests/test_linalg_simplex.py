"""Tests for the exact linear algebra kernel and the exact simplex solver."""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ldpput import decision, linalg, simplex
from ldpput.decision import DecisionProblem, minimax_risk
from ldpput.errors import LpUnboundedError
from ldpput.groups import FiniteAlphabet
from ldpput.ldp_geometry import (
    enumerate_polytope_vertices,
    extremal_channel,
    full_polytope,
    subset_column_symmetries,
)
from ldpput.linalg import enumerate_basic_feasible, rank
from ldpput.rationals import as_fraction, format_fraction, integer_matrix
from ldpput.simplex import solve_standard_lp
from oracles import (
    LpInfeasibleError,
    basic_feasible_fraction_reference,
    basic_feasible_orbit_reference,
    basic_feasible_reference,
    feasible_point,
    fraction_rows,
    fraction_vertices,
    integer_system,
    kernel_basis,
    mat_vec,
    rref,
    solve_square_int,
    solve_standard_lp_reference,
)


def F(v) -> Fraction:
    return Fraction(v)


def _scan(a, b, **kwargs) -> list[tuple[Fraction, ...]]:
    """`enumerate_basic_feasible`'s vertices of the rational system A x = b,
    handed over as its integer system, as Fraction tuples, checked to share
    one positive denominator, the least common one."""
    found = enumerate_basic_feasible(*integer_system(a, b), **kwargs)
    denominators = {d for _, d in found}
    assert len(denominators) <= 1 and all(d > 0 for d in denominators)
    if found:
        d = found[0][1]
        assert math.gcd(d, *(v for n, _ in found for v in n)) == 1
    return fraction_vertices(found)


def test_as_fraction_accepts_strings():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == 2
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


@pytest.mark.parametrize("value", [True, False])
def test_as_fraction_rejects_bools(value):
    """A bool is an int in Python, but a JSON true is not the number 1."""
    with pytest.raises(TypeError, match=repr(value)):
        as_fraction(value)


def test_format_fraction():
    assert format_fraction(Fraction(3, 4)) == "3/4"
    assert format_fraction(Fraction(5)) == "5"
    assert format_fraction(Fraction(-1, 2)) == "-1/2"


def test_rref_identity_pivots():
    m = [[F(2), F(0)], [F(0), F(3)]]
    r, pivots = rref(m)
    assert r == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rank_deficient():
    m = [[1, 2], [2, 4]]
    assert rank(m) == 1


def test_kernel_basis_matches_rank_nullity():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = kernel_basis(m)
    assert len(basis) == 3 - rank(integer_matrix(m)[0])
    for v in basis:
        assert mat_vec(m, list(v)) == [F(0)] * 2


def test_solve_square_int_exact():
    a = [[2, 1], [1, 3]]
    b = [5, 10]
    x, d = solve_square_int(a, b)
    assert d > 0 and [Fraction(v, d) for v in x] == [1, 3]


def test_solve_square_int_singular_returns_none():
    assert solve_square_int([[1, 2], [2, 4]], [1, 2]) is None


@given(st.integers(min_value=2, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_square_int_random(n, data):
    rows = [
        data.draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n))
        for _ in range(n)
    ]
    b = data.draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n))
    solved = solve_square_int([list(r) for r in rows], list(b))
    if solved is None:
        assert rank(rows) < n
    else:
        x, d = solved
        assert d > 0
        assert mat_vec([[F(v) for v in r] for r in rows], [F(v) / d for v in x]) == \
            [F(v) for v in b]


def test_enumerate_basic_feasible_simplex_vertices():
    """x + y + z = 1, x,y,z >= 0 has exactly the three unit vertices."""
    a = [[F(1), F(1), F(1)]]
    b = [F(1)]
    verts = _scan(a, b)
    assert sorted(verts) == [
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
    ]


def test_enumerate_basic_feasible_square():
    """Two independent equations in 3 unknowns: at most C(3,2) vertices."""
    a = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    b = [F(1), F(1)]
    verts = _scan(a, b)
    # supports {x,y},{y,z},{x,z}: solutions (1,0,1) has support {x,z}
    assert (F(1), F(0), F(1)) in verts
    assert (F(0), F(1), F(0)) in verts
    for v in verts:
        assert all(c >= 0 for c in v)
        assert mat_vec(a, list(v)) == b


def test_enumerate_basic_feasible_infeasible():
    a = [[F(1), F(1)]]
    b = [F(-1)]
    assert _scan(a, b) == []


_small_rationals = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                             st.sampled_from([1, 2, 3, 5]))


@st.composite
def _rational_systems(draw):
    """Random (A, b) where one row may repeat a combination of two others.

    The repeated row makes A rank-deficient; its rhs is either the same
    combination (consistent) or shifted by a nonzero amount (b outside
    the column span of A).  It is moved to a random position, so the
    first rank(A) rows need not be independent.
    """
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    a = [draw(st.lists(_small_rationals, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    b = draw(st.lists(_small_rationals, min_size=nrows, max_size=nrows))
    if nrows >= 3 and draw(st.booleans()):
        c0, c1 = draw(_small_rationals), draw(_small_rationals)
        a[-1] = [c0 * x + c1 * y for x, y in zip(a[0], a[1])]
        b[-1] = c0 * b[0] + c1 * b[1] + draw(st.sampled_from([0, 0, 1, Fraction(-1, 2)]))
        pos = draw(st.integers(min_value=0, max_value=nrows - 1))
        a.insert(pos, a.pop())
        b.insert(pos, b.pop())
    return a, b


@given(_rational_systems())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_rref_reference(system):
    """rank and the vertex scan equal the rref-per-support reference."""
    a, b = system
    assert rank(integer_matrix(a)[0]) == len(rref(a)[1])
    assert _scan(a, b) == basic_feasible_reference(a, b)


def test_enumerate_basic_feasible_dependent_rows():
    """A repeated row changes nothing; an inconsistent repeat empties the set."""
    a = [[F(1), F(1), F(0)], [F(0), F(1), F(1)], [F(1), F(2), F(1)]]
    assert _scan(a, [F(1), F(1), F(2)]) == \
        _scan(a[:2], [F(1), F(1)])
    assert _scan(a, [F(1), F(1), F(3)]) == []


def test_enumerate_basic_feasible_rejects_non_symmetry():
    """A column permutation must map the rows of [A | b] onto themselves."""
    a = [[F(1), F(2), F(0)], [F(0), F(1), F(1)]]
    b = [F(1), F(1)]
    for swap in ((1, 0, 2), (2, 1, 0)):
        with pytest.raises(ValueError, match="not a symmetry"):
            _scan(a, b, symmetries=[swap])
    with pytest.raises(ValueError, match="not a permutation"):
        _scan(a, b, symmetries=[(0, 0, 2)])
    # Swapping columns 0 and 2 maps each row of this system onto the other.
    a = [[F(1), F(2), F(0)], [F(0), F(2), F(1)]]
    assert sorted(_scan(a, b, symmetries=[(2, 1, 0)])) == \
        sorted(basic_feasible_reference(a, b))


@st.composite
def _symmetric_systems(draw):
    """Random (A, b) invariant under a column shift or swap g.

    Each drawn row comes with its images under the powers of g, all
    with the row's right-hand side, so g permutes the rows of [A | b].
    """
    ncols = draw(st.integers(min_value=2, max_value=5))
    g = draw(st.sampled_from([tuple((j + 1) % ncols for j in range(ncols)),
                              (1, 0, *range(2, ncols))]))
    a, b = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        row = draw(st.lists(_small_rationals, min_size=ncols, max_size=ncols))
        rhs = draw(_small_rationals)
        image = row
        while True:
            a.append(image)
            b.append(rhs)
            image = [image[g.index(j)] for j in range(ncols)]
            if image == row:
                break
    return a, b, g


@given(_symmetric_systems())
@settings(max_examples=150, deadline=None)
def test_symmetry_reduced_scan_matches_reference(system):
    """Solving one support per orbit finds the reference's vertex set."""
    a, b, g = system
    assert sorted(_scan(a, b, symmetries=[g])) == \
        sorted(basic_feasible_reference(a, b))


@given(_symmetric_systems())
@settings(max_examples=150, deadline=None)
def test_orderly_scan_matches_flat_orbit_scan(system):
    """Building supports prefix by prefix gives the flat scan's list, in order."""
    a, b, g = system
    assert _scan(a, b, symmetries=[g]) == \
        basic_feasible_orbit_reference(a, b, [g])


@given(st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=6).flatmap(
           lambda q: st.builds(Fraction, st.integers(min_value=q + 1, max_value=6 * q),
                               st.just(q))))
@settings(max_examples=12, deadline=None)
def test_orderly_scan_matches_flat_orbit_scan_full_polytope(m, t):
    """The full polytope under S_m: the same list, in the same order."""
    a = fraction_rows(full_polytope(FiniteAlphabet.of_size(m), t))
    b = [F(1)] * m
    symmetries = subset_column_symmetries(m)
    assert _scan(a, b, symmetries=symmetries) == \
        basic_feasible_orbit_reference(a, b, symmetries)


@pytest.mark.parametrize("t", [Fraction(3, 2), F(2), F(3), F(5), Fraction(7, 3)])
def test_walk_matches_square_solves_full_polytope_m5(t):
    """Eliminating along the prefix tree gives the list of one fresh square
    solve per orbit-first support, in order, on the full m = 5 polytope."""
    a = fraction_rows(full_polytope(FiniteAlphabet.of_size(5), t))
    b = [F(1)] * 5
    symmetries = subset_column_symmetries(5)
    assert _scan(a, b, symmetries=symmetries) == \
        basic_feasible_fraction_reference(a, b, symmetries)


@st.composite
def _planted_systems(draw):
    """Integer systems whose prefixes go dependent, with a column symmetry
    or none.

    Beside a few random columns c0, c1, ... sit a zero column, a repeat
    of c0, the sum c0 + c1, and a column equal to k * c0 on rows 0 and 1
    only.  Row 0 of c0 is zero, so a support led by c0 takes its first
    pivot from row 1, and with three rows a support with c0 before that
    column finds its second pivot in row 2, if at all.  The columns are
    shuffled, b is a nonnegative combination of them, and the symmetry
    swaps c0 with its repeat, or the two halves of [A | A], or is absent.
    """
    nrows = draw(st.integers(min_value=2, max_value=3))
    entries = st.integers(min_value=-3, max_value=3)
    cols = [draw(st.lists(entries, min_size=nrows, max_size=nrows))
            for _ in range(draw(st.integers(min_value=2, max_value=3)))]
    cols[0][0] = 0
    cols[0][1] = draw(st.sampled_from([-2, -1, 1, 2]))
    k = draw(st.sampled_from([-1, 1, 2]))
    cols += [[k * v if i < 2 else draw(entries) for i, v in enumerate(cols[0])],
             [0] * nrows, list(cols[0]), [x + y for x, y in zip(cols[0], cols[1])]]
    order = draw(st.permutations(range(len(cols))))
    cols = [cols[i] for i in order]
    weights = draw(st.lists(st.integers(min_value=0, max_value=2),
                            min_size=len(cols), max_size=len(cols)))
    a = [[F(col[i]) for col in cols] for i in range(nrows)]
    b = [sum(F(w * col[i]) for w, col in zip(weights, cols)) for i in range(nrows)]
    ncols = len(cols)
    kind = draw(st.sampled_from(["none", "repeat", "halves"]))
    if kind == "none":
        return a, b, []
    if kind == "repeat":  # c0 and its repeat: the transposition fixes every row
        i, j = order.index(0), order.index(len(order) - 2)
        return a, b, [tuple(j if c == i else i if c == j else c for c in range(ncols))]
    return [row + row for row in a], b, [tuple((c + ncols) % (2 * ncols) for c in range(2 * ncols))]


@given(_planted_systems())
@settings(max_examples=120, deadline=None)
def test_walk_prunes_dependent_prefixes_like_flat_scan(system):
    """Zero, repeated and summed columns, and pivots found below row k:
    the walk gives the flat orbit scan's list, in order."""
    a, b, symmetries = system
    assert _scan(a, b, symmetries=symmetries) == \
        basic_feasible_orbit_reference(a, b, symmetries)


@st.composite
def _key_vectors(draw):
    """(ncols, keys): one key below 2**ncols per lane, lane 0 the
    identity's; often the largest key 2**ncols - 1 in a later lane."""
    ncols = draw(st.integers(min_value=1, max_value=12))
    keys = draw(st.lists(st.integers(min_value=0, max_value=2 ** ncols - 1),
                         min_size=1, max_size=8))
    if len(keys) > 1 and draw(st.booleans()):
        keys[draw(st.integers(min_value=1, max_value=len(keys) - 1))] = 2 ** ncols - 1
    return ncols, keys


@given(_key_vectors())
@example((3, [7, 7])).via("the boundary key in both lanes")
@example((3, [6, 7])).via("the boundary key above lane 0")
@example((3, [0, 7, 0])).via("lane 0 empty")
@example((1, [0, 1])).via("one column")
@settings(max_examples=300, deadline=None)
def test_packed_lane_test_matches_max_rule(case):
    """Packed into lanes of ncols key bits under a guard bit, the keys
    unpack to themselves, and the guard-bit test says what
    max(keys) == keys[0] says."""
    ncols, keys = case
    shifts = [i * (ncols + 1) for i in range(len(keys))]
    packed = sum(key << s for key, s in zip(keys, shifts))
    spread = sum(1 << s for s in shifts)
    assert linalg._unpack(packed, ncols, len(keys)) == keys
    assert linalg._identity_first(packed, 2 ** ncols - 1, spread, spread << ncols) == \
        (max(keys) == keys[0])


@st.composite
def _degenerate_symmetric_systems(draw):
    """Integer systems with many degenerate vertices, under a column group
    some of whose elements fix supports and vertices.

    A few random columns, some repeated; each repeat is swapped with its
    original by one generator, which fixes every support holding both or
    neither.  Optionally [A | A], whose halves another generator swaps.
    Every generator fixes each row, and b is a nonnegative combination of
    one or two columns, so most vertices have fewer nonzero entries than
    the rank.
    """
    nrows = draw(st.integers(min_value=2, max_value=3))
    entries = st.integers(min_value=-2, max_value=3)
    cols = [draw(st.lists(entries, min_size=nrows, max_size=nrows))
            for _ in range(draw(st.integers(min_value=2, max_value=4)))]
    repeats = draw(st.lists(st.sampled_from(range(len(cols))), min_size=1, max_size=3,
                            unique=True))
    pairs = [(i, len(cols) + n) for n, i in enumerate(repeats)]
    cols += [list(cols[i]) for i in repeats]
    ncols = len(cols)
    b = [0] * nrows
    for j in draw(st.lists(st.sampled_from(range(ncols)), min_size=1, max_size=2, unique=True)):
        w = draw(st.integers(min_value=1, max_value=2))
        b = [x + w * y for x, y in zip(b, cols[j])]
    copies = 2 if draw(st.booleans()) else 1
    symmetries = [tuple(c - c % ncols + {i: j, j: i}.get(c % ncols, c % ncols)
                        for c in range(copies * ncols)) for i, j in pairs]
    if copies == 2:
        symmetries.append(tuple((c + ncols) % (2 * ncols) for c in range(2 * ncols)))
    a = [[F(col[i]) for col in cols] * copies for i in range(nrows)]
    return a, [F(v) for v in b], symmetries


@given(_degenerate_symmetric_systems())
@settings(max_examples=150, deadline=None)
def test_degenerate_orbits_keyed_once_match_square_solves(system):
    """A degenerate solve whose vertex orbit is already found is skipped,
    and new ones are unpacked from the packed keys: the list is that of a
    fresh square solve per orbit-first support, order included."""
    a, b, symmetries = system
    found = _scan(a, b, symmetries=symmetries)
    assert found == basic_feasible_fraction_reference(a, b, symmetries)
    assert sorted(found) == sorted(basic_feasible_reference(a, b))


def test_rank_zero_systems():
    """A zero matrix has the empty support alone: the origin when b = 0."""
    assert _scan([[F(0)]], [F(0)]) == [(F(0),)]
    assert _scan([[F(0), F(0)]], [F(0)], symmetries=[(1, 0)]) == \
        [(F(0), F(0))]
    assert _scan([[F(0)]], [F(1)]) == []
    assert _scan([], []) == [()]


def test_simplex_basic_minimum():
    # minimize x + 2y subject to x + y = 1, by the two-phase reference
    res = solve_standard_lp_reference([[F(1), F(1)]], [F(1)], [F(1), F(2)])
    assert res.value == 1
    assert res.x == [F(1), F(0)]


def test_simplex_infeasible():
    with pytest.raises(LpInfeasibleError):
        solve_standard_lp_reference([[F(1), F(1)]], [F(-1)], [F(1), F(1)])


def test_simplex_unbounded():
    # minimize -x subject to x - y = 0, from x basic at 0: ray (s, s)
    # drives cost to -inf
    with pytest.raises(LpUnboundedError):
        solve_standard_lp([[1, -1]], [0], [-1, 0], [0])


def test_simplex_degenerate_rows():
    # duplicated constraint must not break the reference's phase 1
    a = [[F(1), F(1)], [F(1), F(1)]]
    res = solve_standard_lp_reference(a, [F(1), F(1)], [F(3), F(1)])
    assert res.value == 1


def test_simplex_start_basis():
    # the LP of test_simplex_basic_minimum, started at y = 1: one pivot to x
    res = solve_standard_lp([[1, 1]], [1], [1, 2], basis=[1])
    assert res.value == 1
    assert res.x == [F(1), F(0)]


def test_simplex_start_basis_singular():
    # the second row minus twice the first has no y: y cannot enter at row 1
    with pytest.raises(ValueError, match="singular"):
        solve_standard_lp([[1, 1, 0], [2, 2, 1]], [1, 3], [1, 1, 1], basis=[0, 1])
    with pytest.raises(ValueError, match="one column index per row"):
        solve_standard_lp([[1, 1]], [1], [1, 1], basis=[0, 1])


def test_simplex_start_basis_infeasible():
    # basis {y, x}: x + y = 1 and x - y = 3 give y = -1
    with pytest.raises(ValueError, match="infeasible"):
        solve_standard_lp([[1, 1, 0], [1, -1, 1]], [1, 3], [1, 1, 1], basis=[1, 0])


def test_feasible_point():
    x = feasible_point([[F(1), F(1), F(1)]], [F(1)], 3)
    assert x is not None
    assert sum(x) == 1 and all(v >= 0 for v in x)
    assert feasible_point([[F(1), F(1)]], [F(-2)], 2) is None


def _random_lp(rng: random.Random):
    """A random integer standard-form LP with a feasible start basis:
    column basis[i] can be pivoted in at row i in turn (each leading minor
    is nonzero), and b = A x0 for an x0 >= 0 on the basis columns."""
    n = rng.randint(2, 6)
    k = rng.randint(1, min(3, n - 1))
    while True:
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        basis = rng.sample(range(n), k)
        if all(rank([[row[j] for j in basis[:i]] for row in a[:i]]) == i
               for i in range(1, k + 1)):
            break
    x0 = [0] * n
    for j in basis:
        x0[j] = rng.randint(0, 5)
    b = [sum(map(mul, row, x0)) for row in a]
    cost = [rng.randint(-5, 5) for _ in range(n)]
    return a, b, cost, basis


@pytest.mark.parametrize("seed", range(25))
def test_simplex_against_scipy(seed):
    """Exact optima match floating-point linprog on random feasible LPs."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(seed)
    a, b, cost, basis = _random_lp(rng)
    ref = scipy_opt.linprog(
        [float(c) for c in cost],
        A_eq=[[float(v) for v in row] for row in a],
        b_eq=[float(v) for v in b],
        bounds=[(0, None)] * len(cost),
        method="highs",
    )
    if ref.status == 3:
        with pytest.raises(LpUnboundedError):
            solve_standard_lp(a, b, cost, basis)
        return
    assert ref.status == 0
    res = solve_standard_lp(a, b, cost, basis)
    assert abs(float(res.value) - ref.fun) < 1e-8
    assert mat_vec(a, res.x) == b
    assert all(v >= 0 for v in res.x)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_simplex_solution_is_feasible(seed):
    rng = random.Random(seed)
    a, b, cost, basis = _random_lp(rng)
    try:
        res = solve_standard_lp(a, b, cost, basis)
    except LpUnboundedError:
        return
    assert mat_vec(a, res.x) == b
    assert all(v >= 0 for v in res.x)
    assert res.value == sum(c * v for c, v in zip(cost, res.x))


@contextmanager
def _recording_pivots(module):
    """Record the (row, col) of every pivot that module's _pivot makes."""
    pivots = []
    original = module._pivot

    def recorder(tableau, basis, row, col, *rest):
        pivots.append((row, col))
        return original(tableau, basis, row, col, *rest)

    module._pivot = recorder
    try:
        yield pivots
    finally:
        module._pivot = original


def _recorded_solve(module, solve, a, b, cost, basis, cost_d=1):
    """((x, value) or the exception type, pivot sequence) of one solve; the
    value is divided by cost_d, the denominator the cost was scaled by."""
    with _recording_pivots(module) as pivots:
        try:
            res = solve(a, b, cost, basis)
        except (LpUnboundedError, ValueError) as exc:
            return type(exc), pivots
    return (res.x, res.value / cost_d), pivots


def _assert_reference_path(a, b, cost, basis):
    """The kernel on the LP scaled to integers ([A | b] and the cost each by
    one denominator) pivots as the Fraction reference on the LP itself."""
    (int_cost,), cost_d = integer_matrix([cost])
    got = _recorded_solve(simplex, solve_standard_lp, *integer_system(a, b), int_cost, basis,
                          cost_d)
    want = _recorded_solve(oracles, solve_standard_lp_reference, a, b, cost, basis)
    assert got == want


@given(_rational_systems(), st.data())
@settings(max_examples=300, deadline=None)
def test_simplex_from_start_basis_follows_reference_path(system, data):
    """From a drawn start basis: the same x, value or exception, and the
    same pivots (start pivots first), as the Fraction tableau.

    A column may repeat or be dependent on the others (singular), and
    half the time b = A x0 for an x0 >= 0 on the basis columns, so the
    start is feasible whenever it is a basis.
    """
    a, b = system
    nrows, ncols = len(a), len(a[0])
    basis = data.draw(st.lists(st.integers(min_value=0, max_value=ncols - 1),
                               min_size=nrows, max_size=nrows))
    if data.draw(st.booleans()):
        x0 = [Fraction(0)] * ncols
        for j in basis:
            x0[j] = data.draw(st.sampled_from([0, 1, Fraction(1, 2), 3]))
        b = mat_vec(a, x0)
    cost = data.draw(st.lists(_small_rationals, min_size=ncols, max_size=ncols))
    _assert_reference_path(a, b, cost, basis)


def test_minimax_lps_follow_reference_path(monkeypatch):
    """The 41 minimax LPs over the m=4 vertex channels pivot as the reference."""
    problem = DecisionProblem.build(
        parameters=(0, 1, 2),
        input_letters=(0, 1, 2, 3),
        model=[["1/10", "2/7", "1/2"],
               ["1/5", "2/7", "1/6"],
               ["3/10", "1/7", "1/6"],
               ["2/5", "2/7", "1/6"]],
        actions=(0, 1, 2),
        loss=[[0, 3, 1], [2, 0, 4], [3, 1, 0]],
    )
    lps = []

    def recording_solve(a_eq, b_eq, cost, basis):
        lps.append((a_eq, b_eq, cost, basis))
        return solve_standard_lp(a_eq, b_eq, cost, basis)

    monkeypatch.setattr(decision, "solve_standard_lp", recording_solve)
    for vertex in enumerate_polytope_vertices(FiniteAlphabet.of_size(4), Fraction(3, 2)):
        minimax_risk(problem, extremal_channel(vertex))
    assert len(lps) == 41
    for a_eq, b_eq, cost, basis in lps:
        assert basis is not None
        _assert_reference_path(a_eq, b_eq, cost, basis)

"""Tests for the exact linear algebra kernel and the rational simplex solver."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpput.errors import LpInfeasibleError, LpUnboundedError
from ldpput.linalg import (
    enumerate_basic_feasible,
    rank,
    rref,
    solve_square_int,
)
from ldpput.rationals import as_fraction, format_fraction
from ldpput.simplex import feasible_point, solve_standard_lp
from oracles import kernel_basis, mat_vec


def F(v) -> Fraction:
    return Fraction(v)


def test_as_fraction_accepts_strings():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == 2
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


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
    m = [[F(1), F(2)], [F(2), F(4)]]
    assert rank(m) == 1


def test_kernel_basis_matches_rank_nullity():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = kernel_basis(m)
    assert len(basis) == 3 - rank(m)
    for v in basis:
        assert mat_vec(m, list(v)) == [F(0)] * 2


def test_solve_square_int_exact():
    a = [[2, 1], [1, 3]]
    b = [5, 10]
    x = solve_square_int(a, b)
    assert x == [Fraction(1), Fraction(3)]


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
    x = solve_square_int([list(r) for r in rows], list(b))
    if x is None:
        assert rank([[F(v) for v in r] for r in rows]) < n
    else:
        assert mat_vec([[F(v) for v in r] for r in rows], x) == [F(v) for v in b]


def test_enumerate_basic_feasible_simplex_vertices():
    """x + y + z = 1, x,y,z >= 0 has exactly the three unit vertices."""
    a = [[F(1), F(1), F(1)]]
    b = [F(1)]
    verts = enumerate_basic_feasible(a, b)
    assert sorted(verts) == [
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
    ]


def test_enumerate_basic_feasible_square():
    """Two independent equations in 3 unknowns: at most C(3,2) vertices."""
    a = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    b = [F(1), F(1)]
    verts = enumerate_basic_feasible(a, b)
    # supports {x,y},{y,z},{x,z}: solutions (1,0,1) has support {x,z}
    assert (F(1), F(0), F(1)) in verts
    assert (F(0), F(1), F(0)) in verts
    for v in verts:
        assert all(c >= 0 for c in v)
        assert mat_vec(a, list(v)) == b


def test_enumerate_basic_feasible_infeasible():
    a = [[F(1), F(1)]]
    b = [F(-1)]
    assert enumerate_basic_feasible(a, b) == []


def test_simplex_basic_minimum():
    # minimize x + 2y subject to x + y = 1
    res = solve_standard_lp([[F(1), F(1)]], [F(1)], [F(1), F(2)])
    assert res.value == 1
    assert res.x == [F(1), F(0)]


def test_simplex_infeasible():
    with pytest.raises(LpInfeasibleError):
        solve_standard_lp([[F(1), F(1)]], [F(-1)], [F(1), F(1)])


def test_simplex_unbounded():
    # minimize -x subject to x - y = 0: ray (s, s) drives cost to -inf
    with pytest.raises(LpUnboundedError):
        solve_standard_lp([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])


def test_simplex_degenerate_rows():
    # duplicated constraint must not break phase 1
    a = [[F(1), F(1)], [F(1), F(1)]]
    res = solve_standard_lp(a, [F(1), F(1)], [F(3), F(1)])
    assert res.value == 1


def test_feasible_point():
    x = feasible_point([[F(1), F(1), F(1)]], [F(1)], 3)
    assert x is not None
    assert sum(x) == 1 and all(v >= 0 for v in x)
    assert feasible_point([[F(1), F(1)]], [F(-2)], 2) is None


def _random_lp(rng: random.Random):
    """A random standard-form LP with a guaranteed feasible point."""
    n = rng.randint(2, 6)
    k = rng.randint(1, min(3, n - 1))
    a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(k)]
    x0 = [F(rng.randint(0, 5)) for _ in range(n)]
    b = mat_vec(a, x0)
    cost = [F(rng.randint(-5, 5)) for _ in range(n)]
    return a, b, cost


@pytest.mark.parametrize("seed", range(25))
def test_simplex_against_scipy(seed):
    """Exact optima match floating-point linprog on random feasible LPs."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(seed)
    a, b, cost = _random_lp(rng)
    ref = scipy_opt.linprog(
        [float(c) for c in cost],
        A_eq=[[float(v) for v in row] for row in a],
        b_eq=[float(v) for v in b],
        bounds=[(0, None)] * len(cost),
        method="highs",
    )
    if ref.status == 3:
        with pytest.raises(LpUnboundedError):
            solve_standard_lp(a, b, cost)
        return
    assert ref.status == 0
    res = solve_standard_lp(a, b, cost)
    assert abs(float(res.value) - ref.fun) < 1e-8
    assert mat_vec(a, res.x) == b
    assert all(v >= 0 for v in res.x)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_simplex_solution_is_feasible(seed):
    rng = random.Random(seed)
    a, b, cost = _random_lp(rng)
    try:
        res = solve_standard_lp(a, b, cost)
    except LpUnboundedError:
        return
    assert mat_vec(a, res.x) == b
    assert all(v >= 0 for v in res.x)
    assert res.value == sum(c * v for c, v in zip(cost, res.x))

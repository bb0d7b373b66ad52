"""Test oracles: independent checks that the library itself never needs.

Each recomputes a quantity the library derives another way (extremality
from the rank of the active cone facets, the circular task's risk by
grid integration, kernels by elimination), so a test can compare the
two.  numpy is needed here only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ldpput.applications import CardioidSpec
from ldpput.channels import PrivacyLevel, as_level
from ldpput.errors import NotInConeError, ZeroVectorError
from ldpput.groups import (
    FiniteAlphabet,
    cyclic_group,
    mask_to_positions,
    natural_action,
    orbits,
    subset_action,
)
from ldpput.linalg import rank, rref
from ldpput.rationals import as_fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    return rank(active) == m - 1


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


# -- linear algebra -----------------------------------------------------------


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

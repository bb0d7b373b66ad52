"""Test oracles: independent checks that the library itself never needs.

Each recomputes a quantity the library derives another way (extremality
from the rank of the active cone facets, the circular task's risk by
grid integration, a transitive group's vertex weights by double
counting, kernels by elimination, LP optima and pivot paths on a
Fraction tableau, channel products, Bayes and minimax risks one Fraction
per multiply-add), so a test can compare the two.  numpy is needed here
only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from ldpput.applications import CardioidSpec
from ldpput.channels import Channel, PrivacyLevel, as_level
from ldpput.decision import DecisionProblem, DecisionRule, Prior
from ldpput.errors import (
    AlphabetMismatchError,
    LdpPutError,
    LpInfeasibleError,
    LpUnboundedError,
    NotTransitiveError,
    ZeroVectorError,
)
from ldpput.groups import (
    FiniteAlphabet,
    GroupAction,
    PermGroup,
    cyclic_group,
    mask_to_positions,
    natural_action,
    orbits,
    subset_action,
)
from ldpput.ldp_geometry import SubsetOrbit, WeightVector, weight_polytope
from ldpput.linalg import rank
from ldpput.rationals import as_fraction
from ldpput.simplex import LpResult

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NotInConeError(LdpPutError):
    """A vector lies outside the privacy cone."""


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
    return WeightVector(polytope=polytope, values=tuple(values))


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


# -- reference simplex --------------------------------------------------------


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
                      cost: list[Fraction]) -> LpResult:
    """Minimize cost.x over {x >= 0 : A x = b} on a Fraction tableau.

    The rational two-phase simplex with Bland's rule that the integer
    tableau of ldpput.simplex must follow pivot for pivot.  Raises
    LpInfeasibleError / LpUnboundedError accordingly.
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

    # Drive any artificial variables out of the basis; drop redundant rows.
    keep = []
    for i in range(nrows):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if col is None:
                continue  # 0 = 0 row
            _pivot(tableau, basis, i, col)
        keep.append(i)
    tableau = [tableau[i] for i in keep] + [tableau[-1]]
    basis = [basis[i] for i in keep]

    # Phase 2: rebuild the reduced-cost row for the real objective.
    cost = [Fraction(v) for v in cost]
    reduced = list(cost) + [_ZERO] * nrows + [_ZERO]
    for i, bv in enumerate(basis):
        cb = cost[bv]
        if cb != 0:
            reduced = [rj - cb * tij for rj, tij in zip(reduced, tableau[i])]
    tableau[-1] = reduced
    if not _run(tableau, basis, ncols):
        raise LpUnboundedError("objective unbounded below")

    x = [_ZERO] * ncols
    for i, bv in enumerate(basis):
        if bv < ncols:
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
    return Channel(input_alphabet=channel.input_alphabet,
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
    return total, DecisionRule.deterministic(choices, len(problem.actions))


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
                if problem.model[g(x)][gi] != problem.model[x][i]:
                    return False
            for a, act in enumerate(problem.actions):
                ga = act_index[declaration.action_action.act(g, act)]
                if problem.loss[gi][ga] != problem.loss[i][a]:
                    return False
            if prior is not None and prior.values[gi] != prior.values[i]:
                return False
    return True

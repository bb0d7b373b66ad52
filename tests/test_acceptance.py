"""Release gate.

Each test here checks one release criterion end to end and prints a
single PASS/FAIL line, with its runtime, on the real stdout so the
gate stays readable under pytest's capture.  Comparisons are exact
Fraction equality unless a tolerance constant is pinned right next to
the check.  Runtime budgets are asserted where the criterion carries
one.
"""

import math
import random
import sys
import time
from fractions import Fraction as F
from itertools import product

from ldpput.applications import (
    CardioidSpec,
    cardioid_orbit_risk,
    cardioid_put_closed_form,
    ht_problem,
    ht_put_closed_form,
    ht_subset_risk,
)
from ldpput.channels import Channel, PrivacyLevel, compose
from ldpput.decision import (
    DecisionProblem,
    Prior,
    bayes_linear_coefficients,
    bayes_optimal_risk,
    minimax_risk,
    mutual_information,
    mutual_information_linear_coefficients,
)
from ldpput.groups import (
    FiniteAlphabet,
    GroupAction,
    all_subset_masks,
    cyclic_group,
    symmetric_group,
)
from ldpput.invariant import enumerate_invariant_vertices
from ldpput.ldp_geometry import (
    enumerate_polytope_vertices,
    extremal_channel,
    in_weight_polytope,
    is_extreme_direction,
    subset_orbits,
)
from ldpput.put_solver import (
    BAYES_TRAITS,
    put_by_lp,
    put_by_vertex_enumeration,
    put_transitive_closed_form,
    random_channel_audit,
)
from oracles import (
    apply_group_element,
    canonical_weight,
    cardioid_orbit_risk_numeric,
    check_equalizer_reference,
    direct_sum,
    invariant_output_action,
    is_maximal,
    kernel_rank_check,
    lift_weights,
    make_weight_vector,
    ss_mechanism,
    subset_size,
)

GAMMAS = (F(1, 4), F(1, 2), F(1))
TS = (F(3, 2), F(2), F(5))


def _line(label, verdict, elapsed, budget):
    extra = f", budget {budget:g}s" if budget is not None else ""
    sys.stdout.write(f"[gate] {label}: {verdict} ({elapsed:.1f}s{extra})\n")
    sys.stdout.flush()


def gate(label, budget=None):
    """Wrap a criterion body: print one PASS/FAIL line, enforce the budget.

    The line is emitted outside pytest's capture so it shows up in
    plain `pytest -v` runs.
    """

    def wrap(fn):
        def run(capfd):
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                with capfd.disabled():
                    _line(label, "FAIL", time.monotonic() - start, budget)
                raise
            elapsed = time.monotonic() - start
            ok = budget is None or elapsed <= budget
            with capfd.disabled():
                _line(label, "PASS" if ok else "FAIL", elapsed, budget)
            assert ok, f"{label}: runtime {elapsed:.1f}s over budget {budget}s"

        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run

    return wrap


# -- 1: the binary alphabet has a unique optimal channel -----------------------


@gate("01 binary uniqueness", budget=1)
def test_binary_level_has_unique_optimal_channel():
    alphabet = FiniteAlphabet.of_size(2)
    for tv in TS:
        level = PrivacyLevel(tv)
        vertices = enumerate_polytope_vertices(alphabet, level)
        assert len(vertices) == 1
        d = tv + 1
        assert vertices[0].values == (1 / d, 1 / d)
        q = extremal_channel(vertices[0])
        assert q.rows == ((tv / d, 1 / d), (1 / d, tv / d))


# -- 2: five solution methods agree exactly on the testing task ----------------


def _ht_five_methods(m, gamma, level):
    alphabet = FiniteAlphabet.of_size(m)
    group = symmetric_group(alphabet)
    problem, prior = ht_problem(m, gamma)

    def objective(q):
        return bayes_optimal_risk(problem, prior, q)[0]

    closed = ht_put_closed_form(m, gamma, level)
    transitive = put_transitive_closed_form(
        [ht_subset_risk(m, gamma, level, subset_size(mask)) for mask in all_subset_masks(m)],
        group, level, traits=BAYES_TRAITS).value
    grouped = put_by_vertex_enumeration(objective, alphabet, level, group=group,
                                        traits=BAYES_TRAITS).value
    u = bayes_linear_coefficients(problem, prior, level)
    lp = put_by_lp(u, alphabet, level, cap=5).value
    if m <= 4:
        full = put_by_vertex_enumeration(objective, alphabet, level,
                                         traits=BAYES_TRAITS, cap=5).value
    else:
        # same exhaustive vertex sweep, but scored through the per-subset
        # linear form (proven equal to the direct risk in the unit suite);
        # the black-box objective at every m=5 vertex would dominate the
        # budget without adding independence
        vertices = enumerate_polytope_vertices(alphabet, level, cap=5)
        full = min(sum(c * uy for c, uy in zip(v.values, u)) for v in vertices)
    return closed, transitive, grouped, lp, full


@gate("02 testing-task method agreement", budget=60)
def test_ht_put_five_methods_agree_exactly():
    for m, tv, gamma in product((2, 3, 4, 5), TS, GAMMAS):
        values = _ht_five_methods(m, gamma, PrivacyLevel(tv))
        assert all(isinstance(v, F) for v in values)
        assert len(set(values)) == 1, (m, gamma, tv, values)
    spot = _ht_five_methods(2, F(1), PrivacyLevel(F(3)))
    assert set(spot) == {F(1, 4)}
    spot = _ht_five_methods(3, F(1), PrivacyLevel(F(2)))
    assert set(spot) == {F(1, 2)}


# -- 3: worst-case equals average-case risk at the optimum ---------------------


@gate("03 minimax equals bayes with equalizer")
def test_ht_minimax_matches_bayes_with_equalizer():
    for m, tv, gamma in product((2, 3, 4, 5), TS, GAMMAS):
        level = PrivacyLevel(tv)
        problem, prior = ht_problem(m, gamma)
        best = ss_mechanism(FiniteAlphabet.of_size(m), 1, level)
        value = ht_put_closed_form(m, gamma, level)
        assert bayes_optimal_risk(problem, prior, best)[0] == value
        assert minimax_risk(problem, best)[0] == value
        assert check_equalizer_reference(problem, prior, best, tolerance=0)


# -- 4: circular estimation optimum matches the closed form --------------------

CARDIOID_CLOSED_TOL = 1e-9
CARDIOID_NUMERIC_TOL = 1e-6


@gate("04 circular-task closed form", budget=30)
def test_cardioid_orbit_minimum_matches_closed_form():
    for m, gamma, tv in product((3, 4, 5, 6), (F(1, 2), F(1)), (F(2), F(3))):
        spec = CardioidSpec.build(m, gamma, PrivacyLevel(tv))
        group = cyclic_group(FiniteAlphabet.of_size(m))
        reps = [o.representative for o in subset_orbits(group)]
        risks = {rep: cardioid_orbit_risk(spec, rep) for rep in reps}
        assert abs(min(risks.values()) - cardioid_put_closed_form(spec)) \
            <= CARDIOID_CLOSED_TOL, (m, gamma, tv)
        for rep, analytic in risks.items():
            numeric = cardioid_orbit_risk_numeric(spec, rep)
            assert abs(numeric - analytic) <= CARDIOID_NUMERIC_TOL, (m, gamma, tv, rep)

    spec = CardioidSpec.build(4, F(1), PrivacyLevel(F(3)))
    group = cyclic_group(FiniteAlphabet.of_size(4))
    reps = [o.representative for o in subset_orbits(group)]
    winner = min(reps, key=lambda rep: cardioid_orbit_risk(spec, rep))
    assert bin(winner).count("1") == 2
    assert abs(cardioid_put_closed_form(spec) - (1 - math.sqrt(2) / 8)) \
        <= CARDIOID_CLOSED_TOL


# -- 5: the two extreme-direction oracles never disagree -----------------------


@gate("05 extreme-direction oracle agreement", budget=5)
def test_extreme_direction_oracles_agree_exhaustively():
    alphabet = FiniteAlphabet.of_size(3)
    t = F(2)
    values = (F(1), (t + 1) / 2, t)
    for v in product(values, repeat=3):
        pattern = is_extreme_direction(list(v), alphabet, t) is not None
        kernel = kernel_rank_check(list(v), alphabet, t)
        assert pattern == kernel, v


# -- 6: weights and channels are two views of the same object ------------------


def _random_mixture(rng, vertices, alphabet, level):
    raw = [rng.randint(0, 4) for _ in vertices]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    n = len(vertices[0].values)
    combined = [sum(F(raw[i], total) * vertices[i].values[j]
                    for i in range(len(vertices))) for j in range(n)]
    return make_weight_vector(alphabet, level, combined)


def _random_orbit_mixture(rng, group, level, vertices):
    raw = [rng.randint(0, 4) for _ in vertices]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    n = len(vertices[0].values)
    combined = [sum(F(raw[i], total) * vertices[i].values[j]
                    for i in range(len(vertices))) for j in range(n)]
    return make_weight_vector(group, level, combined)


@gate("06 weight/channel bijection round-trips", budget=30)
def test_weight_channel_bijection_round_trips():
    level = PrivacyLevel(F(2))
    for m in (2, 3, 4):
        alphabet = FiniteAlphabet.of_size(m)
        vertices = enumerate_polytope_vertices(alphabet, level)
        rng = random.Random(f"roundtrip:{m}")
        for _ in range(200):
            w = _random_mixture(rng, vertices, alphabet, level)
            assert in_weight_polytope(w)
            q = extremal_channel(w)
            assert is_maximal(q, level)
            assert canonical_weight(q, level).values == w.values

        group = symmetric_group(alphabet)
        invariant_vertices = enumerate_invariant_vertices(group, level)
        for _ in range(200):
            ow = _random_orbit_mixture(rng, group, level, invariant_vertices)
            assert in_weight_polytope(ow)
            lifted = lift_weights(ow)
            assert in_weight_polytope(lifted)
            q = extremal_channel(ow)
            assert is_maximal(q, level)
            action = invariant_output_action(group, q)
            for g in group.generators:
                assert apply_group_element(g, action, q).rows == q.rows
            assert canonical_weight(q, level).values == lifted.values


# -- 7: risk functionals keep their structural properties ----------------------


def _random_problem(rng):
    n_par = rng.randint(2, 3)
    m = rng.randint(2, 3)
    n_act = rng.randint(2, 3)
    cols = []
    for _ in range(n_par):
        raw = [rng.randint(1, 6) for _ in range(m)]
        tot = sum(raw)
        cols.append([F(v, tot) for v in raw])
    model = [[cols[i][x] for i in range(n_par)] for x in range(m)]
    loss = [[F(rng.randint(0, 4)) for _ in range(n_act)] for _ in range(n_par)]
    return DecisionProblem.build(parameters=tuple(range(n_par)),
                                 input_letters=tuple(range(m)), model=model,
                                 actions=tuple(range(n_act)), loss=loss)


def _random_channel(rng, n_in, n_out):
    cols = []
    for _ in range(n_in):
        raw = [rng.randint(1, 6) for _ in range(n_out)]
        tot = sum(raw)
        cols.append([F(v, tot) for v in raw])
    rows = [[cols[x][y] for x in range(n_in)] for y in range(n_out)]
    return Channel.build(list(range(n_in)), list(range(n_out)), rows)


def _random_prior(rng, n):
    raw = [rng.randint(1, 6) for _ in range(n)]
    tot = sum(raw)
    return Prior.build([F(v, tot) for v in raw])


PROPERTY_INSTANCES = 500


@gate("07 risk functional properties", budget=120)
def test_risk_functional_property_suites():
    rng = random.Random("post-processing")
    for _ in range(PROPERTY_INSTANCES):
        p = _random_problem(rng)
        m = p.input_alphabet.size
        q = _random_channel(rng, m, rng.randint(2, 4))
        w = _random_channel(rng, q.num_outputs, rng.randint(2, 3))
        prior = _random_prior(rng, len(p.parameters))
        degraded = compose(w, q)
        assert bayes_optimal_risk(p, prior, degraded)[0] \
            >= bayes_optimal_risk(p, prior, q)[0]
        assert minimax_risk(p, degraded)[0] >= minimax_risk(p, q)[0]

    rng = random.Random("direct-sum-affine")
    for _ in range(PROPERTY_INSTANCES):
        p = _random_problem(rng)
        m = p.input_alphabet.size
        q1 = _random_channel(rng, m, rng.randint(2, 3))
        q2 = _random_channel(rng, m, rng.randint(2, 3))
        lam = F(rng.randint(1, 9), 10)
        prior = _random_prior(rng, len(p.parameters))
        lhs = bayes_optimal_risk(p, prior, direct_sum([lam, 1 - lam], [q1, q2]))[0]
        rhs = lam * bayes_optimal_risk(p, prior, q1)[0] \
            + (1 - lam) * bayes_optimal_risk(p, prior, q2)[0]
        assert lhs == rhs

    rng = random.Random("direct-sum-quasiconvex")
    for _ in range(PROPERTY_INSTANCES):
        p = _random_problem(rng)
        m = p.input_alphabet.size
        q1 = _random_channel(rng, m, rng.randint(2, 3))
        q2 = _random_channel(rng, m, rng.randint(2, 3))
        lam = F(rng.randint(1, 9), 10)
        s = direct_sum([lam, 1 - lam], [q1, q2])
        assert minimax_risk(p, s)[0] \
            <= max(minimax_risk(p, q1)[0], minimax_risk(p, q2)[0])

    rng = random.Random("mixture-concave")
    for _ in range(PROPERTY_INSTANCES):
        p = _random_problem(rng)
        m = p.input_alphabet.size
        n_out = rng.randint(2, 3)
        q1 = _random_channel(rng, m, n_out)
        q2 = _random_channel(rng, m, n_out)
        lam = F(rng.randint(1, 9), 10)
        mixed = Channel.build(
            list(range(m)), list(range(n_out)),
            [[lam * q1.rows[y][x] + (1 - lam) * q2.rows[y][x] for x in range(m)]
             for y in range(n_out)])
        prior = _random_prior(rng, len(p.parameters))
        lhs = bayes_optimal_risk(p, prior, mixed)[0]
        rhs = lam * bayes_optimal_risk(p, prior, q1)[0] \
            + (1 - lam) * bayes_optimal_risk(p, prior, q2)[0]
        assert lhs >= rhs

    rng = random.Random("group-moves")
    for _ in range(PROPERTY_INSTANCES):
        m = rng.randint(2, 3)
        p = DecisionProblem.build(
            parameters=tuple(range(m)),
            input_letters=tuple(range(m)),
            model=[[F(int(x == i)) for i in range(m)] for x in range(m)],
            actions=tuple(range(m)),
            loss=[[F(int(i != a)) for a in range(m)] for i in range(m)])
        group = symmetric_group(FiniteAlphabet.of_size(m))
        q = _random_channel(rng, m, rng.randint(2, 4))
        # outputs are opaque labels, so the group fixes them pointwise
        out_action = GroupAction(group=group,
                                 carrier=q.output_alphabet.letters,
                                 act=lambda g, y: y)
        g = group.elements[rng.randrange(len(group.elements))]
        moved = apply_group_element(g, out_action, q)
        prior = Prior.uniform(m)
        assert bayes_optimal_risk(p, prior, moved)[0] \
            == bayes_optimal_risk(p, prior, q)[0]
        assert minimax_risk(p, moved)[0] == minimax_risk(p, q)[0]


# -- 8: symmetry reduction preserves the optimum -------------------------------


@gate("08 symmetry reduction soundness")
def test_group_reduction_preserves_optimum():
    for m, tv, gamma in product((3, 4), TS, GAMMAS):
        level = PrivacyLevel(tv)
        alphabet = FiniteAlphabet.of_size(m)
        group = symmetric_group(alphabet)
        problem, prior = ht_problem(m, gamma)

        def objective(q):
            return bayes_optimal_risk(problem, prior, q)[0]

        reduced = put_by_vertex_enumeration(objective, alphabet, level,
                                            group=group, traits=BAYES_TRAITS).value
        full = put_by_vertex_enumeration(objective, alphabet, level,
                                         traits=BAYES_TRAITS, cap=5).value
        assert reduced == full, (m, gamma, tv)


# -- 9: information transfer peaks at a subset-selection vertex ----------------

MI_LP_TOL = 1e-12


@gate("09 information argmax is subset selection")
def test_mutual_information_prefers_subset_selection():
    # the per-subset coefficient at uniform input depends only on the
    # subset size, so the maximizing face is spanned by vertices that
    # concentrate on a single size k*, and the k*-subset-selection
    # channel (their centroid; not itself a vertex once m >= 4) attains
    # exactly the same value
    level = PrivacyLevel(F(2))
    for m in (3, 4):
        alphabet = FiniteAlphabet.of_size(m)
        uniform = [F(1, m)] * m
        vertices = enumerate_polytope_vertices(alphabet, level)
        scores = [mutual_information(extremal_channel(v), uniform)
                  for v in vertices]
        best_score = max(scores)
        argmax = [vertices[i] for i, s in enumerate(scores)
                  if abs(s - best_score) <= MI_LP_TOL]
        sizes = {bin(mask).count("1") for v in argmax for mask in v.support}
        assert len(sizes) == 1, m
        k = sizes.pop()
        attained = mutual_information(ss_mechanism(alphabet, k, level), uniform)
        assert abs(attained - best_score) <= MI_LP_TOL
        u = mutual_information_linear_coefficients(uniform, alphabet, level)
        res = put_by_lp([-c for c in u], alphabet, level, cap=5)
        assert abs(float(res.value) + best_score) <= MI_LP_TOL


# -- 10: random channels never beat the computed optimum -----------------------


@gate("10 random-channel audit", budget=60)
def test_random_channel_audit_never_beats_optimum():
    level = PrivacyLevel(F(2))
    problem, prior = ht_problem(3, F(1))
    baseline = ht_put_closed_form(3, F(1), level)

    def objective(q):
        return bayes_optimal_risk(problem, prior, q)[0]

    report = random_channel_audit(objective, problem.input_alphabet, level,
                                  samples=1000, seed="7",
                                  baseline_value=baseline, tolerance=0, cap=5)
    assert report.passed
    assert report.min_gap is not None and report.min_gap >= 0

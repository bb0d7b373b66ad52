"""Exact privacy-utility trade-offs for local differential privacy on
finite alphabets.

The package represents private channels as exact rational matrices,
reduces the search for optimal ones to a polytope of subset weights
(collapsed onto orbits when a symmetry group acts; the trivial group
gives the full polytope), and minimizes decision risks over it by
vertex scan, exact LP, or closed form.
"""

from .channels import (
    Channel,
    DominanceWitness,
    PrivacyLevel,
    apply_group_element,
    compose,
    direct_sum,
    dominates,
    equivalent,
    is_ldp,
    symmetrize,
    symmetrized_output_action,
)
from .decision import (
    DecisionProblem,
    DecisionRule,
    InvarianceDeclaration,
    Prior,
    bayes_optimal_risk,
    check_equalizer,
    f_divergence_utility,
    linear_coefficients,
    minimax_risk,
    mutual_information,
    risk,
    verify_invariance,
)
from .groups import (
    FiniteAlphabet,
    GroupAction,
    PermGroup,
    Permutation,
    cyclic_group,
    generate_group,
    is_transitive,
    natural_action,
    orbits,
    subset_action,
    symmetric_group,
    trivial_group,
)
from .invariant import (
    enumerate_invariant_vertices,
    lift_weights,
    ss_mechanism,
    transitive_vertex_weight,
)
from .ldp_geometry import (
    StaircaseMatrix,
    SubsetOrbit,
    WeightPolytope,
    WeightVector,
    canonical_weight,
    dominating_maximal,
    enumerate_polytope_vertices,
    extremal_channel,
    in_weight_polytope,
    is_extreme_direction,
    is_maximal,
    make_weight_vector,
    staircase_matrix,
    subset_orbits,
    weight_polytope,
)
from .put_solver import (
    AuditReport,
    BAYES_TRAITS,
    MINIMAX_TRAITS,
    ObjectiveTraits,
    PutResult,
    put_by_lp,
    put_by_vertex_enumeration,
    put_transitive_closed_form,
    random_channel_audit,
    spot_check_traits,
)
from .applications import (
    CardioidSpec,
    cardioid_consecutive_maximizer,
    cardioid_orbit_risk,
    cardioid_put_closed_form,
    ht_minimax_equals_bayes,
    ht_problem,
    ht_put_closed_form,
    ht_subset_risk,
    z_magnitude,
)

__version__ = "0.1.0"

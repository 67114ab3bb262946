"""Censuses, constructions and bounds for 2-optimal tours on complete graphs."""

__version__ = "0.1.0"

from .bounds import (
    BOUND_CONSTANT,
    BoundReport,
    counting_bounds,
    estimate_interaction_factor,
    figure_sweep,
    interaction_slope,
    log_expected_count_bound,
    log_per_tour_bound,
)
from .census import (
    TransitionGraph,
    TransitionStats,
    build_transition_graph,
    count_two_optimal_exact,
    is_two_optimal,
    transition_stats,
    two_optimal_tours,
)
from .chords import (
    ChordDisjointSet,
    build_chord_disjoint_set,
    log_product_bound,
    participation_formula,
    participation_spectrum,
    verify_chord_disjoint,
)
from .core import (
    Instance,
    Tour,
    TwoChange,
    apply_two_change,
    canonicalize,
    constant_instance,
    enumerate_canonical_tours,
    enumerate_two_changes,
    move_quadruples,
    pair_count,
    pair_index,
    random_instance,
    tour_length,
    two_change_delta,
)
from .errors import (
    CapExceededError,
    InvalidMoveError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from .orthants import (
    CovarianceSpec,
    equicorrelated_spec,
    identity_spec,
    orthant_moment_bound,
    orthant_prob_mc,
    reduced_orthant_bound,
    second_moment_formula,
    truncated_moments_mc,
)
from .polytopes import (
    Polytope,
    build_two_opt_polytope,
    estimate_volume_rejection,
    estimate_volume_telescoping,
)
from .reduction import (
    BaseGraph,
    RecoveryResult,
    ReductionParams,
    build_reduction_instance,
    census_vector,
    count_path_covers_bruteforce,
    cover_coefficient,
    coefficient_matrix,
    coefficient_matrix_determinant,
    corrected_cover_coefficient,
    default_params,
    hamiltonian_path_count,
    recover_corrected_counts,
    recover_path_cover_counts,
    reduction_report,
    tours_per_cover_empirical,
    verify_no_nonedge_characterization,
)

"""qdlab: combinatorial and quantum discrepancy of set/projection systems,
Hermitian determinantal point processes, and seeded verification experiments."""

from .combdisc import (
    DEFAULT_EXHAUSTIVE_CAP,
    RandomColoringProbe,
    disc_exact,
    disc_heuristic,
    disc_random_bound,
    random_coloring_satisfaction,
)
from .concentration import (
    ComparisonReport,
    LowerBoundConstants,
    bernstein_tail,
    comparison_check,
    comparison_factor,
    lower_bound_constants,
)
from .dpp import (
    DPPKernel,
    ProcessSample,
    exact_distribution,
    expected_squared_imbalance,
    joint_intensity,
    moments_of_count,
    restrict_kernel,
    sample,
    sample_many,
    sample_masks,
    size_pmf,
    validate_kernel,
)
from .matcore import (
    HermitianMatrix,
    OrthogonalProjection,
    QuantumColoring,
    SpectralDecomposition,
    as_coloring,
    as_projection,
    commutator,
    make_hermitian,
    make_projection_from_vectors,
    matrix_from_json,
    matrix_to_json,
    schatten_norm,
    spectral_decompose,
)
from .qdisc import (
    DeltaEventRecord,
    ObjectiveValue,
    QdiscEstimate,
    TrivialBoundRecord,
    check_delta_event,
    delta_event_count,
    delta_p,
    delta_threshold,
    lipschitz_check,
    objective,
    objective_vs_dpp,
    qdisc_estimate,
    trivial_bound_check,
)
from .randmat import (
    ConcentrationProbe,
    HaarFourthMoments,
    concentration_probe,
    exact_mean_commutator_term,
    exact_mean_trace,
    exact_mean_trace_sq,
    exact_mean_trace_sq_fixed_coloring,
    exact_variance_trace,
    haar_fourth_moments,
    haar_unitary,
    random_kernel,
    random_projection,
    random_projection_system,
    random_quantum_coloring,
)
from .setsys import (
    Coloring,
    ProjectionSystem,
    SetSystem,
    arithmetic_progressions,
    evaluate_coloring,
    incidence_matrix,
    random_set_system,
    to_projection_system,
)

__version__ = "0.1.0"

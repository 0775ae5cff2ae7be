"""Perturbation bounds for stationary distributions of finite Markov chains.

The library computes stationary distributions, fundamental and group
inverse matrices, and a catalog of norm-wise and weighted-norm bounds on
how far the stationary distribution can move when the transition matrix or
generator is perturbed — and certifies every bound against exactly
computed perturbations.
"""

from .catalog import bound_catalog
from .chains import (
    Distribution,
    IntensityMatrix,
    PerturbationPair,
    StochasticMatrix,
    WeightFunction,
)
from .ctmc import (
    CtmcGeometricDriftCertificate,
    UniformizedChain,
    batch_arrival_drift,
    ctmc_deviation_bound,
    ctmc_deviation_matrix,
    ctmc_ergodicity_coefficient,
    ctmc_hitting_times,
    ctmc_lambda1_bound,
    ctmc_small_set_bound,
    ctmc_stationary,
    ctmc_unit_drift_bound,
    ctmc_v_bound_drift_only,
    ctmc_v_bound_with_stationary,
    fit_ctmc_geometric_drift,
    mm1_coefficients,
    pair_step,
    stationary_series_expansion,
    transfer_drift_to_skeleton,
    uniformize,
)
from .dtmc import (
    GeometricDriftCertificate,
    SmallSetCertificate,
    UnitDriftCertificate,
    birth_death_hitting_times,
    ergodicity_coefficient,
    fit_geometric_drift,
    hitting_time_bound,
    hitting_times,
    seneta_best_bound,
    seneta_bound,
    skeleton_bound,
    small_set_bound,
    unit_drift_bound,
    unit_drift_from_hitting_times,
    v_bound_drift_only,
    v_bound_with_stationary,
)
from .errors import (
    DivergentHittingTimes,
    DriftViolated,
    HypothesisFailed,
    InvalidParameters,
    InvalidStep,
    McPerturbError,
    NoPositiveLambda,
    NoSmallSet,
    NotErgodic,
    OutOfRadius,
    ParseError,
    PeriodicChain,
    ReducibleChain,
    SeriesDivergent,
    SolverFailure,
    ValidationError,
)
from .gallery import GALLERY, GalleryModel, build_model, list_models
from .norms import (
    matrix_norm,
    total_variation_norm,
    v_norm_matrix,
    v_norm_measure,
    v_norm_vector,
)
from .reports import BoundReport, Hypothesis
from .settings import DEFAULT, NumericSettings
from .solvers import (
    deviation_matrix,
    fundamental_matrix,
    group_inverse,
    stationary_distribution,
    stationary_matrix,
)
from .verify import (
    exact_gap,
    fuzz_bounds,
    identity_residuals,
    residual_deviation_identity,
    residual_perturbation_identity,
    residual_taboo_inverse_identity,
    value_iteration_hitting,
)

__version__ = "0.1.0"

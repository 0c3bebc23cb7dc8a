"""Time-dependent Dyson maps for a driven oscillator on a truncated Fock space.

The package integrates the non-unitary map flow i d(eta)/dt = eta H(t),
builds the Hermitian counterpart h = 2 eta H eta^-1, carries the exact
displaced-number solution of the counterpart dynamics, and cross-checks
the two routes with guard-band-restricted residual diagnostics.  The CLI
(`dysonmap`) drives everything from YAML scenario files.
"""

from .errors import (
    ConfigError,
    DivergenceError,
    DysonMapError,
    ExponentialRangeError,
    IllConditionedError,
    InvalidDimensionError,
    ScenarioInvalidError,
    SingularityError,
    StepSizeError,
    TruncationWarning,
    UndefinedNormError,
)
from .fock_algebra import (
    DEFAULT_GUARD,
    FockOperator,
    StateVector,
    basis_state,
    displacement,
    identity,
    invert_apply,
    ladder_operators,
    low_block,
    matrix_exponential,
    number_operator,
    rotation,
    tail_mass,
)
from .propagation import (
    DysonTrajectory,
    GeneratorFn,
    SolverOptions,
    StateTrajectory,
    TimeGrid,
    hermitian_counterpart,
    propagate_dyson,
    propagate_state,
    rk4_samples,
    unitary_transform_propagate,
)
from .model_oscillator import (
    AnalyticEvolution,
    CheckOutcome,
    CoefficientSpec,
    EigenPair,
    LRQuantities,
    PTReport,
    QuadraturePair,
    Scenario,
    ValidationReport,
    closed_form_counterpart,
    counterpart_energy,
    derive_initial_map_params,
    eigensystem,
    grid_index,
    hamiltonian_fn,
    initial_map,
    lr_phase,
    lr_pipeline,
    matrix_elements,
    pt_analysis,
    quadrature_observables,
    validated_scenario,
)
from .diagnostics import (
    DiagnosticsReport,
    ResidualSeries,
    Tolerances,
    analytic_vs_numeric,
    equivalence_checks,
    isospectrality_check,
    metric_constancy,
    quasi_hermiticity_residuals,
    scenario_workup,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Time-dependent Dyson maps for a driven oscillator on a truncated Fock space.

The package integrates the non-unitary map flow i d(eta)/dt = eta H(t),
carries the exact displaced-number solution of the dynamics of the
Hermitian counterpart h = 2 eta H eta^-1, and cross-checks the two routes
with guard-band-restricted residual diagnostics.  The CLI
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
)
from .fock_algebra import (
    DEFAULT_GUARD,
    FockOperator,
    StateVector,
    basis_state,
    ladder_operators,
    low_block,
    number_operator,
)
from .propagation import (
    DysonTrajectory,
    GeneratorFn,
    StateTrajectory,
    TimeGrid,
    propagate_dyson,
    propagate_state,
    rk4_samples,
)
from .model_oscillator import (
    AnalyticEvolution,
    CheckOutcome,
    CoefficientSpec,
    LRQuantities,
    PTReport,
    Scenario,
    ValidationReport,
    counterpart_energy,
    derive_initial_map_params,
    hamiltonian_fn,
    initial_map,
    lr_phase,
    lr_pipeline,
    pt_analysis,
    pt_symmetry,
    validated_scenario,
)
from .diagnostics import (
    DiagnosticsReport,
    MapWindow,
    ResidualSeries,
    analytic_vs_numeric,
    equivalence_checks,
    isospectrality_check,
    metric_constancy,
    quasi_hermiticity_residuals,
    scenario_workup,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

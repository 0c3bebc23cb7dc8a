"""The banded model generator against its dense matrices (property tests)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonmap import (
    CoefficientSpec,
    GeneratorFn,
    InvalidDimensionError,
    Scenario,
    StepSizeError,
    TimeGrid,
    basis_state,
    hamiltonian_fn,
    initial_map,
    propagate_dyson,
    propagate_state,
)
from dysonmap.propagation import _band_norms, _band_table, _rk4_deriv

GRID = TimeGrid(0.0, 1.5, 12)

amplitudes = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
rates = st.floats(-3.0, 3.0, allow_nan=False)

coefficients = st.one_of(
    st.builds(CoefficientSpec.constant, amplitudes),
    st.lists(amplitudes, min_size=1, max_size=4).map(lambda cs: CoefficientSpec.polynomial(*cs)),
    st.builds(CoefficientSpec.sinusoid, amplitudes, amplitudes, rates, amplitudes),
    st.builds(CoefficientSpec.exp_ramp, amplitudes, rates),
)

scenarios = st.builds(
    lambda omega, alpha, beta, kappa, dim: Scenario(
        omega=omega, alpha=alpha, beta=beta, kappa=kappa, grid=GRID, dim=dim, guard=1
    ),
    coefficients,
    coefficients,
    coefficients,
    st.floats(0.0, 1.0, allow_nan=False),
    st.integers(2, 24),
)


def dense_twin(H):
    """The same generator without its bands, so propagation goes dense."""
    return GeneratorFn(H.fn, H.dim)


def rel_diff(a, b):
    scale = np.linalg.norm(b)
    return np.linalg.norm(a - b) / scale if scale > 0 else np.linalg.norm(a)


@settings(max_examples=60, deadline=None)
@given(s=scenarios, j=st.integers(0, 2 * GRID.steps), seed=st.integers(0, 2**32 - 1))
def test_banded_update_matches_dense_product(s, j, seed):
    H = hamiltonian_fn(s)
    t = GRID.t0 + j * (GRID.dt / 2.0)
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
    hmat = H(t).mat
    assert rel_diff(_rk4_deriv(H, GRID, right=True)(t, y), -1j * (y @ hmat)) <= 1e-13
    assert rel_diff(_rk4_deriv(H, GRID, right=False)(t, y[:, 0]), -1j * (hmat @ y[:, 0])) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(s=scenarios)
def test_closed_form_norm_matches_dense(s):
    H = hamiltonian_fn(s)
    closed = float(np.max(_band_norms(_band_table(H, GRID.points), s.dim)))
    dense = max(float(np.linalg.norm(H(t).mat)) for t in GRID.points)
    assert abs(closed - dense) <= 1e-12 * max(dense, 1e-300)


def test_step_guard_recommendation_matches_dense(tiny_run):
    s_run, H, _ = tiny_run
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    coarse = TimeGrid(s_run.grid.t0, s_run.grid.t1, 50)
    recommended = []
    for gen in (H, dense_twin(H)):
        with pytest.raises(StepSizeError) as ei:
            propagate_dyson(gen, eta0, coarse, options=s_run.solver_options())
        recommended.append(ei.value.recommended_steps)
    assert recommended[0] == recommended[1]


def test_banded_trajectories_match_dense():
    s = Scenario(
        omega=CoefficientSpec.sinusoid(0.3, 0.1j, 1.3, 1.0),
        alpha=CoefficientSpec.exp_ramp(0.5j, -0.4),
        beta=CoefficientSpec.polynomial(0.2, 0.1j, -0.05),
        kappa=0.3,
        grid=TimeGrid(0.0, 2.0, 600),
        dim=10,
        guard=3,
    )
    H = hamiltonian_fn(s)
    eta0 = initial_map(s, 0.1j, 0j)
    opts = s.solver_options()
    banded = propagate_dyson(H, eta0, s.grid, options=opts)
    dense = propagate_dyson(dense_twin(H), eta0, s.grid, options=opts)
    assert np.max(np.abs(banded.etas - dense.etas)) < 1e-12
    assert banded.convergence.delta_fine == pytest.approx(dense.convergence.delta_fine, rel=1e-6)
    psi0 = basis_state(1, s.dim)
    a = propagate_state(H, psi0, s.grid, options=opts).amplitudes
    b = propagate_state(dense_twin(H), psi0, s.grid, options=opts).amplitudes
    assert np.max(np.abs(a - b)) < 1e-12


def test_non_finite_coefficient_refused():
    s = Scenario(
        omega=CoefficientSpec.constant(1.0),
        alpha=CoefficientSpec.exp_ramp(1.0, 800.0),
        beta=CoefficientSpec.constant(0.0),
        kappa=0.1,
        grid=TimeGrid(0.0, 1.0, 100),
        dim=6,
        guard=2,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for propagate, start in ((propagate_dyson, initial_map(s, 0j, 0j)),
                                 (propagate_state, basis_state(0, s.dim))):
            with pytest.raises(InvalidDimensionError, match="finite"):
                propagate(hamiltonian_fn(s), start, s.grid)

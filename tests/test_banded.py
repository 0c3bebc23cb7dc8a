"""The banded model generator against its dense matrices (property tests)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dysonmap import (
    CoefficientSpec,
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
from dysonmap.propagation import (
    STEP_GUARD,
    _band_norms,
    _band_table,
    ladder_columns,
    ladder_rows,
)

from conftest import rk4_reference

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
    # the columns of -i H(t) that rk4_samples applies; the map is stepped as
    # eta^T, states as (dim, n) column blocks
    cols = ladder_columns(*(-1j * _band_table(H, np.array([t]))[:, 0]), s.dim)
    assert rel_diff(ladder_rows(y.T, cols, transpose=True).T, -1j * (y @ hmat)) <= 1e-13
    assert rel_diff(ladder_rows(y[:, :2], cols), -1j * (hmat @ y[:, :2])) <= 1e-13


def scaled_norm(m):
    """Frobenius norm computed as s ||m / s||, s = max |m|, so no square under- or overflows.

    |m| is scaled, not m: complex division by a subnormal s overflows 1/s.
    """
    mag = np.abs(m)
    scale = float(np.max(mag))
    return scale * float(np.linalg.norm(mag / scale)) if scale > 0 else 0.0


@settings(max_examples=60, deadline=None)
@given(s=scenarios)
@example(
    # |omega|^2 is subnormal: a squared-magnitude norm loses about 1e-8 relative here
    s=Scenario(
        omega=CoefficientSpec.constant(5.661840691030381e-159 * (1 + 1j)),
        alpha=CoefficientSpec.constant(0j),
        beta=CoefficientSpec.constant(0j),
        kappa=0.0,
        grid=GRID,
        dim=2,
        guard=1,
    )
)
@example(
    # the smallest subnormal omega: the reference must not divide by it as a complex
    s=Scenario(
        omega=CoefficientSpec.constant(5e-324),
        alpha=CoefficientSpec.constant(0j),
        beta=CoefficientSpec.constant(0j),
        kappa=0.0,
        grid=GRID,
        dim=2,
        guard=1,
    )
)
def test_closed_form_norm_matches_dense(s):
    H = hamiltonian_fn(s)
    table = _band_table(H, GRID.points)
    closed = float(np.max(_band_norms(table, s.dim)))
    dense = max(scaled_norm(H(t).mat) for t in GRID.points)
    assert abs(closed - dense) <= 1e-12 * max(dense, 1e-300)


def test_step_guard_recommendation_matches_dense(tiny_run):
    s_run, H, _ = tiny_run
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    coarse = TimeGrid(s_run.grid.t0, s_run.grid.t1, 50)
    with pytest.raises(StepSizeError) as ei:
        propagate_dyson(H, eta0, coarse, guard=s_run.guard)
    dense_max = max(float(np.linalg.norm(H(t).mat)) for t in coarse.points)
    span = coarse.t1 - coarse.t0
    assert ei.value.recommended_steps == math.ceil(span * dense_max / STEP_GUARD)


def test_step_guard_without_a_finite_step_count():
    s = Scenario(
        omega=CoefficientSpec.constant(1e307),
        alpha=CoefficientSpec.constant(0j),
        beta=CoefficientSpec.constant(0j),
        kappa=0.0,
        grid=TimeGrid(0.0, 1.0, 10),
        dim=8,
        guard=2,
    )
    with np.errstate(over="ignore"), pytest.raises(StepSizeError, match="floating-point range") as ei:
        propagate_state(hamiltonian_fn(s), basis_state(0, s.dim), s.grid)
    assert ei.value.recommended_steps is None


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
    banded = propagate_dyson(H, eta0, s.grid, guard=s.guard)

    def at_half_step(j):  # H at t0 + j dt/2, the time of RK4 stage j
        return H(s.grid.t0 + j * (s.grid.dt / 2.0)).mat

    dense = rk4_reference(lambda j, y: -1j * (y @ at_half_step(j)), eta0.mat, s.grid)
    assert np.max(np.abs(banded.etas - dense)) < 1e-12
    psi0 = basis_state(1, s.dim)
    a = propagate_state(H, psi0, s.grid, guard=s.guard).amplitudes
    b = rk4_reference(lambda j, y: -1j * (at_half_step(j) @ y), psi0.vec, s.grid)
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

"""Grid, steppers, and the map/counterpart propagation layer."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from dysonmap import (
    DivergenceError,
    FockOperator,
    IllConditionedError,
    SolverOptions,
    StepSizeError,
    TimeGrid,
    TruncationWarning,
    basis_state,
    grid_index,
    hermitian_counterpart,
    identity,
    initial_map,
    invert_apply,
    ladder_operators,
    low_block,
    number_operator,
    propagate_dyson,
    propagate_state,
    rk4_samples,
    unitary_transform_propagate,
)

from conftest import ladder_generator


class TestTimeGrid:
    def test_points_and_dt(self):
        g = TimeGrid(0.0, 1.0, 10)
        assert g.dt == pytest.approx(0.1)
        assert g.points.shape == (11,)
        assert g.points[0] == 0.0
        assert g.points[-1] == pytest.approx(1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="need steps >= 1"):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="need t1 > t0"):
            TimeGrid(1.0, 1.0, 5)

    def test_grid_index_exact_points_only(self):
        g = TimeGrid(0.0, 1.0, 10)
        assert grid_index(g, 0.3) == 3
        assert grid_index(g, 1.0) == 10
        with pytest.raises(ValueError, match="not a grid point"):
            grid_index(g, 0.55)


def test_rk4_scalar_exponential_decay():
    g = TimeGrid(0.0, 2.0, 200)
    samples = rk4_samples(lambda j, y: -y, np.asarray(1.0 + 0j), g)
    assert samples.shape == (201,)
    err = np.max(np.abs(samples - np.exp(-g.points)))
    assert err < 1e-8


@pytest.mark.parametrize(
    "drift,phase",
    [
        (lambda t: 1.0, 1.0),  # constant frequency
        (lambda t: 1.0 + t, 1.5),  # linear ramp, integral over [0, 1]
    ],
)
def test_diagonal_map_matches_closed_form(drift, phase):
    dim = 12
    H = ladder_generator(dim, drift)
    grid = TimeGrid(0.0, 1.0, 1200)
    traj = propagate_dyson(H, identity(dim), grid, options=SolverOptions(guard=4))
    closed = np.diag(np.exp(-1j * phase * np.arange(dim)))
    assert np.max(np.abs(traj.etas[-1] - closed)) < 1e-8


def test_convergence_probe_reports_fourth_order(tiny_run):
    s_run, H, _ = tiny_run
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    grid = s_run.grid
    coarse_ok = s_run.solver_options(step_guard=np.inf)  # N/4 steps is past the step guard
    ends = [
        propagate_dyson(H, eta0, TimeGrid(grid.t0, grid.t1, steps), options=coarse_ok).etas[-1]
        for steps in (grid.steps, grid.steps // 2, grid.steps // 4)
    ]
    delta_fine = np.linalg.norm(ends[0] - ends[1])
    delta_coarse = np.linalg.norm(ends[1] - ends[2])
    assert 3.9 < np.log2(delta_coarse / delta_fine) < 4.1


def test_step_guard_recommends_workable_count(tiny_run):
    s_run, H, _ = tiny_run
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    coarse = TimeGrid(s_run.grid.t0, s_run.grid.t1, 50)
    with pytest.raises(StepSizeError) as ei:
        propagate_dyson(H, eta0, coarse, options=s_run.solver_options())
    rec = ei.value.recommended_steps
    assert 1000 < rec < 2000
    ok = TimeGrid(s_run.grid.t0, s_run.grid.t1, rec)
    traj = propagate_dyson(H, eta0, ok, options=s_run.solver_options())
    assert len(traj.etas) == rec + 1


def test_divergence_reports_first_bad_time():
    dim = 6
    H = ladder_generator(dim, 150j)
    grid = TimeGrid(0.0, 1.0, 12000)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as ei:
            propagate_dyson(H, identity(dim), grid, options=SolverOptions(guard=2))
    assert "t =" in str(ei.value)
    assert 0.0 < ei.value.t <= 1.0


def test_propagate_state_matches_expm():
    dim = 12
    a, ad = ladder_operators(dim)
    hmat = number_operator(dim).mat + 0.3 * (a.mat + ad.mat)
    H = ladder_generator(dim, 1.0, 0.3, 0.3)
    grid = TimeGrid(0.0, 1.0, 1200)
    traj = propagate_state(H, basis_state(0, dim), grid, options=SolverOptions(guard=3))
    assert traj.amplitudes.shape == (1201, dim)
    ref = scipy.linalg.expm(-1j * hmat) @ np.eye(dim)[:, 0]
    assert np.max(np.abs(traj.amplitudes[-1] - ref)) < 1e-8
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_guard_band_population_warns():
    dim, guard = 8, 3
    H = ladder_generator(dim, 1.0, 0.01, 0.01)
    grid = TimeGrid(0.0, 1.0, 400)
    options = SolverOptions(guard=guard)
    with pytest.warns(TruncationWarning, match="guard-band mass") as record:
        propagate_state(H, basis_state(dim - guard, dim), grid, options=options)
    # the warning points at the caller
    assert [w.filename for w in record] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        traj = propagate_state(H, basis_state(0, dim), grid, options=options)
    assert traj.tail_mass_max < 1e-8


def test_hermitian_counterpart_on_constant_metric_run(tiny_run):
    s_run, H, traj = tiny_run
    hs = hermitian_counterpart(traj, H)
    assert hs.shape == traj.etas.shape
    g = s_run.guard
    herm = [np.linalg.norm(low_block(h - h.conj().T, g)) / np.linalg.norm(low_block(h, g))
            for h in hs]
    assert np.max(herm) < 1e-12
    # first sample equals the defining transform applied by hand
    e0 = FockOperator(traj.etas[0])
    inv0, _ = invert_apply(e0, identity(s_run.dim))
    by_hand = 2.0 * traj.etas[0] @ H(float(traj.grid.points[0])).mat @ inv0.mat
    assert np.max(np.abs(hs[0] - by_hand)) < 1e-10


def test_near_singular_map_refused():
    dim = 6
    diag = np.ones(dim, dtype=complex)
    diag[-1] = 1e-13
    H = ladder_generator(dim, 1.0)
    grid = TimeGrid(0.0, 0.1, 20)
    traj = propagate_dyson(H, FockOperator(np.diag(diag)), grid, options=SolverOptions(guard=2))
    with pytest.raises(IllConditionedError):
        hermitian_counterpart(traj, H)


def test_unitary_transform_refuses_non_hermitian_generator():
    # u = 0.3 against l* = 0.3 - 0.1i t: Hermitian at t = 0 only, worst at t = 1
    H = ladder_generator(8, 1.0, 0.3, lambda t: 0.3 + 0.1j * t)
    with pytest.raises(ValueError, match=r"not Hermitian: residual \S+ at t = 1$"):
        unitary_transform_propagate(H, identity(8), TimeGrid(0.0, 1.0, 200))


def test_unitary_transform_refuses_non_unitary_start():
    H = ladder_generator(8, 1.0, 0.3, 0.3)
    with pytest.raises(ValueError, match="U0 not unitary"):
        unitary_transform_propagate(H, FockOperator(2.0 * np.eye(8)), TimeGrid(0.0, 1.0, 200))

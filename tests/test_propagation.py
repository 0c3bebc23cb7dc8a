"""Grid, steppers, and the map/counterpart propagation layer."""

import numpy as np
import pytest
import scipy.linalg

from dysonmap import (
    DivergenceError,
    FockOperator,
    GeneratorFn,
    IllConditionedError,
    SolverOptions,
    StateVector,
    StepSizeError,
    TimeGrid,
    basis_state,
    dyson_relation_residual,
    grid_index,
    hamiltonian_fn,
    hermitian_counterpart,
    identity,
    initial_map,
    invert_apply,
    ladder_operators,
    number_operator,
    propagate_dyson,
    propagate_state,
    rk4_samples,
)


def const_generator(mat, dim):
    op = FockOperator(np.asarray(mat, dtype=complex))
    return GeneratorFn(lambda t: op, dim)


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
    samples = rk4_samples(lambda t, y: -y, np.asarray(1.0 + 0j), g)
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
    n = number_operator(dim).mat
    H = GeneratorFn(lambda t: FockOperator(drift(t) * n), dim)
    grid = TimeGrid(0.0, 1.0, 1200)
    traj = propagate_dyson(H, identity(dim), grid, options=SolverOptions(guard=4, convergence_probe=False))
    closed = np.diag(np.exp(-1j * phase * np.arange(dim)))
    assert np.max(np.abs(traj.etas[-1] - closed)) < 1e-8


def test_convergence_probe_reports_fourth_order(tiny_run):
    _, _, traj = tiny_run
    probe = traj.convergence
    assert probe is not None
    assert 3.9 < probe.observed_order < 4.1
    assert probe.delta_fine < probe.delta_coarse


def test_step_guard_recommends_workable_count(tiny_run):
    s_run, H, _ = tiny_run
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    coarse = TimeGrid(s_run.grid.t0, s_run.grid.t1, 50)
    with pytest.raises(StepSizeError) as ei:
        propagate_dyson(H, eta0, coarse, options=s_run.solver_options())
    rec = ei.value.recommended_steps
    assert 1000 < rec < 2000
    ok = TimeGrid(s_run.grid.t0, s_run.grid.t1, rec)
    traj = propagate_dyson(
        H, eta0, ok, options=s_run.solver_options(convergence_probe=False)
    )
    assert len(traj.etas) == rec + 1


def test_divergence_reports_first_bad_time():
    dim = 6
    n = number_operator(dim).mat
    H = GeneratorFn(lambda t: FockOperator(150j * n), dim)
    grid = TimeGrid(0.0, 1.0, 12000)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as ei:
            propagate_dyson(
                H, identity(dim), grid, options=SolverOptions(guard=2, convergence_probe=False)
            )
    assert "t =" in str(ei.value)
    assert 0.0 < ei.value.t <= 1.0


def test_propagate_state_matches_expm():
    dim = 12
    a, ad = ladder_operators(dim)
    hmat = number_operator(dim).mat + 0.3 * (a.mat + ad.mat)
    H = const_generator(hmat, dim)
    grid = TimeGrid(0.0, 1.0, 1200)
    traj = propagate_state(H, basis_state(0, dim), grid, options=SolverOptions(guard=3))
    assert len(traj) == 1201
    assert isinstance(traj[5], StateVector)
    ref = scipy.linalg.expm(-1j * hmat) @ np.eye(dim)[:, 0]
    assert np.max(np.abs(traj.amplitudes[-1] - ref)) < 1e-8
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_hermitian_counterpart_on_constant_metric_run(tiny_run):
    s_run, H, traj = tiny_run
    cs = hermitian_counterpart(traj, H)
    assert len(cs) == len(traj.etas)
    assert np.max(cs.herm_residual) < 1e-12
    # first sample equals the defining transform applied by hand
    e0 = FockOperator(traj.etas[0])
    inv0, _ = invert_apply(e0, identity(s_run.dim))
    by_hand = 2.0 * traj.etas[0] @ H(float(traj.grid.points[0])).mat @ inv0.mat
    assert np.max(np.abs(cs.hs[0] - by_hand)) < 1e-10


def test_dyson_relation_residual_small(tiny_run):
    _, H, traj = tiny_run
    res = dyson_relation_residual(traj, H)
    assert res.shape[0] > 10
    assert np.all(res >= 0)
    assert np.max(res) < 1e-3


def test_near_singular_map_refused():
    dim = 6
    diag = np.ones(dim, dtype=complex)
    diag[-1] = 1e-13
    H = GeneratorFn(lambda t: number_operator(dim), dim)
    grid = TimeGrid(0.0, 0.1, 20)
    traj = propagate_dyson(
        H,
        FockOperator(np.diag(diag)),
        grid,
        options=SolverOptions(guard=2, convergence_probe=False),
    )
    with pytest.raises(IllConditionedError):
        hermitian_counterpart(traj, H)

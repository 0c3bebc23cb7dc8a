"""Grid, steppers, and the map propagation layer."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from dysonmap import (
    DivergenceError,
    FockOperator,
    IllConditionedError,
    StepSizeError,
    TimeGrid,
    TruncationWarning,
    basis_state,
    initial_map,
    ladder_operators,
    number_operator,
    propagate_dyson,
    propagate_state,
    propagation,
)
from dysonmap.diagnostics import _rcond_series, check_conditioning

from conftest import ladder_generator, rk4_reference


class TestTimeGrid:
    def test_points_and_dt(self):
        g = TimeGrid(0.0, 1.0, 10)
        assert g.dt == pytest.approx(0.1)
        assert g.points.shape == (11,)
        assert g.points[0] == 0.0
        assert g.points[-1] == pytest.approx(1.0)

    def test_strided_ends_on_the_last_index(self):
        g = TimeGrid(0.0, 1.0, 10)
        assert g.strided(3).tolist() == [0, 3, 6, 9, 10]
        assert g.strided(5).tolist() == [0, 5, 10]
        assert g.strided(20).tolist() == [0, 10]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="need steps >= 1"):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="need t1 > t0"):
            TimeGrid(1.0, 1.0, 5)


def test_rk4_scalar_exponential_decay():
    g = TimeGrid(0.0, 2.0, 200)
    samples = rk4_reference(lambda j, y: -y, np.asarray(1.0 + 0j), g)
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
    eta0 = FockOperator(np.eye(dim, dtype=complex))
    traj = propagate_dyson(H, eta0, grid, guard=4)
    closed = np.diag(np.exp(-1j * phase * np.arange(dim)))
    assert np.max(np.abs(traj.etas[-1] - closed)) < 1e-8


def test_convergence_probe_reports_fourth_order(tiny_run, monkeypatch):
    s_run, H, _ = tiny_run
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    grid = s_run.grid
    monkeypatch.setattr(propagation, "STEP_GUARD", np.inf)  # N/4 steps is past the step guard
    ends = [
        propagate_dyson(H, eta0, TimeGrid(grid.t0, grid.t1, steps), guard=s_run.guard).etas[-1]
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
        propagate_dyson(H, eta0, coarse, guard=s_run.guard)
    rec = ei.value.recommended_steps
    assert 1000 < rec < 2000
    ok = TimeGrid(s_run.grid.t0, s_run.grid.t1, rec)
    traj = propagate_dyson(H, eta0, ok, guard=s_run.guard)
    assert len(traj.etas) == rec + 1


def test_divergence_reports_first_bad_time():
    dim = 6
    H = ladder_generator(dim, 150j)
    grid = TimeGrid(0.0, 1.0, 12000)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as ei:
            propagate_dyson(H, FockOperator(np.eye(dim, dtype=complex)), grid, guard=2)
    assert "t =" in str(ei.value)
    assert 0.0 < ei.value.t <= 1.0


def test_propagate_state_matches_expm():
    dim = 12
    a, ad = ladder_operators(dim)
    hmat = number_operator(dim).mat + 0.3 * (a.mat + ad.mat)
    H = ladder_generator(dim, 1.0, 0.3, 0.3)
    grid = TimeGrid(0.0, 1.0, 1200)
    traj = propagate_state(H, basis_state(0, dim), grid, guard=3)
    assert traj.amplitudes.shape == (1201, dim)
    ref = scipy.linalg.expm(-1j * hmat) @ np.eye(dim)[:, 0]
    assert np.max(np.abs(traj.amplitudes[-1] - ref)) < 1e-8
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_guard_band_population_warns():
    dim, guard = 8, 3
    H = ladder_generator(dim, 1.0, 0.01, 0.01)
    grid = TimeGrid(0.0, 1.0, 400)
    with pytest.warns(TruncationWarning, match="guard-band mass") as record:
        propagate_state(H, basis_state(dim - guard, dim), grid, guard=guard)
    # the warning points at the caller
    assert [w.filename for w in record] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        traj = propagate_state(H, basis_state(0, dim), grid, guard=guard)
    assert traj.tail_mass_max < 1e-8


def test_near_singular_map_refused():
    dim = 6
    diag = np.ones(dim, dtype=complex)
    diag[-1] = 1e-13
    H = ladder_generator(dim, 1.0)
    grid = TimeGrid(0.0, 0.1, 20)
    traj = propagate_dyson(H, FockOperator(np.diag(diag)), grid, guard=2)
    with pytest.raises(IllConditionedError):
        check_conditioning(_rcond_series(traj.etas), grid.points)


"""Mutation checks: a deliberately broken stepper or map must be seen.

Each mutant is patched in for one test.  A mutant that a report check sees
must fail that check on the tiny scenario; one that no report check sees is
pinned by the closed form it breaks instead.
"""

import numpy as np

from dysonmap import (
    FockOperator,
    SolverOptions,
    TimeGrid,
    diagnostics,
    propagation,
    scenario_workup,
)

from conftest import ladder_generator, tiny_scenario


def rk2_windows(stage, y0, grid, width):
    """The explicit midpoint rule in place of _rk4_windows: second order."""
    dt = grid.dt
    ys = [np.asarray(y0, dtype=complex)]
    for k in range(grid.steps):
        y = ys[-1]
        ys.append(y + dt * stage(2 * k + 1, y + (dt / 2) * stage(2 * k, y)))
    samples = np.array(ys)
    for lo in range(0, len(samples), width):
        yield lo, samples[lo : lo + width]


def test_second_order_stepper_fails_metric_constancy(monkeypatch):
    monkeypatch.setattr(propagation, "_rk4_windows", rk2_windows)
    report, _, _ = scenario_workup(tiny_scenario())
    assert "metric_constancy" in report.failing()


def test_flipped_initial_map_fails(monkeypatch):
    initial_map = diagnostics.initial_map
    monkeypatch.setattr(diagnostics, "initial_map", lambda s, g0, l0: initial_map(s, -g0, l0))
    report, _, _ = scenario_workup(tiny_scenario())
    # rho0 = eta0† eta0 no longer intertwines H, so rho(t) drifts
    assert {"metric_constancy", "r7"} <= set(report.failing()), report.failing()


def ramp_end_error():
    """test_propagation's linear-ramp map against its closed form at t = 1."""
    dim = 12
    traj = propagation.propagate_dyson(
        ladder_generator(dim, lambda t: 1.0 + t), FockOperator(np.eye(dim, dtype=complex)),
        TimeGrid(0.0, 1.0, 1200), options=SolverOptions(guard=4),
    )
    closed = np.diag(np.exp(-1j * 1.5 * np.arange(dim)))
    return float(np.max(np.abs(traj.at(traj.grid.steps) - closed)))


def test_stage_one_half_step_late_moves_the_ramp(monkeypatch):
    # No report check sees this shift of the time lattice; the ramp's
    # closed form does, far beyond test_propagation's 1e-8 bound.
    assert ramp_end_error() < 1e-8
    rk4_deriv = propagation._rk4_deriv

    def late(H, grid, right):  # stage j reads H at t0 + (j + 1) dt/2
        shifted = TimeGrid(grid.t0 + grid.dt / 2, grid.t1 + grid.dt / 2, grid.steps)
        return rk4_deriv(H, shifted, right)

    monkeypatch.setattr(propagation, "_rk4_deriv", late)
    assert ramp_end_error() > 1e-8

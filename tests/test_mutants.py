"""Mutation checks: a deliberately broken stepper or map must be seen.

Each mutant is patched in for one test.  A mutant that a report check sees
must fail that check on the tiny scenario; one that no report check sees is
pinned by the closed form it breaks instead.  Stepper mutants are
rk4_samples with one fragment of its source replaced.
"""

import inspect
import textwrap

import numpy as np

from dysonmap import (
    FockOperator,
    TimeGrid,
    diagnostics,
    propagation,
    scenario_workup,
)

from conftest import ladder_generator, tiny_scenario


def mutated_rk4(old, new):
    """rk4_samples with the one occurrence of ``old`` in its source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(propagation.rk4_samples))
    assert source.count(old) == 1, f"rk4_samples no longer contains {old!r} once"
    namespace = dict(vars(propagation))  # compiled beside, not into, the module
    exec(compile(source.replace(old, new), propagation.__file__, "exec"), namespace)
    return namespace["rk4_samples"]


def test_second_order_stepper_fails_metric_constancy(monkeypatch):
    # the explicit midpoint rule: the step takes only k2, the derivative at
    # y + (dt/2) k1 and t + dt/2
    rk2 = mutated_rk4("y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)", "y = y + dt * k2")
    monkeypatch.setattr(propagation, "rk4_samples", rk2)
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
        TimeGrid(0.0, 1.0, 1200), guard=4,
    )
    closed = np.diag(np.exp(-1j * 1.5 * np.arange(dim)))
    return float(np.max(np.abs(traj.at(traj.grid.steps) - closed)))


def test_stage_one_half_step_late_moves_the_ramp(monkeypatch):
    # No report check sees this shift of the time lattice; the ramp's
    # closed form does, far beyond test_propagation's 1e-8 bound.
    assert ramp_end_error() < 1e-8
    # half-step j reads H at t0 + (j + 1) dt/2
    late = mutated_rk4("grid.t0 + (dt / 2.0) *", "grid.t0 + dt / 2.0 + (dt / 2.0) *")
    monkeypatch.setattr(propagation, "rk4_samples", late)
    assert ramp_end_error() > 1e-8

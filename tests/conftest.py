"""Shared fixtures.

The bundled-scenario workups dominate the suite's runtime, so each one is
computed once per session and shared across modules.  A workup never holds
the whole map; the trajectory fixtures step it again with the workup's
guard for the tests that read eta itself.  The tiny dim-12 run exists
for tests that need a trajectory but not the full 8000-step grids.
"""

import dataclasses

import numpy as np
import pytest

from dysonmap import (
    CoefficientSpec,
    GeneratorFn,
    Scenario,
    TimeGrid,
    hamiltonian_fn,
    initial_map,
    ladder_operators,
    number_operator,
    propagate_dyson,
    scenario_workup,
    validated_scenario,
)
from dysonmap.cli import _load_doc, scenario_from_doc


def load_bundled(name):
    doc, stem = _load_doc(name)
    return scenario_from_doc(doc, stem)


def rebuild(s, **overrides):
    return dataclasses.replace(s, **overrides)


def rk4_reference(stage, y0, grid):
    """Classical RK4 over the grid, all steps+1 samples, by a generic loop.

    stage(j, y) is the derivative at y and at t0 + j dt/2, the j-th point of
    the half-step lattice: step k calls stage(2k, y), stage(2k + 1, .) twice
    and stage(2k + 2, .).  The package's banded loop must reproduce it bit
    for bit when the stages do its arithmetic.
    """
    dt = grid.dt
    ys = [np.asarray(y0, dtype=complex)]
    for k in range(grid.steps):
        y = ys[-1]
        k1 = stage(2 * k, y)
        k2 = stage(2 * k + 1, y + (dt / 2) * k1)
        k3 = stage(2 * k + 1, y + (dt / 2) * k2)
        k4 = stage(2 * k + 2, y + dt * k3)
        ys.append(y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(ys)


def ladder_generator(dim, d, u=0.0, l=0.0):
    """GeneratorFn for d a†a + u a + l a†; each coefficient a constant or a function of t."""

    def sample(c, ts):
        return np.broadcast_to(c(ts) if callable(c) else c, np.shape(ts)).astype(complex)

    return GeneratorFn(dim=dim, bands=lambda ts: tuple(sample(c, ts) for c in (d, u, l)))


def closed_form_counterpart(s, lr, k):
    """h(t_k) = 2 [omega a†a + u a + u* a† + f] from the drive functions, dense."""
    a, ad = ladder_operators(s.dim)
    nmat = number_operator(s.dim).mat
    u = complex(lr.u[k])
    om = complex(s.omega(s.grid.points[k]))
    f = float(lr.f[k])
    return 2.0 * (om * nmat + u * a.mat + np.conj(u) * ad.mat + f * np.eye(s.dim))


def tiny_scenario(**overrides):
    """Dim-12 shrink of the constant-drive scenario; passes its workup."""
    base = dict(
        omega=CoefficientSpec.constant(1.0),
        alpha=CoefficientSpec.constant(1j),
        beta=CoefficientSpec.constant(1j),
        kappa=0.1,
        grid=TimeGrid(0.0, 2 * np.pi, 1500),
        dim=12,
        guard=4,
    )
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture(scope="session")
def s1_workup():
    return scenario_workup(load_bundled("s1"))


@pytest.fixture(scope="session")
def s2_workup():
    return scenario_workup(load_bundled("s2"))


@pytest.fixture(scope="session")
def kappa_zero_workup():
    return scenario_workup(load_bundled("kappa_zero"))


@pytest.fixture(scope="session")
def gamma_drift_workup():
    return scenario_workup(load_bundled("gamma_drift"))


@pytest.fixture(scope="session")
def time_independent_workup():
    return scenario_workup(load_bundled("time_independent"))


def workup_trajectory(s_run):
    """The whole map that a workup returning s_run streams, with the workup's guard."""
    H = hamiltonian_fn(s_run)
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    return propagate_dyson(H, eta0, s_run.grid, guard=s_run.guard)


@pytest.fixture(scope="session")
def s1_trajectory(s1_workup):
    return workup_trajectory(s1_workup[1])


@pytest.fixture(scope="session")
def gamma_drift_trajectory(gamma_drift_workup):
    return workup_trajectory(gamma_drift_workup[1])


@pytest.fixture(scope="session")
def time_independent_trajectory(time_independent_workup):
    return workup_trajectory(time_independent_workup[1])


@pytest.fixture(scope="session")
def tiny_run():
    """(s_run, H, traj) for the tiny scenario."""
    s_run, _ = validated_scenario(tiny_scenario())
    H = hamiltonian_fn(s_run)
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    traj = propagate_dyson(H, eta0, s_run.grid, guard=s_run.guard)
    return s_run, H, traj

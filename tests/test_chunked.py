"""Layout and chunking of the trajectory passes against per-sample references.

The map is stepped as eta^T and states as one (dim, n) block; both must
reproduce the row-layout, one-state-at-a-time stepping bit for bit.  The
residual passes run chunk by chunk through the ladder bands; they must
match the per-sample dense formulas they replace.  The workup streams the
map window by window through the same passes; its series must equal
theirs on the whole trajectory bit for bit, and it must never hold the
whole trajectory.
"""

import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dysonmap import (
    AnalyticEvolution,
    CoefficientSpec,
    FockOperator,
    IllConditionedError,
    MapWindow,
    StateVector,
    TimeGrid,
    analytic_vs_numeric,
    basis_state,
    diagnostics,
    counterpart_energy,
    equivalence_checks,
    hamiltonian_fn,
    initial_map,
    isospectrality_check,
    ladder_operators,
    lr_pipeline,
    metric_constancy,
    propagate_dyson,
    propagate_state,
    propagation,
    quasi_hermiticity_residuals,
    scenario_workup,
    validated_scenario,
)
from dysonmap.diagnostics import _commutator_scale, _rcond_series, check_conditioning
from dysonmap.fock_algebra import low_block
from dysonmap.model_oscillator import _intertwining_residual, quadratures
from dysonmap.propagation import (
    MAP_WINDOW,
    SAMPLE_CHUNK,
    STAGE_CHUNK,
    _band_table,
    band_matrix,
)

from conftest import load_bundled, rk4_reference, tiny_scenario, workup_trajectory

amplitudes = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
rates = st.floats(-1.0, 1.0, allow_nan=False)
coefficients = st.one_of(
    st.builds(CoefficientSpec.constant, amplitudes),
    st.lists(amplitudes, min_size=1, max_size=3).map(lambda cs: CoefficientSpec.polynomial(*cs)),
    st.builds(CoefficientSpec.sinusoid, amplitudes, amplitudes, rates, amplitudes),
    st.builds(CoefficientSpec.exp_ramp, amplitudes, rates),
)

# Chunk boundaries fall inside these sample counts for every stride.
steps_st = st.integers(3, 3 * SAMPLE_CHUNK + 5)


@contextlib.contextmanager
def unguarded():
    """The step guard switched off, for bands and grids drawn without regard to it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "STEP_GUARD", np.inf)
        yield


@st.composite
def generic_runs(draw):
    """(scenario, generator, trajectory) for arbitrary bands."""
    dim = draw(st.integers(3, 9))
    s = dataclasses.replace(
        tiny_scenario(),
        omega=draw(coefficients),
        alpha=draw(coefficients),
        beta=draw(coefficients),
        kappa=draw(st.floats(0.0, 1.0)),
        grid=TimeGrid(0.0, 0.3, draw(steps_st)),
        dim=dim,
        guard=draw(st.integers(0, dim - 2)),
    )
    H = hamiltonian_fn(s)
    eta0 = initial_map(s, draw(amplitudes) * 0.3, draw(amplitudes) * 0.3)
    with unguarded():
        return s, H, propagate_dyson(H, eta0, s.grid, guard=s.guard)


def row_layout_deriv(H, grid):
    """The column update of eta, as eta itself (not eta^T) is stored."""
    half = grid.dt / 2.0
    d, u, l = -1j * _band_table(H, grid.t0 + half * np.arange(2 * grid.steps + 1))
    n = np.arange(H.dim, dtype=float)
    root = np.sqrt(n[1:])

    def stage(j, y):
        out = y * (d[j] * n)
        out[:, 1:] += (u[j] * root) * y[:, :-1]
        out[:, :-1] += (l[j] * root) * y[:, 1:]
        return out

    return stage


def single_state_deriv(H, grid):
    """The row update of one state vector."""
    half = grid.dt / 2.0
    d, u, l = -1j * _band_table(H, grid.t0 + half * np.arange(2 * grid.steps + 1))
    n = np.arange(H.dim, dtype=float)
    root = np.sqrt(n[1:])

    def stage(j, y):
        out = (d[j] * n) * y
        out[:-1] += (u[j] * root) * y[1:]
        out[1:] += (l[j] * root) * y[:-1]
        return out

    return stage


def assert_close(got, want, scale):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(scale, 1.0))


# -- stepping layouts ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(run=generic_runs(), seed=st.integers(0, 2**32 - 1))
def test_transposed_map_stepping_is_bit_identical(run, seed):
    s, H, _ = run
    H = hamiltonian_fn(s)
    rng = np.random.default_rng(seed)
    eta0 = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
    reference = rk4_reference(row_layout_deriv(H, s.grid), eta0, s.grid)
    with unguarded():
        traj = propagate_dyson(H, FockOperator(eta0), s.grid, guard=1)
    assert np.array_equal(traj.etas, reference)
    # the trajectory exposes a view of the eta^T storage, not a copy
    assert traj.etas.base is not None and traj.etas.transpose(0, 2, 1).flags.c_contiguous


@pytest.mark.filterwarnings("ignore::dysonmap.TruncationWarning")  # random states fill the guard
@settings(max_examples=40, deadline=None)
@given(run=generic_runs(), seed=st.integers(0, 2**32 - 1))
def test_block_state_stepping_is_bit_identical(run, seed):
    s, _, _ = run
    H = hamiltonian_fn(s)
    rng = np.random.default_rng(seed)
    psis = [StateVector(rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)) for _ in range(3)]
    with unguarded():
        first = propagate_state(H, psis[0], s.grid, guard=1, companions=psis[1:])
        alone = [propagate_state(H, psi, s.grid, guard=1) for psi in psis]
    assert len(first.companions) == len(psis) - 1
    deriv = single_state_deriv(H, s.grid)
    for psi, traj, one in zip(psis, (first, *first.companions), alone):
        assert np.array_equal(traj.amplitudes, rk4_reference(deriv, psi.vec, s.grid))
        assert np.array_equal(traj.amplitudes, one.amplitudes)


@pytest.mark.filterwarnings("ignore::dysonmap.TruncationWarning")  # random states fill the guard
@pytest.mark.parametrize("steps", [STAGE_CHUNK // 2 - 1, STAGE_CHUNK // 2, STAGE_CHUNK + 3])
def test_stepping_is_bit_identical_across_stage_chunks(steps):
    # rk4_samples builds ladder columns STAGE_CHUNK half-steps at a time;
    # these step counts end just before, on and past the edges of those chunks
    s = dataclasses.replace(
        tiny_scenario(dim=5, guard=1, grid=TimeGrid(0.0, 1.3, steps)),
        omega=CoefficientSpec.sinusoid(0.3, 0.2j, 2.0, c=1.0),
        alpha=CoefficientSpec.polynomial(0.5, 0.1j, -0.2),
        beta=CoefficientSpec.exp_ramp(0.4 - 0.3j, 0.7),
    )
    H = hamiltonian_fn(s)
    rng = np.random.default_rng(steps)
    eta0 = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
    psis = [StateVector(rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)) for _ in range(2)]
    with unguarded():
        traj = propagate_dyson(H, FockOperator(eta0), s.grid, guard=1)
        first = propagate_state(H, psis[0], s.grid, guard=1, companions=psis[1:])
    assert np.array_equal(traj.etas, rk4_reference(row_layout_deriv(H, s.grid), eta0, s.grid))
    deriv = single_state_deriv(H, s.grid)
    for psi, states in zip(psis, (first, *first.companions)):
        assert np.array_equal(states.amplitudes, rk4_reference(deriv, psi.vec, s.grid))


# -- chunked residual passes ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(run=generic_runs(), stride=st.integers(1, 4), spacing=st.integers(1, 3))
def test_trajectory_residuals_match_dense_formulas(run, stride, spacing):
    s, H, traj = run
    g = s.guard
    e0 = traj.etas[0]
    rho0 = low_block(e0.conj().T @ e0, g)
    den0 = max(float(np.linalg.norm(rho0)), 1e-14)
    want = [np.linalg.norm(low_block(e.conj().T @ e, g) - rho0) / den0 for e in traj.etas]
    assert_close(metric_constancy(traj).samples, want, 1.0)

    r2, r7 = quasi_hermiticity_residuals(traj, H, stride=stride, spacing=spacing)
    centers = np.arange(max(stride, spacing), s.grid.steps - spacing + 1, stride)
    assert np.array_equal(r2.times, s.grid.t0 + centers * s.grid.dt)
    want2, want7, dens, scale = [], [], [], []
    for k in centers:
        em, e0, ep = traj.etas[k - spacing], traj.etas[k], traj.etas[k + spacing]
        rho = e0.conj().T @ e0
        drho = (ep.conj().T @ ep - em.conj().T @ em) / (2.0 * spacing * s.grid.dt)
        h = H(s.grid.t0 + k * s.grid.dt).mat
        comm = h.conj().T @ rho - rho @ h
        den = np.linalg.norm(low_block(rho @ h, g))
        num = np.linalg.norm(low_block(comm, g))
        want2.append(np.linalg.norm(low_block(comm + 1j * drho, g)))
        want7.append(num / den if den > 1e-14 else num)
        dens.append(den if den > 1e-14 else 1.0)
        scale.append(np.linalg.norm(rho) * (np.linalg.norm(h) + 1.0 / s.grid.dt))
    scale = np.array(scale)
    assert_close(r2.samples, want2, scale)
    # r7 divides by ||rho H||, so its rounding is relative to that scale
    assert_close(r7.samples, want7, scale / np.maximum(np.array(dens), 1e-14))


@settings(max_examples=40, deadline=None)
@given(run=generic_runs(), g0=amplitudes, l0=amplitudes)
# gamma_drift's coefficient triples repeat, but not on consecutive samples
@example(run=(load_bundled("gamma_drift"), None, None), g0=0.05j, l0=0.02 - 0.01j)
def test_intertwining_residual_matches_dense_formula(run, g0, l0):
    s, _, _ = run
    num, den = _intertwining_residual(s, g0, l0)
    eta0 = initial_map(s, g0, l0).mat
    rho0 = eta0.conj().T @ eta0
    nums, dens = [], []
    for d, u, l in zip(*hamiltonian_fn(s).bands(s.grid.points)):
        h = band_matrix(s.dim, d, u, l)
        nums.append(np.linalg.norm(low_block(h.conj().T @ rho0 - rho0 @ h, s.guard)))
        dens.append(np.linalg.norm(low_block(rho0 @ h, s.guard)))
    worst = int(np.argmax(nums))
    scale = np.linalg.norm(rho0) * max(np.linalg.norm(band_matrix(s.dim, *c))
                                       for c in zip(*hamiltonian_fn(s).bands(s.grid.points)))
    assert_close(num, nums[worst], scale)
    assert_close(den, dens[worst], scale)


def dense_displacement(theta: complex, dim: int) -> np.ndarray:
    """The dim x dim block of the infinite-space D(theta), from dense exponentials.

    D(theta) = e^{-|theta|^2/2} e^{theta a†} e^{-theta* a}; both factors
    are nilpotent on the truncation, so their exponentials, and the
    product of the two, carry no truncation error.
    """
    a, ad = ladder_operators(dim)
    return np.exp(-abs(theta) ** 2 / 2) * (
        scipy.linalg.expm(theta * ad.mat) @ scipy.linalg.expm(-np.conj(theta) * a.mat))


@pytest.mark.filterwarnings("ignore::dysonmap.TruncationWarning")  # dim 6 is a small truncation
@settings(max_examples=15, deadline=None)
@given(steps=st.integers(50, 3 * SAMPLE_CHUNK + 5), stride=st.integers(1, 4),
       theta0=st.one_of(st.just(0j), amplitudes.map(lambda z: 0.3 * z)))
def test_closed_form_passes_match_dense_formulas(steps, stride, theta0):
    s, _ = validated_scenario(tiny_scenario(dim=6, guard=2, grid=TimeGrid(0.0, 0.6, steps),
                                            theta0=theta0))
    lr = lr_pipeline(s)
    H = hamiltonian_fn(s)
    eta0 = initial_map(s, complex(s.gamma0), complex(s.lambda0))
    traj = propagate_dyson(H, eta0, s.grid, guard=s.guard)
    ks = np.arange(0, s.grid.steps + 1, stride)
    if ks[-1] != s.grid.steps:
        ks = np.append(ks, s.grid.steps)
    ts = s.grid.t0 + ks * s.grid.dt

    psi = propagate_state(H, basis_state(0, s.dim), s.grid, guard=traj.guard,
                          companions=(basis_state(1, s.dim),))
    psit = psi.companions[0]
    sanity_ser, fixed_ser, obs_ser = equivalence_checks(s, traj, (psi, psit), lr, stride=stride)
    e0 = traj.etas[0]
    rho0 = e0.conj().T @ e0
    a, b = psi.amplitudes, psit.amplitudes
    ref = complex(a[0].conj() @ (rho0 @ b[0]))
    x1, x2 = (q.mat for q in quadratures(s.dim))
    sanity, fixed, obs, scale = [], [], [], []
    for k, t in zip(ks, ts):
        e = traj.etas[k]
        ea, eb = e @ a[k], e @ b[k]
        rho = e.conj().T @ e
        # the closed-form X1 = cos chi x1 - sin chi x2 + shift1
        chi = lr.chi[k]
        shift1 = 0.5 * (1j * s.kappa * (lr.alpha_tilde[k] - lr.beta_tilde[k])
                        - complex(s.gamma0) + complex(s.lambda0))
        X1 = np.cos(chi) * x1 - np.sin(chi) * x2 + shift1 * np.eye(s.dim)
        sanity.append(abs(complex(a[k].conj() @ (rho @ b[k])) - complex(ea.conj() @ eb)))
        fixed.append(abs(complex(a[k].conj() @ (rho0 @ b[k])) - ref))
        obs.append(abs(complex(a[k].conj() @ (rho @ (X1 @ b[k]))) - complex(ea.conj() @ (x1 @ eb))))
        scale.append(np.linalg.norm(rho) * (1.0 + np.linalg.norm(X1)))
    assert_close(sanity_ser.samples, sanity, np.array(scale))
    assert_close(fixed_ser.samples, fixed, np.array(scale))
    assert_close(obs_ser.samples, obs, np.array(scale))

    iso = isospectrality_check(s, lr, traj, stride=stride)
    for m, ser in iso.items():
        want = []
        for k, t in zip(ks, ts):
            zeta = dense_displacement(-np.conj(complex(lr.xi[k])), s.dim)[:, m]
            w = np.linalg.solve(traj.etas[k], zeta)
            energy = complex(counterpart_energy(s, m, float(t)))
            defect = H(float(t)).mat @ w - (energy / 2.0) * w
            want.append(np.linalg.norm(defect) / np.linalg.norm(w))
        assert_close(ser.samples, want, 1.0)

    avn = analytic_vs_numeric(s, lr, traj, psi, stride=stride)
    ev = AnalyticEvolution(s, lr)
    phi0 = traj.eta0.mat @ basis_state(0, s.dim).vec
    v0 = dense_displacement(complex(s.theta0), s.dim)
    want = []
    for k, stacked in zip(ks, ev.Us(ks)):
        # U(t_k) = upsilon D[theta] R[chi] D[theta0]†, as dense products
        rotation = np.diag(np.exp(-2j * lr.chi[k] * np.arange(s.dim)))
        v = lr.upsilon[k] * (dense_displacement(complex(lr.theta[k]), s.dim) @ rotation)
        u = v @ v0.conj().T
        assert np.max(np.abs(stacked - u)) <= 1e-13
        want.append(np.linalg.norm(np.linalg.solve(traj.etas[k], u @ phi0) - a[k]))
    assert_close(avn.samples, want, 1.0)


# -- the conditioning floor ----------------------------------------------------


def test_min_rcond_is_the_applied_floor(s1_trajectory, monkeypatch):
    # the floor is read when it is applied and when it is printed
    worst = float(np.min(_rcond_series(s1_trajectory.etas)))
    assert 0.01 < worst < 0.5
    monkeypatch.setattr(diagnostics, "MIN_RCOND", 0.5)
    assert diagnostics.bounds()["min_rcond"] == 0.5
    with pytest.raises(IllConditionedError) as ei:
        scenario_workup(load_bundled("s1"))
    assert ei.value.t is not None
    assert ei.value.rcond == pytest.approx(worst)


def test_rcond_is_the_exact_condition_number(tiny_run):
    # 1/(||eta||_1 ||eta^-1||_1) itself: an estimate of ||eta^-1||_1 is a
    # lower bound, and overstates rcond
    _, _, traj = tiny_run
    window = traj.etas[MAP_WINDOW : 2 * MAP_WINDOW]
    want = [1.0 / (np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1)) for m in window]
    np.testing.assert_allclose(_rcond_series(window), want, rtol=1e-14, atol=0)


def test_singular_maps_read_rcond_zero(tiny_run):
    # an exactly singular map and one whose inverse overflows read 0, and
    # the regular maps of their stacks keep their values
    _, _, traj = tiny_run
    etas = traj.etas[: 2 * SAMPLE_CHUNK].copy()
    regular = _rcond_series(etas)
    etas[3, :, 5] = 0.0
    etas[SAMPLE_CHUNK + 1] = np.diag(np.r_[1e-310, np.ones(traj.dim - 1)])
    rcond = _rcond_series(etas)
    assert rcond[3] == rcond[SAMPLE_CHUNK + 1] == 0.0
    others = np.ones(len(etas), dtype=bool)
    others[[3, SAMPLE_CHUNK + 1]] = False
    assert np.array_equal(rcond[others], regular[others])
    # a map that stays singular is refused, as below any floor
    s, H, _ = tiny_run
    parts = []  # each window's rcond
    propagate_dyson(H, FockOperator(np.zeros((s.dim, s.dim))), s.grid, guard=traj.guard,
                    keep=np.array([0]),
                    on_window=lambda lo, etas: parts.append(_rcond_series(etas)))
    zero = np.concatenate(parts)
    assert zero.shape == (s.grid.steps + 1,) and not np.any(zero)
    with pytest.raises(IllConditionedError) as ei:
        check_conditioning(zero, s.grid.points)
    assert ei.value.rcond == 0.0 and ei.value.t == s.grid.t0


def test_solve_checks_are_fed_no_map_below_the_floor(monkeypatch, tmp_path):
    # a floor between the first window's worst map and the run's worst: the
    # solve-based checks stop at the first window below it, and the refusal
    # still names the worst sample of the whole run, whether the checks run
    # in this process or in a forked child; the spy writes to a file, which
    # the child shares with this process
    s = tiny_scenario()
    rcond = _rcond_series(workup_trajectory(validated_scenario(s)[0]).etas)
    floor = float(np.min(rcond[:MAP_WINDOW]))
    assert np.min(rcond) < floor
    for consumer in (diagnostics._inline, diagnostics._forked):
        log = tmp_path / f"fed{consumer.__name__}.txt"
        with monkeypatch.context() as mp:
            mp.setattr(diagnostics, "_window_consumer", lambda grid: consumer)
            mp.setattr(diagnostics, "MIN_RCOND", floor)
            for name in ("isospectrality_check", "analytic_vs_numeric"):
                def spy(s, lr, window, *args, check=getattr(diagnostics, name), **kwargs):
                    with open(log, "a") as fh:
                        fh.write(f"{float(np.min(_rcond_series(window.etas)))!r}\n")
                    return check(s, lr, window, *args, **kwargs)

                mp.setattr(diagnostics, name, spy)
            with pytest.raises(IllConditionedError) as ei:
                scenario_workup(s)
        assert ei.value.rcond == float(np.min(rcond))
        fed = [float(line) for line in log.read_text().splitlines()] if log.exists() else []
        assert fed and min(fed) >= floor, consumer.__name__


# -- the streamed workup -------------------------------------------------------


def test_streamed_map_keeps_the_whole_trajectorys_samples(tiny_run):
    s, H, whole = tiny_run
    steps = s.grid.steps
    keep = np.array([0, 5, MAP_WINDOW - 1, MAP_WINDOW, 700, steps])
    windows = []  # (lo, a copy of the window's maps), since the next window overwrites them
    part = propagate_dyson(H, whole.eta0, s.grid, guard=whole.guard, keep=keep,
                           on_window=lambda lo, etas: windows.append((lo, etas.copy())))
    assert np.array_equal(part.etas, whole.etas[keep])
    assert np.array_equal(part.at(keep[1:3]), whole.etas[keep[1:3]])
    assert [(lo, len(etas)) for lo, etas in windows] == [
        (lo, min(MAP_WINDOW, steps + 1 - lo)) for lo in range(0, steps + 1, MAP_WINDOW)
    ]
    assert all(np.array_equal(etas, whole.etas[lo : lo + len(etas)]) for lo, etas in windows)
    with pytest.raises(IndexError):
        part.at(1)
    # the |0>, |1> block, on the same keep
    pair = (basis_state(0, s.dim), basis_state(1, s.dim))
    states = propagate_state(H, pair[0], s.grid, guard=whole.guard, companions=pair[1:])
    held = propagate_state(H, pair[0], s.grid, guard=whole.guard, companions=pair[1:],
                           keep=keep)
    for got, want in zip((held, *held.companions), (states, *states.companions)):
        assert np.array_equal(got.amplitudes, want.amplitudes[keep])
        assert np.array_equal(got.at(keep[1:3]), want.amplitudes[keep[1:3]])
        assert got.tail_mass_max == want.tail_mass_max
        with pytest.raises(IndexError):
            got.at(1)


def test_held_samples_are_read_by_grid_index(tiny_run):
    s, H, whole = tiny_run
    keep = np.array([0, 5, MAP_WINDOW - 1, MAP_WINDOW, 700, s.grid.steps])
    part = propagate_dyson(H, whole.eta0, s.grid, guard=whole.guard, keep=keep)
    x1 = quadratures(s.dim)[0].mat
    for k in keep:
        assert np.array_equal(part.at(k), whole.at(k))
        # a conjugation eta^-1 x1 eta read through at() sees the sample at k
        e = part.at(k)
        assert np.array_equal(np.linalg.solve(e, x1 @ e),
                              np.linalg.solve(whole.etas[k], x1 @ whole.etas[k]))


def assert_streamed_workup_is_exact(workup, traj, stride=None):
    """The workup's report against the public passes on the whole trajectory."""
    report, s, lr = workup
    H = hamiltonian_fn(s)
    psi = propagate_state(H, basis_state(0, s.dim), s.grid, guard=traj.guard,
                          companions=(basis_state(1, s.dim),))
    want = [metric_constancy(traj), *quasi_hermiticity_residuals(traj, H, stride=stride)]
    want += equivalence_checks(s, traj, (psi, *psi.companions), lr, stride=stride)
    if lr is not None:
        want += isospectrality_check(s, lr, traj).values()
        want.append(analytic_vs_numeric(s, lr, traj, psi))
    want = {ser.name: ser for ser in want if ser is not None}
    assert list(report.series) == list(want)
    for name, ser in report.series.items():
        assert np.array_equal(ser.times, want[name].times), name
        assert np.array_equal(ser.samples, want[name].samples), name
    assert report.condition_max == 1.0 / float(np.min(_rcond_series(traj.etas)))
    scale = _commutator_scale(traj, H)
    assert report.outcome("r2").tolerance == diagnostics.R2_COEFF * s.grid.dt**2 * scale


@pytest.mark.parametrize("name", ["s1", "gamma_drift"])
def test_streamed_workup_is_bit_identical_on_bundled_scenarios(name, request):
    workup = request.getfixturevalue(f"{name}_workup")
    assert_streamed_workup_is_exact(workup, request.getfixturevalue(f"{name}_trajectory"))


@pytest.mark.filterwarnings("ignore::dysonmap.TruncationWarning")  # dim 6 is a small truncation
@pytest.mark.parametrize("stride", [1, 2, 3, 4])
@pytest.mark.parametrize("steps", [
    MAP_WINDOW - 1,        # windows end exactly on the last sample
    MAP_WINDOW,            # the last window holds the last sample alone
    2 * MAP_WINDOW + 1,    # centres and strided samples straddle two edges
    4 * MAP_WINDOW + 3,    # isospectrality keeps every other sample
])
def test_streamed_workup_is_bit_identical_across_window_edges(steps, stride):
    s = tiny_scenario(dim=6, guard=2, grid=TimeGrid(0.0, 1.0, steps))
    workup = scenario_workup(s, stride=stride)
    assert_streamed_workup_is_exact(workup, workup_trajectory(workup[1]), stride)


@pytest.mark.filterwarnings("ignore::dysonmap.TruncationWarning")  # dim 6 is a small truncation
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("steps", [2 * MAP_WINDOW + 1, 4 * MAP_WINDOW + 3])
def test_per_window_returns_partition_the_whole_series(steps, stride):
    # each public check, called once per window, returns the outputs that
    # window completes: they are disjoint and in order across windows, and
    # joined they are the whole trajectory's series bit for bit
    s_run, _ = validated_scenario(tiny_scenario(dim=6, guard=2, grid=TimeGrid(0.0, 1.0, steps)))
    grid, H, lr = s_run.grid, hamiltonian_fn(s_run), lr_pipeline(s_run)
    whole = workup_trajectory(s_run)
    psi = propagate_state(H, basis_state(0, s_run.dim), grid, guard=whole.guard,
                          companions=(basis_state(1, s_run.dim),))

    def checks(traj):
        """Every public check's series on traj (a whole trajectory or a window), by name."""
        got = [metric_constancy(traj), *quasi_hermiticity_residuals(traj, H, stride=stride),
               *equivalence_checks(s_run, traj, (psi, *psi.companions), lr, stride=stride),
               *isospectrality_check(s_run, lr, traj, stride=stride).values(),
               analytic_vs_numeric(s_run, lr, traj, psi, stride=stride)]
        return {ser.name: ser for ser in got}

    windows, carry = [], {}  # (index after the window's last sample, its checks' returns)
    propagate_dyson(H, whole.eta0, grid, guard=whole.guard, keep=np.array([0]),
                    on_window=lambda lo, etas: windows.append((lo + len(etas), checks(
                        MapWindow(grid, whole.guard, lo, etas, carry)))))
    assert len(windows) > 2
    for name, ser in checks(whole).items():
        end = -1  # the last grid index returned so far
        for hi, got in windows:
            ks = np.rint((got[name].times - grid.t0) / grid.dt).astype(int)
            assert np.all(np.diff(ks) > 0) and np.all(ks > end) and np.all(ks < hi), name
            end = ks[-1] if ks.size else end
        parts = [got[name] for _, got in windows]
        assert np.array_equal(np.concatenate([p.times for p in parts]), ser.times), name
        assert np.array_equal(np.concatenate([p.samples for p in parts]), ser.samples), name


@pytest.mark.filterwarnings("ignore::dysonmap.TruncationWarning")  # dim 6 is a small truncation
def test_a_checks_first_window_must_start_at_grid_index_0():
    # a pass reads eta0 in the window it is made from, so only the window
    # at grid index 0 may make it; once made, it takes the rest in order
    s_run, _ = validated_scenario(tiny_scenario(dim=6, guard=2, grid=TimeGrid(0.0, 1.0, 600)))
    whole = workup_trajectory(s_run)
    windows, carry = [], {}
    propagate_dyson(hamiltonian_fn(s_run), whole.eta0, s_run.grid, guard=whole.guard,
                    keep=np.array([0]), on_window=lambda lo, etas: windows.append(
                        MapWindow(s_run.grid, whole.guard, lo, etas.copy(order="K"), carry)))
    assert [w.lo for w in windows] == [0, MAP_WINDOW, 2 * MAP_WINDOW]
    with pytest.raises(ValueError, match=f"lo = {MAP_WINDOW}$"):
        metric_constancy(windows[1])
    assert carry == {}
    parts = [metric_constancy(w) for w in windows]
    want = metric_constancy(whole)
    assert np.array_equal(np.concatenate([p.samples for p in parts]), want.samples)


def test_streamed_workup_holds_no_whole_trajectory(s1_workup):
    # s1_workup ran one workup already, so imports and caches are warm
    s = load_bundled("s1")
    whole = (s.grid.steps + 1) * s.dim**2 * 16
    tracemalloc.start()
    try:
        scenario_workup(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < whole / 4, f"peak {peak / 1e6:.1f} MB against {whole / 1e6:.1f} MB held whole"

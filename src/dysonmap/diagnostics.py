"""Residual checks tying the closed forms to the numeric trajectories.

Each check produces a named residual series plus a pass/fail outcome under
a Tolerances configuration; scenario_workup orchestrates all of them into
one DiagnosticsReport, skipping the stages whose preconditions a scenario
cannot meet (an invalid scenario still gets trajectory-level residuals, so
negative controls show exactly which claims break) and the checks whose
series took no sample.

All operator norms are guard-band restricted: the top rows and columns
touched by ladder truncation are excluded before taking the Frobenius
norm, otherwise every residual is dominated by the same corner artifact
regardless of what it measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ScenarioInvalidError
from .fock_algebra import StateVector, basis_state, displacements, low_block
from .model_oscillator import (
    AnalyticEvolution,
    LRQuantities,
    PTReport,
    Scenario,
    ValidationReport,
    counterpart_energy,
    hamiltonian_fn,
    initial_map,
    lr_pipeline,
    pt_analysis,
    quadrature_frame,
    quadratures,
    validated_scenario,
)
from .propagation import (
    DysonTrajectory,
    GeneratorFn,
    StateTrajectory,
    apply_generator,
    check_conditioning,
    propagate_dyson,
    propagate_state,
    sample_chunks,
)

_ABS_FLOOR = 1e-14


@dataclass(frozen=True)
class Tolerances:
    """Every pass/fail threshold in one configurable place.

    Defaults follow the ledgered calibration at the bundled grids (dim 32,
    8000 steps over one drive period): integrator-limited residuals at
    1e-6, the static intertwining residual at 1e-7, and perturbative
    envelopes max(floor, C kappa^order+1) with C a per-family calibration
    constant.  ``min_rcond`` is the one floor on eta's reciprocal condition
    number: the workup refuses a trajectory below it, and the
    isospectrality solves apply it.
    """

    sanity: float = 1e-12
    metric_constancy: float = 1e-6
    r2_coeff: float = 50.0
    r7: float = 1e-7
    fixed_metric: float = 1e-6
    perturbative_floor: float = 1e-6
    envelope_coeff: float = 12.0
    isospectral_floor: float = 1e-9
    min_rcond: float = 1e-12

    def envelope(self, kappa: float, order: int) -> float:
        """max(floor, C kappa^(order+1)) for perturbative comparisons."""
        return max(self.perturbative_floor, self.envelope_coeff * kappa ** (order + 1))


@dataclass(frozen=True)
class ResidualSeries:
    """One named nonnegative residual sampled along the grid."""

    name: str
    times: np.ndarray
    samples: np.ndarray
    norm: str = "frobenius"

    def __post_init__(self):
        if self.times.shape != self.samples.shape:
            raise ValueError(f"series {self.name}: times/samples shape mismatch")
        if not np.all(np.isfinite(self.samples)) or np.any(self.samples < 0):
            raise ValueError(f"series {self.name}: residuals must be finite and nonnegative")

    @property
    def max(self) -> float:
        return float(np.max(self.samples)) if self.samples.size else 0.0

    @property
    def terminal(self) -> float:
        return float(self.samples[-1]) if self.samples.size else 0.0


@dataclass(frozen=True)
class CheckOutcome:
    """Pass/fail of one named check; passed is None when skipped."""

    name: str
    passed: bool | None
    value: float
    tolerance: float | None
    note: str = ""


@dataclass(frozen=True)
class DiagnosticsReport:
    """All residual series and check outcomes for one scenario run."""

    scenario_name: str
    series: dict[str, ResidualSeries]
    checks: tuple[CheckOutcome, ...]
    tolerances: Tolerances
    validation: ValidationReport | None
    pt: PTReport
    tail_mass_max: float
    condition_max: float

    def __post_init__(self):
        object.__setattr__(
            self, "checks", tuple(sorted(self.checks, key=lambda c: c.name))
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if c.passed is False)

    def outcome(self, name: str) -> CheckOutcome:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def default_stride(steps: int, target: int = 1600) -> int:
    return max(1, steps // target)


def _strided_indices(steps: int, stride: int | None, target: int) -> np.ndarray:
    """Every stride-th grid index (default from target), ending on the last."""
    st = default_stride(steps, target) if stride is None else stride
    ks = np.arange(0, steps + 1, st)
    if ks[-1] != steps:
        ks = np.append(ks, steps)
    return ks


def _metrics(etas: np.ndarray) -> np.ndarray:
    """rho = eta† eta for a stack of maps."""
    return np.conj(np.swapaxes(etas, -1, -2)) @ etas


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[i] @ vecs[i] for stacks of matrices and vectors."""
    return (mats @ vecs[..., None])[..., 0]


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x[i]|y[i]> for stacks of vectors."""
    return np.sum(np.conj(x) * y, axis=-1)


def _block_norms(mats: np.ndarray, k: int) -> np.ndarray:
    """Frobenius norm of the leading k x k block of each matrix in a stack."""
    return np.linalg.norm(mats[..., :k, :k], axis=(-2, -1))


def metric_constancy(traj: DysonTrajectory, *, guard: int | None = None) -> ResidualSeries:
    """r(t_k) = ||rho(t_k) - rho(t_0)|| / ||rho(t_0)|| on the guard block."""
    g = traj.options.guard if guard is None else guard
    rho0 = low_block(traj.rho0.mat, g)
    den = max(float(np.linalg.norm(rho0)), _ABS_FLOOR)
    k = rho0.shape[0]
    out = np.empty(len(traj.etas))
    for sl in sample_chunks(len(traj.etas)):
        # the guard block of eta† eta only needs eta's first k columns
        blocks = _metrics(traj.etas[sl, :, :k])
        out[sl] = np.linalg.norm(blocks - rho0, axis=(1, 2)) / den
    return ResidualSeries(name="metric_constancy", times=traj.grid.points.copy(), samples=out)


def quasi_hermiticity_residuals(
    traj: DysonTrajectory,
    H: GeneratorFn,
    *,
    guard: int | None = None,
    stride: int | None = None,
    spacing: int = 1,
) -> tuple[ResidualSeries, ResidualSeries]:
    """The flow identity and the static intertwining residual.

    Along the map flow d eta/dt = -i eta H the metric rho = eta† eta obeys
    d rho/dt = i (H† rho - rho H) exactly, so

        r2(t) = ||H† rho - rho H + i d rho/dt||

    vanishes for every trajectory up to the discretization floor: an
    O(dt^2) central-stencil term proportional to the third time
    derivative of rho, plus the integrator's own O(dt^4) error.  r7(t) =
    ||H† rho - rho H|| / ||rho H|| additionally needs the constant-metric
    constraints, so it separates validated scenarios from controls.

    Centers are strided interior grid points.  ``spacing`` widens the
    stencil to k +/- spacing grid samples; doubling it scales the stencil
    term by 4, which isolates that term from the integrator floor without
    re-propagating.  Centers run in chunks; each chunk forms the metric
    once per distinct sample it touches and applies H through its bands.
    """
    if spacing < 1:
        raise ValueError("stencil spacing must be >= 1")
    g = traj.options.guard if guard is None else guard
    grid = traj.grid
    st = default_stride(grid.steps) if stride is None else stride
    centers = np.arange(max(st, spacing), grid.steps - spacing + 1, st)
    ts = grid.t0 + centers * grid.dt
    r2 = np.empty(centers.size)
    r7 = np.empty(centers.size)
    # a banded H couples neighbouring levels only, so the guard block of
    # H† rho - rho H needs rho on one level more than the block itself.
    # rho is still formed in full: a narrower product rounds differently,
    # and the stencil amplifies that by 1/(2 spacing dt).
    levels = min(traj.dim - g + 1, traj.dim)
    k = traj.dim - g
    for sl in sample_chunks(centers.size):
        cs = centers[sl]
        touched = np.unique(np.concatenate((cs - spacing, cs, cs + spacing)))
        rhos = _metrics(traj.etas[touched])[:, :levels, :levels]

        def rho_at(idx):
            return rhos[np.searchsorted(touched, idx)]

        rho = rho_at(cs)
        drho = (rho_at(cs + spacing) - rho_at(cs - spacing)) / (2.0 * spacing * grid.dt)
        rho_h = apply_generator(H, ts[sl], rho, right=True)
        comm = apply_generator(H, ts[sl], rho, adjoint=True) - rho_h
        r2[sl] = _block_norms(comm + 1j * drho, k)
        den = _block_norms(rho_h, k)
        num = _block_norms(comm, k)
        r7[sl] = num / np.where(den > _ABS_FLOOR, den, 1.0)
    return (
        ResidualSeries(name="r2", times=ts, samples=r2),
        ResidualSeries(name="r7", times=ts, samples=r7),
    )


@dataclass(frozen=True)
class EquivalenceSeries:
    """The three pairing residuals for one pair of initial states.

    ``states`` holds the two propagated state trajectories, in pair order.
    """

    sanity: ResidualSeries
    fixed_metric: ResidualSeries
    observable: ResidualSeries | None
    tail_mass_max: float = 0.0
    states: tuple[StateTrajectory, ...] = ()


def equivalence_checks(
    s: Scenario,
    traj: DysonTrajectory,
    lr: LRQuantities | None = None,
    pair: tuple[StateVector, StateVector] | None = None,
    *,
    stride: int | None = None,
) -> EquivalenceSeries:
    """Pairing identities between the two descriptions.

    sanity: <psi|rho(t)|psi~> equals <eta psi|eta psi~> (same algebra, two
    evaluation orders); fixed_metric: <psi(t)|rho0|psi~(t)> stays at its
    initial value when the metric is constant; observable: rho-weighted
    matrix elements of the closed-form X1 against bare x1 between the
    mapped states, expected to agree to second order in kappa (needs lr).
    """
    if pair is None:
        pair = (basis_state(0, s.dim), basis_state(1, s.dim))
    psi = propagate_state(hamiltonian_fn(s), pair[0], s.grid, options=traj.options,
                          companions=pair[1:])
    (psit,) = psi.companions
    grid = s.grid
    ks = _strided_indices(grid.steps, stride, target=1600)
    ts = grid.t0 + ks * grid.dt
    rho0 = traj.rho0.mat
    ref = complex(pair[0].vec.conj() @ (rho0 @ pair[1].vec))
    x1, x2 = (q.mat for q in quadratures(s.dim))
    if lr is not None:
        chi, shift1, _ = quadrature_frame(s, lr, ks)

    sanity = np.empty(ks.size)
    fixed = np.empty(ks.size)
    obs = np.empty(ks.size) if lr is not None else None
    for sl in sample_chunks(ks.size):
        es = traj.etas[ks[sl]]
        a, b = psi.amplitudes[ks[sl]], psit.amplitudes[ks[sl]]
        ea, eb = _matvec(es, a), _matvec(es, b)
        rho = _metrics(es)
        sanity[sl] = np.abs(_inner(a, _matvec(rho, b)) - _inner(ea, eb))
        fixed[sl] = np.abs(_inner(a, b @ rho0.T) - ref)
        if obs is not None:
            # X1 b = cos chi x1 b - sin chi x2 b + shift1 b, without forming X1
            x1b, x2b = b @ x1.T, b @ x2.T
            c = chi[sl, None]
            X1b = np.cos(c) * x1b - np.sin(c) * x2b + shift1[sl, None] * b
            lhs = _inner(a, _matvec(rho, X1b))
            rhs = _inner(ea, eb @ x1.T)
            obs[sl] = np.abs(lhs - rhs)

    def mk(name, arr):
        return ResidualSeries(name=name, times=ts.astype(float), samples=arr)

    return EquivalenceSeries(
        sanity=mk("equivalence_sanity", sanity),
        fixed_metric=mk("equivalence_fixed_metric", fixed),
        observable=mk("equivalence_observable", obs) if obs is not None else None,
        tail_mass_max=max(psi.tail_mass_max, psit.tail_mass_max),
        states=(psi, psit),
    )


def isospectrality_check(
    s: Scenario,
    lr: LRQuantities,
    traj: DysonTrajectory,
    ms: Sequence[int] = (0, 1, 2),
    *,
    stride: int | None = None,
) -> dict[int, ResidualSeries]:
    """r_m(t) = ||H w - (E_m/2) w|| / ||w|| with w = eta^-1 zeta_m.

    The mapped displaced Fock states diagonalize H up to third order in
    kappa.  Each sampled eta is factored once for all of ms, after its
    reciprocal condition number is checked against the trajectory's
    rcond_floor.
    """
    grid = s.grid
    ks = _strided_indices(grid.steps, stride, target=400)
    ts = grid.t0 + ks * grid.dt
    check_conditioning(traj, ks)
    H = hamiltonian_fn(s)
    cols = list(ms)
    out = np.empty((len(cols), ks.size))
    for sl in sample_chunks(ks.size):
        zetas = displacements(-np.conj(lr.xi[ks[sl]]), s.dim)[:, :, cols]
        w = np.linalg.solve(traj.etas[ks[sl]], zetas)
        energy = np.stack([counterpart_energy(s, m, ts[sl]) for m in cols], axis=-1)
        defect = apply_generator(H, ts[sl], w) - w * (energy[:, None, :] / 2.0)
        out[:, sl] = (np.linalg.norm(defect, axis=1) / np.linalg.norm(w, axis=1)).T
    return {
        m: ResidualSeries(name=f"isospectrality_m{m}", times=ts.astype(float), samples=out[i])
        for i, m in enumerate(cols)
    }


def analytic_vs_numeric(
    s: Scenario,
    lr: LRQuantities,
    traj: DysonTrajectory,
    psi0: StateVector | None = None,
    *,
    stride: int | None = None,
    numeric: StateTrajectory | None = None,
) -> ResidualSeries:
    """||eta^-1(t) U(t) eta(t0) |psi0> - psi(t)|| against stepping under H.

    The deviation is first order in the drive strength at generic interior
    times and second order at times where the accumulated drive phase
    closes (the bundled grids end at such a time); the series' terminal
    value is the figure of merit for scaling checks.  ``numeric`` reuses an
    existing stepping of |psi0> on the scenario grid instead of
    propagating it again.
    """
    if not s.validated:
        raise ScenarioInvalidError(
            "analytic route needs a validated scenario",
            failed_checks=("not_validated",),
        )
    if psi0 is None:
        psi0 = basis_state(0, s.dim)
    grid = s.grid
    ks = _strided_indices(grid.steps, stride, target=800)
    if numeric is None:
        numeric = propagate_state(hamiltonian_fn(s), psi0, grid, options=traj.options)
    elif numeric.grid != grid or not np.array_equal(numeric.amplitudes[0], psi0.vec):
        raise ValueError("numeric trajectory does not start from psi0 on the scenario grid")
    ev = AnalyticEvolution(s, lr)
    phi0 = traj.eta0.mat @ psi0.vec
    devs = np.empty(ks.size)
    for sl in sample_chunks(ks.size):
        w = np.linalg.solve(traj.etas[ks[sl]], ev.Us(ks[sl]) @ phi0[:, None])[:, :, 0]
        devs[sl] = np.linalg.norm(w - numeric.amplitudes[ks[sl]], axis=1)
    ts = grid.t0 + ks * grid.dt
    return ResidualSeries(name="analytic_vs_numeric", times=ts.astype(float), samples=devs)


def _bounded(
    name: str, series: ResidualSeries, tol: float, note: str = "", value: float | None = None
) -> CheckOutcome:
    """value (default the series max) <= tol; skipped when the series is empty."""
    if not series.samples.size:
        return CheckOutcome(name, None, float("nan"), None, "skipped: no samples")
    v = series.max if value is None else value
    return CheckOutcome(name, v <= tol, v, tol, note)


def scenario_workup(
    s: Scenario, *, tol: Tolerances | None = None, stride: int | None = None
) -> tuple[DiagnosticsReport, Scenario, LRQuantities | None, DysonTrajectory]:
    """Run every applicable check on one scenario; returns the intermediates too.

    Validation failures do not stop the run: the trajectory-level residuals
    are exactly what shows a control scenario misbehaving.  Checks whose
    preconditions cannot be met (closed forms on a non-validated scenario)
    or whose series took no sample are recorded as skipped.
    """
    tol = tol or Tolerances()
    validation: ValidationReport | None = None
    try:
        s_run, validation = validated_scenario(s)
    except ScenarioInvalidError as exc:
        validation = exc.report
        g0 = validation.gamma0 if validation is not None else 0j
        s_run = replace(s, gamma0=g0, validated=False)

    checks: list[CheckOutcome] = []
    if validation is not None:
        for key, item in validation.checks.items():
            checks.append(
                CheckOutcome(
                    name=f"({key})",
                    passed=item.passed,
                    value=item.value,
                    tolerance=None,
                    note=item.detail,
                )
            )

    H = hamiltonian_fn(s_run)
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    options = s_run.solver_options(rcond_floor=tol.min_rcond)
    traj = propagate_dyson(H, eta0, s_run.grid, options=options)
    check_conditioning(traj)

    series: dict[str, ResidualSeries] = {}
    mc = metric_constancy(traj)
    series[mc.name] = mc
    checks.append(_bounded("metric_constancy", mc, tol.metric_constancy))

    r2, r7 = quasi_hermiticity_residuals(traj, H, stride=stride)
    series[r2.name] = r2
    series[r7.name] = r7
    scale = _commutator_scale(traj, H)
    r2_tol = tol.r2_coeff * s_run.grid.dt**2 * scale
    checks.append(_bounded("r2", r2, r2_tol, "flow identity"))
    checks.append(_bounded("r7", r7, tol.r7, "static intertwining"))

    lr = None
    if s_run.validated:
        lr = lr_pipeline(s_run)
    eq = equivalence_checks(s_run, traj, lr, stride=stride)
    series[eq.sanity.name] = eq.sanity
    series[eq.fixed_metric.name] = eq.fixed_metric
    checks.append(_bounded("equivalence_sanity", eq.sanity, tol.sanity))
    checks.append(_bounded("equivalence_fixed_metric", eq.fixed_metric, tol.fixed_metric))
    env2 = tol.envelope(s_run.kappa, 1)
    if eq.observable is not None:
        series[eq.observable.name] = eq.observable
        checks.append(_bounded("equivalence_observable", eq.observable, env2))
    else:
        checks.append(CheckOutcome("equivalence_observable", None, float("nan"), None, "skipped"))

    if lr is not None and s_run.perturbation_order == 2:
        iso = isospectrality_check(s_run, lr, traj)
        worst = 0.0
        for m, ser in iso.items():
            series[ser.name] = ser
            worst = max(worst, ser.max)
        iso_tol = tol.isospectral_floor + tol.envelope_coeff * s_run.kappa**3
        checks.append(CheckOutcome("isospectrality", worst <= iso_tol, worst, iso_tol))
    else:
        checks.append(CheckOutcome("isospectrality", None, float("nan"), None, "skipped"))

    if lr is not None:
        avn = analytic_vs_numeric(s_run, lr, traj, numeric=eq.states[0])
        series[avn.name] = avn
        checks.append(
            _bounded(
                "analytic_vs_numeric",
                avn,
                env2,
                f"terminal deviation; interior max {avn.max:.3e}",
                value=avn.terminal,
            )
        )
    else:
        checks.append(CheckOutcome("analytic_vs_numeric", None, float("nan"), None, "skipped"))

    pt = pt_analysis(s_run)
    rc_min = float(np.min(traj.rcond)) if traj.rcond.size else 1.0
    report = DiagnosticsReport(
        scenario_name=s_run.name,
        series=series,
        checks=tuple(checks),
        tolerances=tol,
        validation=validation,
        pt=pt,
        tail_mass_max=eq.tail_mass_max,
        condition_max=1.0 / max(rc_min, 1e-300),
    )
    return report, s_run, lr, traj


def _commutator_scale(traj: DysonTrajectory, H: GeneratorFn) -> float:
    """Typical guard-block magnitude of rho H, the natural r2 scale."""
    g = traj.options.guard
    ks = (0, len(traj.etas) // 2, len(traj.etas) - 1)
    vals = []
    for k in ks:
        e = traj.etas[k]
        rho = e.conj().T @ e
        h = H(float(traj.grid.points[k])).mat
        vals.append(np.linalg.norm(low_block(rho @ h, g)))
    return max(float(max(vals)), _ABS_FLOOR)

"""Residual checks tying the closed forms to the numeric trajectories.

Each check produces a named residual series plus a pass/fail outcome under
a Tolerances configuration; scenario_workup orchestrates all of them into
one DiagnosticsReport, skipping the stages whose preconditions a scenario
cannot meet (an invalid scenario still gets trajectory-level residuals, so
negative controls show exactly which claims break) and the checks whose
series took no sample.  The checks are functions of the trajectories they
are given.  Each per-sample check takes a whole trajectory or one window
of a streamed map: scenario_workup steps the |0>, |1> pair once, holding
only the samples its checks read, then has propagate_dyson stream the map
through every check and hold only the three samples of the r2 scale, so
it holds no array as long as the trajectory.

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
from .fock_algebra import _exact_displacements, basis_state, low_block
from .model_oscillator import (
    AnalyticEvolution,
    CheckOutcome,
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
    MapWindow,
    StateTrajectory,
    TimeGrid,
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
    1e-6, the static intertwining residual at 1e-7, and the drive-strength
    envelope max(floor, C kappa^2) with C a calibration constant.
    ``min_rcond`` is the one floor on eta's reciprocal condition number:
    the workup refuses a trajectory below it, and the isospectrality
    solves apply it.
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

    def envelope(self, kappa: float) -> float:
        """max(floor, C kappa^2), the bound of the closed-form comparisons."""
        return max(self.perturbative_floor, self.envelope_coeff * kappa**2)


@dataclass(frozen=True)
class ResidualSeries:
    """One named nonnegative residual sampled along the grid."""

    name: str
    times: np.ndarray
    samples: np.ndarray

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
class DiagnosticsReport:
    """All residual series and check outcomes for one scenario run."""

    scenario_name: str
    series: dict[str, ResidualSeries]
    checks: tuple[CheckOutcome, ...]
    tolerances: Tolerances
    validation: ValidationReport
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


def _strided_indices(grid: TimeGrid, stride: int | None, target: int) -> np.ndarray:
    """grid.strided at stride, or at the default stride for target when stride is None."""
    return grid.strided(default_stride(grid.steps, target) if stride is None else stride)


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


# The per-sample checks take a whole DysonTrajectory or one MapWindow of a
# map that propagate_dyson streams.  A check over strided samples is a pass
# that evaluates its outputs SAMPLE_CHUNK at a time, grouped exactly as in
# one pass over the whole trajectory; the windows of one run share the pass,
# kept in their carry, and each call returns the outputs its window
# completes.  metric_constancy reads one sample per output and chunks each
# window from its start, which every window places on a multiple of
# SAMPLE_CHUNK.


def _window(traj: DysonTrajectory | MapWindow) -> tuple[int, np.ndarray, dict | None]:
    """(lo, etas, carry) of a window, or of a whole trajectory as its only window."""
    if isinstance(traj, MapWindow):
        return traj.lo, traj.etas, traj.carry
    if len(traj.ks) != traj.grid.steps + 1:
        raise ValueError("the per-sample checks read every sample of a trajectory")
    return 0, traj.etas, None


def _fed(traj: DysonTrajectory | MapWindow, key: tuple, make):
    """The outputs that traj's samples complete, of the pass make() builds.

    A whole trajectory is fed to a new pass.  The windows of one run share
    one pass per key, kept in their carry.
    """
    lo, etas, carry = _window(traj)
    if carry is None:
        return make().feed(lo, etas)
    if key not in carry:
        carry[key] = make()
    return carry[key].feed(lo, etas)


def metric_constancy(traj: DysonTrajectory | MapWindow) -> ResidualSeries:
    """r(t_k) = ||rho(t_k) - rho(t_0)|| / ||rho(t_0)|| on the guard block.

    Given a MapWindow, the series covers the samples of that window.
    """
    lo, etas, _ = _window(traj)
    rho0 = low_block(traj.rho0.mat, traj.options.guard)
    k = rho0.shape[0]
    den = max(float(np.linalg.norm(rho0)), _ABS_FLOOR)
    out = np.empty(len(etas))
    for sl in sample_chunks(len(etas)):
        # the guard block of eta† eta only needs eta's first k columns
        blocks = _metrics(etas[sl, :, :k])
        out[sl] = np.linalg.norm(blocks - rho0, axis=(1, 2)) / den
    times = traj.grid.points[lo : lo + len(etas)].copy()  # not a view that keeps every point
    return ResidualSeries(name="metric_constancy", times=times, samples=out)


class _StridedPass:
    """A check over strided samples, evaluated SAMPLE_CHUNK outputs at a time.

    Output chunk sl reads the maps at the sorted grid indices reads(sl).
    It is evaluated in the window that holds the last of them; the samples
    it reads from earlier windows are carried over.  The outputs are thus
    grouped into chunks exactly as in one pass over the whole trajectory,
    which matters because a product over one row can round differently
    from the same row in a stack.
    """

    def __init__(self, n: int, reads):
        self.chunks = [(sl, reads(sl)) for sl in sample_chunks(n)]
        every = [ks for _, ks in self.chunks]
        self.read = np.unique(np.concatenate(every)) if every else np.empty(0, dtype=int)
        self.next = 0                    # first chunk not yet evaluated
        self.held_ks, self.held = self.read[:0], None
        self.sink = self.evaluate()
        next(self.sink)

    def _done(self) -> int:
        """The number of outputs evaluated so far."""
        return self.chunks[self.next - 1][0].stop if self.next else 0

    def feed(self, lo: int, etas: np.ndarray):
        """Evaluate the chunks that the maps at lo, lo + 1, ... complete; returns their outputs."""
        hi = lo + len(etas)
        done = self._done()

        def take(ks):
            """The maps at sorted grid indices ks, carried or in this window."""
            split = int(np.searchsorted(ks, lo))
            here = etas[ks[split:] - lo]
            if not split:
                return here
            return np.concatenate((self.held[np.searchsorted(self.held_ks, ks[:split])], here))

        while self.next < len(self.chunks):
            sl, ks = self.chunks[self.next]
            if ks[-1] >= hi:  # the chunk ends in a later window
                pending = self.read[(self.read >= ks[0]) & (self.read < hi)]
                self.held_ks, self.held = pending, take(pending)
                break
            self.sink.send((sl, ks, take(ks)))
            self.next += 1
        return self.series(slice(done, self._done()))

    def evaluate(self):
        """A generator that evaluates each (sl, ks, etas) chunk sent to it.

        One loop for the life of the pass keeps a chunk's temporaries alive
        until the next chunk replaces them, across window edges too, so the
        allocator reuses their memory instead of returning it to the system
        and faulting it in again for every window.
        """
        raise NotImplementedError

    def series(self, sl: slice):
        """The outputs sl, as residual series."""
        raise NotImplementedError


class _StencilPass(_StridedPass):
    """quasi_hermiticity_residuals' r2 and r7 at strided centres."""

    def __init__(self, H: GeneratorFn, grid: TimeGrid, guard: int, dim: int,
                 stride: int | None, spacing: int):
        if spacing < 1:
            raise ValueError("stencil spacing must be >= 1")
        st = default_stride(grid.steps) if stride is None else stride
        self.centers = np.arange(max(st, spacing), grid.steps - spacing + 1, st)
        self.ts = grid.t0 + self.centers * grid.dt
        self.r2 = np.empty(self.centers.size)
        self.r7 = np.empty(self.centers.size)
        self.H, self.dt, self.spacing = H, grid.dt, spacing
        # a banded H couples neighbouring levels only, so the guard block of
        # H† rho - rho H needs rho on one level more than the block itself.
        # rho is still formed in full: a narrower product rounds differently,
        # and the stencil amplifies that by 1/(2 spacing dt).
        self.levels = min(dim - guard + 1, dim)
        self.k = dim - guard
        super().__init__(self.centers.size, self._touched)

    def _touched(self, sl: slice) -> np.ndarray:
        cs, sp = self.centers[sl], self.spacing
        return np.unique(np.concatenate((cs - sp, cs, cs + sp)))

    def evaluate(self):
        sp, levels, k = self.spacing, self.levels, self.k
        while True:
            sl, touched, etas = yield
            cs = self.centers[sl]
            rhos = _metrics(etas)[:, :levels, :levels]

            def rho_at(idx):
                return rhos[np.searchsorted(touched, idx)]

            rho = rho_at(cs)
            drho = (rho_at(cs + sp) - rho_at(cs - sp)) / (2.0 * sp * self.dt)
            rho_h = apply_generator(self.H, self.ts[sl], rho, right=True)
            comm = apply_generator(self.H, self.ts[sl], rho, adjoint=True) - rho_h
            self.r2[sl] = _block_norms(comm + 1j * drho, k)
            den = _block_norms(rho_h, k)
            num = _block_norms(comm, k)
            self.r7[sl] = num / np.where(den > _ABS_FLOOR, den, 1.0)

    def series(self, sl: slice) -> tuple[ResidualSeries, ResidualSeries]:
        return (
            ResidualSeries(name="r2", times=self.ts[sl], samples=self.r2[sl]),
            ResidualSeries(name="r7", times=self.ts[sl], samples=self.r7[sl]),
        )


def quasi_hermiticity_residuals(
    traj: DysonTrajectory | MapWindow,
    H: GeneratorFn,
    *,
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
    Given a MapWindow, the series hold the centres that window completes.
    """
    return _fed(traj, ("r2", stride, spacing), lambda: _StencilPass(
        H, traj.grid, traj.options.guard, traj.dim, stride, spacing))


_EQUIVALENCE_TARGET = 1600  # default sample counts of the strided checks
_ISOSPECTRAL_TARGET = 400
_DEVIATION_TARGET = 800


class _EquivalencePass(_StridedPass):
    """equivalence_checks' three series at strided samples."""

    def __init__(self, s: Scenario, rho0: np.ndarray,
                 states: tuple[StateTrajectory, StateTrajectory],
                 lr: LRQuantities | None, stride: int | None):
        self.psi, self.psit = states
        grid = s.grid
        self.ks = _strided_indices(grid, stride, target=_EQUIVALENCE_TARGET)
        self.ts = (grid.t0 + self.ks * grid.dt).astype(float)
        self.rho0 = rho0
        self.ref = complex(self.psi.at(0).conj() @ (rho0 @ self.psit.at(0)))
        self.x1, self.x2 = (q.mat for q in quadratures(s.dim))
        self.frame = quadrature_frame(s, lr, self.ks)[:2] if lr is not None else None
        self.sanity = np.empty(self.ks.size)
        self.fixed = np.empty(self.ks.size)
        self.obs = np.empty(self.ks.size) if lr is not None else None
        super().__init__(self.ks.size, self.ks.__getitem__)

    def evaluate(self):
        x1, x2 = self.x1, self.x2
        while True:
            sl, ks, es = yield
            a, b = self.psi.at(ks), self.psit.at(ks)
            ea, eb = _matvec(es, a), _matvec(es, b)
            rho = _metrics(es)
            self.sanity[sl] = np.abs(_inner(a, _matvec(rho, b)) - _inner(ea, eb))
            self.fixed[sl] = np.abs(_inner(a, b @ self.rho0.T) - self.ref)
            if self.obs is not None:
                chi, shift1 = self.frame
                # X1 b = cos chi x1 b - sin chi x2 b + shift1 b, without forming X1
                x1b, x2b = b @ x1.T, b @ x2.T
                c = chi[sl, None]
                X1b = np.cos(c) * x1b - np.sin(c) * x2b + shift1[sl, None] * b
                lhs = _inner(a, _matvec(rho, X1b))
                rhs = _inner(ea, eb @ x1.T)
                self.obs[sl] = np.abs(lhs - rhs)

    def series(self, sl: slice):
        def mk(name, arr):
            return ResidualSeries(name=name, times=self.ts[sl], samples=arr[sl])

        return (
            mk("equivalence_sanity", self.sanity),
            mk("equivalence_fixed_metric", self.fixed),
            mk("equivalence_observable", self.obs) if self.obs is not None else None,
        )


def equivalence_checks(
    s: Scenario,
    traj: DysonTrajectory | MapWindow,
    states: tuple[StateTrajectory, StateTrajectory],
    lr: LRQuantities | None = None,
    *,
    stride: int | None = None,
) -> tuple[ResidualSeries, ResidualSeries, ResidualSeries | None]:
    """Pairing identities between the two descriptions, as series.

    ``states`` holds psi and psi~ stepped under H on the scenario grid,
    holding at least the sampled grid indices.  sanity: <psi|rho(t)|psi~>
    equals <eta psi|eta psi~> (same algebra, two evaluation orders);
    fixed_metric: <psi(t)|rho0|psi~(t)> stays at its initial value when
    the metric is constant; observable: rho-weighted matrix elements of
    the closed-form X1 against bare x1 between the mapped states, which
    agree exactly, so the residual measures the stepped map's error
    (needs lr, else None).  Given a MapWindow, the series hold the
    samples that window completes.
    """
    return _fed(traj, ("equivalence", stride), lambda: _EquivalencePass(
        s, traj.rho0.mat, states, lr, stride))


class _IsospectralPass(_StridedPass):
    """isospectrality_check's r_m at strided samples."""

    def __init__(self, s: Scenario, lr: LRQuantities, ms: Sequence[int], stride: int | None):
        grid = s.grid
        self.ks = _strided_indices(grid, stride, target=_ISOSPECTRAL_TARGET)
        self.ts = (grid.t0 + self.ks * grid.dt).astype(float)
        self.s, self.lr, self.cols = s, lr, list(ms)
        self.H = hamiltonian_fn(s)
        self.out = np.empty((len(self.cols), self.ks.size))
        super().__init__(self.ks.size, self.ks.__getitem__)

    def evaluate(self):
        s, cols = self.s, self.cols
        while True:
            sl, ks, es = yield
            ts = self.ts[sl]
            zetas = _exact_displacements(-np.conj(self.lr.xi[ks]), s.dim, cols)
            w = np.linalg.solve(es, zetas)
            energy = counterpart_energy(s, cols, ts)
            defect = apply_generator(self.H, ts, w) - w * (energy[:, None, :] / 2.0)
            self.out[:, sl] = (np.linalg.norm(defect, axis=1) / np.linalg.norm(w, axis=1)).T

    def series(self, sl: slice) -> dict[int, ResidualSeries]:
        return {
            m: ResidualSeries(name=f"isospectrality_m{m}", times=self.ts[sl],
                              samples=self.out[i, sl])
            for i, m in enumerate(self.cols)
        }


def isospectrality_check(
    s: Scenario,
    lr: LRQuantities,
    traj: DysonTrajectory | MapWindow,
    ms: Sequence[int] = (0, 1, 2),
    *,
    stride: int | None = None,
) -> dict[int, ResidualSeries]:
    """r_m(t) = ||H w - (E_m/2) w|| / ||w|| with w = eta^-1 zeta_m.

    E_m is the exact spectrum of 2H, and zeta_m = D[-xi*]|m> is an exact
    eigenvector of the closed-form counterpart, so w is one of H and r_m
    measures the stepped map's error.  zeta_m is column m of the
    normal-ordered, exact displacement, built for the columns ms only.
    Each sampled eta is factored once for all of ms.  traj is a whole
    trajectory, whose reciprocal condition numbers at the sampled indices
    are first checked against its rcond_floor, or one window of a streamed
    map, whose caller applies the floor; given a window, the series hold
    the samples that window completes.
    """
    if isinstance(traj, DysonTrajectory):
        check_conditioning(traj, _strided_indices(s.grid, stride, _ISOSPECTRAL_TARGET))
    return _fed(traj, ("isospectrality", tuple(ms), stride),
                lambda: _IsospectralPass(s, lr, ms, stride))


class _DeviationPass(_StridedPass):
    """analytic_vs_numeric's deviations at strided samples."""

    def __init__(self, s: Scenario, lr: LRQuantities, numeric: StateTrajectory,
                 stride: int | None):
        grid = s.grid
        self.ks = _strided_indices(grid, stride, target=_DEVIATION_TARGET)
        self.ts = (grid.t0 + self.ks * grid.dt).astype(float)
        self.ev = AnalyticEvolution(s, lr)
        self.numeric = numeric
        self.devs = np.empty(self.ks.size)
        super().__init__(self.ks.size, self.ks.__getitem__)

    def feed(self, lo: int, etas: np.ndarray):
        if lo == 0:  # eta(t0) |psi0>, from the first window
            self.phi0 = etas[0] @ self.numeric.at(0)
        return super().feed(lo, etas)

    def evaluate(self):
        while True:
            sl, ks, es = yield
            w = np.linalg.solve(es, self.ev.Us(ks) @ self.phi0[:, None])[:, :, 0]
            self.devs[sl] = np.linalg.norm(w - self.numeric.at(ks), axis=1)

    def series(self, sl: slice) -> ResidualSeries:
        return ResidualSeries(name="analytic_vs_numeric", times=self.ts[sl],
                              samples=self.devs[sl])


def analytic_vs_numeric(
    s: Scenario,
    lr: LRQuantities,
    traj: DysonTrajectory | MapWindow,
    numeric: StateTrajectory,
    *,
    stride: int | None = None,
) -> ResidualSeries:
    """||eta^-1(t) U(t) eta(t0) |psi0> - psi(t)|| for psi stepped under H.

    ``numeric`` is psi stepped on the scenario grid, holding index 0 and
    the sampled grid indices; psi0 is its first sample.  The deviation is
    first order in the drive strength at generic interior times and second
    order at times where the accumulated drive phase closes (the bundled
    grids end at such a time); the series' terminal value is the figure of
    merit for scaling checks.  traj is a whole trajectory or one window of
    a streamed map; given a window, the series holds the samples that
    window completes.
    """
    if not s.validated:
        raise ScenarioInvalidError(
            "analytic route needs a validated scenario",
            failed_checks=("not_validated",),
        )
    if numeric.grid != s.grid:
        raise ValueError("numeric trajectory is not on the scenario grid")
    return _fed(traj, ("analytic_vs_numeric", stride),
                lambda: _DeviationPass(s, lr, numeric, stride))


def _bounded(
    name: str, series: ResidualSeries, tol: float, note: str = "", value: float | None = None
) -> CheckOutcome:
    """value (default the series max) <= tol; skipped when the series is empty."""
    if not series.samples.size:
        return CheckOutcome(name, None, float("nan"), None, "skipped: no samples")
    v = series.max if value is None else value
    return CheckOutcome(name, v <= tol, v, tol, note)


def _joined(parts: list) -> ResidualSeries | None:
    """One series from its per-window parts, in order (None for a skipped series)."""
    if parts[0] is None:
        return None
    return ResidualSeries(
        name=parts[0].name,
        times=np.concatenate([p.times for p in parts]),
        samples=np.concatenate([p.samples for p in parts]),
    )


def scenario_workup(
    s: Scenario, *, tol: Tolerances | None = None, stride: int | None = None
) -> tuple[DiagnosticsReport, Scenario, LRQuantities | None]:
    """Run every applicable check on one scenario; returns the run scenario and lr too.

    Validation failures do not stop the run: the trajectory-level residuals
    are exactly what shows a control scenario misbehaving.  Checks whose
    preconditions cannot be met (closed forms on a non-validated scenario)
    or whose series took no sample are recorded as skipped.

    The |0>, |1> pair is stepped first; it applies the step guard, and it
    holds only the samples that its checks read.  The map is then streamed
    a window at a time through every per-sample check, and only the three
    samples of the r2 scale are held, so no array as long as the
    trajectory is.  The conditioning floor is applied to the whole rcond
    series after the last window, so a refusal names the worst sample; the
    solve-based checks are fed no window from the first one that holds a
    map below the floor.
    """
    tol = tol or Tolerances()
    try:
        s_run, validation = validated_scenario(s)
    except ScenarioInvalidError as exc:
        validation = exc.report
        s_run = replace(s, gamma0=validation.gamma0, validated=False)

    checks = list(validation.checks.values())

    H = hamiltonian_fn(s_run)
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    options = s_run.solver_options(rcond_floor=tol.min_rcond)
    grid, dim = s_run.grid, s_run.dim
    reads = [np.zeros(1, dtype=int), _strided_indices(grid, stride, _EQUIVALENCE_TARGET)]
    if s_run.validated:
        reads.append(_strided_indices(grid, None, target=_DEVIATION_TARGET))
    psi = propagate_state(H, basis_state(0, dim), grid, options=options,
                          companions=(basis_state(1, dim),), keep=np.unique(np.concatenate(reads)))
    states = (psi, *psi.companions)
    lr = None
    if s_run.validated:
        lr = lr_pipeline(s_run)

    parts, iso_parts, avn_parts = [], [], []
    solvable = lr is not None

    def check_window(window: MapWindow):
        nonlocal solvable
        parts.append((
            metric_constancy(window),
            *quasi_hermiticity_residuals(window, H, stride=stride),
            *equivalence_checks(s_run, window, states, lr, stride=stride),
        ))
        solvable = solvable and not np.any(window.rcond < options.rcond_floor)
        if solvable:
            iso_parts.append(isospectrality_check(s_run, lr, window))
            avn_parts.append(analytic_vs_numeric(s_run, lr, window, psi))

    traj = propagate_dyson(H, eta0, grid, options=options,
                           keep=np.unique(_scale_indices(grid)), on_window=check_window)
    check_conditioning(traj)
    mc, r2, r7, sanity, fixed, observable = (_joined(list(col)) for col in zip(*parts))

    series: dict[str, ResidualSeries] = {}
    series[mc.name] = mc
    checks.append(_bounded("metric_constancy", mc, tol.metric_constancy))

    series[r2.name] = r2
    series[r7.name] = r7
    scale = _commutator_scale(traj, H)
    r2_tol = tol.r2_coeff * grid.dt**2 * scale
    checks.append(_bounded("r2", r2, r2_tol, "flow identity"))
    checks.append(_bounded("r7", r7, tol.r7, "static intertwining"))

    series[sanity.name] = sanity
    series[fixed.name] = fixed
    checks.append(_bounded("equivalence_sanity", sanity, tol.sanity))
    checks.append(_bounded("equivalence_fixed_metric", fixed, tol.fixed_metric))
    env = tol.envelope(s_run.kappa)
    if observable is not None:
        series[observable.name] = observable
        checks.append(_bounded("equivalence_observable", observable, env))
    else:
        checks.append(CheckOutcome("equivalence_observable", None, float("nan"), None, "skipped"))

    if lr is not None:
        worst = 0.0
        for m in iso_parts[0]:
            ser = _joined([part[m] for part in iso_parts])
            series[ser.name] = ser
            worst = max(worst, ser.max)
        iso_tol = tol.isospectral_floor + tol.envelope_coeff * s_run.kappa**3
        checks.append(CheckOutcome("isospectrality", worst <= iso_tol, worst, iso_tol))
        avn = _joined(avn_parts)
        series[avn.name] = avn
        checks.append(
            _bounded(
                "analytic_vs_numeric",
                avn,
                env,
                f"terminal deviation; interior max {avn.max:.3e}",
                value=avn.terminal,
            )
        )
    else:
        checks.append(CheckOutcome("isospectrality", None, float("nan"), None, "skipped"))
        checks.append(CheckOutcome("analytic_vs_numeric", None, float("nan"), None, "skipped"))

    pt = pt_analysis(s_run)
    rc_min = float(np.min(traj.rcond))
    report = DiagnosticsReport(
        scenario_name=s_run.name,
        series=series,
        checks=tuple(checks),
        tolerances=tol,
        validation=validation,
        pt=pt,
        tail_mass_max=max(st.tail_mass_max for st in states),
        condition_max=1.0 / max(rc_min, 1e-300),
    )
    return report, s_run, lr


def _scale_indices(grid: TimeGrid) -> np.ndarray:
    """The grid indices _commutator_scale reads: first, middle and last."""
    return np.array([0, (grid.steps + 1) // 2, grid.steps])


def _commutator_scale(traj: DysonTrajectory, H: GeneratorFn) -> float:
    """Typical guard-block magnitude of rho H, the natural r2 scale."""
    vals = []
    for k in _scale_indices(traj.grid):
        e = traj.at(k)
        rho = e.conj().T @ e
        h = H(float(traj.grid.points[k])).mat
        vals.append(np.linalg.norm(low_block(rho @ h, traj.options.guard)))
    return max(float(max(vals)), _ABS_FLOOR)

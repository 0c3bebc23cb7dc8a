"""Residual checks tying the closed forms to the numeric trajectories.

Each check produces a named residual series plus a pass/fail outcome
against its bound, one of the module constants below; scenario_workup
orchestrates all of them into one DiagnosticsReport, skipping the stages
whose preconditions a scenario cannot meet (an invalid scenario still
gets trajectory-level residuals, so negative controls show exactly which
claims break) and the checks whose series took no sample.  The checks are
functions of the trajectories they are given.  Each per-sample check is a
pass that states only the samples an output chunk reads and how it
evaluates a chunk; one driver owns the grid indices, the output series,
the chunking and the carry across window edges, so a check takes a whole
trajectory or one window of a streamed map (a MapWindow) alike.
scenario_workup runs the closed-form pipeline, steps the |0>, |1> pair
once, holding only the samples its checks read, then has propagate_dyson
stream the map through every check and hold only the three samples of the
r2 scale, so it holds no array as long as the trajectory.  It computes
each window's exact rcond, gates the solve-based checks on it and applies
MIN_RCOND to the whole series: the map's conditioning is judged here.
When a spare CPU is usable, the checks run in one forked child while the
workup steps the map, and whichever process is idle computes each
window's rcond (_forked), with byte-identical results.

All operator norms are guard-band restricted: the top rows and columns
touched by ladder truncation are excluded before taking the Frobenius
norm, otherwise every residual is dominated by the same corner artifact
regardless of what it measures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import IllConditionedError, ScenarioInvalidError
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
    MAP_WINDOW,
    DysonTrajectory,
    GeneratorFn,
    StateTrajectory,
    TimeGrid,
    apply_generator,
    propagate_dyson,
    propagate_state,
    sample_chunks,
)

_ABS_FLOOR = 1e-14

# The pass/fail bounds, calibrated at the bundled grids (dim 32, 8000 steps
# over one drive period).  Each is read where it is applied, when it is
# applied, and bounds() reads them for summary.json, so the printed bounds
# are the applied ones.  The closed-form comparisons use the drive-strength
# envelope max(PERTURBATIVE_FLOOR, ENVELOPE_COEFF kappa^2) (_envelope).
SANITY = 1e-12              # equivalence_sanity: one product in two orders
METRIC_CONSTANCY = 1e-6     # the guard block's drift, step error and truncation alike
R2_COEFF = 50.0             # r2's bound in units of dt^2 times the rho H scale
R7 = 1e-7                   # the static intertwining residual
FIXED_METRIC = 1e-6         # equivalence_fixed_metric
PERTURBATIVE_FLOOR = 1e-6
ENVELOPE_COEFF = 12.0
ISOSPECTRAL_FLOOR = 1e-9    # isospectrality's bound is this plus ENVELOPE_COEFF kappa^3
MIN_RCOND = 1e-12           # the floor on eta's exact reciprocal 1-norm condition number


def bounds() -> dict[str, float]:
    """The bounds above, by the names summary.json prints them under."""
    return {
        "sanity": SANITY, "metric_constancy": METRIC_CONSTANCY, "r2_coeff": R2_COEFF,
        "r7": R7, "fixed_metric": FIXED_METRIC, "perturbative_floor": PERTURBATIVE_FLOOR,
        "envelope_coeff": ENVELOPE_COEFF, "isospectral_floor": ISOSPECTRAL_FLOOR,
        "min_rcond": MIN_RCOND,
    }


def _envelope(kappa: float) -> float:
    """max(floor, C kappa^2), the bound of the closed-form comparisons."""
    return max(PERTURBATIVE_FLOOR, ENVELOPE_COEFF * kappa**2)


def _rcond_series(etas: np.ndarray) -> np.ndarray:
    """Exact reciprocal 1-norm condition number 1/(||eta||_1 ||eta^-1||_1) of each map in a stack.

    numpy inverts a SAMPLE_CHUNK stack at a time; its condition number is
    inf for a singular map and for one whose inverse is not finite, so
    those read 0.
    """
    rcond = np.empty(len(etas))
    for sl in sample_chunks(len(etas)):
        rcond[sl] = 1.0 / np.linalg.cond(etas[sl], 1)
    return rcond


def check_conditioning(rcond: np.ndarray, ts: np.ndarray):
    """Refuse when eta's rcond, sampled at times ts, falls below MIN_RCOND.

    The error names the worst sample's time.
    """
    i = int(np.argmin(rcond))
    if rcond[i] < MIN_RCOND:
        raise IllConditionedError(
            f"eta reciprocal condition {rcond[i]:.3e} below floor at t = {ts[i]:.6g}",
            rcond=float(rcond[i]),
            t=float(ts[i]),
        )


@dataclass(frozen=True)
class MapWindow:
    """The maps at grid indices lo .. lo + len(etas) - 1 of a map being stepped.

    The workup wraps each window propagate_dyson hands its callback in one
    and feeds it to the checks.  The next window overwrites etas, so a
    check copies what it keeps; ``carry`` is one dict shared by every
    window of a run, for what a check carries from one window to the next.
    A check's first window starts at grid index 0.
    """

    grid: TimeGrid
    guard: int                    # as DysonTrajectory.guard
    lo: int
    etas: np.ndarray              # in DysonTrajectory.etas's layout
    carry: dict

    @property
    def dim(self) -> int:
        return self.etas.shape[1]


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


def _stride(steps: int, stride: int | None, target: int) -> int:
    """stride, refused below 1, or when it is None the stride sampling about target points."""
    if stride is None:
        return max(1, steps // target)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return stride


def _strided_indices(grid: TimeGrid, stride: int | None, target: int) -> np.ndarray:
    """grid.strided at _stride(grid.steps, stride, target)."""
    return grid.strided(_stride(grid.steps, stride, target))


def _metrics(etas: np.ndarray) -> np.ndarray:
    """rho = eta† eta for a stack of maps."""
    return np.conj(np.swapaxes(etas, -1, -2)) @ etas


def _first_metric(traj: DysonTrajectory | MapWindow) -> np.ndarray:
    """rho0 = eta0† eta0, from the first map of a trajectory or of a run's first window."""
    e0 = traj.etas[0]
    return e0.conj().T @ e0


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[i] @ vecs[i] for stacks of matrices and vectors."""
    return (mats @ vecs[..., None])[..., 0]


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x[i]|y[i]> for stacks of vectors."""
    return np.sum(np.conj(x) * y, axis=-1)


def _block_norms(mats: np.ndarray, k: int) -> np.ndarray:
    """Frobenius norm of the leading k x k block of each matrix in a stack."""
    return np.linalg.norm(mats[..., :k, :k], axis=(-2, -1))


# Every per-sample check is a _StridedPass, the one driver of the chunking
# and the carry, fed a whole DysonTrajectory or the MapWindows of a map that
# propagate_dyson streams.  The windows of one run share each pass, kept in
# their carry, and each call returns the outputs its window completes.


def _fed(traj: DysonTrajectory | MapWindow, key: tuple, make) -> dict[str, ResidualSeries]:
    """The series of the outputs that traj's samples complete, of the pass make() builds.

    A whole trajectory is fed to a new pass.  The windows of one run share
    one pass per key, kept in their carry; the pass is made from the first
    window, which must start at grid index 0 (some passes read eta0 there).
    """
    if isinstance(traj, MapWindow):
        lo, carry = traj.lo, traj.carry
        if lo and key not in carry:
            raise ValueError(f"a check's first window must start at grid index 0, not lo = {lo}")
    elif len(traj.ks) != traj.grid.steps + 1:
        raise ValueError("the per-sample checks read every sample of a trajectory")
    else:
        lo, carry = 0, {}
    if key not in carry:
        carry[key] = make()
    return carry[key].feed(lo, traj.etas)


class _StridedPass:
    """The driver of a per-sample check, whose outputs sit at sorted grid indices ks.

    A subclass states only what it reads and how it evaluates: ``names``,
    its series; ``reads(sl)``, the sorted grid indices whose maps output
    chunk sl reads (default ks[sl]); and ``evaluate``, a generator that
    fills ``out[name][sl]`` for each (sl, reads(sl), maps) chunk sent to
    it.  One generator for the life of the pass keeps a chunk's
    temporaries alive until the next chunk replaces them, across window
    edges too, so the allocator reuses their memory instead of returning
    it to the system and faulting it in again for every window.

    The driver evaluates the outputs SAMPLE_CHUNK at a time, each chunk in
    the window that holds the last map it reads, and carries the maps it
    reads from earlier windows.  The outputs are thus grouped into chunks
    exactly as in one pass over the whole trajectory, which matters
    because a product over one row can round differently from the same
    row in a stack.
    """

    names: tuple[str, ...]

    def __init__(self, grid: TimeGrid, ks: np.ndarray):
        self.ks = ks
        self.ts = grid.t0 + ks * grid.dt
        self.out = {name: np.empty(ks.size) for name in self.names}
        self.chunks = deque((sl, self.reads(sl)) for sl in sample_chunks(ks.size))
        self.read = np.unique(np.concatenate([ks[:0], *(read for _, read in self.chunks)]))
        self.done = 0                    # the number of outputs evaluated so far
        self.held_ks, self.held = self.read[:0], None
        self.sink = self.evaluate()
        next(self.sink)

    def reads(self, sl: slice) -> np.ndarray:
        """The sorted grid indices whose maps output chunk sl reads."""
        return self.ks[sl]

    def feed(self, lo: int, etas: np.ndarray) -> dict[str, ResidualSeries]:
        """Evaluate the chunks that the maps at lo, lo + 1, ... complete; returns their outputs."""
        hi, done = lo + len(etas), self.done

        def take(ks):
            """The maps at sorted grid indices ks, carried or in this window."""
            split = int(np.searchsorted(ks, lo))
            here = etas[ks[split:] - lo]
            if not split:
                return here
            return np.concatenate((self.held[np.searchsorted(self.held_ks, ks[:split])], here))

        while self.chunks and self.chunks[0][1][-1] < hi:
            sl, ks = self.chunks.popleft()
            self.sink.send((sl, ks, take(ks)))
            self.done = sl.stop
        if self.chunks:  # the next chunk ends in a later window
            pending = self.read[(self.read >= self.chunks[0][1][0]) & (self.read < hi)]
            self.held_ks, self.held = pending, take(pending)
        sl = slice(done, self.done)
        return {name: ResidualSeries(name=name, times=self.ts[sl], samples=out[sl])
                for name, out in self.out.items()}


class _ConstancyPass(_StridedPass):
    """metric_constancy at every grid index.

    It never carries a sample: MAP_WINDOW is a multiple of SAMPLE_CHUNK,
    so every window starts a chunk.
    """

    names = ("metric_constancy",)

    def __init__(self, traj: DysonTrajectory | MapWindow):
        self.rho0 = low_block(_first_metric(traj), traj.guard)
        super().__init__(traj.grid, np.arange(traj.grid.steps + 1))

    def evaluate(self):
        rho0, out = self.rho0, self.out["metric_constancy"]
        k = rho0.shape[0]
        den = max(float(np.linalg.norm(rho0)), _ABS_FLOOR)
        while True:
            sl, _, etas = yield
            # the guard block of eta† eta only needs eta's first k columns
            blocks = _metrics(etas[:, :, :k])
            out[sl] = np.linalg.norm(blocks - rho0, axis=(1, 2)) / den


def metric_constancy(traj: DysonTrajectory | MapWindow) -> ResidualSeries:
    """r(t_k) = ||rho(t_k) - rho(t_0)|| / ||rho(t_0)|| on the guard block.

    Given a MapWindow, the series covers the samples of that window.
    """
    return _fed(traj, ("metric_constancy",), lambda: _ConstancyPass(traj))["metric_constancy"]


class _StencilPass(_StridedPass):
    """quasi_hermiticity_residuals' r2 and r7 at strided centres."""

    names = ("r2", "r7")

    def __init__(self, traj: DysonTrajectory | MapWindow, H: GeneratorFn,
                 stride: int | None, spacing: int):
        if spacing < 1:
            raise ValueError("stencil spacing must be >= 1")
        grid = traj.grid
        st = _stride(grid.steps, stride, _EQUIVALENCE_TARGET)  # centres as dense as equivalence's
        self.H, self.dt, self.spacing, self.k = H, grid.dt, spacing, traj.dim - traj.guard
        super().__init__(grid, np.arange(max(st, spacing), grid.steps - spacing + 1, st))

    def reads(self, sl: slice) -> np.ndarray:
        cs, sp = self.ks[sl], self.spacing
        return np.unique(np.concatenate((cs - sp, cs, cs + sp)))

    def evaluate(self):
        sp, k = self.spacing, self.k
        r2, r7 = self.out["r2"], self.out["r7"]
        while True:
            sl, touched, etas = yield
            cs = self.ks[sl]
            # a banded H couples neighbouring levels only, so the guard block
            # of H† rho - rho H needs rho on one level more than the block
            # itself.  rho is still formed in full: a narrower product rounds
            # differently, and the stencil amplifies that by 1/(2 spacing dt).
            rhos = _metrics(etas)[:, : k + 1, : k + 1]

            def rho_at(idx):
                return rhos[np.searchsorted(touched, idx)]

            rho = rho_at(cs)
            drho = (rho_at(cs + sp) - rho_at(cs - sp)) / (2.0 * sp * self.dt)
            rho_h = apply_generator(self.H, self.ts[sl], rho, right=True)
            comm = apply_generator(self.H, self.ts[sl], rho, adjoint=True) - rho_h
            r2[sl] = _block_norms(comm + 1j * drho, k)
            den = _block_norms(rho_h, k)
            num = _block_norms(comm, k)
            r7[sl] = num / np.where(den > _ABS_FLOOR, den, 1.0)


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
    out = _fed(traj, ("r2", stride, spacing), lambda: _StencilPass(traj, H, stride, spacing))
    return out["r2"], out["r7"]


_EQUIVALENCE_TARGET = 1600  # default sample counts of the strided checks
_ISOSPECTRAL_TARGET = 400
_DEVIATION_TARGET = 800


class _EquivalencePass(_StridedPass):
    """equivalence_checks' series at strided samples; the observable one needs lr."""

    def __init__(self, s: Scenario, rho0: np.ndarray,
                 states: tuple[StateTrajectory, StateTrajectory],
                 lr: LRQuantities | None, stride: int | None):
        self.psi, self.psit = states
        ks = _strided_indices(s.grid, stride, target=_EQUIVALENCE_TARGET)
        self.rho0 = rho0
        self.ref = complex(self.psi.at(0).conj() @ (rho0 @ self.psit.at(0)))
        self.x1, self.x2 = (q.mat for q in quadratures(s.dim))
        self.frame = quadrature_frame(s, lr, ks)[:2] if lr is not None else None
        self.names = ("equivalence_sanity", "equivalence_fixed_metric",
                      *(("equivalence_observable",) if lr is not None else ()))
        super().__init__(s.grid, ks)

    def evaluate(self):
        x1, x2, out = self.x1, self.x2, self.out
        while True:
            sl, ks, es = yield
            a, b = self.psi.at(ks), self.psit.at(ks)
            ea, eb = _matvec(es, a), _matvec(es, b)
            rho = _metrics(es)
            out["equivalence_sanity"][sl] = np.abs(_inner(a, _matvec(rho, b)) - _inner(ea, eb))
            out["equivalence_fixed_metric"][sl] = np.abs(_inner(a, b @ self.rho0.T) - self.ref)
            if self.frame is not None:
                chi, shift1 = self.frame
                # X1 b = cos chi x1 b - sin chi x2 b + shift1 b, without forming X1
                x1b, x2b = b @ x1.T, b @ x2.T
                c = chi[sl, None]
                X1b = np.cos(c) * x1b - np.sin(c) * x2b + shift1[sl, None] * b
                lhs = _inner(a, _matvec(rho, X1b))
                rhs = _inner(ea, eb @ x1.T)
                out["equivalence_observable"][sl] = np.abs(lhs - rhs)


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
    out = _fed(traj, ("equivalence", stride), lambda: _EquivalencePass(
        s, _first_metric(traj), states, lr, stride))
    return (out["equivalence_sanity"], out["equivalence_fixed_metric"],
            out.get("equivalence_observable"))


class _IsospectralPass(_StridedPass):
    """isospectrality_check's r_m at strided samples."""

    def __init__(self, s: Scenario, lr: LRQuantities, ms: tuple[int, ...], stride: int | None):
        self.s, self.lr, self.cols = s, lr, list(ms)
        self.H = hamiltonian_fn(s)
        self.names = tuple(f"isospectrality_m{m}" for m in ms)
        super().__init__(s.grid, _strided_indices(s.grid, stride, target=_ISOSPECTRAL_TARGET))

    def evaluate(self):
        s, cols = self.s, self.cols
        while True:
            sl, ks, es = yield
            ts = self.ts[sl]
            zetas = _exact_displacements(-np.conj(self.lr.xi[ks]), s.dim, cols)
            w = np.linalg.solve(es, zetas)
            energy = counterpart_energy(s, cols, ts)
            defect = apply_generator(self.H, ts, w) - w * (energy[:, None, :] / 2.0)
            r = np.linalg.norm(defect, axis=1) / np.linalg.norm(w, axis=1)
            for name, col in zip(self.names, r.T):
                self.out[name][sl] = col


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
    are first checked against MIN_RCOND (check_conditioning), or one window
    of a streamed map, whose caller applies the floor; given a window, the
    series hold the samples that window completes.
    """
    ms = tuple(ms)
    if isinstance(traj, DysonTrajectory):
        ks = _strided_indices(s.grid, stride, _ISOSPECTRAL_TARGET)
        check_conditioning(_rcond_series(traj.at(ks)), traj.grid.points[ks])
    out = _fed(traj, ("isospectrality", ms, stride),
               lambda: _IsospectralPass(s, lr, ms, stride))
    return {m: out[f"isospectrality_m{m}"] for m in ms}


class _DeviationPass(_StridedPass):
    """analytic_vs_numeric's deviations at strided samples."""

    names = ("analytic_vs_numeric",)

    def __init__(self, s: Scenario, lr: LRQuantities, numeric: StateTrajectory,
                 stride: int | None):
        self.ev = AnalyticEvolution(s, lr)
        self.numeric = numeric
        super().__init__(s.grid, _strided_indices(s.grid, stride, target=_DEVIATION_TARGET))

    def evaluate(self):
        out = self.out["analytic_vs_numeric"]
        while True:
            sl, ks, es = yield
            if not sl.start:  # ks[0] is 0: eta(t0) |psi0>
                phi0 = es[0] @ self.numeric.at(0)
            w = np.linalg.solve(es, self.ev.Us(ks) @ phi0[:, None])[:, :, 0]
            out[sl] = np.linalg.norm(w - self.numeric.at(ks), axis=1)


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
                lambda: _DeviationPass(s, lr, numeric, stride))["analytic_vs_numeric"]


def _bounded(
    name: str, series: dict[str, ResidualSeries], tol: float, note: str = "",
    value: float | None = None,
) -> CheckOutcome:
    """value (default the largest sample of the check's series) <= tol.

    A check's series are those whose names start with its name (r2, or
    isospectrality_m0, m1, ...); it is skipped when it has none (its stage
    did not run) or they took no sample.
    """
    mine = [ser for key, ser in series.items() if key.startswith(name)]
    if not mine:
        return CheckOutcome(name, None, float("nan"), None, "skipped")
    if not any(ser.samples.size for ser in mine):
        return CheckOutcome(name, None, float("nan"), None, "skipped: no samples")
    v = max(ser.max for ser in mine) if value is None else value
    return CheckOutcome(name, v <= tol, v, tol, note)


def _joined(parts: list[ResidualSeries]) -> ResidualSeries:
    """One series from its per-window parts, in order."""
    return ResidualSeries(
        name=parts[0].name,
        times=np.concatenate([p.times for p in parts]),
        samples=np.concatenate([p.samples for p in parts]),
    )


# scenario_workup hands the map's windows to its checks through a consumer,
# called as consume(step, check_window, parts, dim): step(on_window) steps the
# map, calls on_window(lo, etas) with each window and returns the trajectory,
# and check_window(lo, etas, rcond=None) checks a window and fills parts.  The
# two consumers differ only in where check_window and the rcond run;
# _window_consumer chooses one.


def _window_consumer(grid: TimeGrid):
    """_forked when a spare CPU can check windows while this process steps, else _inline.

    Off Linux fork is not BLAS-safe, a sweep's pool worker shares the CPUs
    with its siblings, and a grid of one window leaves nothing to overlap.
    """
    import multiprocessing
    import os
    import sys

    if (sys.platform == "linux" and grid.steps >= MAP_WINDOW
            and len(os.sched_getaffinity(0)) > 1 and multiprocessing.parent_process() is None):
        return _forked
    return _inline


def _inline(step, check_window, parts: dict, dim: int) -> DysonTrajectory:
    """check_window on each window in this process, as step hands it over."""
    return step(check_window)


def _child_takes_rcond(free: list, conn) -> bool:
    """Whether _forked's child computes the next window's rcond.

    It does when a ring slot is free or it has answered already, so that
    this process will not wait for it; otherwise this process computes the
    rcond in the time it would spend waiting for a slot.
    """
    return bool(free) or conn.poll()


def _forked(step, check_window, parts: dict, dim: int) -> DysonTrajectory:
    """check_window on each window in one forked child, while this process steps the map.

    Each window is copied into one of two slots of a shared anonymous
    mmap, in the eta^T layout it was stepped in, and (slot, lo, n, rcond)
    goes down a pipe; a slot is written again only once the child has
    freed it.  The child (_check_windows) reads the window through the
    same transposed view as inline, so every product rounds as it does
    there.  Whichever process is idle computes the window's rcond
    (_child_takes_rcond), with the same _rcond_series on the same view, so
    every value has the bits it has inline: this process sends the rcond
    it computed, or None, and check_window computes a missing one.  The
    child answers each window with its slot, then sends parts, the rcond
    among them.  A stepping failure is raised only after the child has
    checked the windows sent before it, so that an earlier window's
    failure comes first, as inline.  The child is reaped before this
    returns or raises.
    """
    import mmap
    import multiprocessing
    import os

    ring = np.frombuffer(mmap.mmap(-1, 2 * MAP_WINDOW * dim * dim * 16), dtype=complex)
    ring = ring.reshape(2, MAP_WINDOW, dim, dim)
    conn, child_conn = multiprocessing.Pipe()
    try:
        pid = os.fork()
    except OSError:  # no process or memory to spare: check in this process
        return _inline(step, check_window, parts, dim)
    if pid == 0:
        conn.close()
        _check_windows(child_conn, ring, check_window, parts)
    child_conn.close()
    free, child_done = [1, 0], False

    def post(msg) -> bool:
        """msg down the pipe; False when the child has left, whose last message says why.

        A failed send's traceback, which holds the send's pickle buffer, ends
        here rather than on the exception this process raises next.
        """
        try:
            conn.send(msg)
        except BrokenPipeError:
            return False
        return True

    def reply():
        """The child's next message, a freed slot or parts; re-raises its failure."""
        nonlocal child_done
        try:
            msg = conn.recv()
        except EOFError:
            child_done = True
            raise RuntimeError("the window checks' process exited without a result") from None
        if isinstance(msg, BaseException):
            child_done = True
            raise msg
        return msg

    def results() -> dict:
        """parts, once the child has checked every window sent."""
        post(None)
        while isinstance(msg := reply(), int):
            pass
        return msg

    def on_window(lo: int, etas: np.ndarray):
        # None leaves the rcond to the child
        rcond = None if _child_takes_rcond(free, conn) else _rcond_series(etas)
        slot = free.pop() if free else reply()
        ring[slot, : len(etas)] = etas.transpose(0, 2, 1)
        if not post((slot, lo, len(etas), rcond)):
            results()  # raises what the child left with

    try:
        try:
            traj = step(on_window)
        except Exception:
            if not child_done:
                results()
            raise
        parts.update(results())
        return traj
    finally:
        conn.close()
        os.waitpid(pid, 0)


def _check_windows(conn, ring: np.ndarray, check_window, parts: dict):
    """_forked's child: check_window on each window sent, then parts back; never returns.

    Each checked window's slot is sent back, then parts; an exception goes
    back in their place, as its text when it does not pickle.
    """
    import os

    try:
        while (msg := conn.recv()) is not None:
            slot, lo, n, rcond = msg
            check_window(lo, ring[slot, :n].transpose(0, 2, 1), rcond)
            conn.send(slot)
        conn.send(parts)
    except BaseException as exc:
        try:
            conn.send(exc)
        except Exception:
            conn.send(RuntimeError(f"{type(exc).__name__}: {exc}"))
    finally:
        os._exit(0)


def scenario_workup(
    s: Scenario, *, stride: int | None = None
) -> tuple[DiagnosticsReport, Scenario, LRQuantities | None]:
    """Run every applicable check on one scenario; returns the run scenario and lr too.

    Validation failures do not stop the run: the trajectory-level residuals
    are exactly what shows a control scenario misbehaving.  Checks whose
    preconditions cannot be met (closed forms on a non-validated scenario)
    or whose series took no sample are recorded as skipped.

    The closed-form pipeline runs first, so a theta beyond floating-point
    range is refused before anything is stepped.  The |0>, |1> pair is
    stepped next; it applies the step guard, and it holds only the samples
    that its checks read.  The map is then streamed a window at a time
    through every per-sample check, and only the three samples of the r2
    scale are held, so no array as long as the trajectory is.  The checks
    run in one forked child while this process steps the map when a spare
    CPU is usable (see _window_consumer), in this process otherwise.  Each
    window's rcond is computed where it is checked, unless, under the
    fork, this process would otherwise wait for a ring slot and computes
    it instead (see _forked).  The report is the same bit for bit, and the
    child is reaped before this returns or raises.  Each check is judged
    against its module bound.  The floor MIN_RCOND is applied to the whole
    rcond series after the last window, so a refusal names the worst
    sample; the solve-based checks are fed no window from the first one
    that holds a map below it.
    """
    try:
        s_run, validation = validated_scenario(s)
    except ScenarioInvalidError as exc:
        validation = exc.report
        s_run = replace(s, gamma0=validation.gamma0, validated=False)

    H = hamiltonian_fn(s_run)
    eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
    lr = lr_pipeline(s_run) if s_run.validated else None
    grid, dim = s_run.grid, s_run.dim
    reads = [np.zeros(1, dtype=int), _strided_indices(grid, stride, _EQUIVALENCE_TARGET)]
    if s_run.validated:
        reads.append(_strided_indices(grid, None, target=_DEVIATION_TARGET))
    psi = propagate_state(H, basis_state(0, dim), grid, guard=s_run.guard,
                          companions=(basis_state(1, dim),), keep=np.unique(np.concatenate(reads)))
    states = (psi, *psi.companions)

    parts: dict[str, list] = {}  # per-window parts: each series' by name, and "rcond"
    carry: dict = {}
    solvable = lr is not None

    def check_window(lo: int, etas: np.ndarray, rcond: np.ndarray | None = None):
        nonlocal solvable
        window = MapWindow(grid, s_run.guard, lo, etas, carry)
        if rcond is None:
            rcond = _rcond_series(etas)
        parts.setdefault("rcond", []).append(rcond)
        got = [
            metric_constancy(window),
            *quasi_hermiticity_residuals(window, H, stride=stride),
            *equivalence_checks(s_run, window, states, lr, stride=stride),
        ]
        solvable = solvable and not np.any(rcond < MIN_RCOND)
        if solvable:
            got += [*isospectrality_check(s_run, lr, window).values(),
                    analytic_vs_numeric(s_run, lr, window, psi)]
        for ser in filter(None, got):  # equivalence_observable is None without lr
            parts.setdefault(ser.name, []).append(ser)

    def step(on_window):
        return propagate_dyson(H, eta0, grid, guard=s_run.guard, keep=np.unique(
            _scale_indices(grid)), on_window=on_window)

    traj = _window_consumer(grid)(step, check_window, parts, dim)
    rcond = np.concatenate(parts.pop("rcond"))
    check_conditioning(rcond, grid.points)
    series = {name: _joined(ps) for name, ps in parts.items()}

    env = _envelope(s_run.kappa)
    r2_tol = R2_COEFF * grid.dt**2 * _commutator_scale(traj, H)
    iso_tol = ISOSPECTRAL_FLOOR + ENVELOPE_COEFF * s_run.kappa**3
    avn = series.get("analytic_vs_numeric")
    note = f"terminal deviation; interior max {avn.max:.3e}" if avn else ""
    checks = [
        *validation.checks.values(),
        _bounded("metric_constancy", series, METRIC_CONSTANCY),
        _bounded("r2", series, r2_tol, "flow identity"),
        _bounded("r7", series, R7, "static intertwining"),
        _bounded("equivalence_sanity", series, SANITY),
        _bounded("equivalence_fixed_metric", series, FIXED_METRIC),
        _bounded("equivalence_observable", series, env),
        _bounded("isospectrality", series, iso_tol),
        _bounded("analytic_vs_numeric", series, env, note, avn.terminal if avn else None),
    ]

    report = DiagnosticsReport(
        scenario_name=s_run.name,
        series=series,
        checks=tuple(checks),
        validation=validation,
        pt=pt_analysis(s_run),
        tail_mass_max=max(st.tail_mass_max for st in states),
        condition_max=1.0 / max(float(np.min(rcond)), 1e-300),
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
        vals.append(np.linalg.norm(low_block(rho @ h, traj.guard)))
    return max(float(max(vals)), _ABS_FLOOR)

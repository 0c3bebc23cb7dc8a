"""Time stepping for the map equation and its relatives.

The central object is the invertible map eta(t) obeying the right-sided
matrix equation i d/dt eta = eta H(t), integrated as a time-ordered product
by fixed-step classical RK4 (never by exponentiating an integral: H(t) at
different times need not commute).  From the sampled trajectory this module
derives the Hermitian counterpart 2 eta H eta^-1 and finite-difference
residuals for the defining relation.  A unitary variant integrates
i d/dt U = U Hh(t) for Hermitian generators.

Generators that carry ladder bands (H = d a†a + u a + l a†) are sampled
once per grid and applied as a tridiagonal update; any other generator is
called at every RK4 stage and multiplied densely.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DivergenceError,
    IllConditionedError,
    InvalidDimensionError,
    StepSizeError,
    TruncationWarning,
)
from .fock_algebra import DEFAULT_GUARD, FockOperator, StateVector, low_block

_ABS_FALLBACK = 1e-14  # relative norms switch to absolute below this denominator


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k (t1 - t0)/steps, k = 0..steps."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValueError("grid endpoints must be finite")
        if self.t1 <= self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise ValueError(f"need steps >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)


Bands = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class GeneratorFn:
    """Generator H(t): a pure callable time -> FockOperator of fixed dim.

    ``bands``, when given, is the same generator in ladder form: a
    vectorised map ts -> (d, u, l) with H(t) = d a†a + u a + l a†.
    Propagation then samples it once per grid instead of calling ``fn`` at
    every stage.
    """

    fn: Callable[[float], FockOperator]
    dim: int
    bands: Bands | None = None

    def __call__(self, t: float) -> FockOperator:
        h = self.fn(t)
        if h.dim != self.dim:
            raise ValueError(f"generator produced dim {h.dim}, declared {self.dim}")
        return h


@dataclass(frozen=True)
class SolverOptions:
    guard: int = DEFAULT_GUARD
    step_guard: float = 0.1        # refuse when max_t ||H(t)||_F * dt exceeds this
    rcond_floor: float = 1e-12
    tail_warn: float = 1e-8
    convergence_probe: bool = True


@dataclass(frozen=True)
class ConvergenceProbe:
    """Endpoint self-differences from coarsened reruns.

    delta_fine = ||y_N(t1) - y_{N/2}(t1)||, delta_coarse the next halving;
    observed_order = log2(delta_coarse/delta_fine), about 4 for RK4, None
    when the differences sit at the floating-point floor.
    """

    delta_fine: float
    delta_coarse: float
    observed_order: float | None


@dataclass(frozen=True)
class DysonTrajectory:
    grid: TimeGrid
    etas: np.ndarray              # (steps+1, dim, dim)
    rcond: np.ndarray             # (steps+1,)
    options: SolverOptions
    convergence: ConvergenceProbe | None
    rho0: FockOperator = field(init=False)

    def __post_init__(self):
        e0 = self.etas[0]
        object.__setattr__(self, "rho0", FockOperator(e0.conj().T @ e0))

    @property
    def dim(self) -> int:
        return self.etas.shape[1]

    @property
    def eta0(self) -> FockOperator:
        return FockOperator(self.etas[0])

    def eta(self, k: int) -> FockOperator:
        return FockOperator(self.etas[k])

    def __len__(self) -> int:
        return self.etas.shape[0]


class StateTrajectory(Sequence):
    """Sequence of StateVector samples with truncation bookkeeping."""

    def __init__(self, grid: TimeGrid, amplitudes: np.ndarray, options: SolverOptions):
        self.grid = grid
        self.amplitudes = amplitudes
        self.options = options
        g = options.guard
        mass = np.abs(amplitudes) ** 2
        tail = mass[:, amplitudes.shape[1] - g :].sum(axis=1)
        total = mass.sum(axis=1)
        self.tail_mass_max = float(np.max(tail / np.where(total > 0, total, 1.0)))
        if self.tail_mass_max > options.tail_warn:
            warnings.warn(
                f"guard-band mass reached {self.tail_mass_max:.3e}; "
                "truncation dimension may be too small",
                TruncationWarning,
                stacklevel=3,
            )

    def __len__(self) -> int:
        return self.amplitudes.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [StateVector(v) for v in self.amplitudes[k]]
        return StateVector(self.amplitudes[k])


class CounterpartSeries(Sequence):
    """h(t_k) = 2 eta H eta^-1 with per-sample Hermiticity residuals.

    Residuals are relative Frobenius on the guard-excluded block; the full
    matrix carries an O(1) truncation-corner artifact that says nothing
    about the dynamics.
    """

    def __init__(self, hs: np.ndarray, herm_residual: np.ndarray, grid: TimeGrid):
        self.hs = hs
        self.herm_residual = herm_residual
        self.grid = grid

    def __len__(self) -> int:
        return self.hs.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [FockOperator(h) for h in self.hs[k]]
        return FockOperator(self.hs[k])


def rk4_samples(deriv, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Classical RK4 over the grid; returns all steps+1 samples.

    `deriv(t, y)` must accept and return arrays of y's shape; works for
    matrices, vectors, and 0-d scalars alike.
    """
    y = np.asarray(y0, dtype=complex)
    out = np.empty((grid.steps + 1,) + y.shape, dtype=complex)
    out[0] = y
    dt = grid.dt
    for k in range(grid.steps):
        t = grid.t0 + k * dt
        k1 = deriv(t, y)
        k2 = deriv(t + dt / 2, y + (dt / 2) * k1)
        k3 = deriv(t + dt / 2, y + (dt / 2) * k2)
        k4 = deriv(t + dt, y + dt * k3)
        y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise DivergenceError(
                f"non-finite values at t = {t + dt:.6g}", t=t + dt
            )
        out[k + 1] = y
    return out


def band_matrix(dim: int, d: complex, u: complex, l: complex) -> np.ndarray:
    """Dense d a†a + u a + l a† on a dim-level truncation."""
    n = np.arange(dim, dtype=float)
    root = np.sqrt(n[1:])
    return np.diag(d * n) + np.diag(u * root, 1) + np.diag(l * root, -1)


def _band_table(H: GeneratorFn, ts: np.ndarray) -> np.ndarray:
    """(3, len(ts)) ladder coefficients d, u, l at ts, checked finite once."""
    table = np.array(H.bands(ts), dtype=complex)
    if not np.all(np.isfinite(table)):
        raise InvalidDimensionError("operator entries must be finite")
    return table


def _band_norms(table: np.ndarray, dim: int) -> np.ndarray:
    """||H||_F = sqrt(|d|^2 sum n^2 + (|u|^2 + |l|^2) sum n), per column."""
    n = np.arange(dim, dtype=float)
    d, u, l = np.abs(table) ** 2
    return np.sqrt(d * np.sum(n**2) + (u + l) * np.sum(n))


def _check_step_guard(H: GeneratorFn, grid: TimeGrid, limit: float):
    """Refuse too-coarse grids, naming a workable step count."""
    if H.bands is None:
        max_norm = max(float(np.linalg.norm(H(t).mat)) for t in grid.points)
    else:
        max_norm = float(np.max(_band_norms(_band_table(H, grid.points), H.dim)))
    if max_norm * grid.dt > limit:
        needed = math.ceil((grid.t1 - grid.t0) * max_norm / limit)
        raise StepSizeError(
            f"step guard: max ||H||_F * dt = {max_norm * grid.dt:.3f} exceeds "
            f"{limit}; use at least {needed} steps",
            recommended_steps=needed,
        )


def _rk4_deriv(H: GeneratorFn, grid: TimeGrid, right: bool):
    """deriv(t, y) = -i y H(t) (right) or -i H(t) y for rk4_samples on grid.

    A banded generator is sampled once on the half-step lattice
    t0 + j dt/2 that the RK4 stages visit, and each stage looks its
    coefficients up by index; the map's column j is then
    d j y[:, j] + u sqrt(j) y[:, j-1] + l sqrt(j+1) y[:, j+1], and the
    state's row i is d i y[i] + u sqrt(i+1) y[i+1] + l sqrt(i) y[i-1].
    """
    if H.bands is None:
        if right:
            return lambda t, y: -1j * (y @ H(t).mat)
        return lambda t, y: -1j * (H(t).mat @ y)
    half = grid.dt / 2.0
    d, u, l = -1j * _band_table(H, grid.t0 + half * np.arange(2 * grid.steps + 1))
    n = np.arange(H.dim, dtype=float)
    root = np.sqrt(n[1:])

    def deriv(t, y):
        j = int(round((t - grid.t0) / half))
        if right:
            out = y * (d[j] * n)
            out[:, 1:] += (u[j] * root) * y[:, :-1]
            out[:, :-1] += (l[j] * root) * y[:, 1:]
        else:
            out = (d[j] * n) * y
            out[:-1] += (u[j] * root) * y[1:]
            out[1:] += (l[j] * root) * y[:-1]
        return out

    return deriv


def _rcond_series(mats: np.ndarray) -> np.ndarray:
    from scipy.linalg import lapack

    out = np.empty(mats.shape[0])
    for k, m in enumerate(mats):
        anorm = float(np.linalg.norm(m, 1))
        lu, _, info = lapack.zgetrf(m)
        if info > 0:
            out[k] = 0.0
            continue
        rcond, _ = lapack.zgecon(lu, anorm, norm="1")
        out[k] = float(rcond)
    return out


def _convergence_from_ends(
    H: GeneratorFn, y0, grid: TimeGrid, end_full: np.ndarray
) -> ConvergenceProbe | None:
    """Rerun the map flow on the halved and quartered grids."""
    if grid.steps < 8:
        return None
    ends = []
    for steps in (grid.steps // 2, grid.steps // 4):
        coarse = TimeGrid(grid.t0, grid.t1, steps)
        ends.append(rk4_samples(_rk4_deriv(H, coarse, right=True), y0, coarse)[-1])
    end_half, end_quarter = ends
    d_fine = float(np.linalg.norm(end_full - end_half))
    d_coarse = float(np.linalg.norm(end_half - end_quarter))
    order = None
    if d_fine > 1e-14 and d_coarse > 1e-14:
        order = float(np.log2(d_coarse / d_fine))
    return ConvergenceProbe(d_fine, d_coarse, order)


def propagate_dyson(
    H: GeneratorFn,
    eta0: FockOperator,
    grid: TimeGrid,
    options: SolverOptions | None = None,
) -> DysonTrajectory:
    """Integrate i d/dt eta = eta H(t) from eta(t0) = eta0.

    Refuses grids violating the step guard (with a workable step count in
    the error); attaches per-sample reciprocal-condition estimates and, by
    default, an order-4 convergence probe from coarsened reruns.
    """
    options = options or SolverOptions()
    if H.dim != eta0.dim:
        raise ValueError(f"dimension mismatch: generator {H.dim}, eta0 {eta0.dim}")
    deriv = _rk4_deriv(H, grid, right=True)
    _check_step_guard(H, grid, options.step_guard)
    etas = rk4_samples(deriv, eta0.mat, grid)
    conv = (
        _convergence_from_ends(H, eta0.mat, grid, etas[-1])
        if options.convergence_probe
        else None
    )
    return DysonTrajectory(
        grid=grid,
        etas=etas,
        rcond=_rcond_series(etas),
        options=options,
        convergence=conv,
    )


def propagate_state(
    H: GeneratorFn,
    psi0: StateVector,
    grid: TimeGrid,
    options: SolverOptions | None = None,
) -> StateTrajectory:
    """Integrate i d/dt psi = H(t) psi on the grid."""
    options = options or SolverOptions()
    if H.dim != psi0.dim:
        raise ValueError(f"dimension mismatch: generator {H.dim}, state {psi0.dim}")
    deriv = _rk4_deriv(H, grid, right=False)
    _check_step_guard(H, grid, options.step_guard)
    amps = rk4_samples(deriv, psi0.vec, grid)
    return StateTrajectory(grid, amps, options)


def _check_conditioning(traj: DysonTrajectory):
    k = int(np.argmin(traj.rcond))
    if traj.rcond[k] < traj.options.rcond_floor:
        raise IllConditionedError(
            f"eta reciprocal condition {traj.rcond[k]:.3e} below floor at "
            f"t = {traj.grid.points[k]:.6g}",
            rcond=float(traj.rcond[k]),
            t=float(traj.grid.points[k]),
        )


def _block_rel(diff: np.ndarray, ref: np.ndarray, guard: int) -> float:
    num = float(np.linalg.norm(low_block(diff, guard)))
    den = float(np.linalg.norm(low_block(ref, guard)))
    return num / den if den > _ABS_FALLBACK else num


def hermitian_counterpart(traj: DysonTrajectory, H: GeneratorFn) -> CounterpartSeries:
    """h(t_k) = 2 eta H eta^-1 along the trajectory."""
    _check_conditioning(traj)
    g = traj.options.guard
    n = len(traj)
    hs = np.empty_like(traj.etas)
    res = np.empty(n)
    ts = traj.grid.points
    for k in range(n):
        e = traj.etas[k]
        eh = e @ H(ts[k]).mat
        # h/2 = (eta H) eta^-1 via a transposed solve: eta^T X^T = (eta H)^T
        hs[k] = 2.0 * np.linalg.solve(e.T, eh.T).T
        res[k] = _block_rel(hs[k] - hs[k].conj().T, hs[k], g)
    return CounterpartSeries(hs, res, traj.grid)


def _time_derivative(samples: np.ndarray, dt: float) -> np.ndarray:
    """Second-order stencils: central inside, one-sided at the endpoints."""
    d = np.empty_like(samples)
    d[1:-1] = (samples[2:] - samples[:-2]) / (2 * dt)
    d[0] = (-3 * samples[0] + 4 * samples[1] - samples[2]) / (2 * dt)
    d[-1] = (3 * samples[-1] - 4 * samples[-2] + samples[-3]) / (2 * dt)
    return d


def dyson_relation_residual(traj: DysonTrajectory, H: GeneratorFn) -> np.ndarray:
    """r(t_k) = ||i (d/dt eta) eta^-1 - eta H eta^-1|| / ||eta H eta^-1||.

    Frobenius on the guard-excluded block, absolute when the denominator
    vanishes; the finite-difference stencil puts an O(dt^2) floor under the
    result.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 samples for the derivative stencil")
    _check_conditioning(traj)
    g = traj.options.guard
    detas = _time_derivative(traj.etas, traj.grid.dt)
    ts = traj.grid.points
    out = np.empty(len(traj))
    for k in range(len(traj)):
        e = traj.etas[k]
        gauge = 1j * np.linalg.solve(e.T, detas[k].T).T
        simil = np.linalg.solve(e.T, (e @ H(ts[k]).mat).T).T
        out[k] = _block_rel(gauge - simil, simil, g)
    return out


def unitary_transform_propagate(
    Hh: GeneratorFn,
    U0: FockOperator,
    grid: TimeGrid,
    options: SolverOptions | None = None,
) -> DysonTrajectory:
    """Integrate i d/dt U = U Hh(t) for a Hermitian generator.

    Preconditions checked at the sampled grid points: Hh Hermitian within
    1e-10 and U0 unitary within 1e-10.  The flow then stays unitary up to
    integrator error, which makes this the Hermitian-to-Hermitian special
    case of the map equation.
    """
    options = options or SolverOptions()
    if Hh.dim != U0.dim:
        raise ValueError(f"dimension mismatch: generator {Hh.dim}, U0 {U0.dim}")
    deriv = _rk4_deriv(Hh, grid, right=True)
    _check_step_guard(Hh, grid, options.step_guard)
    rel = np.empty(grid.steps + 1)
    for k, t in enumerate(grid.points):
        m = Hh(t).mat
        scale = float(np.linalg.norm(m))
        rel[k] = np.linalg.norm(m - m.conj().T) / (scale if scale > _ABS_FALLBACK else 1.0)
    worst = int(np.argmax(rel))
    if rel[worst] > 1e-10:
        raise ValueError(
            f"generator not Hermitian: residual {rel[worst]:.3e} at "
            f"t = {grid.points[worst]:.6g}"
        )
    uerr = float(np.linalg.norm(U0.mat.conj().T @ U0.mat - np.eye(U0.dim)))
    if uerr > 1e-10:
        raise ValueError(f"U0 not unitary: ||U0†U0 - I|| = {uerr:.3e}")
    us = rk4_samples(deriv, U0.mat, grid)
    conv = (
        _convergence_from_ends(Hh, U0.mat, grid, us[-1])
        if options.convergence_probe
        else None
    )
    return DysonTrajectory(
        grid=grid, etas=us, rcond=_rcond_series(us), options=options, convergence=conv
    )

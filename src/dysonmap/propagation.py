"""Time stepping for the map equation and its relatives.

The central object is the invertible map eta(t) obeying the right-sided
matrix equation i d/dt eta = eta H(t), integrated as a time-ordered product
by fixed-step classical RK4 (never by exponentiating an integral: H(t) at
different times need not commute).  From the sampled trajectory this module
derives the Hermitian counterpart 2 eta H eta^-1.  A unitary variant
integrates i d/dt U = U Hh(t) for Hermitian generators.

A generator is its ladder bands (H = d a†a + u a + l a†): they are
sampled once per grid and applied as a tridiagonal update.  The map is
stepped as eta^T, so the banded update shifts contiguous rows;
trajectories expose eta through a transposed view of that storage.
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
from .fock_algebra import DEFAULT_GUARD, FockOperator, StateVector, rcond_1norm

_ABS_FALLBACK = 1e-14  # relative norms switch to absolute below this denominator
_TAIL_WARN = 1e-8      # guard-band population fraction above which a state warns

# Samples per stacked pass over a trajectory.  32 complex 32 x 32 matrices
# are 0.5 MB; a pass holds about ten such stacks at once, so its
# temporaries stay a few MB above the trajectory itself.
SAMPLE_CHUNK = 32


def sample_chunks(n: int):
    """Consecutive slices of at most SAMPLE_CHUNK covering range(n)."""
    for lo in range(0, n, SAMPLE_CHUNK):
        yield slice(lo, min(lo + SAMPLE_CHUNK, n))


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
    """Generator H(t) = d a†a + u a + l a† on a dim-level truncation.

    ``bands`` is a vectorised map ts -> (d, u, l); propagation samples it
    once per grid.  Calling the generator gives the dense matrix at one t.
    """

    dim: int
    bands: Bands

    def __call__(self, t: float) -> FockOperator:
        return FockOperator(band_matrix(self.dim, *self.bands(t)))


@dataclass(frozen=True)
class SolverOptions:
    guard: int = DEFAULT_GUARD
    step_guard: float = 0.1        # refuse when max_t ||H(t)||_F * dt exceeds this
    rcond_floor: float = 1e-12


@dataclass(frozen=True)
class DysonTrajectory:
    grid: TimeGrid
    etas: np.ndarray              # (steps+1, dim, dim), a view of the eta^T storage
    rcond: np.ndarray             # (steps+1,)
    options: SolverOptions
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


class StateTrajectory:
    """Stepped state amplitudes, (steps+1, dim), with truncation bookkeeping.

    ``companions`` holds the trajectories of states stepped in the same
    block (see propagate_state).
    """

    def __init__(self, grid: TimeGrid, amplitudes: np.ndarray, options: SolverOptions):
        self.grid = grid
        self.amplitudes = amplitudes
        self.options = options
        self.companions: tuple[StateTrajectory, ...] = ()
        g = options.guard
        mass = np.abs(amplitudes) ** 2
        tail = mass[:, amplitudes.shape[1] - g :].sum(axis=1)
        total = mass.sum(axis=1)
        self.tail_mass_max = float(np.max(tail / np.where(total > 0, total, 1.0)))
        if self.tail_mass_max > _TAIL_WARN:
            warnings.warn(
                f"guard-band mass reached {self.tail_mass_max:.3e}; "
                "truncation dimension may be too small",
                TruncationWarning,
                stacklevel=3,
            )


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


def ladder_columns(d, u, l, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d n, u sqrt(n+1), l sqrt(n+1)) as columns, the form ladder_rows applies.

    d, u, l are arrays shaped (..., 1, 1); (m, 1, 1) gives (m, dim, 1) and
    (m, dim - 1, 1) stacks, one H per sample.
    """
    n = np.arange(dim, dtype=float)[:, None]
    root = np.sqrt(n[1:])
    return d * n, u * root, l * root


def ladder_rows(ys: np.ndarray, cols, *, transpose: bool = False) -> np.ndarray:
    """H ys (or H^T ys) for H = d a†a + u a + l a†, acting on axis -2.

    ys is (..., dim, k) and cols comes from ladder_columns, broadcasting
    against ys's leading axes.  Row i of H ys is d i y[i] + u sqrt(i+1)
    y[i+1] + l sqrt(i) y[i-1]; H^T swaps the two shifts.  Complex products
    are not bitwise commutative, so the operand order and the order of the
    terms follow the column update of eta (for H^T) and the row update of
    a state (for H): stepping eta^T repeats the rounding of stepping eta.
    """
    dn, ur, lr = cols
    if transpose:
        out = ys * dn
        out[..., 1:, :] += ur * ys[..., :-1, :]
        out[..., :-1, :] += lr * ys[..., 1:, :]
    else:
        out = dn * ys
        out[..., :-1, :] += ur * ys[..., 1:, :]
        out[..., 1:, :] += lr * ys[..., :-1, :]
    return out


def _band_table(H: GeneratorFn, ts: np.ndarray) -> np.ndarray:
    """(3, len(ts)) ladder coefficients d, u, l at ts, checked finite once."""
    table = np.array(H.bands(ts), dtype=complex)
    if not np.all(np.isfinite(table)):
        raise InvalidDimensionError("operator entries must be finite")
    return table


def apply_generator(
    H: GeneratorFn, ts, ys: np.ndarray, *, right: bool = False, adjoint: bool = False
) -> np.ndarray:
    """Stacked products H(t_i) ys[i], or ys[i] H(t_i) when ``right``.

    ``adjoint`` applies H(t_i)† instead.  The generator is sampled once at
    ts and applied as its tridiagonal update, on the leading levels ys
    spans (its top row, or column when ``right``, then lacks the couplings
    to the levels beyond).
    """
    d, u, l = _band_table(H, np.asarray(ts, dtype=float))
    if adjoint:  # H† = d* a†a + l* a + u* a†
        d, u, l = np.conj(d), np.conj(l), np.conj(u)
    levels = ys.shape[-1] if right else ys.shape[-2]
    cols = ladder_columns(d[:, None, None], u[:, None, None], l[:, None, None], levels)
    if right:  # ys H = (H^T ys^T)^T
        return np.swapaxes(ladder_rows(np.swapaxes(ys, -1, -2), cols, transpose=True), -1, -2)
    return ladder_rows(ys, cols)


def _band_norms(table: np.ndarray, dim: int) -> np.ndarray:
    """||H||_F = sqrt(|d|^2 sum n^2 + (|u|^2 + |l|^2) sum n), per column."""
    n = np.arange(dim, dtype=float)
    d, u, l = np.abs(table) ** 2
    return np.sqrt(d * np.sum(n**2) + (u + l) * np.sum(n))


def _hermiticity_residuals(table: np.ndarray, dim: int) -> np.ndarray:
    """||H - H†||_F / ||H||_F per column; H - H† has bands (d - d*, u - l*, l - u*)."""
    d, u, l = table
    scale = _band_norms(table, dim)
    skew = _band_norms(np.array([d - np.conj(d), u - np.conj(l), l - np.conj(u)]), dim)
    return skew / np.where(scale > _ABS_FALLBACK, scale, 1.0)


def _check_step_guard(H: GeneratorFn, grid: TimeGrid, limit: float):
    """Refuse too-coarse grids, naming a workable step count."""
    max_norm = float(np.max(_band_norms(_band_table(H, grid.points), H.dim)))
    if max_norm * grid.dt > limit:
        needed = math.ceil((grid.t1 - grid.t0) * max_norm / limit)
        raise StepSizeError(
            f"step guard: max ||H||_F * dt = {max_norm * grid.dt:.3f} exceeds "
            f"{limit}; use at least {needed} steps",
            recommended_steps=needed,
        )


def _rk4_deriv(H: GeneratorFn, grid: TimeGrid, right: bool):
    """deriv(t, y) for rk4_samples on grid: -i H(t)^T y (right) or -i H(t) y.

    The right-sided map equation i d eta/dt = eta H is stepped as its
    transpose, i d eta^T/dt = H^T eta^T, so both sides act on rows.  The
    generator is sampled once on the half-step lattice t0 + j dt/2 that the
    RK4 stages visit, and each stage looks its coefficients up by index.
    """
    half = grid.dt / 2.0
    table = -1j * _band_table(H, grid.t0 + half * np.arange(2 * grid.steps + 1))
    d, u, l = table[:, :, None, None]

    def deriv(t, y):
        j = int(round((t - grid.t0) / half))
        return ladder_rows(y, ladder_columns(d[j], u[j], l[j], H.dim), transpose=right)

    return deriv


def _map_samples(H: GeneratorFn, m0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """RK4 samples of i dM/dt = M H(t): the (steps+1, dim, dim) view of M^T."""
    steps = rk4_samples(_rk4_deriv(H, grid, right=True), np.ascontiguousarray(m0.T), grid)
    return steps.transpose(0, 2, 1)


def _rcond_series(mats: np.ndarray) -> np.ndarray:
    anorms = np.empty(len(mats))
    for sl in sample_chunks(len(mats)):
        anorms[sl] = np.abs(mats[sl]).sum(axis=-2).max(axis=-1)
    return np.array([rcond_1norm(m, a) for m, a in zip(mats, anorms)])


def propagate_dyson(
    H: GeneratorFn,
    eta0: FockOperator,
    grid: TimeGrid,
    options: SolverOptions | None = None,
) -> DysonTrajectory:
    """Integrate i d/dt eta = eta H(t) from eta(t0) = eta0.

    Refuses grids violating the step guard (with a workable step count in
    the error); attaches per-sample reciprocal-condition estimates.
    """
    options = options or SolverOptions()
    if H.dim != eta0.dim:
        raise ValueError(f"dimension mismatch: generator {H.dim}, eta0 {eta0.dim}")
    _check_step_guard(H, grid, options.step_guard)
    etas = _map_samples(H, eta0.mat, grid)
    return DysonTrajectory(grid=grid, etas=etas, rcond=_rcond_series(etas), options=options)


def propagate_state(
    H: GeneratorFn,
    psi0: StateVector,
    grid: TimeGrid,
    options: SolverOptions | None = None,
    *,
    companions: Sequence[StateVector] = (),
) -> StateTrajectory:
    """Integrate i d/dt psi = H(t) psi on the grid.

    States in ``companions`` are stepped with psi0 as further columns of
    one (dim, n) block, each exactly as it would be on its own; the block
    shares the generator samples and the per-step overhead.  Their
    trajectories are the result's ``companions``, in order.
    """
    options = options or SolverOptions()
    psis = (psi0, *companions)
    for psi in psis:
        if H.dim != psi.dim:
            raise ValueError(f"dimension mismatch: generator {H.dim}, state {psi.dim}")
    deriv = _rk4_deriv(H, grid, right=False)
    _check_step_guard(H, grid, options.step_guard)
    block = rk4_samples(deriv, np.stack([psi.vec for psi in psis], axis=1), grid)
    trajectories = []
    for i in range(len(psis)):  # a plain loop keeps TruncationWarning pointing at the caller
        trajectories.append(StateTrajectory(grid, block[:, :, i], options))
    first = trajectories[0]
    first.companions = tuple(trajectories[1:])
    return first


def check_conditioning(traj: DysonTrajectory, ks: np.ndarray | None = None):
    """Refuse when eta's rcond at samples ks (default all) is below the floor.

    The floor is ``traj.options.rcond_floor``; the error names the worst
    sample's time.
    """
    rcond = traj.rcond if ks is None else traj.rcond[ks]
    i = int(np.argmin(rcond))
    k = i if ks is None else int(ks[i])
    if traj.rcond[k] < traj.options.rcond_floor:
        raise IllConditionedError(
            f"eta reciprocal condition {traj.rcond[k]:.3e} below floor at "
            f"t = {traj.grid.points[k]:.6g}",
            rcond=float(traj.rcond[k]),
            t=float(traj.grid.points[k]),
        )


def hermitian_counterpart(traj: DysonTrajectory, H: GeneratorFn) -> np.ndarray:
    """h(t_k) = 2 eta H eta^-1 at every sample, as a (steps+1, dim, dim) array.

    Each chunk forms eta H through H's bands and solves the transposed
    system eta^T (h/2)^T = (eta H)^T for all of its samples at once.
    """
    check_conditioning(traj)
    ts = traj.grid.points
    hs = np.empty(traj.etas.shape, dtype=complex)
    for sl in sample_chunks(len(ts)):
        es = traj.etas[sl]
        eh = apply_generator(H, ts[sl], es, right=True)
        half = np.linalg.solve(np.swapaxes(es, -1, -2), np.swapaxes(eh, -1, -2))
        hs[sl] = 2.0 * np.swapaxes(half, -1, -2)
    return hs


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
    _check_step_guard(Hh, grid, options.step_guard)
    rel = _hermiticity_residuals(_band_table(Hh, grid.points), Hh.dim)
    worst = int(np.argmax(rel))
    if rel[worst] > 1e-10:
        raise ValueError(
            f"generator not Hermitian: residual {rel[worst]:.3e} at "
            f"t = {grid.points[worst]:.6g}"
        )
    uerr = float(np.linalg.norm(U0.mat.conj().T @ U0.mat - np.eye(U0.dim)))
    if uerr > 1e-10:
        raise ValueError(f"U0 not unitary: ||U0†U0 - I|| = {uerr:.3e}")
    us = _map_samples(Hh, U0.mat, grid)
    return DysonTrajectory(grid=grid, etas=us, rcond=_rcond_series(us), options=options)

"""Time stepping for the map equation and its relatives.

The central object is the invertible map eta(t) obeying the right-sided
matrix equation i d/dt eta = eta H(t), integrated as a time-ordered product
by fixed-step classical RK4 (never by exponentiating an integral: H(t) at
different times need not commute).  For a Hermitian generator and a
unitary eta0 the same flow is the unitary one.

A generator is its ladder bands (H = d a†a + u a + l a†): they are
sampled once per grid and applied as a tridiagonal update.  The map is
stepped as eta^T, so the banded update shifts contiguous rows;
trajectories expose eta through a transposed view of that storage.
``rk4_samples`` is the one RK4 loop: it reads the generator's samples by
their index on the half-step lattice, and trajectories are read by grid
index.  ``propagate_dyson`` and ``propagate_state`` step a window of
samples at a time through it and hold only the samples asked for;
``propagate_dyson`` can hand each window to a callback.  This module only
steps: judging the map (its conditioning, its metric) is diagnostics'.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DivergenceError,
    InvalidDimensionError,
    StepSizeError,
    TruncationWarning,
)
from .fock_algebra import DEFAULT_GUARD, FockOperator, StateVector

_TAIL_WARN = 1e-8  # guard-band population fraction above which a state warns

# Samples per stacked pass over a trajectory.  32 complex 32 x 32 matrices
# are 0.5 MB; a pass holds about ten such stacks at once, so its
# temporaries stay a few MB above the trajectory itself.
SAMPLE_CHUNK = 32

# Samples per window of a stepped map or state block (see rk4_samples): 256
# complex 40 x 40 matrices are 6.6 MB, against 246 MB for a whole
# 9,600-step map.
# A multiple of SAMPLE_CHUNK, so windows split into the chunks of a whole
# trajectory.
MAP_WINDOW = 8 * SAMPLE_CHUNK

# Half-steps whose ladder columns rk4_samples builds at once: 512 x 3
# columns of 32 complex levels are 0.8 MB.
STAGE_CHUNK = 512

# rk4_samples refuses a grid on which max_t ||H(t)||_F * dt exceeds this.
STEP_GUARD = 0.1


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

    def strided(self, stride: int) -> np.ndarray:
        """Every stride-th grid index, ending on the last."""
        ks = np.arange(0, self.steps + 1, stride)
        if ks[-1] != self.steps:
            ks = np.append(ks, self.steps)
        return ks


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


def _held_at(held: np.ndarray, samples: np.ndarray, ks):
    """samples at grid indices ks (an index or an array), which held (sorted) must list."""
    pos = np.searchsorted(held, ks)
    if not np.array_equal(held[np.minimum(pos, len(held) - 1)], ks):
        raise IndexError(f"grid indices {ks} are not all held")
    return samples[pos]


@dataclass(frozen=True)
class DysonTrajectory:
    """The map at the sorted grid indices ``ks`` (0 always); read it with ``at``."""

    grid: TimeGrid
    etas: np.ndarray              # (len(ks), dim, dim), a view of the eta^T layout
    guard: int                    # the guard band the checks exclude
    ks: np.ndarray

    @property
    def dim(self) -> int:
        return self.etas.shape[1]

    @property
    def eta0(self) -> FockOperator:
        return FockOperator(self.etas[0])

    def at(self, ks):
        """The maps at grid indices ks (an index or an array of them), which must be held."""
        return _held_at(self.ks, self.etas, ks)


@dataclass(frozen=True)
class StateTrajectory:
    """A stepped state at the sorted grid indices ``ks`` (0 always); read it with ``at``.

    tail_mass_max is the largest guard-band population fraction over every
    stepped sample, held or not.  ``companions`` holds the trajectories of
    states stepped in the same block (see propagate_state).
    """

    grid: TimeGrid
    amplitudes: np.ndarray        # (len(ks), dim)
    guard: int                    # the guard band whose population tail_mass_max reads
    ks: np.ndarray
    tail_mass_max: float
    companions: tuple[StateTrajectory, ...] = ()

    def at(self, ks):
        """The amplitudes at grid indices ks (an index or an array of them), which must be held."""
        return _held_at(self.ks, self.amplitudes, ks)


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
    """||H||_F = sqrt(|d|^2 sum n^2 + (|u|^2 + |l|^2) sum n), per column.

    Evaluated with hypot, so no entry is squared: the norm stays exact where
    the squares would underflow or overflow.
    """
    n = np.arange(dim, dtype=float)
    d, u, l = np.abs(table)
    return np.hypot(d * np.sqrt(np.sum(n**2)), np.hypot(u, l) * np.sqrt(np.sum(n)))


def _check_step_guard(H: GeneratorFn, grid: TimeGrid, limit: float):
    """Refuse too-coarse grids, naming a workable step count when one exists."""
    max_norm = float(np.max(_band_norms(_band_table(H, grid.points), H.dim)))
    if max_norm * grid.dt > limit:
        needed = (grid.t1 - grid.t0) * max_norm / limit
        if not math.isfinite(needed):
            raise StepSizeError(
                f"step guard: max ||H||_F = {max_norm:.3g}; the step count it needs "
                "is beyond floating-point range",
                recommended_steps=None,
            )
        steps = math.ceil(needed)
        shown = steps if steps < 10**15 else f"{steps:.3g}"  # every digit while they are few
        raise StepSizeError(
            f"step guard: max ||H||_F * dt = {max_norm * grid.dt:.3g} exceeds "
            f"{limit}; use at least {shown} steps",
            recommended_steps=steps,
        )


def rk4_samples(H: GeneratorFn, y0: np.ndarray, grid: TimeGrid, *,
                right: bool, keep: np.ndarray | None, on_window) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 of i dy/dt = H(t) y (H^T y when ``right``); returns (keep, held samples).

    The right-sided map equation i d eta/dt = eta H is stepped as its
    transpose, i d eta^T/dt = H^T eta^T, so both sides act on rows.  Step k
    reads H at the half-step lattice points 2k, 2k + 1 (twice) and 2k + 2
    of t0 + j dt/2, where the generator is sampled once; the ladder columns
    are built for STAGE_CHUNK half-steps at a time (the products are
    elementwise, so the columns have the same bits either way).

    Refuses grids violating STEP_GUARD.  Samples are stepped into one
    MAP_WINDOW buffer; ``keep`` is sorted distinct grid indices starting at
    0 (None: every index), and on_window(lo, block) gets each window, which
    holds samples lo .. lo + len(block) - 1, after its kept samples are
    copied out.
    """
    keep = np.arange(grid.steps + 1) if keep is None else np.asarray(keep)
    if not (keep[0] == 0 and keep[-1] <= grid.steps and np.all(np.diff(keep) > 0)):
        raise ValueError("keep must be sorted distinct grid indices starting at 0")
    _check_step_guard(H, grid, STEP_GUARD)
    dt = grid.dt
    table = -1j * _band_table(H, grid.t0 + (dt / 2.0) * np.arange(2 * grid.steps + 1))
    d, u, l = table[:, :, None, None]
    y = np.asarray(y0, dtype=complex)
    held = np.empty((len(keep),) + y.shape, dtype=complex)
    block = np.empty((min(MAP_WINDOW, grid.steps + 1),) + y.shape, dtype=complex)
    block[0] = y
    lo, n = 0, 1

    def emit(window):
        first, stop = np.searchsorted(keep, (lo, lo + len(window)))
        held[first:stop] = window[keep[first:stop] - lo]
        on_window(lo, window)

    for k in range(grid.steps):
        i = 2 * k % STAGE_CHUNK
        if i == 0:  # the half-steps 2k .. 2k + STAGE_CHUNK
            sl = slice(2 * k, 2 * k + STAGE_CHUNK + 1)
            cols = list(zip(*ladder_columns(d[sl], u[sl], l[sl], H.dim)))
        k1 = ladder_rows(y, cols[i], transpose=right)
        k2 = ladder_rows(y + (dt / 2) * k1, cols[i + 1], transpose=right)
        k3 = ladder_rows(y + (dt / 2) * k2, cols[i + 1], transpose=right)
        k4 = ladder_rows(y + dt * k3, cols[i + 2], transpose=right)
        y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            t = grid.t0 + (k + 1) * dt
            raise DivergenceError(f"non-finite values at t = {t:.6g}", t=t)
        if n == len(block):
            emit(block)
            lo, n = lo + n, 0
        block[n] = y
        n += 1
    emit(block[:n])
    return keep, held


def propagate_dyson(
    H: GeneratorFn,
    eta0: FockOperator,
    grid: TimeGrid,
    guard: int = DEFAULT_GUARD,
    *,
    keep: np.ndarray | None = None,
    on_window: Callable[[int, np.ndarray], None] | None = None,
) -> DysonTrajectory:
    """Integrate i d/dt eta = eta H(t) from eta(t0) = eta0.

    Refuses grids violating the step guard (with a workable step count in
    the error).  The map is stepped MAP_WINDOW samples at a time; the
    result holds the samples at ``keep``, sorted grid indices starting at
    0 (default: every index).  ``on_window(lo, etas)`` is called with each
    window as it is stepped: lo is its first grid index and etas its maps,
    in the result's ``etas`` layout, a view that the next window
    overwrites.  ``guard`` is the guard band that the checks of the result
    exclude.
    """
    if H.dim != eta0.dim:
        raise ValueError(f"dimension mismatch: generator {H.dim}, eta0 {eta0.dim}")

    def window(lo: int, block: np.ndarray):
        if on_window is not None:
            on_window(lo, block.transpose(0, 2, 1))

    keep, held = rk4_samples(H, np.ascontiguousarray(eta0.mat.T), grid,
                             right=True, keep=keep, on_window=window)
    return DysonTrajectory(grid=grid, etas=held.transpose(0, 2, 1), guard=guard, ks=keep)


def propagate_state(
    H: GeneratorFn,
    psi0: StateVector,
    grid: TimeGrid,
    guard: int = DEFAULT_GUARD,
    *,
    companions: Sequence[StateVector] = (),
    keep: np.ndarray | None = None,
) -> StateTrajectory:
    """Integrate i d/dt psi = H(t) psi on the grid.

    States in ``companions`` are stepped with psi0 as further columns of
    one (dim, n) block, each exactly as it would be on its own; the block
    shares the generator samples and the per-step overhead.  Their
    trajectories are the result's ``companions``, in order.  As in
    propagate_dyson, the block is stepped a window at a time and each
    trajectory holds the samples at ``keep`` (default: every index).
    ``tail_mass_max`` reads the population of the top ``guard`` levels.
    """
    psis = (psi0, *companions)
    for psi in psis:
        if H.dim != psi.dim:
            raise ValueError(f"dimension mismatch: generator {H.dim}, state {psi.dim}")
    tails = [0.0] * len(psis)  # the largest guard-band population fraction of each state

    def window(lo: int, block: np.ndarray):
        for i in range(len(psis)):
            mass = np.abs(block[:, :, i]) ** 2
            tail = mass[:, H.dim - guard :].sum(axis=1)
            total = mass.sum(axis=1)
            tails[i] = max(tails[i], float(np.max(tail / np.where(total > 0, total, 1.0))))

    y0 = np.stack([psi.vec for psi in psis], axis=1)
    keep, held = rk4_samples(H, y0, grid, right=False, keep=keep, on_window=window)
    for tail in tails:  # warned here, after the last window, so that it points at the caller
        if tail > _TAIL_WARN:
            warnings.warn(
                f"guard-band mass reached {tail:.3e}; truncation dimension may be too small",
                TruncationWarning,
                stacklevel=2,
            )
    trajectories = [StateTrajectory(grid, held[:, :, i], guard, keep, tails[i])
                    for i in range(len(psis))]
    return replace(trajectories[0], companions=tuple(trajectories[1:]))

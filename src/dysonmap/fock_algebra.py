"""Truncated Fock-space operator algebra.

Dense complex matrices on an N-level truncation, with the primitives the
rest of the library is assembled from: ladder operators, displacement and
rotation operators, a matrix exponential valid for non-normal input that
refuses a result that overflows, pivoted linear solves with condition
reporting, and truncation-quality measures.

Units: hbar = 1; everything dimensionless.

The truncated ladder algebra is exact except at the top level, where
[a, a†] = I fails by construction.  All algebraic identity checks in this
package therefore restrict to the bottom block that excludes a guard band
of `guard` levels (default 6); states are kept honest separately via
`tail_mass`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ExponentialRangeError,
    IllConditionedError,
    InvalidDimensionError,
    UndefinedNormError,
)

DEFAULT_GUARD = 6


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Dense operator on a dim-level truncated Fock space."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidDimensionError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise InvalidDimensionError(f"truncation dimension must be >= 2, got {m.shape[0]}")
        if not np.all(np.isfinite(m)):
            raise InvalidDimensionError("operator entries must be finite")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dagger(self) -> "FockOperator":
        return FockOperator(self.mat.conj().T)

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            return FockOperator(self.mat @ other.mat)
        if isinstance(other, StateVector):
            return StateVector(self.mat @ other.vec)
        return NotImplemented

    def __repr__(self):
        return f"FockOperator(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class StateVector:
    """State on a dim-level truncated Fock space."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex)
        if v.ndim != 1:
            raise InvalidDimensionError(f"state must be a vector, got shape {v.shape}")
        if v.size < 2:
            raise InvalidDimensionError(f"truncation dimension must be >= 2, got {v.size}")
        if not np.all(np.isfinite(v)):
            raise InvalidDimensionError("state amplitudes must be finite")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.size

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


def low_block(mat: np.ndarray, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """Top-left (dim - guard) x (dim - guard) block of a matrix.

    Low Fock indices sit at the top-left corner; the discarded band is where
    the truncated commutator defect lives.  Identity residuals evaluated on
    the full matrix pick up an O(1) corner artifact regardless of grid
    quality, so every algebraic check routes through this restriction.
    """
    d = mat.shape[0]
    if not 0 <= guard < d:
        raise InvalidDimensionError(f"guard band {guard} incompatible with dim {d}")
    k = d - guard
    return mat[:k, :k]


def ladder_operators(dim: int) -> tuple[FockOperator, FockOperator]:
    """Annihilation and creation operators: a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise InvalidDimensionError(f"truncation dimension must be >= 2, got {dim}")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)).astype(complex), k=1)
    return FockOperator(a), FockOperator(a.conj().T)


def number_operator(dim: int) -> FockOperator:
    """a†a: diagonal 0..dim-1."""
    return FockOperator(np.diag(np.arange(dim, dtype=float).astype(complex)))


def identity(dim: int) -> FockOperator:
    return FockOperator(np.eye(dim, dtype=complex))


def basis_state(n: int, dim: int) -> StateVector:
    """Fock basis state |n>."""
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"basis index {n} outside dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return StateVector(v)


def _expm(m: np.ndarray) -> np.ndarray:
    """exp of a stack (..., n, n); raises ExponentialRangeError if the result overflows.

    scipy's scaling and squaring, not an eigendecomposition, because the maps
    this library exponentiates (displacements with complex amplitude,
    non-unitary Dyson factors) are non-normal.
    """
    from scipy.linalg import expm  # 0.37 s to import; commands without exponentials skip it

    with np.errstate(over="ignore", invalid="ignore"):  # the typed error below reports it
        out = expm(m)
    if not np.all(np.isfinite(out)):
        norm = np.max(np.linalg.norm(m, 1, axis=(-2, -1)))
        raise ExponentialRangeError(f"exponential of a matrix with 1-norm {norm:.3e} overflows")
    return out


def matrix_exponential(m: FockOperator) -> FockOperator:
    """exp(M) for a dense, possibly non-normal operator."""
    return FockOperator(_expm(m.mat))


def displacement(theta: complex, dim: int) -> FockOperator:
    """exp(theta a† - theta* a); unitary up to truncation error."""
    return FockOperator(displacements(np.array([theta]), dim)[0])


def displacements(thetas: np.ndarray, dim: int) -> np.ndarray:
    """Stack of displacement matrices, one per amplitude in thetas."""
    thetas = np.asarray(thetas, dtype=complex)
    if not np.all(np.isfinite(thetas)):
        bad = thetas[~np.isfinite(thetas)][0]
        raise InvalidDimensionError(f"displacement amplitude must be finite, got {bad}")
    a, ad = ladder_operators(dim)
    gen = thetas[:, None, None] * ad.mat - np.conj(thetas)[:, None, None] * a.mat
    return _expm(gen)


def rotation(angle: float, dim: int) -> FockOperator:
    """Diagonal exp(-i 2 angle a†a).

    The factor 2 is deliberate: the Hermitian counterpart's level spacing is
    twice the oscillator frequency, so the accumulated frequency phase enters
    the rotation doubled.
    """
    if not np.isfinite(angle):
        raise InvalidDimensionError(f"rotation angle must be finite, got {angle}")
    n = np.arange(dim, dtype=float)
    return FockOperator(np.diag(np.exp(-2j * angle * n)))


def rcond_1norm(m: np.ndarray, anorm: float | None = None) -> float:
    """Reciprocal 1-norm condition estimate of M from its LU factorization.

    ``anorm`` passes in M's 1-norm when the caller has it already.
    """
    from scipy.linalg import lapack  # 0.37 s to import; commands without solves skip it

    lu, _, info = lapack.zgetrf(m)
    if info > 0:
        return 0.0
    if anorm is None:
        anorm = float(np.linalg.norm(m, 1))
    rcond, info = lapack.zgecon(lu, anorm, norm="1")
    if info < 0:
        raise ValueError(f"internal condition estimate failed (info={info})")
    return float(rcond)


def invert_apply(
    m: FockOperator,
    x: FockOperator | StateVector,
    *,
    rcond_floor: float = 1e-12,
):
    """Apply M^{-1} to an operator or state via pivoted LU.

    Returns (result, rcond) where rcond is the reciprocal 1-norm condition
    estimate of M.  Raises IllConditionedError below `rcond_floor`; callers
    holding a time stamp re-raise with it attached.  The solve goes through
    numpy, whose result does not depend on the BLAS thread count.
    """
    if m.dim != x.dim:
        raise InvalidDimensionError(f"dimension mismatch: {m.dim} vs {x.dim}")
    rcond = rcond_1norm(m.mat)
    if rcond < rcond_floor:
        raise IllConditionedError(
            f"reciprocal condition estimate {rcond:.3e} below floor {rcond_floor:.1e}",
            rcond=rcond,
        )
    if isinstance(x, FockOperator):
        return FockOperator(np.linalg.solve(m.mat, x.mat)), rcond
    return StateVector(np.linalg.solve(m.mat, x.vec)), rcond


def tail_mass(v: StateVector, guard: int) -> float:
    """Fraction of |amplitude|^2 in the top `guard` levels."""
    if not 0 < guard < v.dim:
        raise InvalidDimensionError(f"guard band {guard} incompatible with dim {v.dim}")
    total = float(np.sum(np.abs(v.vec) ** 2))
    if total == 0.0:
        raise UndefinedNormError("tail mass of the zero vector is undefined")
    return float(np.sum(np.abs(v.vec[v.dim - guard :]) ** 2)) / total

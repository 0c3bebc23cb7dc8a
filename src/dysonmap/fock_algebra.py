"""Truncated Fock-space operator algebra.

Dense complex matrices on an N-level truncation, with the primitives the
rest of the library is assembled from: ladder and number operators, basis
states, normal-ordered products e^{x a†} e^{y a} that are exact blocks of
the infinite-space operators (the package's only exponentials, among them
the displacements D(theta)) and the guard-block restriction.  No matrix
exponential is computed.

Units: hbar = 1; everything dimensionless.

The truncated ladder algebra is exact except at the top level, where
[a, a†] = I fails by construction.  All algebraic identity checks in this
package therefore restrict to the bottom block that excludes a guard band
of `guard` levels (default 6); states are kept honest separately by the
guard-band population that propagate_state tracks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError

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


def basis_state(n: int, dim: int) -> StateVector:
    """Fock basis state |n>."""
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"basis index {n} outside dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return StateVector(v)


def _normal_ordered(xs, ys, dim: int, cols=slice(None)) -> np.ndarray:
    """Stack of e^{x a†} e^{y a} on the truncation, one per pair (xs[i], ys[i]); columns cols.

    Both factors are nilpotent on the truncation, so each is a finite
    triangular polynomial: e^{x a†} has the entries x^(m-n) sqrt(m!/n!)/(m-n)!
    for m >= n, and e^{y a} is that matrix at y, transposed.  Their product
    sums only over k <= min(m, n), so it is the exact block of the
    infinite-space operator, not a truncated exponential; by normal
    ordering, D(theta) = e^{-|theta|^2/2} N(theta, -theta*) and
    exp(gamma a + lambda a†) = e^{gamma lambda/2} N(lambda, gamma).
    """
    n = np.arange(dim)
    k = n[:, None] - n  # m - n
    # sqrt(m!/n!)/(m-n)!, the product of sqrt(j)/(j - n) over j = n+1 .. m
    coeff = np.cumprod(np.where(k > 0, np.sqrt(n)[:, None] / np.maximum(k, 1), 1.0), axis=0)
    coeff[k < 0] = 0.0

    def lower(zs, rows):
        powers = np.asarray(zs, dtype=complex)[:, None] ** n
        return powers[:, np.maximum(k[rows], 0)] * coeff[rows]

    with np.errstate(over="ignore", invalid="ignore"):  # callers refuse a non-finite result
        return lower(xs, slice(None)) @ np.swapaxes(lower(ys, cols), -1, -2)


def _exact_displacements(thetas, dim: int, cols=slice(None)) -> np.ndarray:
    """Columns cols of the exact blocks of D(theta), one per amplitude in thetas."""
    thetas = np.asarray(thetas, dtype=complex)
    scale = np.exp(-np.abs(thetas) ** 2 / 2.0)[:, None, None]
    return scale * _normal_ordered(thetas, -np.conj(thetas), dim, cols)


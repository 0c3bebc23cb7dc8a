"""Operator primitives on the truncated number basis."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dysonmap import (
    FockOperator,
    IllConditionedError,
    InvalidDimensionError,
    basis_state,
    displacement,
    identity,
    invert_apply,
    ladder_operators,
    low_block,
    matrix_exponential,
    number_operator,
    rotation,
    tail_mass,
)
from dysonmap.fock_algebra import displacements

DIM = 16


def test_ladder_commutator_is_identity_off_the_corner():
    dim = 10
    a, ad = ladder_operators(dim)
    comm = a.mat @ ad.mat - ad.mat @ a.mat
    # truncation concentrates the defect in the single corner entry
    assert np.allclose(comm[: dim - 1, : dim - 1], np.eye(dim - 1), atol=1e-14)
    assert abs(comm[-1, -1] + (dim - 1)) < 1e-13
    off = comm - np.diag(np.diag(comm))
    assert np.all(off == 0)


def test_number_operator_and_identity():
    n = number_operator(8)
    assert np.array_equal(n.mat, np.diag(np.arange(8, dtype=complex)))
    assert np.array_equal(identity(8).mat, np.eye(8, dtype=complex))
    a, ad = ladder_operators(8)
    assert np.allclose(ad.mat @ a.mat, n.mat, atol=1e-15)


def test_basis_state_and_dimension_errors():
    v = basis_state(3, 8)
    expect = np.zeros(8, dtype=complex)
    expect[3] = 1.0
    assert np.array_equal(v.vec, expect)
    with pytest.raises(InvalidDimensionError):
        basis_state(12, 12)
    with pytest.raises(InvalidDimensionError):
        basis_state(-1, 4)
    with pytest.raises(InvalidDimensionError):
        number_operator(0)
    with pytest.raises(InvalidDimensionError):
        ladder_operators(1)


def test_non_finite_entries_rejected():
    bad = np.eye(3, dtype=complex)
    bad[1, 1] = np.nan
    with pytest.raises(InvalidDimensionError, match="finite"):
        FockOperator(bad)
    bad[1, 1] = np.inf
    with pytest.raises(InvalidDimensionError, match="finite"):
        FockOperator(bad)


@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_matrix_exponential_matches_scipy(scale):
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    raw *= scale / np.linalg.norm(raw)
    ours = matrix_exponential(FockOperator(raw)).mat
    ref = scipy.linalg.expm(raw)
    rel = np.linalg.norm(ours - ref) / np.linalg.norm(ref)
    assert rel < 1e-12


def test_stacked_displacements_match_scipy():
    # amplitudes spanning several squaring counts, plus exp(0), which is exact
    thetas = np.array([0.0, 0.05j, 0.7 - 0.2j, 3.0 + 1.0j, 12.0j])
    stacked = displacements(thetas, DIM)
    assert np.array_equal(stacked[0], np.eye(DIM))
    assert np.array_equal(matrix_exponential(FockOperator(np.zeros((DIM, DIM)))).mat, np.eye(DIM))
    a, ad = ladder_operators(DIM)
    for theta, d in zip(thetas, stacked):
        ref = scipy.linalg.expm(theta * ad.mat - np.conj(theta) * a.mat)
        assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)


_amplitudes = st.builds(
    complex,
    st.floats(-0.8, 0.8, allow_nan=False),
    st.floats(-0.8, 0.8, allow_nan=False),
)


@settings(max_examples=30, deadline=None)
@given(theta=_amplitudes)
def test_displacement_unitary_and_inverse(theta):
    d = displacement(theta, DIM)
    prod = d.mat @ d.mat.conj().T
    assert np.linalg.norm(prod - np.eye(DIM)) < 1e-11
    inv = displacement(-theta, DIM)
    assert np.linalg.norm(d.mat @ inv.mat - np.eye(DIM)) < 1e-11


@settings(max_examples=30, deadline=None)
@given(theta=_amplitudes)
def test_displacement_first_column_is_coherent(theta):
    dim = 24
    col = displacement(theta, dim).mat[:, 0]
    ns = np.arange(dim)
    log_fact = np.cumsum(np.log(np.maximum(ns, 1)))
    expect = np.exp(-abs(theta) ** 2 / 2) * theta**ns / np.exp(log_fact / 2)
    assert np.max(np.abs(col - expect)) < 1e-10


def test_displacement_composition_phase():
    # D(p)D(q) = exp(i Im(p conj q)) D(p+q); the truncation defect walks in
    # from the corner, so compare away from it.
    dim, guard = 32, 12
    p, q = 0.31 + 0.24j, -0.18 + 0.4j
    lhs = displacement(p, dim).mat @ displacement(q, dim).mat
    rhs = np.exp(1j * (p * np.conj(q)).imag) * displacement(p + q, dim).mat
    err = np.max(np.abs(low_block(lhs - rhs, guard)))
    assert err < 1e-6


def test_rotation_is_diagonal_phase():
    angle, dim = 0.37, 10
    r = rotation(angle, dim)
    expect = np.diag(np.exp(-2j * angle * np.arange(dim)))
    assert np.max(np.abs(r.mat - expect)) < 1e-14
    assert np.linalg.norm(r.mat @ r.mat.conj().T - np.eye(dim)) < 1e-13


def test_low_block_and_tail_mass():
    m = np.arange(36.0).reshape(6, 6)
    assert np.array_equal(low_block(m, 2), m[:4, :4])
    assert tail_mass(basis_state(0, 8), 3) == 0.0
    assert tail_mass(basis_state(7, 8), 3) == 1.0
    with pytest.raises(InvalidDimensionError):
        tail_mass(basis_state(0, 8), 8)
    with pytest.raises(InvalidDimensionError):
        tail_mass(basis_state(0, 8), 0)


def test_invert_apply_roundtrip():
    rng = np.random.default_rng(11)
    m = FockOperator(np.eye(9) + 0.3 * (rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))))
    x = FockOperator(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    y, rcond = invert_apply(m, FockOperator(m.mat @ x.mat))
    assert 0.0 < rcond <= 1.0
    assert np.linalg.norm(y.mat - x.mat) / np.linalg.norm(x.mat) < 1e-12
    v = basis_state(4, 9)
    w, _ = invert_apply(m, FockOperator(m.mat))
    assert np.linalg.norm(w.mat - np.eye(9)) < 1e-12
    sol, _ = invert_apply(m, v)
    assert np.linalg.norm(m.mat @ sol.vec - v.vec) < 1e-12


def test_invert_apply_refuses_near_singular():
    diag = np.ones(6, dtype=complex)
    diag[-1] = 1e-13
    with pytest.raises(IllConditionedError) as ei:
        invert_apply(FockOperator(np.diag(diag)), basis_state(0, 6))
    assert ei.value.rcond < 1e-12


def test_invert_apply_dimension_mismatch():
    with pytest.raises(InvalidDimensionError):
        invert_apply(identity(6), basis_state(0, 7))

"""Operator primitives on the truncated number basis."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dysonmap import (
    AnalyticEvolution,
    ExponentialRangeError,
    FockOperator,
    InvalidDimensionError,
    StateVector,
    TimeGrid,
    TruncationWarning,
    basis_state,
    initial_map,
    ladder_operators,
    low_block,
    lr_pipeline,
    number_operator,
    propagate_state,
    validated_scenario,
)
from dysonmap.fock_algebra import _exact_displacements, _normal_ordered

from conftest import ladder_generator, tiny_scenario

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
    assert np.array_equal(FockOperator(np.eye(8, dtype=complex)).mat, np.eye(8))
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


def test_stacked_displacements_match_scipy():
    # a stack is its members computed one at a time, D(0) is exactly the
    # identity, and each member is the guard block of a dim-200 truncated
    # expm (|theta| <= 3.2 keeps the normal-ordered sums far from
    # cancelling: the worst relative miss is 5e-14)
    thetas = np.array([0.0, 0.05j, 0.7 - 0.2j, 1.5 + 1.0j, 3.0 + 1.0j])
    stacked = _exact_displacements(thetas, DIM)
    assert np.array_equal(stacked[0], np.eye(DIM))
    a, ad = ladder_operators(200)
    for theta, d in zip(thetas, stacked):
        assert np.array_equal(d, _exact_displacements([theta], DIM)[0])
        ref = scipy.linalg.expm(theta * ad.mat - np.conj(theta) * a.mat)[:DIM, :DIM]
        assert np.linalg.norm(low_block(d - ref, 6)) <= 1e-12 * np.linalg.norm(low_block(ref, 6))


def test_stacked_displacements_make_coherent_states():
    # <m|D(theta)|0> = e^{-|theta|^2/2} theta^m / sqrt(m!) on every level:
    # column 0 of the normal-ordered product is a single term per level, so
    # no truncation leak enters and 1e-13 covers rounding
    dim = 32
    thetas = np.array([0.0, 0.05j, 0.7 - 0.2j, 1.5 + 1.0j, -2.0 + 1.0j, 3.0j])
    cols = _exact_displacements(thetas, dim, [0])[:, :, 0]
    ns = np.arange(dim)
    half_log_fact = np.array([math.lgamma(n + 1) / 2 for n in ns])
    for theta, col in zip(thetas, cols):
        expect = np.exp(-(abs(theta) ** 2) / 2 - half_log_fact) * theta**ns
        assert np.max(np.abs(col - expect)) <= 1e-13


@pytest.mark.parametrize("theta", [0.0, 0.05j, 0.7 - 0.2j, 1.5 + 1.0j, -2.0, 1.2 - 1.6j])
def test_normal_ordered_displacement_makes_coherent_states(theta):
    # column 0 of e^{-|theta|^2/2} e^{theta a†} e^{-theta* a} is e^{theta a†}|0>
    # times the prefactor on every level, with no truncation leak
    dim = 40
    col = _exact_displacements([theta], dim)[0, :, 0]
    ns = np.arange(dim)
    root_fact = np.sqrt([float(math.factorial(n)) for n in ns])
    expect = np.exp(-abs(theta) ** 2 / 2) * complex(theta) ** ns / root_fact
    assert np.max(np.abs(col - expect)) <= 1e-15


@pytest.mark.parametrize("dim", [32, 40])
@pytest.mark.parametrize("theta", [0.4j, 0.4 * np.exp(2.5j), 1.0, np.exp(0.7j),
                                   2.0 * np.exp(2.5j)])
def test_normal_ordered_displacement_is_the_infinite_space_block(dim, theta):
    # A dim-200 truncated expm stands in for the infinite-space D on the
    # guard block.  The normal-ordered product sums at most dim terms, each
    # bounded by M^2 with M the largest entry of e^{theta a†} (e^{-theta* a}
    # has the same entry magnitudes), so it rounds by at most dim eps M^2.
    guard = 6
    big_a, big_ad = ladder_operators(200)
    ref = scipy.linalg.expm(theta * big_ad.mat - np.conj(theta) * big_a.mat)
    big_m = np.max(np.abs(_normal_ordered([theta], [0.0], dim)[0]))
    bound = dim * np.finfo(float).eps * big_m**2
    exact = _exact_displacements([theta], dim)[0]
    assert np.max(np.abs(low_block(exact - ref[:dim, :dim], guard))) <= bound
    # the dim-level truncated exponential misses that block by far more
    a, ad = ladder_operators(dim)
    truncated = scipy.linalg.expm(theta * ad.mat - np.conj(theta) * a.mat)
    assert np.max(np.abs(low_block(truncated - ref[:dim, :dim], guard))) > 100 * bound


@pytest.mark.parametrize("gamma0", [0.3, -1.0, 0.6 + 0.8j, -0.05j])
def test_initial_map_without_lambda0_is_the_taylor_sum(gamma0):
    s = tiny_scenario(dim=32, guard=6)
    a, _ = ladder_operators(s.dim)
    ref = scipy.linalg.expm(gamma0 * a.mat)
    eta0 = initial_map(s, gamma0, 0j).mat
    assert np.linalg.norm(eta0 - ref) <= 1e-14 * np.linalg.norm(ref)


def test_initial_map_is_normal_ordered():
    # exp(gamma a + lambda a†) = e^{gamma lambda/2} e^{lambda a†} e^{gamma a}:
    # on the guard block it is the block of a dim-200 truncated exponential
    gamma0, lambda0, dim = 0.3 - 0.1j, -0.2 + 0.25j, 24
    big_a, big_ad = ladder_operators(200)
    ref = scipy.linalg.expm(gamma0 * big_a.mat + lambda0 * big_ad.mat)[:dim, :dim]
    eta0 = initial_map(tiny_scenario(dim=dim, guard=6), gamma0, lambda0).mat
    assert np.max(np.abs(low_block(eta0 - ref, 6))) <= 1e-14


def test_overflowing_initial_map_is_refused():
    with pytest.raises(ExponentialRangeError, match="overflows"):
        initial_map(tiny_scenario(dim=8, guard=2), 1.0e3, 1.0e3)


def test_only_an_overflowing_exponential_is_refused():
    # gamma0 a is nilpotent, so exp is a finite polynomial in gamma0 however large its norm
    eta0 = initial_map(tiny_scenario(dim=8, guard=2), 1.0e20, 0j).mat
    assert np.all(np.isfinite(eta0))
    assert eta0[0, 7] == pytest.approx(1.0e140 * np.sqrt(5040.0) / 5040.0, rel=1e-12)


_amplitudes = st.builds(
    complex,
    st.floats(-0.8, 0.8, allow_nan=False),
    st.floats(-0.8, 0.8, allow_nan=False),
)


@settings(max_examples=30, deadline=None)
@given(theta=_amplitudes)
def test_displacement_unitary_and_inverse(theta):
    # exact blocks at dim 40 compose on the leading DIM levels up to the
    # population beyond level 40, far below rounding for |theta| < 1.2
    d, inv = _exact_displacements([theta, -theta], 40)
    assert np.linalg.norm((d @ d.conj().T)[:DIM, :DIM] - np.eye(DIM)) < 1e-11
    assert np.linalg.norm((d @ inv)[:DIM, :DIM] - np.eye(DIM)) < 1e-11


@settings(max_examples=30, deadline=None)
@given(theta=_amplitudes)
def test_displacement_first_column_is_coherent(theta):
    dim = 24
    col = _exact_displacements([theta], dim)[0, :, 0]
    ns = np.arange(dim)
    log_fact = np.cumsum(np.log(np.maximum(ns, 1)))
    expect = np.exp(-abs(theta) ** 2 / 2) * theta**ns / np.exp(log_fact / 2)
    assert np.max(np.abs(col - expect)) < 1e-14


def test_displacement_composition_phase():
    # D(p)D(q) = exp(i Im(p conj q)) D(p+q); the product of two exact blocks
    # misses only the terms through levels >= dim, so compare away from the
    # corner (3.3e-12 there)
    dim, guard = 32, 12
    p, q = 0.31 + 0.24j, -0.18 + 0.4j
    dp, dq, dpq = _exact_displacements([p, q, p + q], dim)
    err = np.max(np.abs(low_block(dp @ dq - np.exp(1j * (p * np.conj(q)).imag) * dpq, guard)))
    assert err < 1e-10


def test_rotation_is_diagonal_phase():
    # with no drive, theta and the phase base vanish, so the closed-form
    # evolution V(t) = upsilon D[theta] R[chi] is the rotation e^{-2i chi N}
    s, _ = validated_scenario(tiny_scenario(kappa=0.0))
    lr = lr_pipeline(s)
    ks = [0, s.grid.steps // 3, s.grid.steps]
    for k, v in zip(ks, AnalyticEvolution(s, lr).Vs(ks)):
        expect = np.diag(np.exp(-2j * lr.chi[k] * np.arange(s.dim)))
        assert np.max(np.abs(v - expect)) < 1e-14
        assert np.linalg.norm(v @ v.conj().T - np.eye(s.dim)) < 1e-13


def test_low_block_and_tail_mass():
    m = np.arange(36.0).reshape(6, 6)
    assert np.array_equal(low_block(m, 2), m[:4, :4])
    with pytest.raises(InvalidDimensionError):
        low_block(m, 6)
    with pytest.raises(InvalidDimensionError):
        low_block(m, -1)
    # the guard-band population fraction, as propagate_state tracks it
    H, grid = ladder_generator(8, 0.0), TimeGrid(0.0, 1.0, 4)
    assert propagate_state(H, basis_state(0, 8), grid, guard=3).tail_mass_max == 0.0
    with pytest.warns(TruncationWarning):
        top = propagate_state(H, basis_state(7, 8), grid, guard=3)
    assert top.tail_mass_max == 1.0
    zero = StateVector(np.zeros(8, dtype=complex))
    assert propagate_state(H, zero, grid, guard=3).tail_mass_max == 0.0

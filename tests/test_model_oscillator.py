"""Scenario validation and the closed-form solution pipeline."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from dysonmap import (
    AnalyticEvolution,
    CoefficientSpec,
    ExponentialRangeError,
    InvalidDimensionError,
    LRQuantities,
    ScenarioInvalidError,
    SingularityError,
    TimeGrid,
    counterpart_energy,
    derive_initial_map_params,
    hamiltonian_fn,
    low_block,
    lr_phase,
    lr_pipeline,
    pt_analysis,
    pt_symmetry,
    validated_scenario,
)
from dysonmap.fock_algebra import _exact_displacements
from dysonmap.model_oscillator import (
    _cumulative_simpson,
    _intertwining_residual,
    quadrature_frame,
    quadratures,
)

from conftest import closed_form_counterpart, load_bundled, rebuild, tiny_scenario


class TestCoefficientSpec:
    def test_polynomial_value_and_integral(self):
        p = CoefficientSpec.polynomial(0.3, -1.2, 0.5)
        t = 1.3
        assert p(t) == pytest.approx(0.3 - 1.2 * t + 0.5 * t * t)
        assert p.integral(t, 0.0) == pytest.approx(0.3 * t - 0.6 * t**2 + 0.5 * t**3 / 3)

    @pytest.mark.parametrize(
        "spec",
        [
            CoefficientSpec.constant(2.0 - 1.0j),
            CoefficientSpec.polynomial(0.3, -1.2, 0.5),
            CoefficientSpec.sinusoid(0.3 + 0.1j, -0.2, 2.0, c=0.05j),
            CoefficientSpec.exp_ramp(1.0 + 0.5j, -0.7),
        ],
    )
    def test_integral_matches_quadrature(self, spec):
        t0, t1 = 0.2, 1.7
        re, _ = scipy.integrate.quad(lambda t: spec(t).real, t0, t1, epsabs=1e-14)
        im, _ = scipy.integrate.quad(lambda t: spec(t).imag, t0, t1, epsabs=1e-14)
        assert abs(spec.integral(t1, t0) - (re + 1j * im)) < 1e-12

    def test_degenerate_parameters_collapse_to_constants(self):
        flat = CoefficientSpec.sinusoid(0.4, 0.7, 0.0, c=0.1j)
        ts = np.linspace(0.0, 3.0, 7)
        assert np.allclose(flat(ts), 0.4 + 0.1j)
        ramp = CoefficientSpec.exp_ramp(0.9 - 0.2j, 0.0)
        assert np.allclose(ramp(ts), 0.9 - 0.2j)

    def test_rejects_malformed_specs(self):
        with pytest.raises(ValueError, match="unknown coefficient form"):
            CoefficientSpec(form="spline")
        with pytest.raises(ValueError, match="at least one coefficient"):
            CoefficientSpec.polynomial()
        with pytest.raises(ValueError, match="finite"):
            CoefficientSpec.constant(complex("nan"))


class TestScenarioValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="kappa must be >= 0"):
            tiny_scenario(kappa=-0.2)
        with pytest.raises(InvalidDimensionError, match="guard band 6 incompatible with dim 4"):
            tiny_scenario(dim=4, guard=6)

    def test_derived_map_params_constant_drive(self):
        g0, l0, rep = derive_initial_map_params(load_bundled("s1"))
        assert abs(g0 - (-0.2j)) < 1e-12
        assert abs(l0) < 1e-12
        assert all(item.passed for item in rep.checks.values())

    def test_derived_map_params_vanish_without_drive(self):
        g0, l0, _ = derive_initial_map_params(load_bundled("kappa_zero"))
        assert g0 == 0j
        assert l0 == 0j

    def test_mixed_phase_drive_fails_imaginarity(self):
        with pytest.raises(ScenarioInvalidError) as ei:
            validated_scenario(load_bundled("s2"))
        rep = ei.value.report
        assert rep.checks["ii"].passed is False

    def test_drifting_ratio_fails_constancy(self):
        with pytest.raises(ScenarioInvalidError) as ei:
            validated_scenario(load_bundled("gamma_drift"))
        rep = ei.value.report
        assert rep.checks["iii"].passed is False

    def test_overflowing_intertwining_residual_fails(self):
        # ||H† rho0 - rho0 H|| squares entries beyond floating-point range at
        # this frequency unless the coefficients are scaled first; the
        # residual is then measured, and 2% of its scale is a failure
        s = rebuild(load_bundled("s1"), omega=CoefficientSpec.constant(1e160 + 1e158j))
        with pytest.raises(ScenarioInvalidError) as ei:
            validated_scenario(s)
        v = ei.value.report.checks["v"]
        assert v.passed is False
        assert math.isfinite(v.value)
        num, den = _intertwining_residual(s, 0j, 0j)
        assert math.isfinite(num) and math.isfinite(den)

    def test_closed_forms_gated_on_validation(self):
        s = load_bundled("s2")
        with pytest.raises(ScenarioInvalidError) as ei:
            lr_pipeline(s)
        assert "not_validated" in ei.value.failed_checks


def test_build_hamiltonian_two_level():
    s = tiny_scenario(dim=2, guard=1, grid=TimeGrid(0.0, 1.0, 10))
    h = hamiltonian_fn(s)(0.0).mat
    expect = np.array([[0.0, 0.1j], [0.1j, 1.0]])
    assert np.max(np.abs(h - expect)) < 1e-15


class TestClosedFormPipeline:
    """Constant-drive scenario, where every stage has a hand answer."""

    def test_pipeline_is_complete_and_frozen(self):
        s_run, _ = validated_scenario(tiny_scenario())
        lr = lr_pipeline(s_run)
        fields = [f.name for f in dataclasses.fields(LRQuantities)]
        assert fields[0] == "grid" and lr.grid == s_run.grid
        assert len(lr.grid.points) == s_run.grid.steps + 1
        for name in fields[1:]:
            assert getattr(lr, name).shape == (s_run.grid.steps + 1,), name
        with pytest.raises(dataclasses.FrozenInstanceError):
            lr.theta = None
        with pytest.raises(ValueError, match="read-only"):
            lr.theta[0] = 0j

    def test_phase_integrals(self, s1_workup):
        _, s, lr = s1_workup
        ts = s.grid.points
        assert np.max(np.abs(lr.chi - ts)) < 1e-12
        assert np.max(np.abs(lr.alpha_tilde - (np.exp(1j * ts) - 1.0))) < 1e-10
        k_half = s.grid.steps // 2
        assert s.grid.points[k_half] == pytest.approx(np.pi, rel=1e-15)
        assert abs(lr.alpha_tilde[k_half] - (-2.0)) < 1e-10
        assert lr.chi[0] == 0.0
        assert lr.alpha_tilde[0] == 0j
        assert abs(lr.beta_tilde[-1]) < 1e-10  # full period closes the integral

    def test_drive_functions(self, s1_workup):
        _, s, lr = s1_workup
        assert np.max(np.abs(lr.u - (-0.1j))) < 1e-12
        assert np.max(np.abs(lr.f - 0.02)) < 1e-10
        assert np.max(np.abs(lr.xi - (-0.1j))) < 1e-12

    def test_theta_reaches_steady_spiral(self, s1_workup):
        _, s, lr = s1_workup
        ts = s.grid.points
        closed = -0.05j * (1.0 - np.exp(-2j * ts))
        assert np.max(np.abs(lr.theta - closed)) < 1e-8

    def test_phase_linearity_in_m(self, s1_workup):
        _, s, lr = s1_workup
        phis = {m: lr_phase(s, lr, m) for m in (0, 1, 2, 3)}
        for m, phi in phis.items():
            assert phi[0] == 0.0
            assert np.max(np.abs(phi - phis[0] + 2.0 * m * lr.chi)) < 1e-10
        assert np.max(np.abs(np.abs(lr.upsilon) - 1.0)) < 1e-12
        band = s.dim - s.guard
        with pytest.raises(InvalidDimensionError):
            lr_phase(s, lr, band)

    def test_analytic_evolution_unitary(self, s1_workup):
        _, s, lr = s1_workup
        ev = AnalyticEvolution(s, lr)
        ks = (0, s.grid.steps // 2, s.grid.steps)
        for v, u in zip(ev.Vs(ks), ev.Us(ks)):
            assert np.linalg.norm(v @ v.conj().T - np.eye(s.dim)) < 1e-9
            assert np.max(np.abs(u - v)) == 0.0  # theta0 = 0

    def test_theta_beyond_floating_point_range_is_refused(self):
        # theta^n overflows where e^{-|theta|^2/2} underflows, and 0 inf is nan
        s_run, _ = validated_scenario(tiny_scenario(theta0=1e30))
        with pytest.raises(ExponentialRangeError, match=r"D\(theta\) with \|theta\| = 1\.000e\+30 "):
            lr_pipeline(s_run)
        # far out but in range, D(theta) underflows to 0, which is kept
        s_run, _ = validated_scenario(tiny_scenario(theta0=1e3))
        assert not np.any(AnalyticEvolution(s_run, lr_pipeline(s_run)).Vs([0, s_run.grid.steps]))


class TestConvergenceOrders:
    def test_drive_quadrature_fourth_order(self):
        # chi itself uses the exact antiderivative; the accumulated drive
        # integral is where the composite rule's order shows.
        def integrand_re(t):
            return np.cos(t + 0.25 * (1.0 - np.cos(t)))

        def integrand_im(t):
            return np.sin(t + 0.25 * (1.0 - np.cos(t)))

        re, _ = scipy.integrate.quad(integrand_re, 0.0, np.pi / 2, epsabs=1e-14)
        im, _ = scipy.integrate.quad(integrand_im, 0.0, np.pi / 2, epsabs=1e-14)
        target = re + 1j * im

        def drive_error(steps):
            s = tiny_scenario(
                omega=CoefficientSpec.sinusoid(0.0, 0.25, 1.0, c=1.0),
                alpha=CoefficientSpec.constant(1.0),
                beta=CoefficientSpec.constant(1.0),
                grid=TimeGrid(0.0, 2 * np.pi, steps),
            )
            s_run, _ = validated_scenario(s)
            lr = lr_pipeline(s_run)
            return abs(lr.alpha_tilde[steps // 4] - target)

        e_coarse, e_fine = drive_error(200), drive_error(400)
        assert e_coarse < 1e-7
        assert 12.0 < e_coarse / e_fine < 20.0

    def test_theta_quadrature_fourth_order(self):
        def theta_error(steps):
            s = tiny_scenario(grid=TimeGrid(0.0, 2 * np.pi, steps))
            s_run, _ = validated_scenario(s)
            lr = lr_pipeline(s_run)
            t = s_run.grid.points[steps // 4]
            closed = -0.05j * (1.0 - np.exp(-2j * t))
            return abs(lr.theta[steps // 4] - closed)

        e_coarse, e_fine = theta_error(800), theta_error(1600)
        assert e_coarse < 1e-8
        assert 12.0 < e_coarse / e_fine < 20.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8001, 16001])
@pytest.mark.parametrize("dtype", [float, complex])
def test_cumulative_simpson_matches_scipy_bit_for_bit(n, dtype):
    # lr_pipeline's quadrature reproduces scipy's equal-interval rule, the
    # trapezoid fallback below 3 samples included
    rng = np.random.default_rng(n)
    y = rng.normal(size=n)
    if dtype is complex:
        y = y + 1j * rng.normal(size=n)
    dx = 2 * np.pi / 8000
    want = scipy.integrate.cumulative_simpson(y, dx=dx, initial=0.0)
    got = _cumulative_simpson(y, dx)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()  # signed zeros too


def test_singular_frequency_refused():
    s = tiny_scenario(
        omega=CoefficientSpec.polynomial(1.0, -0.5), grid=TimeGrid(0.0, 2.0, 400)
    )
    stamped = rebuild(s, validated=True, gamma0=0j)
    with pytest.raises(SingularityError):
        lr_pipeline(stamped)
    with pytest.raises(SingularityError):
        counterpart_energy(stamped, 0, 2.0)


def eigenpair(s, lr, m, k):
    """(E_m, zeta_m, ||h zeta_m - E_m zeta_m||) of the closed-form counterpart at grid index k.

    zeta_m = D[-xi*]|m> is column m of the exact displacement.
    """
    energy = complex(counterpart_energy(s, m, s.grid.points[k]))
    zeta = _exact_displacements(-np.conj(lr.xi[[k]]), s.dim, [m])[0, :, 0]
    h = closed_form_counterpart(s, lr, k)
    return energy, zeta, float(np.linalg.norm(h @ zeta - energy * zeta) / np.linalg.norm(zeta))


class TestSpectralQuantities:
    def test_matrix_elements_tridiagonal(self, s1_workup):
        # <m| V†(t) (h(t)/2) V(t) |n> for V = upsilon D[theta] R[chi] is A
        # delta_mn + sqrt(n+1) B delta_{m,n+1} + sqrt(n) B* delta_{m,n-1},
        # times e^{i 2 chi (m-n)}, with A = omega [n + |theta|^2] + 2 Re(u
        # theta) + f and B = omega theta + u*: zero beyond the first
        # off-diagonals
        _, s, lr = s1_workup
        k = s.grid.steps // 4
        om = complex(s.omega(s.grid.points[k]))
        th, u, f, chi = complex(lr.theta[k]), complex(lr.u[k]), float(lr.f[k]), float(lr.chi[k])
        b = om * th + np.conj(u)

        def closed(m, n):
            phase = np.exp(2j * chi * (m - n))
            if m == n:
                return (om * (n + abs(th) ** 2) + 2.0 * (u * th).real + f) * phase
            if m == n + 1:
                return math.sqrt(n + 1) * b * phase
            if m == n - 1:
                return math.sqrt(n) * np.conj(b) * phase
            return 0j

        v = AnalyticEvolution(s, lr).Vs([k])[0]
        direct = v.conj().T @ (closed_form_counterpart(s, lr, k) / 2.0) @ v
        for m, n in ((0, 0), (0, 1), (1, 0), (2, 2), (2, 3), (0, 2), (3, 1)):
            assert abs(closed(m, n) - direct[m, n]) < 1e-12

    def test_eigensystem_energies_and_residuals(self, s1_workup):
        # E_m is the exact spectrum of h, so the residual sits at rounding level
        _, s, lr = s1_workup
        k = s.grid.steps // 4
        for m, expect in ((0, 0.02), (1, 2.02)):
            energy, zeta, residual = eigenpair(s, lr, m, k)
            assert abs(energy - expect) < 1e-12
            assert abs(np.linalg.norm(zeta) - 1.0) < 1e-10
            assert residual < 1e-12

    def test_counterpart_energy_direct_formula(self, s1_workup):
        # s1: omega = 1, kappa = 0.1, alpha beta = -1, so E_m = 2m + 0.02
        _, s, lr = s1_workup
        t = s.grid.points[s.grid.steps // 4]
        for m in (0, 1, 2):
            assert abs(counterpart_energy(s, m, t) - (2.0 * m + 0.02)) < 1e-12
        arr = counterpart_energy(s, 1, s.grid.points[:5])
        assert arr.shape == (5,)
        assert np.max(np.abs(arr - arr[0])) < 1e-14

    def test_quadrature_observables(self, s1_workup, s1_trajectory):
        # X1 = cos chi x1 - sin chi x2 + shift1 and X2 = sin chi x1 + cos chi
        # x2 + shift2 against the direct conjugations eta^-1 x_l eta
        _, s, lr = s1_workup
        k = s.grid.steps
        chi, shift1, shift2 = quadrature_frame(s, lr, k)
        x1, x2 = (q.mat for q in quadratures(s.dim))
        eye = np.eye(s.dim)
        closed = (np.cos(chi) * x1 - np.sin(chi) * x2 + shift1 * eye,
                  np.sin(chi) * x1 + np.cos(chi) * x2 + shift2 * eye)
        e = s1_trajectory.at(k)
        for x, X in zip((x1, x2), closed):
            direct = np.linalg.solve(e, x @ e)
            rel = (np.linalg.norm(low_block(X - direct, s.guard))
                   / np.linalg.norm(low_block(direct, s.guard)))
            assert rel < 1e-4
        # non-Hermitian only through the c-number shift: the asymmetry must
        # be a pure multiple of the identity
        asym = closed[0] - closed[0].conj().T
        assert np.max(np.abs(asym - asym[0, 0] * eye)) < 1e-10


_amplitudes = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_rates = st.floats(-3.0, 3.0, allow_nan=False)
_coefficients = st.one_of(
    st.builds(CoefficientSpec.constant, _amplitudes),
    st.lists(_amplitudes, min_size=1, max_size=4).map(lambda cs: CoefficientSpec.polynomial(*cs)),
    st.builds(CoefficientSpec.sinusoid, _amplitudes, _amplitudes, _rates, _amplitudes),
    st.builds(CoefficientSpec.exp_ramp, _amplitudes, _rates),
)


@settings(max_examples=60, deadline=None)
@given(
    omega=_coefficients,
    alpha=_coefficients,
    beta=_coefficients,
    kappa=st.floats(0.0, 1.0, allow_nan=False),
    t=st.floats(0.0, 1.5, allow_nan=False),
)
def test_energy_levels_in_one_call_equal_per_level_calls(omega, alpha, beta, kappa, t):
    s = tiny_scenario(omega=omega, alpha=alpha, beta=beta, kappa=kappa,
                      grid=TimeGrid(0.0, 1.5, 12))
    levels = np.arange(4)
    for times in (s.grid.points, t):
        if np.min(np.abs(omega(times))) < 1e-12:
            with pytest.raises(SingularityError):
                counterpart_energy(s, levels, times)
            continue
        stacked = np.stack([counterpart_energy(s, int(m), times) for m in levels], axis=-1)
        together = counterpart_energy(s, levels, times)
        assert together.shape == np.shape(times) + (4,)
        assert np.array_equal(together, stacked)


_unit = st.floats(-1.0, 1.0, allow_nan=False)
_small = st.floats(-0.1, 0.1, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    omega=st.floats(0.5, 2.0, allow_nan=False),
    a=_unit,
    b=_unit,
    phi=st.floats(-math.pi, math.pi, allow_nan=False),
    kappa=st.floats(0.0, 0.2, allow_nan=False),
    lambda0=st.builds(complex, _small, _small),
)
def test_derived_gamma0_intertwines_and_its_negation_does_not(omega, a, b, phi, kappa, lambda0):
    # |lambda0| stays at 0.1 or below because the truncated exp[gamma0 a +
    # lambda0 a†] stops intertwining H as it grows: at dim 12, |lambda0| near
    # 0.2 already reads up to 4.7e-7 on check (v) with the exact gamma0.
    alpha, beta = a * cmath.exp(1j * phi), b * cmath.exp(-1j * phi)
    s = tiny_scenario(
        omega=CoefficientSpec.constant(omega),
        alpha=CoefficientSpec.constant(alpha),
        beta=CoefficientSpec.constant(beta),
        kappa=kappa,
        lambda0=lambda0,
        grid=TimeGrid(0.0, 1.0, 8),
        dim=20,
        guard=6,
    )
    g0, _, rep = derive_initial_map_params(s)
    assert rep.passed, rep.failed_names()
    assert abs(g0 + lambda0.conjugate() - kappa * (beta.conjugate() - alpha) / omega) < 1e-15
    # the sign the constraint does not fix leaves rho0 far from intertwining
    if abs(g0) > 1e-3:
        num, den = _intertwining_residual(s, -g0, lambda0)
        assert num > 1e-8 * den


def _pt_per_level(s):
    """pt_analysis as it read with the coefficients resampled for every energy level."""
    big_t = max(abs(s.grid.t0), abs(s.grid.t1))
    ts_sym = np.linspace(-big_t, big_t, 513)
    symmetry = {}
    v = float(np.max(np.abs(np.conj(np.asarray(s.omega(-ts_sym))) - np.asarray(s.omega(ts_sym)))))
    symmetry["omega_conjugate_even"] = (v <= 1e-10, v)
    for label, fn in (("alpha_conjugate_odd", s.alpha), ("beta_conjugate_odd", s.beta)):
        v = float(np.max(np.abs(np.conj(np.asarray(fn(-ts_sym))) + np.asarray(fn(ts_sym)))))
        symmetry[label] = (v <= 1e-10, v)
    step = max(1, s.grid.steps // 1024)
    samples = s.grid.points[sorted({*range(0, s.grid.steps + 1, step), s.grid.steps})]
    om = np.asarray(s.omega(samples))
    prod = np.asarray(s.alpha(samples)) * np.asarray(s.beta(samples))
    boundary = float(np.max(np.abs(prod.imag)))
    unbroken = float(np.max(np.abs(om.imag))) <= 1e-10 and boundary <= 1e-10

    def energy(m):
        om = np.asarray(s.omega(samples))
        return 2.0 * om * m - 2.0 * s.kappa**2 * np.asarray(s.alpha(samples)) * np.asarray(
            s.beta(samples)
        ) / om

    im_max = tuple(float(np.max(np.abs(energy(m).imag))) for m in range(4))
    return symmetry, "UNBROKEN" if unbroken else "BROKEN", im_max, boundary


class TestPhaseAnalysis:
    @pytest.mark.parametrize("name", ["s1", "s2", "gamma_drift"])
    def test_one_sampling_matches_per_level_formulas(self, name):
        s = load_bundled(name)
        pt = pt_analysis(s)
        symmetry, label, im_max, boundary = _pt_per_level(s)
        assert pt_symmetry(s) == symmetry
        assert pt.label == label
        assert pt.im_energy_max == im_max
        assert pt.boundary_quantity == boundary

    def test_last_grid_point_is_sampled(self):
        # s1's stride of 8000 // 1024 = 7 grid points stops at index 7994;
        # Im(alpha beta) = c1 t passes the reality tolerance only after it
        c1 = 1.0004e-10 / (2 * np.pi)
        s = rebuild(load_bundled("s1"), alpha=CoefficientSpec.polynomial(1j, c1))
        pt = pt_analysis(s)
        assert pt.label == "BROKEN"
        assert pt.boundary_quantity == pytest.approx(1.0004e-10, rel=1e-12)
        # the validation samples every grid point, and agrees
        with pytest.raises(ScenarioInvalidError) as ei:
            derive_initial_map_params(s)
        assert "ii" in ei.value.report.failed_names()

    def test_each_coefficient_is_sampled_once(self, monkeypatch):
        calls = []
        call = CoefficientSpec.__call__

        def counted(spec, t):
            calls.append(spec)
            return call(spec, t)

        monkeypatch.setattr(CoefficientSpec, "__call__", counted)
        s = tiny_scenario()
        pt_analysis(s)
        assert [sum(c is spec for c in calls) for spec in (s.omega, s.alpha, s.beta)] == [1, 1, 1]

    def test_constant_imaginary_drive_is_symmetric(self, s1_workup):
        _, s, _ = s1_workup
        pt = pt_analysis(s)
        assert pt.label == "UNBROKEN"
        assert all(ok for ok, _ in pt_symmetry(s).values())
        assert max(pt.im_energy_max) < 1e-10

    def test_mixed_phase_drive_breaks(self, s2_workup):
        _, s, _ = s2_workup
        pt = pt_analysis(s)
        assert pt.label == "BROKEN"
        ok, dev = pt_symmetry(s)["alpha_conjugate_odd"]
        assert ok is False
        assert dev == pytest.approx(2.0, rel=1e-6)
        assert max(pt.im_energy_max) > 1e-3

    def test_modulated_frequency_keeps_real_spectrum(self, gamma_drift_workup):
        _, s, _ = gamma_drift_workup
        pt = pt_analysis(s)
        assert pt.label == "UNBROKEN"
        flags = pt_symmetry(s)
        assert not all(ok for ok, _ in flags.values())
        ok, dev = flags["omega_conjugate_even"]
        assert ok is False
        assert dev == pytest.approx(0.4, rel=1e-6)

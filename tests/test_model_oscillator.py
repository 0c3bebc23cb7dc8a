"""Scenario validation and the closed-form solution pipeline."""

import dataclasses

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from dysonmap import (
    AnalyticEvolution,
    CoefficientSpec,
    InvalidDimensionError,
    LRQuantities,
    ScenarioInvalidError,
    SingularityError,
    TimeGrid,
    basis_state,
    closed_form_counterpart,
    counterpart_energy,
    derive_initial_map_params,
    eigensystem,
    grid_index,
    hamiltonian_fn,
    lr_phase,
    lr_pipeline,
    matrix_elements,
    pt_analysis,
    quadrature_observables,
    validated_scenario,
)

from conftest import load_bundled, rebuild, tiny_scenario


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
        with pytest.raises(ValueError, match="perturbation_order must be 1 or 2"):
            tiny_scenario(perturbation_order=3)

    def test_derived_map_params_constant_drive(self):
        g0, l0, rep = derive_initial_map_params(load_bundled("s1"))
        assert abs(g0 - (-0.2j)) < 1e-12
        assert abs(l0) < 1e-12
        assert rep.sign_flipped is False
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
        _, s, lr, _ = s1_workup
        ts = s.grid.points
        assert np.max(np.abs(lr.chi - ts)) < 1e-12
        assert np.max(np.abs(lr.alpha_tilde - (np.exp(1j * ts) - 1.0))) < 1e-10
        k_half = grid_index(s.grid, np.pi)
        assert abs(lr.alpha_tilde[k_half] - (-2.0)) < 1e-10
        assert lr.chi[0] == 0.0
        assert lr.alpha_tilde[0] == 0j
        assert abs(lr.beta_tilde[-1]) < 1e-10  # full period closes the integral

    def test_drive_functions(self, s1_workup):
        _, s, lr, _ = s1_workup
        assert np.max(np.abs(lr.u - (-0.1j))) < 1e-12
        assert np.max(np.abs(lr.f - 0.02)) < 1e-10
        assert np.max(np.abs(lr.xi - (-0.1j))) < 1e-12

    def test_drive_shift_halves_at_first_order(self, s1_workup):
        _, s, _, _ = s1_workup
        s1o = rebuild(s, perturbation_order=1)
        lr = lr_pipeline(s1o)
        assert np.max(np.abs(lr.f - 0.01)) < 1e-10

    def test_theta_reaches_steady_spiral(self, s1_workup):
        _, s, lr, _ = s1_workup
        ts = s.grid.points
        closed = -0.05j * (1.0 - np.exp(-2j * ts))
        assert np.max(np.abs(lr.theta - closed)) < 1e-8

    def test_phase_linearity_in_m(self, s1_workup):
        _, s, lr, _ = s1_workup
        phis = {m: lr_phase(s, lr, m) for m in (0, 1, 2, 3)}
        for m, phi in phis.items():
            assert phi[0] == 0.0
            assert np.max(np.abs(phi - phis[0] + 2.0 * m * lr.chi)) < 1e-10
        assert np.max(np.abs(np.abs(lr.upsilon) - 1.0)) < 1e-12
        band = s.dim - s.guard
        with pytest.raises(InvalidDimensionError):
            lr_phase(s, lr, band)

    def test_analytic_evolution_unitary(self, s1_workup):
        _, s, lr, _ = s1_workup
        ev = AnalyticEvolution(s, lr)
        ks = (0, s.grid.steps // 2, s.grid.steps)
        for v, u in zip(ev.Vs(ks), ev.Us(ks)):
            assert np.linalg.norm(v @ v.conj().T - np.eye(s.dim)) < 1e-9
            assert np.max(np.abs(u - v)) == 0.0  # theta0 = 0


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

    def test_theta_stepper_fourth_order(self):
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


def test_singular_frequency_refused():
    s = tiny_scenario(
        omega=CoefficientSpec.polynomial(1.0, -0.5), grid=TimeGrid(0.0, 2.0, 400)
    )
    stamped = rebuild(s, validated=True, gamma0=0j)
    with pytest.raises(SingularityError):
        lr_pipeline(stamped)
    with pytest.raises(SingularityError):
        counterpart_energy(stamped, 0, 2.0)


class TestSpectralQuantities:
    def test_matrix_elements_tridiagonal(self, s1_workup):
        _, s, lr, _ = s1_workup
        k = s.grid.steps // 4
        t = s.grid.points[k]
        assert matrix_elements(s, lr, 0, 2, t) == 0j
        assert matrix_elements(s, lr, 3, 1, t) == 0j
        # dense reference <m| V†(t) (h(t)/2) V(t) |n>
        v = AnalyticEvolution(s, lr).Vs([k])[0]
        half_h = closed_form_counterpart(s, lr, k).mat / 2.0
        for m, n in ((0, 0), (0, 1), (1, 0), (2, 2), (2, 3)):
            closed = matrix_elements(s, lr, m, n, t)
            direct = complex(v[:, m].conj() @ (half_h @ v[:, n]))
            assert abs(closed - direct) < 1e-12
        with pytest.raises(InvalidDimensionError):
            matrix_elements(s, lr, s.dim - s.guard, 0, t)

    def test_eigensystem_energies_and_residuals(self, s1_workup):
        _, s, lr, _ = s1_workup
        t = s.grid.points[s.grid.steps // 4]
        for m, expect in ((0, 0.02), (1, 2.02)):
            pair = eigensystem(s, lr, m, t)
            assert abs(pair.energy - expect) < 1e-12
            assert abs(np.linalg.norm(pair.zeta.vec) - 1.0) < 1e-10
            assert pair.residual < 1e-9
        with pytest.raises(InvalidDimensionError):
            eigensystem(s, lr, s.dim - s.guard, t)

    def test_eigensystem_needs_second_order(self, s1_workup):
        _, s, lr, _ = s1_workup
        s1o = rebuild(s, perturbation_order=1)
        with pytest.raises(ValueError, match="perturbation_order = 2"):
            eigensystem(s1o, lr, 0, 0.0)

    def test_counterpart_energy_direct_formula(self, s1_workup):
        _, s, lr, _ = s1_workup
        t = s.grid.points[s.grid.steps // 4]
        for m in (0, 1, 2):
            assert abs(counterpart_energy(s, m, t) - eigensystem(s, lr, m, t).energy) < 1e-12
        arr = counterpart_energy(s, 1, s.grid.points[:5])
        assert arr.shape == (5,)
        assert np.max(np.abs(arr - arr[0])) < 1e-14

    def test_quadrature_observables(self, s1_workup):
        _, s, lr, traj = s1_workup
        t_end = float(s.grid.points[-1])
        bare = quadrature_observables(s, lr, t_end)
        assert bare.direct_discrepancy is None
        assert bare.k == s.grid.steps
        checked = quadrature_observables(s, lr, t_end, traj=traj)
        d1, d2 = checked.direct_discrepancy
        assert d1 < 1e-4 and d2 < 1e-4
        # non-Hermitian only through the c-number shift: the asymmetry must
        # be a pure multiple of the identity
        asym = checked.x1.mat - checked.x1.mat.conj().T
        assert np.max(np.abs(asym - asym[0, 0] * np.eye(s.dim))) < 1e-10


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
    ts = s.grid.points
    samples = ts[:: max(1, s.grid.steps // 1024)] if ts.size > 2 else ts
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
        assert pt.symmetry == symmetry
        assert pt.label == label
        assert pt.im_energy_max == im_max
        assert pt.boundary_quantity == boundary

    def test_constant_imaginary_drive_is_symmetric(self, s1_workup):
        _, s, _, _ = s1_workup
        pt = pt_analysis(s)
        assert pt.label == "UNBROKEN"
        assert pt.symmetric
        assert all(ok for ok, _ in pt.symmetry.values())
        assert max(pt.im_energy_max) < 1e-10

    def test_mixed_phase_drive_breaks(self, s2_workup):
        _, s, _, _ = s2_workup
        pt = pt_analysis(s)
        assert pt.label == "BROKEN"
        ok, dev = pt.symmetry["alpha_conjugate_odd"]
        assert ok is False
        assert dev == pytest.approx(2.0, rel=1e-6)
        assert max(pt.im_energy_max) > 1e-3

    def test_modulated_frequency_keeps_real_spectrum(self, gamma_drift_workup):
        _, s, _, _ = gamma_drift_workup
        pt = pt_analysis(s)
        assert pt.label == "UNBROKEN"
        assert not pt.symmetric
        ok, dev = pt.symmetry["omega_conjugate_even"]
        assert ok is False
        assert dev == pytest.approx(0.4, rel=1e-6)

"""Residual series, per-scenario checks, and the workup report."""

import dataclasses

import numpy as np
import pytest

from dysonmap import (
    ResidualSeries,
    TimeGrid,
    analytic_vs_numeric,
    basis_state,
    diagnostics,
    equivalence_checks,
    hamiltonian_fn,
    isospectrality_check,
    metric_constancy,
    propagate_state,
    quasi_hermiticity_residuals,
    scenario_workup,
    validated_scenario,
)
from dysonmap import StateVector

from conftest import tiny_scenario, workup_trajectory

S2_FAILING = (
    "(ii)",
    "(iv)",
    "(v)",
    "equivalence_fixed_metric",
    "metric_constancy",
    "r7",
)
GAMMA_DRIFT_FAILING = (
    "(iii)",
    "(v)",
    "equivalence_fixed_metric",
    "metric_constancy",
    "r7",
)


class TestTolerances:
    def test_envelope_scales_with_drive(self):
        coeff = diagnostics.ENVELOPE_COEFF
        assert diagnostics._envelope(0.1) == pytest.approx(coeff * 0.1**2)
        assert diagnostics._envelope(0.05) == pytest.approx(coeff * 0.05**2)
        # far below the floor the envelope stops shrinking
        assert diagnostics._envelope(1e-4) == diagnostics.PERTURBATIVE_FLOOR

    def test_defaults_are_sane(self):
        assert diagnostics.METRIC_CONSTANCY == 1e-6
        assert diagnostics.R7 == 1e-7
        assert diagnostics.MIN_RCOND == 1e-12


class TestResidualSeries:
    def test_properties(self):
        ser = ResidualSeries("demo", np.array([0.0, 1.0, 2.0]), np.array([0.5, 2.5, 1.0]))
        assert ser.max == 2.5
        assert ser.terminal == 1.0
        empty = ResidualSeries("none", np.empty(0), np.empty(0))
        assert empty.max == 0.0
        assert empty.terminal == 0.0

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ResidualSeries("demo", np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ResidualSeries("demo", np.array([0.0]), np.array([-1.0]))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ResidualSeries("demo", np.array([0.0]), np.array([np.nan]))


class TestReportStructure:
    def test_checks_sorted_and_addressable(self, s1_workup):
        report, _, _ = s1_workup
        names = [c.name for c in report.checks]
        assert names == sorted(names)
        assert report.outcome("metric_constancy").passed is True
        with pytest.raises(KeyError):
            report.outcome("no_such_check")

    def test_series_sampled_on_the_grid(self, s1_workup):
        report, s, _ = s1_workup
        r2 = report.series["r2"]
        assert 50 <= r2.samples.size <= s.grid.steps + 1
        assert r2.times[0] >= s.grid.t0
        assert r2.times[-1] <= s.grid.t1
        steps = np.diff(r2.times)
        assert np.allclose(steps, steps[0])


class TestConstantDriveWorkup:
    def test_everything_passes(self, s1_workup):
        report, _, _ = s1_workup
        assert report.failing() == ()
        assert report.passed
        assert report.pt.label == "UNBROKEN"
        assert abs(report.validation.gamma0 - (-0.2j)) < 1e-12

    def test_residual_levels(self, s1_workup):
        report, _, _ = s1_workup
        ser = report.series
        assert ser["metric_constancy"].max < 2e-7
        assert ser["r2"].max < 2e-8
        assert ser["r7"].max < 2e-8
        assert ser["equivalence_sanity"].max < 1e-14
        assert ser["equivalence_fixed_metric"].max < 1e-13
        assert ser["equivalence_observable"].max < 1e-12
        iso_max = max(ser[f"isospectrality_m{m}"].max for m in (0, 1, 2))
        assert iso_max < 1e-13
        assert 0.0313 < ser["analytic_vs_numeric"].terminal < 0.0316

    def test_bookkeeping(self, s1_workup):
        report, _, _ = s1_workup
        assert report.tail_mass_max < 1e-10
        assert report.condition_max < 100.0


class TestMixedPhaseControl:
    def test_failing_set_exact(self, s2_workup):
        report, _, _ = s2_workup
        assert report.failing() == S2_FAILING
        assert not report.passed
        assert report.pt.label == "BROKEN"

    def test_residual_levels(self, s2_workup):
        report, _, _ = s2_workup
        assert report.series["metric_constancy"].max > 1e-3
        assert report.series["r7"].max > 1e-4
        # the flow identity holds regardless of the metric drifting
        assert report.outcome("r2").passed is True
        assert report.series["r2"].max < 1e-7

    def test_constraint_check_values(self, s2_workup):
        report, _, _ = s2_workup
        assert report.outcome("(ii)").value == pytest.approx(1.0, rel=1e-6)
        assert report.outcome("(iv)").value == pytest.approx(0.1, rel=1e-6)


class TestDriftingRatioControl:
    def test_failing_set_exact(self, gamma_drift_workup):
        report, _, _ = gamma_drift_workup
        assert report.failing() == GAMMA_DRIFT_FAILING
        assert report.pt.label == "UNBROKEN"

    def test_residual_levels(self, gamma_drift_workup):
        report, _, lr = gamma_drift_workup
        assert lr is None  # validation failed, closed forms unavailable
        assert report.series["metric_constancy"].max > 0.5
        assert report.outcome("r2").passed is True
        assert report.series["r2"].max < 1e-4
        assert report.outcome("isospectrality").passed is None
        assert report.outcome("analytic_vs_numeric").passed is None


class TestHermitianLimit:
    def test_all_residuals_at_floor(self, kappa_zero_workup):
        report, _, _ = kappa_zero_workup
        assert report.passed
        assert report.validation.gamma0 == 0j
        ser = report.series
        for name in ("metric_constancy", "r2", "r7", "equivalence_sanity",
                     "equivalence_fixed_metric", "equivalence_observable"):
            assert ser[name].max < 1e-8, name
        iso_max = max(ser[f"isospectrality_m{m}"].max for m in (0, 1, 2))
        assert iso_max < 1e-8
        assert ser["analytic_vs_numeric"].terminal < 1e-12


class TestTimeIndependentLimit:
    def test_levels(self, time_independent_workup):
        report, _, _ = time_independent_workup
        assert report.passed
        ser = report.series
        assert ser["metric_constancy"].max < 1e-8
        assert ser["r2"].max < 1e-8
        assert ser["r7"].max < 1e-12
        assert ser["equivalence_observable"].max < 1e-12
        iso_max = max(ser[f"isospectrality_m{m}"].max for m in (0, 1, 2))
        assert iso_max < 1e-12
        # stronger drive, so the first-order deviation is larger than s1's
        assert 0.372 < ser["analytic_vs_numeric"].terminal < 0.378

    def test_condition_max_is_exact(self, time_independent_workup):
        # what `diagnose time_independent` reports; LAPACK's 1-norm
        # estimate of the same number reads 5.94
        report, _, _ = time_independent_workup
        assert report.condition_max == pytest.approx(9.4754, rel=1e-4)


class TestStencilSpacing:
    def test_flow_residual_scales_with_spacing(self, gamma_drift_workup, gamma_drift_trajectory):
        _, s, _ = gamma_drift_workup
        traj = gamma_drift_trajectory
        H = hamiltonian_fn(s)
        r2_1, _ = quasi_hermiticity_residuals(traj, H, spacing=1)
        r2_2, _ = quasi_hermiticity_residuals(traj, H, spacing=2)
        r2_4, _ = quasi_hermiticity_residuals(traj, H, spacing=4)
        assert 3.5 < r2_2.max / r2_1.max < 4.5
        assert 3.5 < r2_4.max / r2_2.max < 4.5

    def test_spacing_must_be_positive(self, tiny_run):
        _, H, traj = tiny_run
        with pytest.raises(ValueError):
            quasi_hermiticity_residuals(traj, H, spacing=0)


class TestGuardBand:
    def test_guard_exclusion_is_load_bearing(self, tiny_run):
        _, H, traj = tiny_run
        unguarded = dataclasses.replace(traj, guard=0)
        assert metric_constancy(traj).max < 1e-6
        assert metric_constancy(unguarded).max > 1e-3
        _, r7_blocked = quasi_hermiticity_residuals(traj, H)
        _, r7_full = quasi_hermiticity_residuals(unguarded, H)
        assert r7_blocked.max < 1e-7
        assert r7_full.max > 1e-4


class TestEquivalenceRoutes:
    def test_custom_state_pair(self, s1_workup, s1_trajectory):
        _, s, lr = s1_workup
        traj = s1_trajectory
        b0, b1 = basis_state(0, s.dim), basis_state(1, s.dim)
        mix = StateVector((b0.vec + b1.vec) / np.sqrt(2.0))
        psi = propagate_state(hamiltonian_fn(s), b0, s.grid, guard=traj.guard,
                              companions=(mix,))
        sanity, fixed, observable = equivalence_checks(s, traj, (psi, *psi.companions), lr)
        assert sanity.max < 1e-12
        assert fixed.max < 1e-6
        assert observable is not None

    def test_isospectrality_subset(self, s1_workup, s1_trajectory):
        _, s, lr = s1_workup
        traj = s1_trajectory
        iso = isospectrality_check(s, lr, traj, ms=(0, 1))
        assert set(iso) == {0, 1}
        for ser in iso.values():
            assert ser.max < 1e-12

    def test_deviation_from_excited_start(self, s1_workup, s1_trajectory):
        _, s, lr = s1_workup
        traj = s1_trajectory
        psi = propagate_state(hamiltonian_fn(s), basis_state(1, s.dim), s.grid,
                              guard=traj.guard)
        avn = analytic_vs_numeric(s, lr, traj, psi)
        assert 0.0313 < avn.terminal < 0.0316
        assert avn.max > avn.terminal  # interior deviation is first order


@pytest.mark.parametrize("stride", [0, -1])
@pytest.mark.parametrize("entry", ["scenario_workup", "quasi_hermiticity_residuals"])
def test_a_stride_below_one_is_refused(entry, stride):
    s, _ = validated_scenario(tiny_scenario(dim=8, grid=TimeGrid(0.0, 0.5, 80)))
    args = {"scenario_workup": (s,),
            "quasi_hermiticity_residuals": (workup_trajectory(s), hamiltonian_fn(s))}[entry]
    with pytest.raises(ValueError, match=rf"^stride must be >= 1, got {stride}$"):
        getattr(diagnostics, entry)(*args, stride=stride)


def test_empty_series_are_skipped_not_passed():
    # one step leaves no interior point for the flow-identity stencil
    report, _, _ = scenario_workup(tiny_scenario(dim=8, grid=TimeGrid(0.0, 1e-4, 1)))
    for name in ("r2", "r7"):
        assert report.series[name].samples.size == 0
        outcome = report.outcome(name)
        assert outcome.passed is None
        assert "no samples" in outcome.note
    assert report.outcome("metric_constancy").passed is True

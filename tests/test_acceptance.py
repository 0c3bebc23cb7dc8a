"""Acceptance checks: one test per contract criterion, one verdict line each.

Runs against the bundled scenarios at desk scale.  Session fixtures supply
the five standard workups; the two module fixtures add the step-halving
reruns and the drive-strength sweep, which no other module needs.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from dysonmap import (
    CoefficientSpec,
    FockOperator,
    TimeGrid,
    analytic_vs_numeric,
    basis_state,
    counterpart_energy,
    diagnostics,
    hamiltonian_fn,
    initial_map,
    low_block,
    lr_pipeline,
    propagate_dyson,
    propagate_state,
    pt_analysis,
    quasi_hermiticity_residuals,
    validated_scenario,
)
from dysonmap.fock_algebra import _exact_displacements
from dysonmap.model_oscillator import quadrature_frame, quadratures

from conftest import closed_form_counterpart, ladder_generator, load_bundled, rebuild

SWEEP_KAPPAS = (0.1, 0.05, 0.025)


def _line(n, ok, label, detail):
    print(f"criterion {n:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def _rel_block(diff, ref, guard):
    num = np.linalg.norm(low_block(diff, guard))
    den = np.linalg.norm(low_block(ref, guard))
    return float(num / den) if den > 0 else float(num)


@pytest.fixture(scope="module")
def r2_halving(s1_workup, s2_workup):
    """Max flow-identity residual after one true step halving, per scenario."""
    out = {}
    for name, workup in (("s1", s1_workup), ("s2", s2_workup)):
        report, s, _ = workup
        fine = rebuild(s, grid=TimeGrid(s.grid.t0, s.grid.t1, 2 * s.grid.steps))
        H = hamiltonian_fn(fine)
        eta0 = initial_map(fine, complex(fine.gamma0), complex(fine.lambda0))
        traj = propagate_dyson(H, eta0, fine.grid, guard=fine.guard)
        r2_fine, _ = quasi_hermiticity_residuals(traj, H)
        out[name] = (report.series["r2"].max, r2_fine.max)
        del traj
    return out


@pytest.fixture(scope="module")
def kappa_sweep(s1_workup, s1_trajectory):
    """(scenario, lr, trajectory) for each drive strength in the sweep."""
    _, s1_run, lr1 = s1_workup
    points = {0.1: (s1_run, lr1, s1_trajectory)}
    for kappa in SWEEP_KAPPAS[1:]:
        s_run, _ = validated_scenario(rebuild(load_bundled("s1"), kappa=kappa))
        H = hamiltonian_fn(s_run)
        eta0 = initial_map(s_run, complex(s_run.gamma0), complex(s_run.lambda0))
        traj = propagate_dyson(H, eta0, s_run.grid, guard=s_run.guard)
        points[kappa] = (s_run, lr_pipeline(s_run), traj)
    return points


def test_criterion_01_metric_constancy(s1_workup, s2_workup):
    good = s1_workup[0].series["metric_constancy"].max
    bad = s2_workup[0].series["metric_constancy"].max
    ok = good <= 1e-6 and bad > 1e-3
    assert _line(1, ok, "metric constancy", f"s1 max {good:.3e} <= 1e-06, s2 max {bad:.3e} > 1e-03")


def test_criterion_02_flow_identity_decay(r2_halving):
    details = []
    ok = True
    for name in ("s1", "s2"):
        coarse, fine = r2_halving[name]
        ratio = coarse / fine
        order = math.log2(ratio)
        ok = ok and ratio >= 4.0
        details.append(f"{name} {coarse:.3e}->{fine:.3e} measured order {order:.2f}")
    assert _line(2, ok, "flow-identity residual halving", "; ".join(details))


def test_criterion_03_fixed_metric_unitarity(s1_workup):
    dev = s1_workup[0].series["equivalence_fixed_metric"].max
    ok = dev <= 1e-6
    assert _line(3, ok, "fixed-metric pairing constant", f"max drift {dev:.3e} <= 1e-06")


def _counterparts(traj, H, chunk=256):
    """(grid indices, h = 2 eta H eta^-1) at every held sample, a chunk of samples at a time.

    Plain numpy: h^T = 2 eta^-T (eta H)^T by one stacked solve per chunk,
    with H(t) dense.
    """
    for lo in range(0, len(traj.ks), chunk):
        ks, es = traj.ks[lo : lo + chunk], traj.etas[lo : lo + chunk]
        eh = es @ np.stack([H(t).mat for t in traj.grid.points[ks]])
        half = np.linalg.solve(np.swapaxes(es, 1, 2), np.swapaxes(eh, 1, 2))
        yield ks, 2.0 * np.swapaxes(half, 1, 2)


def test_criterion_04_counterpart_similarity(kappa_sweep):
    # on these constant-metric runs h is Hermitian and equals the closed
    # form exactly, so both misses sit at rounding level times cond(eta)
    # (about 30), far below the envelope max(1e-6, C kappa^2)
    ok = True
    coeffs = []
    details = []
    bound = 1e-12
    for kappa in SWEEP_KAPPAS:
        s, lr, traj = kappa_sweep[kappa]
        band = s.dim - s.guard
        herm = match = 0.0
        for ks, hs in _counterparts(traj, hamiltonian_fn(s)):
            blocks = hs[:, :band, :band]
            skew = np.linalg.norm(blocks - np.conj(np.swapaxes(blocks, 1, 2)), axis=(1, 2))
            herm = max(herm, float(np.max(skew / np.linalg.norm(blocks, axis=(1, 2)))))
            for k, h in zip(ks, hs):
                if k % 400 == 0:
                    closed = closed_form_counterpart(s, lr, k)
                    match = max(match, _rel_block(h - closed, closed, s.guard))
        ok = ok and herm <= bound and match <= bound
        coeffs.append(herm / kappa**2)
        details.append(f"kappa={kappa}: herm {herm:.2e}, closed-form match {match:.2e} <= {bound:.0e}")
    details.append(f"C = max(herm/kappa^2) = {max(coeffs):.2e}")
    assert _line(4, ok, "Hermitian counterpart", "; ".join(details))


def test_criterion_05_closed_form_pipeline(kappa_sweep, s1_workup):
    ok = True
    cs = []
    worst = 0.0
    for kappa in SWEEP_KAPPAS:
        s, lr, traj = kappa_sweep[kappa]
        bound = max(1e-6, diagnostics.ENVELOPE_COEFF * kappa**2)
        for m in (0, 1, 2):
            psi = propagate_state(hamiltonian_fn(s), basis_state(m, s.dim), s.grid,
                                  guard=traj.guard)
            term = analytic_vs_numeric(s, lr, traj, psi).terminal
            ok = ok and term <= bound
            worst = max(worst, term / bound)
            cs.append(term / kappa**2)
    stable = max(cs) / min(cs) <= 1.05
    ok = ok and stable

    _, s1, lr1 = s1_workup
    u_err = float(np.max(np.abs(lr1.u - (-0.1j))))
    # f = [|u|^2 - kappa^2 alpha beta]/omega = 0.01 + 0.01
    f_err = float(np.max(np.abs(lr1.f - 0.02)))
    theta_closed = -0.05j * (1.0 - np.exp(-2j * s1.grid.points))
    th_err = float(np.max(np.abs(lr1.theta - theta_closed)))
    hand = max(u_err, f_err, th_err)
    ok = ok and hand <= 1e-8
    assert _line(
        5,
        ok,
        "analytic evolution",
        f"worst terminal/bound {worst:.3f}, coefficient spread {max(cs) / min(cs):.4f},"
        f" hand forms (u, f, theta) max err {hand:.2e} <= 1e-08",
    )


def _quadrature_discrepancies(s, lr, traj, k):
    """Guard-block relative misses of the closed-form X1, X2 against eta^-1 x_l eta at index k."""
    chi, shift1, shift2 = quadrature_frame(s, lr, k)
    x1, x2 = (q.mat for q in quadratures(s.dim))
    eye = np.eye(s.dim)
    closed = (np.cos(chi) * x1 - np.sin(chi) * x2 + shift1 * eye,
              np.sin(chi) * x1 + np.cos(chi) * x2 + shift2 * eye)
    e = traj.at(k)
    direct = [np.linalg.solve(e, x @ e) for x in (x1, x2)]
    return [_rel_block(X - d, d, s.guard) for X, d in zip(closed, direct)]


def test_criterion_06_observables(kappa_sweep, s1_workup):
    ok = True
    details = []
    for kappa in SWEEP_KAPPAS:
        s, lr, traj = kappa_sweep[kappa]
        bound = max(1e-6, diagnostics.ENVELOPE_COEFF * kappa**2)
        d = max(_quadrature_discrepancies(s, lr, traj, s.grid.steps))
        ok = ok and d <= bound
        details.append(f"kappa={kappa}: X discrepancy {d:.2e} <= {bound:.2e}")
    route = s1_workup[0].series["equivalence_observable"].max
    bound1 = max(1e-6, diagnostics.ENVELOPE_COEFF * 0.1**2)
    ok = ok and route <= bound1
    details.append(f"expectation pairing {route:.2e} <= {bound1:.2e}")
    assert _line(6, ok, "quadrature observables", "; ".join(details))


def test_criterion_07_eigensystem(kappa_sweep):
    # zeta_m = D[-xi*]|m> (column m of the exact displacement) and E_m =
    # 2 omega m - 2 kappa^2 alpha beta / omega are an exact eigenpair of the
    # closed-form h, so the residual is bounded at rounding level, far below
    # the cubic envelope C kappa^3
    ok = True
    details = []
    bound = 1e-12
    for kappa in SWEEP_KAPPAS:
        s, lr, _ = kappa_sweep[kappa]
        k = s.grid.steps // 4
        t = float(s.grid.points[k])
        h = closed_form_counterpart(s, lr, k)
        zetas = _exact_displacements(-np.conj(lr.xi[[k]]), s.dim, [0, 1, 2])[0]
        energies = counterpart_energy(s, [0, 1, 2], t)
        res = max(float(np.linalg.norm(h @ z - e * z) / np.linalg.norm(z))
                  for z, e in zip(zetas.T, energies))
        ok = ok and res <= bound
        details.append(f"kappa={kappa}: residual {res:.2e} <= {bound:.0e}")
    s1 = kappa_sweep[0.1][0]
    e0, e1 = counterpart_energy(s1, [0, 1], float(s1.grid.points[s1.grid.steps // 4]))
    e_err = max(abs(e0 - 0.02), abs(e1 - 2.02))
    ok = ok and e_err < 1e-12
    details.append(f"E0/E1 defect {e_err:.1e}")
    assert _line(7, ok, "isospectral eigensystem", "; ".join(details))


def test_criterion_08_phase_boundary():
    base = load_bundled("s1")
    phis = np.linspace(0.0, np.pi, 41)
    labels = []
    worst = 0.0
    for phi in phis:
        s_phi = rebuild(base, alpha=CoefficientSpec.constant(np.exp(1j * phi)))
        pt = pt_analysis(s_phi)
        labels.append(pt.label)
        expect = 2.0 * base.kappa**2 * abs(math.cos(phi))
        worst = max(worst, abs(max(pt.im_energy_max) - expect))
    unbroken = [i for i, lab in enumerate(labels) if lab == "UNBROKEN"]
    ok = unbroken == [20] and worst <= 1e-10
    assert _line(
        8,
        ok,
        "phase boundary",
        f"unbroken only at phi=pi/2 ({unbroken == [20]}), imag-energy law defect {worst:.2e} <= 1e-10",
    )


def test_criterion_09_time_independent_recovery(time_independent_workup,
                                                time_independent_trajectory):
    _, s, _ = time_independent_workup
    traj = time_independent_trajectory
    hmat = hamiltonian_fn(s)(0.0).mat
    eta0 = traj.etas[0]
    h0 = 2.0 * eta0 @ hmat @ np.linalg.solve(eta0, np.eye(s.dim))
    eta_dev = 0.0
    h_dev = 0.0
    for k in range(0, s.grid.steps + 1, 500):
        t = float(s.grid.points[k])
        closed = eta0 @ scipy.linalg.expm(-1j * t * hmat)
        eta_dev = max(eta_dev, _rel_block(traj.etas[k] - closed, closed, s.guard))
        hk = 2.0 * traj.etas[k] @ hmat @ np.linalg.solve(traj.etas[k], np.eye(s.dim))
        h_dev = max(h_dev, _rel_block(hk - h0, h0, s.guard))
    ok = eta_dev <= 1e-7 and h_dev <= 1e-8
    assert _line(
        9,
        ok,
        "time-independent limit",
        f"exponential recovery {eta_dev:.3e} <= 1e-07, counterpart drift {h_dev:.3e} <= 1e-08",
    )


def test_criterion_10_unitary_transform():
    dim = 16
    Hh = ladder_generator(dim, lambda t: 1.0 + 0.25 * np.sin(t), 0.3, 0.3)
    grid = TimeGrid(0.0, 2 * np.pi, 4000)
    # the map flow of a Hermitian generator from the identity is the unitary one
    traj = propagate_dyson(Hh, FockOperator(np.eye(dim)), grid, guard=4)
    dev = max(
        float(np.linalg.norm(u @ u.conj().T - np.eye(dim))) for u in traj.etas[::50]
    )
    ok = dev <= 1e-7
    assert _line(10, ok, "unitary transform", f"max unitarity defect {dev:.3e} <= 1e-07")

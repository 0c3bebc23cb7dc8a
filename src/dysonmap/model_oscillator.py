"""Driven-oscillator model: H(t) = omega(t) a†a + kappa [alpha(t) a + beta(t) a†].

Everything specific to this model lives here: closed-form coefficient
functions, derivation and validation of the initial-map parameters, the
drive functions entering the Hermitian counterpart, the displaced-number
solution pipeline (theta, phases, evolution operators), the frame of the
closed-form quadratures, the counterpart spectrum, and the PT-symmetry
analysis.

Conventions fixed here and relied on everywhere else:

* initial map ansatz eta(t0) = exp[gamma0 a + lambda0 a†], lambda0 = 0 by
  default; the constant-metric constraint fixes gamma0 + lambda0* =
  kappa [beta* - alpha]/omega (see derive_initial_map_params);
* the level spacing of the Hermitian counterpart is 2 omega, so rotation
  phases enter doubled and the phase integrand uses 2 omega m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    ExponentialRangeError,
    InvalidDimensionError,
    ScenarioInvalidError,
    SingularityError,
)
from .fock_algebra import (
    DEFAULT_GUARD,
    FockOperator,
    _exact_displacements,
    _normal_ordered,
    ladder_operators,
    low_block,
    number_operator,
)
from .propagation import GeneratorFn, TimeGrid, sample_chunks

_FORMS = ("constant", "polynomial", "sinusoid", "exp_ramp")
_REAL_TOL = 1e-10          # reality/symmetry checks on sampled coefficients
_INTERTWINING_RTOL = 1e-8  # check (v), the authoritative residual
_OMEGA_FLOOR = 1e-12       # |omega| below this counts as a division singularity
_SYMMETRY_SAMPLES = 513    # points of the symmetric window [-T, T] in pt_symmetry


@dataclass(frozen=True)
class CoefficientSpec:
    """Closed-form complex coefficient function of real time.

    Forms: constant c; polynomial sum c_p t^p; sinusoid a cos(nu t) +
    b sin(nu t) + c; exp_ramp c e^(sigma t).  Evaluation and antiderivative
    are exact, so cumulative phases built from these never depend on the
    grid.
    """

    form: str
    c: complex = 0j
    coeffs: tuple[complex, ...] = ()
    a: complex = 0j
    b: complex = 0j
    nu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValueError(f"unknown coefficient form {self.form!r}; pick from {_FORMS}")
        if self.form == "polynomial" and not self.coeffs:
            raise ValueError("polynomial form needs at least one coefficient")
        for name in ("c", "a", "b"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient parameter {name} must be finite")
        for name in ("nu", "sigma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"coefficient parameter {name} must be real and finite")
        if any(not np.isfinite(cp) for cp in self.coeffs):
            raise ValueError("polynomial coefficients must be finite")

    @classmethod
    def constant(cls, c: complex) -> "CoefficientSpec":
        return cls(form="constant", c=complex(c))

    @classmethod
    def polynomial(cls, *coeffs: complex) -> "CoefficientSpec":
        return cls(form="polynomial", coeffs=tuple(complex(x) for x in coeffs))

    @classmethod
    def sinusoid(cls, a: complex, b: complex, nu: float, c: complex = 0j) -> "CoefficientSpec":
        return cls(form="sinusoid", a=complex(a), b=complex(b), nu=float(nu), c=complex(c))

    @classmethod
    def exp_ramp(cls, c: complex, sigma: float) -> "CoefficientSpec":
        return cls(form="exp_ramp", c=complex(c), sigma=float(sigma))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.form == "constant":
            return np.full(t.shape, self.c) if t.shape else self.c
        if self.form == "polynomial":
            out = np.zeros_like(t, dtype=complex)
            for p, cp in enumerate(self.coeffs):
                out = out + cp * t**p
            return out if t.shape else complex(out)
        if self.form == "sinusoid":
            out = self.a * np.cos(self.nu * t) + self.b * np.sin(self.nu * t) + self.c
            return out if t.shape else complex(out)
        out = self.c * np.exp(self.sigma * t)
        return out if t.shape else complex(out)

    def integral(self, t, t0: float):
        """Exact antiderivative evaluated as F(t) - F(t0)."""
        t = np.asarray(t, dtype=float)
        if self.form == "constant":
            out = self.c * (t - t0)
        elif self.form == "polynomial":
            out = np.zeros_like(t, dtype=complex)
            for p, cp in enumerate(self.coeffs):
                out = out + cp * (t ** (p + 1) - t0 ** (p + 1)) / (p + 1)
        elif self.form == "sinusoid":
            if self.nu == 0.0:
                out = (self.a + self.c) * (t - t0)
            else:
                out = (
                    (self.a / self.nu) * (np.sin(self.nu * t) - np.sin(self.nu * t0))
                    - (self.b / self.nu) * (np.cos(self.nu * t) - np.cos(self.nu * t0))
                    + self.c * (t - t0)
                )
        else:
            if self.sigma == 0.0:
                out = self.c * (t - t0)
            else:
                out = (self.c / self.sigma) * (np.exp(self.sigma * t) - np.exp(self.sigma * t0))
        return out if t.shape else complex(out)


@dataclass(frozen=True)
class Scenario:
    """One fully specified run of the driven-oscillator model."""

    omega: CoefficientSpec
    alpha: CoefficientSpec
    beta: CoefficientSpec
    kappa: float
    grid: TimeGrid
    dim: int = 32
    guard: int = DEFAULT_GUARD
    gamma0: complex | None = None
    lambda0: complex = 0j
    theta0: complex = 0j
    name: str = ""
    validated: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be >= 0 and finite, got {self.kappa}")
        if self.dim < 2:
            raise InvalidDimensionError(f"dim must be >= 2, got {self.dim}")
        if not 0 <= self.guard < self.dim:
            raise InvalidDimensionError(
                f"guard band {self.guard} incompatible with dim {self.dim}"
            )


@dataclass(frozen=True, eq=False)
class LRQuantities:
    """Sampled closed-form quantities of the displaced-number solution.

    Built whole by lr_pipeline; every array holds one sample per point of
    `grid` and is read-only.
    """

    grid: TimeGrid
    chi: np.ndarray
    alpha_tilde: np.ndarray
    beta_tilde: np.ndarray
    u: np.ndarray
    f: np.ndarray
    xi: np.ndarray
    theta: np.ndarray
    phase_base: np.ndarray
    upsilon: np.ndarray

    def __post_init__(self):
        for f in fields(self)[1:]:
            getattr(self, f.name).flags.writeable = False


@dataclass(frozen=True)
class CheckOutcome:
    """Pass/fail of one named check; passed is None when skipped."""

    name: str
    passed: bool | None
    value: float
    tolerance: float | None
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the initial-map constraint checks (i)-(v), keyed "i".."v"."""

    checks: dict[str, CheckOutcome]
    gamma0: complex
    lambda0: complex

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failed_names(self) -> tuple[str, ...]:
        return tuple(k for k, c in self.checks.items() if not c.passed)


def hamiltonian_fn(s: Scenario) -> GeneratorFn:
    """The model Hamiltonian as a generator for the propagation module.

    Its ladder bands are (omega, kappa alpha, kappa beta).
    """

    def bands(ts):
        return (
            np.asarray(s.omega(ts)),
            s.kappa * np.asarray(s.alpha(ts)),
            s.kappa * np.asarray(s.beta(ts)),
        )

    return GeneratorFn(dim=s.dim, bands=bands)


def initial_map(s: Scenario, gamma0: complex, lambda0: complex) -> FockOperator:
    """eta(t0) = exp[gamma0 a + lambda0 a†] = e^{gamma0 lambda0/2} e^{lambda0 a†} e^{gamma0 a}.

    The normal-ordered product is the exact block of the infinite-space
    operator; with lambda0 = 0 it is the finite Taylor sum of the
    nilpotent gamma0 a.  Raises ExponentialRangeError when it overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the typed error below reports it
        eta0 = np.exp(gamma0 * lambda0 / 2.0) * _normal_ordered([lambda0], [gamma0], s.dim)[0]
    if not np.all(np.isfinite(eta0)):
        raise ExponentialRangeError(
            f"eta0 = exp[gamma0 a + lambda0 a†] with gamma0 = {gamma0:.3e}, "
            f"lambda0 = {lambda0:.3e} overflows"
        )
    return FockOperator(eta0)


def _intertwining_residual(
    s: Scenario, gamma0: complex, lambda0: complex
) -> tuple[float, float]:
    """max over grid samples of ||H†rho0 - rho0 H|| and of the rhs scale.

    Guard-excluded Frobenius on both; the truncation corner otherwise
    injects an O(1) artifact unrelated to the constraint being tested.
    With H = omega a†a + kappa alpha a + kappa beta a† and rho0 fixed, both
    sides are combinations of three fixed guard blocks each, weighted per
    sample by the band coefficients, and combined by broadcast
    multiply-adds: as a (chunk, 3) @ (3, k^2) product, BLAS would hand the
    few microseconds of work to its threads, at a cost of milliseconds.
    The coefficients are scaled by 2^-e, with max |coeff| < 2^e, before the
    norms square anything, and the results by 2^e after: powers of two
    scale exactly, so num <= tol den decides as on the scaled pair unless
    a result leaves the floating-point range.
    """
    eta0 = initial_map(s, gamma0, lambda0)
    rho0 = (eta0.dagger() @ eta0).mat
    a, ad = ladder_operators(s.dim)
    ops = (number_operator(s.dim).mat, a.mat, ad.mat)
    right = np.stack([low_block(rho0 @ op, s.guard).ravel() for op in ops])
    left = np.stack([low_block(op.conj().T @ rho0, s.guard).ravel() for op in ops])
    table = np.array(hamiltonian_fn(s).bands(s.grid.points), dtype=complex)
    e = int(np.frexp(np.max(np.abs(table)))[1])
    coeffs = np.ldexp(table.view(float), -e).view(complex).T
    # each distinct coefficient triple is evaluated once and scattered back
    # to its samples, so the argmax breaks ties in grid order
    distinct, inverse = np.unique(coeffs, axis=0, return_inverse=True)
    num = np.empty(distinct.shape[0])
    den = np.empty(distinct.shape[0])

    def combined(c, blocks):
        return c[:, 0, None] * blocks[0] + c[:, 1, None] * blocks[1] + c[:, 2, None] * blocks[2]

    for sl in sample_chunks(distinct.shape[0]):
        rho_h = combined(distinct[sl], right)
        num[sl] = np.linalg.norm(combined(np.conj(distinct[sl]), left) - rho_h, axis=1)
        den[sl] = np.linalg.norm(rho_h, axis=1)
    num, den = num[inverse], den[inverse]
    worst = int(np.argmax(num))
    return float(np.ldexp(num[worst], e)), float(np.ldexp(den[worst], e))


def derive_initial_map_params(
    s: Scenario,
) -> tuple[complex, complex, ValidationReport]:
    """Fix (gamma0, lambda0) and validate the constant-metric constraints.

    For eta0 = exp[gamma0 a + lambda0 a†], rho0 = eta0† eta0 is a positive
    multiple of exp[c* a†] exp[c a] with c = gamma0 + lambda0*, and
    rho0 H rho0^-1 = H† holds exactly when omega and alpha beta are real
    and c = kappa [beta* - alpha]/omega.  An unset gamma0 is derived from
    that at t0.  Checks sampled on the grid: (i) omega real, (ii) alpha
    beta real, (iii) kappa [beta* - alpha]/omega time-independent, (iv)
    [gamma0* + lambda0] alpha real, (v) the intertwining residual
    ||H† rho0 - rho0 H|| <= 1e-8 ||rho0 H||, which is authoritative.
    Raises ScenarioInvalidError listing the failed checks.
    """
    ts = s.grid.points
    om = np.asarray(s.omega(ts))
    al = np.asarray(s.alpha(ts))
    be = np.asarray(s.beta(ts))

    if np.min(np.abs(om)) < _OMEGA_FLOOR:
        raise SingularityError("omega(t) vanishes on the grid; constraint undefined")

    lambda0 = complex(s.lambda0)
    ratio = s.kappa * (np.conj(be) - al) / om
    # gamma0* = c* - lambda0, which keeps the signed zeros of c when lambda0 = 0
    gamma0 = (
        complex(s.gamma0) if s.gamma0 is not None
        else (complex(ratio[0]).conjugate() - lambda0).conjugate()
    )

    checks: dict[str, CheckOutcome] = {}
    v = float(np.max(np.abs(om.imag)))
    checks["i"] = CheckOutcome("(i)", v <= _REAL_TOL, v, None, "omega(t) real")
    v = float(np.max(np.abs((al * be).imag)))
    checks["ii"] = CheckOutcome("(ii)", v <= _REAL_TOL, v, None, "alpha(t) beta(t) real")
    v = float(np.max(np.abs(ratio - ratio[0])))
    checks["iii"] = CheckOutcome(
        "(iii)", v <= _REAL_TOL, v, None, "kappa [beta* - alpha]/omega time-independent"
    )
    v = float(np.max(np.abs(((np.conj(gamma0) + lambda0) * al).imag)))
    checks["iv"] = CheckOutcome("(iv)", v <= _REAL_TOL, v, None, "[gamma0* + lambda0] alpha(t) real")
    num, den = _intertwining_residual(s, gamma0, lambda0)
    # a residual that overflowed was not evaluated, so it cannot pass
    passed = (math.isfinite(num) and math.isfinite(den)
              and num <= _INTERTWINING_RTOL * max(den, 1e-300))
    checks["v"] = CheckOutcome(
        "(v)", passed, num, None, "||H† rho0 - rho0 H|| intertwining residual"
    )

    report = ValidationReport(checks=checks, gamma0=gamma0, lambda0=lambda0)
    if not report.passed:
        raise ScenarioInvalidError(
            "scenario violates constant-metric constraints: "
            + ", ".join(f"({k})" for k in report.failed_names()),
            failed_checks=report.failed_names(),
            report=report,
        )
    return gamma0, lambda0, report


def validated_scenario(s: Scenario) -> tuple[Scenario, ValidationReport]:
    """Convenience: derive parameters and stamp the scenario validated."""
    g0, l0, report = derive_initial_map_params(s)
    return replace(s, gamma0=g0, lambda0=l0, validated=True), report


def _require_validated(s: Scenario):
    if not s.validated or s.gamma0 is None:
        raise ScenarioInvalidError(
            "operation needs a validated scenario; run derive_initial_map_params",
            failed_checks=("not_validated",),
        )


def lr_phase(s: Scenario, lr: LRQuantities, m: int) -> np.ndarray:
    """Phase Phi_m(t) = -int [2 omega m + f + Re(u theta)].

    The m-dependent part integrates exactly to -2 m chi, which keeps the
    m-linearity identity Phi_m - Phi_0 + 2 m chi = 0 exact by construction;
    the rest is composite Simpson of the sampled integrand.
    """
    if not 0 <= m < s.dim - s.guard:
        raise InvalidDimensionError(
            f"phase index m={m} inside the guard band of dim {s.dim}"
        )
    return -(lr.phase_base + 2.0 * m * lr.chi)


@dataclass(frozen=True)
class AnalyticEvolution:
    """Evolution operators assembled from the closed-form pipeline.

    V(t_k) = upsilon(t_k) D[theta(t_k)] R[chi(t_k)]; U(t_k) = V(t_k) V(t0)†.
    With theta0 = 0 (the default) V(t0) is the identity and U = V.  D is
    the exact block of the infinite-space displacement, by normal ordering.
    """

    scenario: Scenario
    lr: LRQuantities

    def Vs(self, ks) -> np.ndarray:
        """Stack of V(t_k), one (dim, dim) matrix per grid index in ks.

        R[chi] is diagonal, so D[theta] R[chi] scales D's columns.
        """
        s, lr = self.scenario, self.lr
        ks = np.asarray(ks)
        phases = np.exp(-2j * lr.chi[ks][:, None] * np.arange(s.dim))
        return lr.upsilon[ks][:, None, None] * (_exact_displacements(lr.theta[ks], s.dim)
                                                * phases[:, None, :])

    def Us(self, ks) -> np.ndarray:
        """Stack of U(t_k) = V(t_k) V(t0)† for the grid indices in ks."""
        s = self.scenario
        vs = self.Vs(ks)
        if s.theta0 == 0:
            return vs
        return vs @ _exact_displacements([s.theta0], s.dim)[0].conj().T


def quadratures(dim: int) -> tuple[FockOperator, FockOperator]:
    """x1 = (a† + a)/2 and x2 = (a† - a)/2i."""
    a, ad = ladder_operators(dim)
    return (
        FockOperator((ad.mat + a.mat) / 2.0),
        FockOperator((ad.mat - a.mat) / 2j),
    )


def quadrature_frame(s: Scenario, lr: LRQuantities, k):
    """(chi, shift1, shift2) of the closed-form quadratures at grid index k.

    X1 = cos chi x1 - sin chi x2 + shift1 and X2 = sin chi x1 + cos chi x2
    + shift2; k may be an array of indices.
    """
    at, bt = lr.alpha_tilde[k], lr.beta_tilde[k]
    g0, l0 = complex(s.gamma0), complex(s.lambda0)
    shift1 = 0.5 * (1j * s.kappa * (at - bt) - g0 + l0)
    shift2 = 0.5 * (s.kappa * (at + bt) + 1j * (g0 + l0))
    return lr.chi[k], shift1, shift2


def _level_energies(kappa: float, om, al, be, m):
    """E_m = 2 omega m - 2 kappa^2 alpha beta / omega from sampled coefficients.

    This is the exact spectrum of 2H, not a truncated expansion in kappa:
    the drive term is removed by one displacement, which shifts every
    level by the same -2 kappa^2 alpha beta / omega.  m is one level or a
    1-d array of levels; an array adds a trailing level axis.  The levels
    are evaluated along a leading axis, so the arithmetic runs over whole
    sample rows, and returned as a view with that axis moved last.
    """
    if np.min(np.abs(om)) < _OMEGA_FLOOR:
        raise SingularityError("omega(t) vanishes; eigenvalue formula divides by it")
    shift = 2.0 * kappa**2 * al * be / om
    if np.ndim(m):
        levels = np.reshape(m, (-1,) + (1,) * np.ndim(om))
        return np.moveaxis(2.0 * om * levels - shift, 0, -1)
    return 2.0 * om * m - shift


def counterpart_energy(s: Scenario, m, t) -> np.ndarray | complex:
    """E_m(t) by direct formula; needs no pipeline, works on arrays of t.

    A sequence of levels m returns E with a trailing level axis.
    """
    val = _level_energies(
        s.kappa, np.asarray(s.omega(t)), np.asarray(s.alpha(t)), np.asarray(s.beta(t)), m
    )
    return val if val.shape else complex(val)


@dataclass(frozen=True)
class PTReport:
    """Phase label and spectral-reality evidence."""

    label: str
    im_energy_max: tuple[float, ...]
    boundary_quantity: float


def pt_symmetry(s: Scenario) -> dict[str, tuple[bool, float]]:
    """PT symmetry flags (holds, max deviation) of the coefficient functions.

    Samples omega*(-t) = omega(t) and alpha*(-t) = -alpha(t) (likewise
    beta) on a symmetric window [-T, T] covering the scenario grid.
    """
    big_t = max(abs(s.grid.t0), abs(s.grid.t1))
    ts_sym = np.linspace(-big_t, big_t, _SYMMETRY_SAMPLES)
    symmetry: dict[str, tuple[bool, float]] = {}
    v = float(np.max(np.abs(np.conj(np.asarray(s.omega(-ts_sym))) - np.asarray(s.omega(ts_sym)))))
    symmetry["omega_conjugate_even"] = (v <= _REAL_TOL, v)
    for label, fn in (("alpha_conjugate_odd", s.alpha), ("beta_conjugate_odd", s.beta)):
        v = float(np.max(np.abs(np.conj(np.asarray(fn(-ts_sym))) + np.asarray(fn(ts_sym)))))
        symmetry[label] = (v <= _REAL_TOL, v)
    return symmetry


def pt_analysis(s: Scenario) -> PTReport:
    """Classify the PT phase of a scenario.

    The phase label is UNBROKEN exactly when omega(t) and alpha(t) beta(t)
    stay real on the scenario grid, which is the condition for the
    counterpart spectrum to stay real; the evidence column reports
    max_t |Im E_m| for m = 0..3.  Each coefficient is sampled once per
    call, at every (steps // 1024)-th grid point and the last; the
    symmetry flags are pt_symmetry's.
    """
    samples = s.grid.points[s.grid.strided(max(1, s.grid.steps // 1024))]
    om = np.asarray(s.omega(samples))
    al = np.asarray(s.alpha(samples))
    be = np.asarray(s.beta(samples))
    boundary = float(np.max(np.abs((al * be).imag)))
    unbroken = float(np.max(np.abs(om.imag))) <= _REAL_TOL and boundary <= _REAL_TOL
    energy = _level_energies(s.kappa, om, al, be, np.arange(4))
    return PTReport(
        label="UNBROKEN" if unbroken else "BROKEN",
        im_energy_max=tuple(float(v) for v in np.max(np.abs(energy.imag), axis=0)),
        boundary_quantity=boundary,
    )


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative composite Simpson of equally spaced samples y, from 0 at y[0].

    scipy.integrate.cumulative_simpson(y, dx=dx, initial=0.0) for 1-d y,
    bit for bit: each interval gets the three-point rule over the pair it
    starts (h1) or, on every second interval and the last, over the pair
    it ends (h2); fewer than 3 samples fall back to the trapezoid rule.
    It spares lr_pipeline the import of scipy.integrate, about 0.2 s.
    """
    if y.size < 3:
        res = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)
    else:
        def h1(f):
            return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

        first, second = h1(y), h1(y[::-1])[::-1]
        sub = np.empty(y.size - 1, dtype=np.result_type(y, dx))
        sub[:-1:2] = first[::2]
        sub[1::2] = second[::2]
        sub[-1] = second[-1]
        res = np.cumsum(sub)
    res += 0.0  # as scipy adds `initial`, which turns a -0.0 sum into +0.0
    return np.concatenate((np.zeros(1, dtype=res.dtype), res))


def lr_pipeline(s: Scenario) -> LRQuantities:
    """The displaced-number solution on the scenario grid, built whole.

    omega, alpha and beta are sampled once on the doubled grid t0 + j dt/2.
    chi comes from the exact antiderivative of omega (all coefficient forms
    have one); every other integral is composite Simpson on the doubled
    grid, in _cumulative_simpson's numpy port of scipy's rule.  Then

        u = omega [gamma0 - i kappa alpha_tilde] + kappa alpha e^{i chi},
        f = [|u|^2 - kappa^2 alpha beta]/omega,
        xi = u/omega,  i theta' = 2 omega theta + u*,

    with theta the exact solution of its linear equation,
    theta = e^{-2i chi} [theta0 - i int u* e^{2i chi}], so no stepper is
    involved, and the phase base int [f + Re(u theta)] with upsilon =
    exp(-i phase base).  f keeps the whole kappa^2 alpha beta term, so
    2 omega m + 2 f - 2|u|^2/omega is the exact level E_m of
    counterpart_energy.  Raises ExponentialRangeError when D(theta)
    overflows at the largest |theta|, where it overflows first: the entries
    of its normal-ordered factors grow with |theta|.
    """
    _require_validated(s)
    grid = s.grid
    ts = np.linspace(grid.t0, grid.t1, 2 * grid.steps + 1)
    half_dt = grid.dt / 2.0

    chi_c = np.asarray(s.omega.integral(ts, grid.t0))
    if np.max(np.abs(chi_c.imag)) > _REAL_TOL:
        raise ScenarioInvalidError(
            "accumulated frequency phase has an imaginary part",
            failed_checks=("i",),
        )
    chi = chi_c.real
    om = np.asarray(s.omega(ts))
    al = np.asarray(s.alpha(ts))
    be = np.asarray(s.beta(ts))
    at = _cumulative_simpson(al * np.exp(1j * chi), half_dt)
    bt = _cumulative_simpson(be * np.exp(-1j * chi), half_dt)

    if np.min(np.abs(om)) < _OMEGA_FLOOR:
        raise SingularityError("omega(t) vanishes on the grid; drive functions divide by it")
    u = om * (complex(s.gamma0) - 1j * s.kappa * at) + s.kappa * al * np.exp(1j * chi)
    f = (np.abs(u) ** 2 - s.kappa**2 * al * be) / om

    source = _cumulative_simpson(np.conj(u) * np.exp(2j * chi), half_dt)[::2]
    with np.errstate(over="ignore", invalid="ignore"):  # the typed error below reports it
        # + 0j turns a -0.0 part into +0.0, so a zero theta prints as 0
        theta = np.exp(-2j * chi[::2]) * (complex(s.theta0) - 1j * source) + 0j
        worst = int(np.argmax(np.abs(theta)))  # or the first nan, which D refuses too
        displaced = _exact_displacements(theta[[worst]], s.dim)
    if not np.all(np.isfinite(displaced)):
        raise ExponentialRangeError(
            f"D(theta) with |theta| = {abs(theta[worst]):.3e} at "
            f"t = {grid.points[worst]:.6g} overflows"
        )
    u_grid, f_grid = u[::2].copy(), f[::2].real.copy()
    phase_base = _cumulative_simpson(f_grid + (u_grid * theta).real, grid.dt)
    return LRQuantities(
        grid=grid,
        chi=chi[::2].copy(),
        alpha_tilde=at[::2].copy(),
        beta_tilde=bt[::2].copy(),
        u=u_grid,
        f=f_grid,
        xi=u[::2] / om[::2],
        theta=theta,
        phase_base=phase_base,
        upsilon=np.exp(-1j * phase_base),
    )

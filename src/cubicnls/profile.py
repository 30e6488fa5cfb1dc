"""Large-time space-time profiles built from the amplitude flow.

The approximate solution at time t and position x is

    u_j(t, x) = (2 i t)^(-1/2) exp(i x^2 / (4 t)) A_j(sgn(t) log|t| / 2, x / (2 t))

where A solves the amplitude flow with final data (alpha1, alpha2) sampled
on a grid of the similarity variable xi = x / (2 t).  The generic pipeline
evaluates the flow through the closed forms plus reconstruction when the
parameters are catalogued, and through the sigma-reduction otherwise: the
planar orbit in closed form, time as a quadrature over it and the phase by
reconstruction's job builder, as in the catalogue (quadratic_flow._SigmaOrbit,
reconstruction._reconstruct_jobs).  A point the reduction declines raises its
ValueError in its turn, as any failing point does.  ``uapp`` takes a whole
x-grid at one t: one setup pass (solve_case's per-parameter work once, or
the grid's sigma orbits built together, quadratic_flow._sigma_orbits), one
refinement loop and one pass over the chart turns serve all its points, with
no array pass a point outside the catalogue's builders and the sigma scans,
and the same bits as one call per point.

Two specialized, fully explicit profile formulas are provided for the pure
p1 family (synchronizing) and the pure p3 family (elliptic), and the
synchronization observable sqrt(t) * sup |gamma1 u1 + gamma2 u2| measures
the collapse predicted by a successful synchronization detection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import elliptic as el
from .closed_form import UnsupportedCaseError, _solve_states
from .quadratic_flow import _check_sphere, _on_sphere, _quad, _sigma_orbits, amplitudes_to_quad
from .reconstruction import _phases, _reconstruct_jobs, _reconstructed

__all__ = [
    "ExtrapolationError",
    "FinalData",
    "case1_profile",
    "case3_profile",
    "sync_decay",
    "uapp",
]


class ExtrapolationError(ValueError):
    """Similarity variable outside the final-data grid."""


@dataclass(frozen=True)
class FinalData:
    """Final amplitude data on a grid of the similarity variable.

    Interpolation between nodes is complex-linear.
    """

    xi_grid: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi_grid, dtype=float)
        a1 = np.asarray(self.alpha1, dtype=complex)
        a2 = np.asarray(self.alpha2, dtype=complex)
        if xi.ndim != 1 or len(xi) < 2 or not (xi[1:] > xi[:-1]).all() or not np.isfinite(xi).all():
            raise ValueError("xi grid must be finite and strictly increasing with >= 2 nodes")
        if a1.shape != xi.shape or a2.shape != xi.shape:
            raise ValueError("alpha arrays must match the grid")
        if not (np.isfinite(a1).all() and np.isfinite(a2).all()):
            raise ValueError("alpha arrays must be finite")
        object.__setattr__(self, "xi_grid", xi)
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "alpha2", a2)

    def _inside(self, x) -> int:
        """How many leading elements of the 1-D array x lie on the grid (NaN does not)."""
        lo, hi = self.xi_grid[0].item(), self.xi_grid[-1].item()
        return next((k for k, v in enumerate(x.tolist()) if not lo <= v <= hi), len(x))

    def interp(self, xi):
        """(alpha1, alpha2) at xi: two complex numbers for a number xi, two
        complex arrays for a 1-D array, each element bit for bit its own
        call.  Raises ExtrapolationError for the first xi outside the grid."""
        grid, x = self.xi_grid, np.asarray(xi, dtype=float)
        if (k := self._inside(x.reshape(-1))) < x.size:
            raise ExtrapolationError(f"xi = {xi if x.ndim == 0 else x[k]} outside grid [{grid[0]}, {grid[-1]}]")
        a = np.empty((2, *x.shape), dtype=complex)
        a.real[0], a.imag[0], a.real[1], a.imag[1] = (
            np.interp(x, grid, v) for v in (self.alpha1.real, self.alpha1.imag, self.alpha2.real, self.alpha2.imag))
        return (complex(a[0]), complex(a[1])) if x.ndim == 0 else (a[0], a[1])

    def decay_constant(self) -> float:
        """Smallest C with |alpha1| + |alpha2| <= C (1 + xi^2)^-1 on the grid."""
        mag = np.abs(self.alpha1) + np.abs(self.alpha2)
        return float(np.max(mag * (1.0 + self.xi_grid**2)))


def _prefactor(t: float, x: float) -> complex:
    """exp(i x^2 / 4t) / sqrt(2 i t), with the phase x^2 / 4t formed as x xi / 2
    (xi = x / 2t), which does not overflow where x^2 does."""
    return cmath.exp(1j * (x * (x / (2.0 * t)) / 2.0)) / cmath.sqrt(2j * t)


def _flows(params, a0s, tau: float) -> list[tuple[complex, complex]]:
    """The amplitude pairs of the list a0s advanced by tau: closed form +
    reconstruction for catalogued parameters, else the sigma-reduction,
    whose declines (logged at debug level) fail their points.  One setup
    pass (solve_case's and reconstruct's per-grid work once, or all the
    sigma orbits built together, one time-rule loop for all), one sphere
    check, one phase-integral loop and one pass over the turns serve all
    points; the first failing point raises, after the points before it."""
    if tau == 0.0:
        return list(a0s)
    live, rho, states, failed = [a0 for a0 in a0s if a0[0] != 0 or a0[1] != 0], [], [], None
    for a0 in live:
        try:
            r, s = _quad(*a0)
        except ValueError as exc:  # raised after the points before it
            failed = exc
            break
        rho.append(r)
        states.append(s)
    sources, s0 = [], None
    try:
        try:
            sources += _solve_states(params, zip(rho, states))
        except UnsupportedCaseError:  # outside the catalogue, the sigma orbits of all points together
            s0 = np.array(states, dtype=float)
            n = _on_sphere(rho, s0)
            orbits, declined = _sigma_orbits(params, rho[:n], s0[:n], tau)
            sources += orbits
            if declined is not None:
                raise declined
            if n < len(rho):  # a state off its sphere raises its error, as in _solve_states
                _check_sphere(rho[n], s0[n])
    except Exception as exc:  # raised after the points before it
        failed = exc
    jobs, plan = _reconstruct_jobs(live, sources, rho, [src.initial for src in sources] if s0 is None else s0, tau)
    pairs, bad = _reconstructed(plan, _phases(params, jobs))
    if bad is not None or failed is not None:
        raise bad if bad is not None else failed
    pairs = iter(pairs)
    return [next(pairs) if a0[0] != 0 or a0[1] != 0 else a0 for a0 in a0s]


def uapp(params, fd: FinalData, t: float, x):
    """The approximate solution pair at (t, x) for finite t != 0; for a 1-D
    array x, two complex arrays, bit for bit the calls at each x in turn
    (the first failing one raises), with one setup pass, one final-data
    interpolation and one phase-integral loop for all, and one source call
    a level for the points of one closed-form formula (see _flows).  An x
    of more dimensions raises ValueError."""
    if not math.isfinite(t):
        raise ValueError(f"the profile is defined for finite t, got {t}")
    if t == 0.0:
        raise ValueError("the profile is defined for t != 0")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"the profile takes a number or a 1-D array x, got an array of shape {xs.shape}")
    xs = xs.reshape(-1)
    tau = 0.5 * math.copysign(1.0, t) * math.log(abs(t))
    xi = xs / (2.0 * t)
    try:
        (a1, a2), n = fd.interp(xi), len(xi)
    except ExtrapolationError:  # the points before the first outside the data run, then it raises
        n = fd._inside(xi)
        a1, a2 = fd.interp(xi[:n])
    pairs = _flows(params, list(zip(a1.tolist(), a2.tolist())), tau)
    if n < len(xi):
        fd.interp(xs[n] / (2.0 * t))  # that point's error, after the points before it
    # _prefactor, with its root once for all points
    root = cmath.sqrt(2j * t)
    u = np.array([(f * a, f * b) for f, (a, b) in zip((cmath.exp(1j * (v * w / 2.0)) / root
                                                       for v, w in zip(xs.tolist(), xi.tolist())), pairs)],
                 dtype=complex).reshape(-1, 2)
    return (complex(u[0, 0]), complex(u[0, 1])) if np.ndim(x) == 0 else (u[:, 0], u[:, 1])


# ---------------------------------------------------------------------------
# specialized closed profiles


def _explicit_data(name: str, coupling: float, q, fd: FinalData, t: float, x: float):
    """Input checks shared by the explicit profiles.

    Returns (q1, q2, q3), alpha1 and the quadratic quantities
    (rho, (D, R, I)) of the final data at xi = x / (2t).
    """
    if not 0.0 < coupling < math.inf:
        raise ValueError(f"{name} must be positive")
    if not 1.0 < t < math.inf:
        raise ValueError("the explicit formula is stated for t > 1")
    q1, q2, q3 = (float(v) for v in q)
    if not all(math.isfinite(v) for v in (q1, q2, q3)):
        raise ValueError(f"q must be finite, got {(q1, q2, q3)}")
    alpha1, alpha2 = fd.interp(x / (2.0 * t))
    if alpha1 == 0:
        raise ValueError("the formula needs alpha1(xi) != 0")
    return (q1, q2, q3), alpha1, amplitudes_to_quad(alpha1, alpha2)


def case1_profile(p1: float, q, fd: FinalData, t: float, x: float) -> tuple[complex, complex]:
    """Fully explicit profile for the pure p1 family (p2 = ... = p5 = 0).

    Requires t > 1, alpha1 != 0 at the sampled xi, and |I0| bounded away
    from rho (at equality the family's denominators degenerate).
    """
    (q1, q2, q3), alpha1, (rho, (d0, r0, i0)) = _explicit_data("p1", p1, q, fd, t, x)
    if rho - abs(i0) <= 1e-12 * rho:
        raise ValueError("degenerate data: |I0| = rho")
    amp2 = math.sqrt(d0 * d0 + r0 * r0)  # = sqrt(rho^2 - I0^2) > 0

    tp = t**(p1 * rho)
    big_x = tp * (rho - i0)
    big_y = (rho + i0) / tp
    big_g = big_x + big_y

    unit_a1 = alpha1 / abs(alpha1)
    z1 = complex(r0, -(rho - i0 + d0))
    z2 = complex(r0, big_x + d0)
    u_factor = z1 * z2 / abs(z1 * z2)

    # phase from the conserved quadratic potential along the collapse
    sinh_w = (big_x - big_y) / (2.0 * amp2)
    cq = 0.5 * (q1 - q3) * d0 + q2 * r0
    phase = (
        -0.25 * (q1 + q3) * rho * math.log(t)
        - cq / (2.0 * p1 * amp2) * (math.atan(sinh_w) + math.atan(i0 / amp2))
    )
    phase_f = cmath.exp(1j * phase)

    pref = _prefactor(t, x)
    common = pref * unit_a1 * math.sqrt(rho / 2.0) * u_factor * phase_f
    u1 = common * math.sqrt(1.0 + 2.0 * d0 / big_g)
    u2 = (
        common
        * complex(2.0 * r0, -(big_x - big_y))
        / math.sqrt((big_g + 2.0 * d0) * big_g)
    )
    return u1, u2


def case3_profile(p3: float, q, fd: FinalData, t: float, x: float) -> tuple[complex, complex]:
    """Fully explicit profile for the pure p3 family, in Jacobi functions.

    Valid under the ordering 0 < omega2 < |omega1| < 1 of the two
    normalized invariants; outside it the representation needs case splits
    that are not provided here.
    """
    from scipy.integrate import quad  # lazy: the CLI never calls this reference, so scipy stays unloaded

    (q1, q2, q3), alpha1, (rho, (d0, r0, i0)) = _explicit_data("p3", p3, q, fd, t, x)
    if d0 == 0.0:
        raise ValueError("the formula needs D0 != 0")
    om1 = math.copysign(math.sqrt((i0 * i0 + 2.0 * d0 * d0) / (2.0 * rho * rho)), d0)
    om2 = math.sqrt((i0 * i0 + 2.0 * r0 * r0) / (2.0 * rho * rho))
    if not (0.0 < om2 < abs(om1) < 1.0):
        raise ValueError(
            f"ordering 0 < omega2 < |omega1| < 1 violated: omega1={om1:.6g}, omega2={om2:.6g}"
        )
    m = (om2 / om1) ** 2

    norm = math.sqrt(i0 * i0 + 2.0 * r0 * r0)
    t0 = el.invert_sn_cn(i0 / norm, math.sqrt(2.0) * r0 / norm, m)
    big_t = math.sqrt(2.0) * p3 * rho * om1 * math.log(t)

    sn_e, cn_e, dn_e = (float(v) for v in el.jacobi_sn_cn_dn(big_t + t0, m))

    # 2K-periodic phase integrand; exploit periodicity for large arguments
    period = 2.0 * el.complete_K(m)

    def integrand(sigma):
        sn_s, cn_s, dn_s = el.jacobi_sn_cn_dn(sigma + t0, m)
        return cn_s * cn_s / (1.0 + om1 * dn_s)

    n_per, rem = divmod(big_t, period)
    per_val, _ = quad(integrand, 0.0, period, epsabs=1e-12, epsrel=1e-12, limit=200)
    rem_val, _ = quad(integrand, 0.0, float(rem), epsabs=1e-12, epsrel=1e-12, limit=200)
    cn2_integral = float(n_per) * per_val + rem_val

    phase = (
        om2 * om2 / (math.sqrt(8.0) * om1) * cn2_integral
        - 0.25 * (q1 + q3) * rho * math.log(t)
        - (1.0 + 0.5 * (q1 - q3) / p3)
        / math.sqrt(8.0)
        * (el.jacobi_am(big_t + t0, m) - el.jacobi_am(t0, m))
        - q2 / (math.sqrt(8.0) * p3) * el.arcsin_clamped(om2 / om1 * sn_e)
        + q2 / (math.sqrt(8.0) * p3) * el.arcsin_clamped(
            math.copysign(1.0, d0) * i0 / math.sqrt(i0 * i0 + 2.0 * d0 * d0)
        )
    )
    phase_f = cmath.exp(1j * phase)

    pref = _prefactor(t, x)
    unit_a1 = alpha1 / abs(alpha1)
    common = pref * unit_a1 * math.sqrt(rho / 2.0) * phase_f
    root = math.sqrt(1.0 + om1 * dn_e)
    u1 = common * root
    u2 = common * om2 / root * complex(cn_e, math.sqrt(2.0) * sn_e)
    return u1, u2


# ---------------------------------------------------------------------------
# synchronization observable


def sync_decay(params, fd: FinalData, gamma, t: float, region) -> float:
    """sqrt(t) * max over grid points in ``region`` of |gamma . u(t, 2 t xi)|.

    ``region`` is a (xi_min, xi_max) interval; it must contain at least one
    grid node.  Under synchronization with the matching gamma pair this
    observable tends to zero along t -> infinity away from the exceptional
    directions.
    """
    if t <= 1.0:
        raise ValueError("the decay observable is defined for t > 1")
    g1, g2 = complex(gamma[0]), complex(gamma[1])
    xi_min, xi_max = region
    sel = (fd.xi_grid >= xi_min) & (fd.xi_grid <= xi_max)
    if not np.any(sel):
        raise ValueError("region contains no grid nodes")
    u1, u2 = uapp(params, fd, t, 2.0 * t * fd.xi_grid[sel])
    return math.sqrt(t) * max(abs(g1 * a1 + g2 * a2) for a1, a2 in zip(u1.tolist(), u2.tolist()))

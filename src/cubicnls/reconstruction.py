"""Rebuild the complex amplitude pair from its quadratic quantities.

Given D, R, I as functions of time (closed form or dense numerical output),
the amplitudes are recovered as

    |A1| = sqrt((rho + D)/2),     A2 = (R + i I) / sqrt(2 (rho + D)) * phase
    phase = (-1)^k(tau) * unit(A1(0)) * exp(i * int_0^tau (N1 - V))

anchored on the first component, with the mirrored formula anchored on the
second.  N1 and N2 are explicit rational functions of the state, V is the
conserved quadratic potential along the flow, and k counts the zeros of
rho +- D in [0, tau]: each zero of the anchored amplitude contributes an
isolated removable singularity of the integrand and a sign flip.

Since rho + D = 2|A1|^2 >= 0, its zeros are tangential touches, not sign
crossings; they are located as refined local minima of the anchored weight.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .quadratic_flow import Trajectory, amplitudes_to_quad, full_ode_rhs, qqq_rhs

__all__ = [
    "SingularAnchorError",
    "phase_rate_N1",
    "phase_rate_N2",
    "reconstruct",
    "residual",
    "v_rate",
    "zero_times",
]

_ANCHOR_FLOOR = 1e-12  # relative floor below which an anchor is singular
_ZERO_VALUE_TOL = 1e-10  # a refined minimum below this (times rho) counts as a zero
# Relative dip that triggers refinement of a candidate zero.  Generous on
# purpose: a true zero sampled half a grid cell away can sit well above the
# eventual acceptance level, and refining a shallow dip is cheap.
_GRAZE_TOL = 5e-2
_N_SCAN = 512  # cells of the uniform grid the zero scan samples


class SingularAnchorError(ZeroDivisionError):
    """The anchored component vanishes where the formula needs it."""


def v_rate(params, rho: float, s) -> float:
    """The conserved quadratic potential along the flow, as a function of the state."""
    d, r, _ = s
    return 0.5 * (params.q1 + params.q3) * rho + 0.5 * (params.q1 - params.q3) * d + params.q2 * r


def _phase_rate(params, rho: float, s, sign: float) -> float:
    """N1 (sign=+1) or N2 (sign=-1), evaluated stably on the sphere.

    Near a zero of rho + sign*D the reciprocal 1/(rho + sign*D) is replaced
    by the on-sphere identity (rho - sign*D)/(R^2 + I^2), whose limit at the
    zero stays finite.
    """
    d, r, i = (float(x) for x in s)
    sd = sign * d
    w = rho + sd
    if w > 0.5 * rho:
        inv = 1.0 / w
    else:
        den = r * r + i * i
        if den == 0.0:
            return 0.0  # isolated zero point; any finite value integrates to nothing
        inv = (rho - sd) / den
    n = (
        sign * params.p1 * rho * r * inv
        + params.p2 * (-3.0 * rho + i * i * inv)
        + params.p3 * (-sign * d + r * r * inv)
        - sign * params.p4 * w
        + params.p5 * (-r - rho * r * inv)
    )
    return n


def phase_rate_N1(params, rho: float, s) -> float:
    """Phase rate of the first component.  Requires rho + D > 1e-12 rho."""
    if rho + s[0] <= _ANCHOR_FLOOR * rho:
        raise SingularAnchorError("rho + D vanishes; anchor on the second component")
    return _phase_rate(params, rho, s, +1.0)


def phase_rate_N2(params, rho: float, s) -> float:
    """Phase rate of the second component.  Requires rho - D > 1e-12 rho."""
    if rho - s[0] <= _ANCHOR_FLOOR * rho:
        raise SingularAnchorError("rho - D vanishes; anchor on the first component")
    return _phase_rate(params, rho, s, -1.0)


def zero_times(params, rho: float, quad_src, tau: float, sign: float):
    """Times in (0, tau) (or (tau, 0)) where rho + sign*D touches zero.

    The weight is nonnegative, so zeros are grazing minima: minima of a
    512-cell grid dipping below a relative threshold are refined by
    root-finding on the analytic derivative of D and accepted when the
    refined value is below 1e-10 rho.
    """
    if tau == 0.0:
        return []
    ts = np.linspace(0.0, tau, _N_SCAN + 1)
    w = rho + sign * np.asarray(quad_src(ts))[:, 0]
    mid = w[1:-1]
    dips = np.flatnonzero((mid <= w[:-2]) & (mid <= w[2:]) & (mid < _GRAZE_TOL * rho)) + 1

    def wdot(t):
        s = quad_src(float(t))
        return sign * qqq_rhs(params, rho, s)[0]

    zeros = []
    for j in dips:
        a, b = ts[j - 1], ts[j + 1]
        if wdot(a) * wdot(b) < 0.0:
            t_star = brentq(wdot, a, b, xtol=1e-12)
        else:
            t_star = ts[j]
        s_star = quad_src(float(t_star))
        if rho + sign * s_star[0] < _ZERO_VALUE_TOL * rho:
            zeros.append(float(t_star))
    return sorted(zeros, key=abs)


def reconstruct(params, a0, quad_src, rho: float, tau: float, anchor: int | None = None):
    """Amplitude pair at time tau from the quadratic-quantity source.

    ``quad_src`` maps tau -> (D, R, I) (vectorized over arrays) and must be
    consistent with the quadratic quantities of ``a0`` at tau = 0 within
    1e-8.  The anchor is the larger component of a0 (overridable with
    ``anchor`` in {1, 2}); the phase integral is evaluated by adaptive
    quadrature on the subintervals between detected zeros of the anchored
    weight, and each zero flips the overall sign.
    """
    a1_0, a2_0 = complex(a0[0]), complex(a0[1])
    if a1_0 == 0 and a2_0 == 0:
        raise ValueError("reconstruction needs a nontrivial amplitude pair")
    rho0, s_init = amplitudes_to_quad(a1_0, a2_0)
    s0 = np.asarray(quad_src(0.0), dtype=float)
    if abs(rho0 - rho) > 1e-8 * max(1.0, rho) or np.max(np.abs(s_init - s0)) > 1e-8 * max(1.0, rho):
        raise ValueError("quadratic source is inconsistent with the initial amplitudes")

    if anchor is None:
        anchor_first = abs(a1_0) >= abs(a2_0)
    elif anchor in (1, 2):
        anchor_first = anchor == 1
        if (a1_0 if anchor_first else a2_0) == 0:
            raise SingularAnchorError("requested anchor component vanishes at tau = 0")
    else:
        raise ValueError("anchor must be 1, 2 or None")
    sign = 1.0 if anchor_first else -1.0
    unit = (a1_0 if anchor_first else a2_0) / abs(a1_0 if anchor_first else a2_0)
    if tau == 0.0:
        return a1_0, a2_0

    zs = zero_times(params, rho, quad_src, tau, sign)
    k = len(zs)

    def integrand(t):
        s = quad_src(float(t))
        return _phase_rate(params, rho, s, sign) - v_rate(params, rho, s)

    nodes = [0.0] + zs + [tau]
    phase = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        # full_output keeps QUADPACK quiet when its extrapolation stalls at
        # roundoff level around the removable kinks at the interval ends
        out = quad(integrand, a, b, epsabs=1e-11, epsrel=1e-11, limit=200, full_output=1)
        phase += out[0]

    s_tau = np.asarray(quad_src(float(tau)), dtype=float)
    d, r, i = s_tau
    w = rho + sign * d
    amp = math.sqrt(max(w, 0.0) / 2.0)
    cross = complex(r, sign * i)
    if w > 0.5 * rho:
        comp = cross / math.sqrt(2.0 * w)
    else:
        # stable companion: modulus from the sphere identity, direction from R + i I
        mag = math.sqrt(max(rho - sign * d, 0.0) / 2.0)
        comp = mag * cross / abs(cross) if abs(cross) > 0.0 else complex(mag, 0.0)
    factor = (-1.0) ** k * unit * complex(math.cos(phase), math.sin(phase))
    if anchor_first:
        return amp * factor, comp * factor
    return comp * factor, amp * factor


def residual(params, path: Trajectory) -> float:
    """Sup over interior nodes of |finite-difference derivative - flow RHS|.

    The path must be an amplitude trajectory with at least 9 uniformly
    spaced nodes; a 4th-order central stencil is used.
    """
    if path.kind != "amplitude":
        raise ValueError("residual expects an amplitude trajectory")
    ts = path.times
    if len(ts) < 9:
        raise ValueError("need at least 9 nodes")
    h = ts[1] - ts[0]
    if np.max(np.abs(np.diff(ts) - h)) > 1e-9 * abs(h):
        raise ValueError("nodes must be uniformly spaced")
    a = path.states
    worst = 0.0
    for j in range(2, len(ts) - 2):
        fd = (-a[j + 2] + 8.0 * a[j + 1] - 8.0 * a[j - 1] + a[j - 2]) / (12.0 * h)
        rhs = full_ode_rhs(params, a[j])
        worst = max(worst, float(np.max(np.abs(fd - rhs))))
    return worst

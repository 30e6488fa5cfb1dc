"""Exact solutions of the quadratic flow for the catalogued parameter families.

Fifteen families of standard parameters admit closed-form trajectories of
(D, R, I) built from elementary functions and Jacobi elliptic functions.
``classify`` recognizes the family, ``solve_case`` returns an evaluable
solution through a given initial state, and three reusable lemma solvers
cover the elliptic cores:

    lemma 1:  f' = g h,  g' = -f h,  h' = -f g
    lemma 2:  f' = g h,  g' = -f h,  h' = -f
    lemma 3:  f' = -g h, g' = f h,   h' = -(f + eta) g

Every branch constant is resolved from the initial state, and every
evaluator is validated against the adaptive Runge-Kutta oracle in the test
suite.  The three lemmas and the p1/p3 = 1/3 family hand the elliptic
kernel 1 - m computed without cancellation, so their separatrices (for 1/3
the planes D = +-R, for lemma 3 K = 0 and R = eta - sqrt(-K)) are the
kernel's m1 = 0; lemma 3's forms on both sides of R = eta - sqrt(-K) are
written from a quarter period, so they stay finite on it.  The elementary
thresholds (case 6 at p1 = p4, cases 14/15 at |X| = sqrt(cap), lemma 3's
plane K = 0) share one formula in functions entire in the threshold
parameter (_ent).  No threshold is served by a band.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import elliptic as el
from .quadratic_flow import _check_sphere, qqq_rhs
from .standard_form import TrivialSystemError

__all__ = [
    "CaseId",
    "ClosedFormSolution",
    "UnsupportedCaseError",
    "UnsupportedRatioError",
    "classify",
    "solve_case",
    "solve_lemma1",
    "solve_lemma2",
    "solve_lemma3",
]

log = logging.getLogger(__name__)

_RTOL = 1e-12  # relative tolerance for the special parameter relations

SUPPORTED_RATIOS = (1.0 / 3.0, 1.0, 3.0)


class UnsupportedCaseError(ValueError):
    """Parameters outside the catalogued closed-form families."""


class UnsupportedRatioError(UnsupportedCaseError):
    """A p1/p3 ratio whose closed form is not catalogued (only 1/3, 1, 3 are)."""


@dataclass(frozen=True)
class CaseId:
    """Catalogue tag: case number 1..15, or 0 for unsupported parameters."""

    case: int
    subcase: str = ""
    ratio: float | None = None


@dataclass(frozen=True)
class ClosedFormSolution:
    """Evaluable closed-form trajectory tau -> (D, R, I).

    ``constants`` records the resolved branch constants; ``branch`` names
    the formula family actually used, or for cases 6, 14 and 15 the side of
    the threshold the state is on (it is recomputable from the parameters,
    radius and initial state alone).
    """

    case_id: CaseId
    branch: str
    constants: dict
    rho: float
    initial: np.ndarray
    _eval: callable

    def __call__(self, tau):
        tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
        out = np.stack(self._eval(tau_arr), axis=-1)
        return out[0] if np.ndim(tau) == 0 else out

    eval = __call__


# ---------------------------------------------------------------------------
# classification


def _iszero(x: float, scale: float) -> bool:
    return abs(x) <= _RTOL * scale


def classify(params) -> CaseId:
    """Identify which catalogued family the parameters belong to.

    Pure families are matched before mixed ones; the special relations of
    the last five families are tested with relative tolerance 1e-12.
    Parameters outside the catalogue give case 0.
    """
    p1, p2, p3, p4, p5 = (float(x) for x in (params.p1, params.p2, params.p3, params.p4, params.p5))
    scale = max(abs(p1), abs(p2), abs(p3), abs(p4), abs(p5))
    if scale == 0.0:
        raise TrivialSystemError("all interaction parameters vanish")
    z1, z2, z3, z4, z5 = (_iszero(p, scale) for p in (p1, p2, p3, p4, p5))

    if not z1 and z2 and z3 and z4 and z5:
        return CaseId(1)
    if z1 and not z2 and z3 and z4 and z5:
        return CaseId(2)
    if z1 and z2 and not z3 and z4 and z5:
        return CaseId(3)
    if z1 and z2 and z3 and not z4 and z5:
        return CaseId(4)
    if not z1 and not z2 and z3 and z4 and z5:
        return CaseId(5)
    if not z1 and z2 and z3 and p4 > 0.0 and z5:
        if p1 > p4 * (1.0 + _RTOL):
            sub = "p1>p4"
        elif p4 > p1 * (1.0 + _RTOL):
            sub = "p1<p4"
        else:
            sub = "p1=p4"
        return CaseId(6, sub)
    if z1 and not z2 and not z3 and z4 and z5:
        if abs(abs(p2) - p3) <= _RTOL * scale:
            return CaseId(0, "degenerate |p2| = p3")
        if p2 < -p3:
            sub = "p2<-p3"
        elif p2 < p3:
            sub = "-p3<p2<p3"
        else:
            sub = "p2>p3"
        return CaseId(7, sub)
    if z1 and not z2 and z3 and p4 > 0.0 and z5:
        return CaseId(8)
    if z1 and z2 and not z3 and p4 > 0.0 and z5:
        return CaseId(9)
    if z1 and z2 and not z3 and z4 and p5 > 0.0:
        return CaseId(10)
    if not z1 and z2 and not z3 and z4 and z5:
        ratio = p1 / p3
        for target in SUPPORTED_RATIOS:
            if abs(ratio - target) <= _RTOL * max(ratio, target):
                return CaseId(11, f"ratio={target:g}", target)
        return CaseId(11, "ratio-unsupported", ratio)
    if z1 and p2 > 0.0 and not z3 and abs(p2 - p3) <= _RTOL * scale and not z4 and z5:
        return CaseId(12)
    if z1 and p2 < 0.0 and not z3 and abs(p2 + p3) <= _RTOL * scale and z4 and p5 > 0.0:
        return CaseId(13)
    if not z1 and not z2 and not z3 and abs(p1 * p1 + p2 * p2 - p3 * p3) <= _RTOL * p3 * p3:
        if z4 and z5:
            return CaseId(14)
        if p4 > 0.0 and p5 > 0.0 and abs(p5 * (p2 + p3) - p4 * p1) <= _RTOL * scale * scale:
            return CaseId(15)
    return CaseId(0)


# ---------------------------------------------------------------------------
# lemma solvers


def _constant(f0: float, g0: float, h0: float):
    def fgh(t):
        t = np.asarray(t, dtype=float)
        one = np.ones_like(t)
        return f0 * one, g0 * one, h0 * one

    return fgh


def _mapped(sol, back):
    """The solution sol(t) = (f, g, h) mapped by back(f, g, h), e.g. a
    lemma solution carried back to (D, R, I)."""
    return lambda t: back(*sol(t))


def _ent(c: float, x, a: float, b_sq: float):
    """(e, j) = (1/q, -q'/q) for q(x) = (ch - a sh)^2 + b_sq sh^2.

    Here ch = cosh(sqrt(c) x / 2) and sh = sinh(sqrt(c) x / 2) / sqrt(c),
    so (e, j) solves e' = e j, j' = j^2 - c - (a^2 + b_sq - c) e / 2 from
    (1, a).  ch and sh are entire in c (cos and sin / sqrt(-c) for c < 0,
    1 and x / 2 at c = 0): one formula serves both sides of the threshold
    c = 0.  Written as a sum of squares, q does not cancel next to the
    saddles, where the expanded form in cosh and sinh of sqrt(c) x loses a
    further factor 1 / distance.
    """
    if c > 0.0:
        w = math.sqrt(c)
        y = 0.5 * w * x
        ch, sh = np.cosh(y), np.sinh(y) / w
    elif c < 0.0:
        w = math.sqrt(-c)
        y = 0.5 * w * x
        ch, sh = np.cos(y), np.sin(y) / w
    else:
        ch, sh = np.ones_like(x), 0.5 * x
    u, bsh = ch - a * sh, b_sq * sh
    q = u * u + bsh * sh
    return 1.0 / q, (u * (a * ch - c * sh) - bsh * ch) / q


def solve_lemma1(f0: float, g0: float, h0: float):
    """Closed solution of f' = gh, g' = -fh, h' = -fg through (f0, g0, h0).

    f^2 + g^2 and f^2 + h^2 are conserved; (f, g) oscillates as sn/cn and h
    follows dn, with 1 - m = (h0^2 - g0^2)/(f0^2 + h0^2) (g and h swap roles
    when it is negative); at equal radii sn, cn, dn are tanh, sech, sech.
    """
    return _lemma1(f0, g0, h0, (abs(h0) - abs(g0)) * (abs(h0) + abs(g0)))[0]


def _lemma1(f0: float, g0: float, h0: float, gap: float):
    """solve_lemma1 with gap = h0^2 - g0^2 from a caller who knows it without
    cancellation; its sign decides the swap, so 1 - m is never negative.
    Returns the solution and its constants m, m1 and start u0 of sn."""
    if gap < 0.0:
        sol, constants = _lemma1(f0, h0, g0, -gap)
        return _mapped(sol, lambda f, h, g: (f, g, h)), constants
    if g0 == 0.0 and f0 * h0 == 0.0:  # the rest points, as |h0| >= |g0|
        return _constant(f0, g0, h0), {}
    if gap == 0.0 and g0 < 0.0:
        # cn = sech > 0 at m = 1: reach g0 < 0 by (f, g, h) -> (f, -g, -h)
        sol, constants = _lemma1(f0, -g0, -h0, gap)
        return _mapped(sol, lambda f, g, h: (f, -g, -h)), constants

    r_fg, r_fh = math.hypot(f0, g0), math.hypot(f0, h0)
    m, m1 = min((r_fg / r_fh) ** 2, 1.0), gap / (r_fh * r_fh)
    sig = math.copysign(1.0, h0)
    t0 = el.invert_sn_cn(f0 / r_fg, g0 / r_fg, m, m1=m1)

    def elliptic_branch(t):
        sn, cn, dn = el.jacobi_sn_cn_dn(sig * r_fh * np.asarray(t, dtype=float) + t0, m, m1=m1)
        return r_fg * sn, r_fg * cn, sig * r_fh * dn

    return elliptic_branch, {"m": m, "m1": m1, "u0": t0}


def solve_lemma2(f0: float, g0: float, h0: float):
    """Closed solution of f' = gh, g' = -fh, h' = -f through (f0, g0, h0).

    Here f = -h' and g = (h^2 - h0^2)/2 + g0; h is cn for disc = h0^2 -
    2(sqrt(f0^2 + g0^2) + g0) < 0 and dn otherwise, with 1 - m = |disc| / 4
    over the larger of sqrt(f0^2 + g0^2) and P^2 (a sech pulse at disc = 0).
    """
    return _lemma2(f0, g0, h0)[0]


def _lemma2(f0: float, g0: float, h0: float):
    """solve_lemma2, and its constants m, m1 and start u0 of sn."""
    if f0 == 0.0 and g0 * h0 == 0.0:  # the rest points
        return _constant(f0, g0, h0), {}

    rfg_sq = math.hypot(f0, g0)  # the conserved radius; the rate constant is its sqrt
    rate = math.sqrt(rfg_sq)
    # r + g0 and r - g0, the smaller as f0^2 over the larger: no cancellation
    r_plus, r_minus = rfg_sq + g0, rfg_sq - g0
    r_plus, r_minus = (f0 * f0 / r_minus, r_minus) if g0 < 0.0 else (r_plus, f0 * f0 / r_plus)
    p_sq = 0.5 * r_minus + 0.25 * h0 * h0
    p = math.sqrt(p_sq)
    disc = h0 * h0 - 2.0 * r_plus

    def g_of(h):
        return 0.5 * (h * h - h0 * h0) + g0

    if disc < 0.0:
        m, m1 = min(p_sq / rfg_sq, 1.0), -disc / (4.0 * rfg_sq)
        # at the start cn = h0 / 2P and |sn| = sqrt(2 (r - g0)) / 2P
        sn0 = math.sqrt(2.0 * r_minus) / (2.0 * p)
        t0 = el.invert_sn_cn(-sn0 if f0 < 0.0 else sn0, h0 / (2.0 * p), m, m1=m1)

        def cn_branch(t):
            sn, cn, dn = el.jacobi_sn_cn_dn(rate * np.asarray(t, dtype=float) + t0, m, m1=m1)
            h = 2.0 * p * cn
            return 2.0 * p * rate * sn * dn, g_of(h), h

        return cn_branch, {"m": m, "m1": m1, "u0": t0}

    m, m1 = min(rfg_sq / p_sq, 1.0), disc / (4.0 * p_sq)
    sig = math.copysign(1.0, h0)
    # at the start sn^2 = (r - g0) / 2r and cn^2 = (r + g0) / 2r
    t0 = el.invert_sn_cn(math.sqrt(r_minus / (2.0 * rfg_sq)), math.sqrt(r_plus / (2.0 * rfg_sq)), m, m1=m1)
    if f0 < 0.0:
        t0 = -t0

    def dn_branch(t):
        sn, cn, dn = el.jacobi_sn_cn_dn(sig * p * np.asarray(t, dtype=float) + t0, m, m1=m1)
        h = sig * 2.0 * p * dn
        return 2.0 * p_sq * m * sn * cn, g_of(h), h

    return dn_branch, {"m": m, "m1": m1, "u0": t0}


def solve_lemma3(eta: float, f0: float, g0: float, h0: float):
    """Closed solution of f' = -gh, g' = fh, h' = -(f + eta) g, eta > 0.

    R = sqrt(f^2 + g^2) and K = h^2 - (f + eta)^2 are conserved; the branch
    catalogue splits on the sign of K and on R against eta +- sqrt(-K).
    Stationary initial data (the two axes and the line f = -eta, h = 0)
    short-circuit to constants, and h0 < 0 is handled through the symmetry
    (f, g, h) -> (f, -g, -h).
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if g0 * h0 == 0.0 and f0 * h0 == 0.0 and (f0 + eta) * g0 == 0.0:
        return _constant(f0, g0, h0)
    if h0 < 0.0:
        return _mapped(solve_lemma3(eta, f0, -g0, -h0), lambda f, g, h: (f, -g, -h))

    r0 = math.hypot(f0, g0)
    # K and R - eta from exact rationals of the float state: every branch
    # takes 1 - m from them, which their rounded forms would swamp next to
    # K = 0 and R = eta
    q_f, q_g, q_h, q_eta = (Fraction(x) for x in (f0, g0, h0, eta))
    r_sq = q_f * q_f + q_g * q_g
    k0 = float(q_h * q_h - (q_f + q_eta) ** 2)
    r_eta = float(r_sq - q_eta * q_eta) / (r0 + eta)
    # R + f0 and R - f0, the smaller as g0^2 over the larger: no cancellation
    r_plus, r_minus = r0 + f0, r0 - f0
    r_plus, r_minus = (g0 * g0 / r_minus, r_minus) if f0 < 0.0 else (r_plus, g0 * g0 / r_plus)
    if k0 == 0.0:
        return _lemma3_k_zero(eta, f0, g0, h0, r0)
    if k0 > 0.0:
        return _lemma3_k_positive(eta, f0, g0, r0, r_eta, k0, r_plus)
    # sep = (R - eta)^2 + K = (R - eta - kap)(R - eta + kap), which vanishes
    # at R = eta +- kap: P - 2 eta R with P = R^2 + eta^2 + K, taken as
    # (P^2 - 4 eta^2 R^2) / (P + 2 eta R), exact but for one rounding
    big_p = q_h * q_h + q_g * q_g - 2 * q_eta * q_f
    sep = float(big_p * big_p - 4 * q_eta * q_eta * r_sq) / (h0 * h0 + g0 * g0 + 2.0 * eta * r_minus)
    return _lemma3_k_negative(eta, f0, g0, h0, r0, r_eta, math.sqrt(-k0), sep, r_plus, r_minus)


def _jacobi_orbit(rate, sn0, cn0, m1):
    """t -> (sn, cn, dn)(rate t + u0) at 1 - m = m1, (sn, cn)(u0) along (sn0, cn0)."""
    norm = math.hypot(sn0, cn0)
    u0 = el.invert_sn_cn(sn0 / norm, cn0 / norm, 1.0 - m1, m1=m1)
    return lambda t: el.jacobi_sn_cn_dn(rate * np.asarray(t, dtype=float) + u0, 1.0 - m1, m1=m1)


def _lemma3_k_positive(eta, f0, g0, r0, r_eta, k0, r_plus):
    # t_gap = theta^2 - (R^2 - eta^2) from theta^4 - (R^2 - eta^2)^2 = K (2 (R^2
    # + eta^2) + K), and 1 - xi = (K + (R - eta)^2 + theta^2) / S: 1 - m and
    # 1 - xi without cancellation
    d = abs(r_eta) * (r0 + eta)
    theta_sq = math.sqrt(((r0 + eta) ** 2 + k0) * (r_eta * r_eta + k0))
    theta = math.sqrt(theta_sq)
    t_gap = k0 * (2.0 * (r0 * r0 + eta * eta) + k0) / (theta_sq + d) if r_eta > 0.0 else theta_sq + d
    m1 = (t_gap + k0) / (2.0 * theta_sq)
    s = k0 + eta * eta + r0 * r0 + theta_sq
    xi, xi_c = 2.0 * eta * r0 / s, (k0 + r_eta * r_eta + theta_sq) / s
    root = math.sqrt(xi_c * (1.0 + xi))
    # at the start (sn, cn) = (g0 root, f0 + xi R) / (R + xi f0)
    jac = _jacobi_orbit(theta, g0 * root, r_plus - xi_c * r0, m1)

    def fgh(t):
        sn, cn, dn = jac(t)
        # 1 - cn as sn^2 / (1 + cn) where cn > 0 keeps 1 - xi cn and cn - xi exact
        one_m_cn = np.where(cn > 0.0, sn * sn / (1.0 + np.abs(cn)), 1.0 - cn)
        den = xi_c + xi * one_m_cn
        return r0 * (xi_c - one_m_cn) / den, r0 * root * sn / den, theta * root * dn / den

    return fgh


def _lemma3_k_zero(eta, f0, g0, h0, r0):
    # the invariant surface splits into the two planes h = s (f + eta), s = +-1;
    # on each, u = 1/h solves u'' = (r0^2 - eta^2) u + s eta
    s = 1.0 if f0 + eta > 0.0 else -1.0
    c = (r0 - eta) * (r0 + eta)

    def fgh(t):
        e, j = _ent(c, np.asarray(t, dtype=float), -s * g0, h0 * h0)
        h = h0 * e
        return s * h - eta, -s * j, h

    return fgh


def _lemma3_k_negative(eta, f0, g0, h0, r0, r_eta, kap, sep, r_plus, r_minus):
    a, b = r0 + eta + kap, r0 + eta - kap
    if f0 + eta < 0.0 or r_eta > kap:
        # the outer components, R > eta + kap: 1 - m = 4 R kap / ((R + kap)^2 - eta^2)
        theta = 0.5 * math.sqrt((r_eta + kap) * a)
        m1 = min(4.0 * r0 * kap / ((r_eta + kap) * a), 1.0)
    if f0 + eta < 0.0:
        # the component f <= -(eta + kap); b = R - eta - kap
        b = sep / (r_eta + kap)
        # this component is traversed against the sn-parametrization
        jac = _jacobi_orbit(-theta, g0 * math.sqrt(a / b) / r_minus,
                            h0 * math.sqrt(2.0 * r0 / ((kap - f0 - eta) * b * r_minus)), m1)
        cg, ch = 2.0 * r0 * math.sqrt(a * b), a * math.sqrt(b * (r_eta + kap))

        def outer_minus(t):
            sn, cn, dn = jac(t)
            den = a + b * sn * sn
            return r0 * (-a + b * sn * sn) / den, cg * sn / den, ch * cn * dn / den

        return outer_minus

    if r_eta > kap:
        jac = _jacobi_orbit(theta, h0 * math.sqrt(a / b) / (f0 + eta + kap),
                            -g0 * math.sqrt(2.0 * kap / (b * (f0 + eta + kap) * r_plus)), m1)
        cg, ch = a * math.sqrt((r_eta + kap) * b), 2.0 * kap * math.sqrt(a * b)

        def outer_plus(t):
            sn, cn, dn = jac(t)
            den = a * cn * cn + 2.0 * kap * sn * sn  # a - b sn^2
            return -eta + kap * (a + b * sn * sn) / den, -cg * cn * dn / den, ch * sn / den

        return outer_plus

    # The middle and inner forms are written in the offset x of the argument
    # from a quarter period K, where cn^2 = (1 - m) sd^2 x and sn = cd x carry
    # the factor R - (eta - kap) out of 1 - m: they stay finite on the
    # separatrix R = eta - kap between them, where 1 - m = 0 and both are the
    # pulse through the saddle (-R, 0, 0).
    dlt = r_eta + kap if r_eta >= 0.0 else -sep / (kap - r_eta)  # R - (eta - kap)
    if dlt > 0.0:
        # the middle component, eta - kap < R <= eta + kap
        theta, big_a = math.sqrt(r0 * kap), a / (2.0 * kap)
        m1 = min(dlt * a / (4.0 * r0 * kap), 1.0)
        jac = _jacobi_orbit(theta, math.copysign(math.sqrt(2.0 * kap * r_minus / a), g0),
                            h0 / math.sqrt(f0 + eta + kap), m1)
        cg, ch = math.sqrt(r0 * a * b / kap), math.sqrt(a * b)

        def middle(t):
            sn, cn, dn = jac(t)
            q = big_a * sn * sn + cn * cn
            return -r0 + 2.0 * r0 * dn * dn / q, cg * sn * dn / q, ch * cn / q

        return middle

    # the inner component R <= eta - kap, a rotation
    theta, big_a = 0.5 * math.sqrt((2.0 * kap - dlt) * b), a / (2.0 * kap - dlt)
    m1 = min(-dlt * big_a / b, 1.0)
    jac = _jacobi_orbit(theta, math.copysign(math.sqrt(r_minus), g0), math.sqrt(big_a * r_plus), m1)
    cg, ch = 2.0 * r0 * math.sqrt(big_a), math.sqrt(a * b)

    def inner(t):
        sn, cn, dn = jac(t)
        q = big_a * sn * sn + cn * cn
        return -r0 + 2.0 * r0 * cn * cn / q, cg * sn * cn / q, ch * dn / q

    return inner


# ---------------------------------------------------------------------------
# per-case builders


def solve_case(params, rho: float, s0) -> ClosedFormSolution:
    """Closed-form trajectory of the quadratic flow through s0.

    Raises UnsupportedCaseError when the parameters are outside the
    catalogue (use the numerical oracle instead) and UnsupportedRatioError
    for a p1/p3 family whose ratio has no catalogued formula.  The radius
    and the state are validated first, so a bad one raises ValueError
    whatever the parameters.
    """
    s0 = _check_sphere(rho, s0)
    case_id = classify(params)
    if case_id.case == 0:
        raise UnsupportedCaseError(
            f"no closed form for parameters {tuple(float(x) for x in params.p)}; use integrate_quad"
        )
    if case_id.case == 11 and case_id.subcase == "ratio-unsupported":
        raise UnsupportedRatioError(
            f"p1/p3 = {case_id.ratio:g} has no catalogued closed form "
            "(only 1/3, 1 and 3 are integrated; others need higher-degree integrals)"
        )

    pscale = max(float(np.max(np.abs(params.p))), 1e-300)
    if np.linalg.norm(qqq_rhs(params, rho, s0)) <= 1e-13 * rho * rho * pscale:
        branch, constants, fn = "fixed-point", {}, _constant(*s0)
    else:
        branch, constants, fn = _CASE_BUILDERS[case_id.case](params, rho, s0, case_id)
    if log.isEnabledFor(logging.DEBUG):
        consts = ", ".join(f"{k}={float(v):.17g}" for k, v in constants.items())
        log.debug("solve_case case=%d subcase=%s branch=%s constants={%s}",
                  case_id.case, case_id.subcase or "-", branch, consts)
    return ClosedFormSolution(case_id, branch, constants, rho, s0, fn)


def _case1_5(params, rho, s0, case_id):
    """Shared closed form for the p1-only and p1/p2 families."""
    # case 1 admits |p2| up to 1e-12 of the scale; its formula takes p2 = 0
    p1, p2 = params.p1, (params.p2 if case_id.case == 5 else 0.0)
    d0, r0, i0 = s0
    tau0 = math.atanh(min(1.0 - 1e-16, max(-1.0 + 1e-16, i0 / rho)))
    phase0 = math.atan2(r0, d0)
    la, lb = math.log(rho - i0), math.log(rho + i0)
    ratio = p2 / p1

    def fn(t):
        arg = 2.0 * p1 * rho * t - tau0
        sech = 1.0 / np.cosh(arg)
        if ratio == 0.0:
            phase = phase0
        else:
            phase = phase0 + ratio * (
                np.logaddexp(la + 2.0 * p1 * rho * t, lb - 2.0 * p1 * rho * t)
                - math.log(2.0 * rho)
            )
        return rho * np.cos(phase) * sech, rho * np.sin(phase) * sech, -rho * np.tanh(arg)

    return ("rotating-collapse" if p2 else "collapse"), {"tau0": tau0, "phase0": phase0}, fn


def _rotation(i, j, rate):
    """Builder of a rigid rotation taking component i towards component j.

    rate(params, rho, s0) is the angular rate; the third component stays
    constant.
    """

    def build(params, rho, s0, case_id):
        w = rate(params, rho, s0)

        def fn(t):
            ang = w * t
            c, s = np.cos(ang), np.sin(ang)
            out = [s0[k] * np.ones_like(ang) for k in range(3)]
            out[i] = s0[i] * c - s0[j] * s
            out[j] = s0[i] * s + s0[j] * c
            return tuple(out)

        return "rotation", {"rate": w}, fn

    return build


def _case3(params, rho, s0, case_id):
    p3 = params.p3
    d0, r0, i0 = s0
    k = math.sqrt(8.0) * p3
    gap = 8.0 * p3 * p3 * (abs(d0) - abs(r0)) * (abs(d0) + abs(r0))
    sol, constants = _lemma1(2.0 * p3 * i0, k * r0, k * d0, gap)
    return "lemma1", constants, _mapped(sol, lambda f, g, h: (h / k, g / k, f / (2.0 * p3)))


def _case6(params, rho, s0, case_id):
    p1, p4 = params.p1, params.p4
    d0, r0, i0 = s0
    mu = p4 / p1
    c1 = d0 * d0 + (r0 - mu * rho) ** 2
    c2 = -2.0 * rho * mu * (r0 - mu * rho)
    c3 = (p1 - p4) * (p1 + p4) * rho * rho / (p1 * p1)
    branch = "p1>p4" if c3 > 0.0 else "p1<p4" if c3 < 0.0 else "p1=p4"

    def fn(t):
        e, i = _ent(c3, 2.0 * p1 * t, i0, c1)
        return e * d0, e * (r0 - mu * rho) + mu * rho, i

    return branch, {"C1": c1, "C2": c2, "C3": c3}, fn


def _case7(params, rho, s0, case_id):
    # lemma 1 in (f, g, h) = (+-c_a a, c_b b, c_c c) for a permutation (a, b, c)
    # of (D, R, I); each of D, R and I keeps its scale c in all three subcases
    p2, p3 = params.p2, params.p3
    perm, sign = ((0, 1, 2), -1.0) if p2 < -p3 else ((2, 1, 0), 1.0) if p2 < p3 else ((1, 0, 2), -1.0)
    q2, q3 = Fraction(p2), Fraction(p3)
    c_sq = [8 * q3 * abs(q2 + q3), 8 * q3 * abs(q3 - q2), 4 * abs(q2 * q2 - q3 * q3)]
    scale = [math.sqrt(float(c_sq[i])) for i in perm]
    scale[0] *= sign
    # lemma 1's h0^2 - g0^2 from exact rationals of the float parameters and
    # state: rounded products lose 1 - m next to the separatrix
    _, ga, ha = perm
    gap = float(c_sq[ha] * Fraction(s0[ha]) ** 2 - c_sq[ga] * Fraction(s0[ga]) ** 2)
    sol, constants = _lemma1(*(k * s0[i] for k, i in zip(scale, perm)), gap)
    inverse = [perm.index(i) for i in range(3)]
    return "lemma1", constants, _mapped(sol, lambda *fgh: tuple(fgh[j] / scale[j] for j in inverse))


def _case8(params, rho, s0, case_id):
    p2, p4 = params.p2, params.p4
    d0, r0, i0 = s0
    sol, constants = _lemma2(
        4.0 * p2 * p4 * rho * r0, 4.0 * p4 * rho * (p2 * d0 + p4 * rho), -2.0 * p2 * i0
    )
    return "lemma2", constants, _mapped(
        sol, lambda f, g, h: ((g / (4.0 * p4 * rho) - p4 * rho) / p2, f / (4.0 * p2 * p4 * rho), -h / (2.0 * p2))
    )


def _case9(params, rho, s0, case_id):
    p3, p4 = params.p3, params.p4
    d0, r0, i0 = s0
    rt2 = math.sqrt(2.0)
    eta = rt2 * p4 * rho
    sol = solve_lemma3(eta, 2.0 * rt2 * (p3 * d0 + 0.5 * p4 * rho), 2.0 * p3 * i0, 2.0 * rt2 * p3 * r0)
    return "lemma3", {"eta": eta}, _mapped(
        sol, lambda f, g, h: ((f / (2.0 * rt2) - 0.5 * p4 * rho) / p3, h / (2.0 * rt2 * p3), g / (2.0 * p3))
    )


def _case10(params, rho, s0, case_id):
    p3, p5 = params.p3, params.p5
    d0, r0, i0 = s0
    rt2 = math.sqrt(2.0)
    eta = rt2 * p5 * rho
    sol = solve_lemma3(
        eta, -2.0 * rt2 * (p3 * r0 - 0.5 * p5 * rho), -2.0 * p3 * i0, 2.0 * rt2 * p3 * d0
    )
    return "lemma3", {"eta": eta}, _mapped(
        sol, lambda f, g, h: (h / (2.0 * rt2 * p3), (0.5 * p5 * rho - f / (2.0 * rt2)) / p3, -g / (2.0 * p3))
    )


def _case11(params, rho, s0, case_id):
    builder = {1.0: _case11_balanced, 3.0: _case11_dominant}.get(case_id.ratio, _case11_recessive)
    return builder(params, rho, s0)


def _case11_balanced(params, rho, s0):
    p1 = params.p1
    d0, r0, i0 = s0
    if d0 == r0:
        # the fixed circle D = R of p1 = p3, reached within the ratio band
        return "fixed-point", {}, _constant(*s0)
    c_plus = 0.5 * (d0 - r0) ** 2
    # on the sphere rho^2 - (D0 + R0)^2 / 2 = I0^2 + c_plus and atanh(I0 / L)
    # = asinh(I0 / sqrt(c_plus)): forms that do not cancel next to the circle
    big_l = math.sqrt(i0 * i0 + c_plus)
    tau0 = -math.asinh(i0 / math.sqrt(c_plus))
    amp = big_l / math.sqrt(c_plus)
    mean, half = 0.5 * (d0 + r0), 0.5 * (d0 - r0)

    def fn(t):
        arg = 4.0 * p1 * big_l * t + tau0
        s = amp / np.cosh(arg)
        return mean + half * s, mean - half * s, -big_l * np.tanh(arg)

    return "ratio=1", {"L": big_l, "tau0": tau0}, fn


def _case11_dominant(params, rho, s0):
    p3 = params.p1 / 3.0
    d0, r0, i0 = s0
    w_big = math.sqrt(8.0 * rho * rho * (d0 - r0) ** 2 + (d0 + r0) ** 4)
    tau0 = -math.asinh(4.0 * rho * i0 / w_big)
    mean, half = 0.5 * (d0 + r0), 0.5 * (d0 - r0)

    def fn(t):
        arg = 8.0 * p3 * rho * t + tau0
        den = w_big * np.cosh(arg) + (d0 + r0) ** 2
        e4 = 4.0 * rho * rho / den
        e2 = 2.0 * rho / np.sqrt(den)
        return mean * e2 + half * e4, mean * e2 - half * e4, -rho * w_big * np.sinh(arg) / den

    return "ratio=3", {"W": w_big, "tau0": tau0}, fn


def _case11_recessive(params, rho, s0):
    p3 = 3.0 * params.p1
    d0, r0, i0 = s0
    # in X = D + R, Y = D - R (eigenvectors of the flow) X^2 Y is conserved and
    # v = |Y| / sqrt2 solves I^2 v = -(v - a)(v - b)(v - g) for b <= v <= g
    c_minus = 0.5 * (d0 + r0) ** 2
    if c_minus == 0.0:
        # the invariant plane D = -R: collapse onto the lower pole
        tau0 = math.atanh(i0 / rho)

        def fn_diag(t):
            arg = (8.0 / 3.0) * p3 * rho * t - tau0
            d = math.copysign(1.0, d0) * rho / (math.sqrt(2.0) * np.cosh(arg))
            return d, -d, -rho * np.tanh(arg)

        return "ratio=1/3 diag-", {"tau0": tau0}, fn_diag

    # a < 0 <= b <= g solve v^3 - rho^2 v + c- sigma = 0: a and g by the
    # trigonometric method with a Newton step each, b by Vieta (no cancellation
    # next to either plane D = +-R, where it and 1 - m go to 0)
    sigma = abs(d0 - r0) / math.sqrt(2.0)
    r = 2.0 * rho / math.sqrt(3.0)
    phi = math.acos(max(-1.0, -3.0 * c_minus * sigma / (rho * rho * r)))

    def newton(v):
        df = 3.0 * v * v - rho * rho
        return v - (v**3 - rho * rho * v + c_minus * sigma) / df if df != 0.0 else v

    a, g = newton(r * math.cos((phi + 2.0 * math.pi) / 3.0)), newton(r * math.cos(phi / 3.0))
    b = -c_minus * sigma / (a * g)
    beta, nu = -c_minus / (a * g), b / g  # b / sigma and b / g
    m, m1 = (g - b) * -a / (g * (b - a)), b * (g - a) / (g * (b - a))
    rate = math.sqrt(g * (b - a))
    theta = (4.0 / 3.0) * p3 * rate
    # sn0^2 : cn0^2 = 1 - beta : beta - nu, the smaller of g - sigma and sigma - b
    # taken from the larger through (sigma - a)(sigma - b)(g - sigma) = sigma I0^2
    if g - sigma >= sigma - b:
        sn0, cn0 = abs(i0) / math.sqrt(sigma - a), (g - sigma) * math.sqrt(beta / g)
    else:
        sn0, cn0 = sigma - b, sigma * abs(i0) * math.sqrt(beta / (g * (sigma - a)))
    norm = math.hypot(sn0, cn0)
    t0 = el.invert_sn_cn(math.copysign(sn0 / norm, i0), cn0 / norm, m, m1=m1)
    amp_x = math.copysign(math.sqrt(0.5 * (rho - b) * (rho + b)), d0 + r0)
    half_y = 0.5 * (d0 - r0) * beta

    def fn(t):
        sn, cn, dn = el.jacobi_sn_cn_dn(theta * t + t0, m, m1=m1)
        q = cn * cn + nu * sn * sn
        x, y = amp_x * np.sqrt(q), half_y / q
        return x + y, x - y, rate * (1.0 - nu) * sn * cn * dn / q

    return "ratio=1/3 general", {"a": a, "b": b, "g": g, "m": m, "m1": m1, "t0": t0}, fn


def _case14_15(params, rho, s0, case_id):
    # case 14 admits p4, p5 up to 1e-12 of the scale; its formula ignores them
    with_p4 = case_id.case == 15
    p1, p2, p3, p4 = params.p1, params.p2, params.p3, params.p4
    d0, r0, i0 = s0
    theta_ang = math.atan2(p1, p2 + p3)
    sin_t, cos_t = math.sin(theta_ang), math.cos(theta_ang)
    cx = p2 * p4 / (2.0 * p1 * p3 * cos_t) if with_p4 else 0.0
    cy = p4 / (2.0 * p1 * cos_t) if with_p4 else 0.0
    x0 = d0 / (2.0 * sin_t) + r0 / (2.0 * cos_t) + cx * rho
    y0 = -d0 / (2.0 * sin_t) + r0 / (2.0 * cos_t) - cy * rho
    cap = (1.0 - (p4 / (2.0 * p3 * cos_t)) ** 2) * rho * rho if with_p4 else rho * rho
    disc = cap - x0 * x0
    side = "below" if disc > 0.0 else "above" if disc < 0.0 else "at"

    def fn(t):
        e, i = _ent(disc, 4.0 * p1 * t, i0, y0 * y0)
        y = y0 * e
        return sin_t * (x0 - y - (cx + cy) * rho), cos_t * (x0 + y - (cx - cy) * rho), i

    return f"|X| {side} threshold", {"Theta": theta_ang, "X": x0, "Y": y0, "threshold": cap}, fn


_CASE_BUILDERS = {
    1: _case1_5,
    2: _rotation(1, 0, lambda params, rho, s0: 2.0 * params.p2 * s0[2]),
    3: _case3,
    4: _rotation(1, 2, lambda params, rho, s0: 2.0 * params.p4 * rho),
    5: _case1_5,
    6: _case6,
    7: _case7,
    8: _case8,
    9: _case9,
    10: _case10,
    11: _case11,
    12: _rotation(1, 2, lambda params, rho, s0: 2.0 * (2.0 * params.p3 * s0[0] + params.p4 * rho)),
    13: _rotation(0, 2, lambda params, rho, s0: 2.0 * (2.0 * params.p3 * s0[1] - params.p5 * rho)),
    14: _case14_15,
    15: _case14_15,
}

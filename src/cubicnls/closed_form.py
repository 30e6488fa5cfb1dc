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
suite.  An evaluator is a module-level formula of tau and the constants
(a lemma's, then its back-map to (D, R, I)), so the solutions of one
formula evaluate together, one call with their constants as arrays.  The
three lemmas and the p1/p3 = 1/3 family hand the elliptic
kernel 1 - m computed without cancellation, so their separatrices (for 1/3
the planes D = +-R, for lemma 3 K = 0 and R = eta - sqrt(-K)) are the
kernel's m1 = 0; lemma 3's forms on both sides of R = eta - sqrt(-K) are
written from a quarter period, so they stay finite on it.  The elementary
thresholds (case 6 at p1 = p4, cases 14/15 at |X| = sqrt(cap), lemma 3's
plane K = 0) share one formula in functions entire in the threshold
parameter (_ent), and the collapse onto a pole (cases 1 and 5, p1 = p3, 1/3
on D = -R) one formula (_collapse).  No threshold is served by a band but
_solve_states' fixed-point test, which takes states within about 5e-14 rho
of a collapse pole for constants (see the README's known limitations).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import elliptic as el
from .quadratic_flow import _check_sphere, _on_sphere, _qqq
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
    radius and initial state alone).  Solutions with one chain of formula
    functions and static arguments (``_key``, see _run) evaluate together
    (_stacked).  ``_period`` is the trajectory's period in tau, or None,
    which reconstruction folds whole periods out of the phase integral by.
    """

    case_id: CaseId
    branch: str
    constants: dict
    rho: float
    initial: np.ndarray
    _formula: tuple

    def __call__(self, tau):
        tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
        out = np.empty(tau_arr.shape + (3,))
        out[..., 0], out[..., 1], out[..., 2] = _run(self._formula, tau_arr)
        return out[0] if np.ndim(tau) == 0 else out

    eval = __call__

    @property
    def _key(self):
        return tuple(stage[:2] for stage in self._formula)

    @property
    def _period(self):
        """The period in tau of the formula's first stage (the later ones map
        states alone), or None: see _PERIODS."""
        fn, static, consts = self._formula[0]
        rule = _PERIODS.get(fn)
        return None if rule is None else rule(static, *consts)


def _run(formula, t):
    """(f, g, h) at t of a chain of stages (fn, static, constants), each
    fn(t, or the previous f, g, h, *static, *constants); constants may be
    arrays matching t."""
    (fn, static, consts), *rest = formula
    out = fn(t, *static, *consts)
    for fn, static, consts in rest:
        out = fn(*out, *static, *consts)
    return out


def _stacked(sols):
    """(index, tau) -> the rows of sols[index[k]] at tau[k], for sols of one
    ``_key``: one call of their formula, each constant repeated over its own
    solution's taus, bit for bit the solutions' own calls."""
    head = sols[0]
    consts = [np.array([sol._formula[j][2] for sol in sols], dtype=float).T.copy() for j in range(len(head._formula))]

    def evaluate(index, tau):
        formula = tuple((fn, static, c.take(index, axis=1)) for (fn, static, _), c in zip(head._formula, consts))
        return replace(head, _formula=formula)(tau)

    return evaluate


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


def _const(t, f0, g0, h0):
    one = np.ones_like(t)
    return f0 * one, g0 * one, h0 * one


def _constant(f0: float, g0: float, h0: float):
    return ((_const, (), (f0, g0, h0)),)


def _permute(f, g, h, i, j, k):
    """(f, g, h) reordered, e.g. a lemma's components into (D, R, I) order."""
    fgh = (f, g, h)
    return fgh[i], fgh[j], fgh[k]


def _affine(f, g, h, *abc):
    """(f, g, h) mapped by x -> (x / a - b) / c, with (a, b, c) for each in
    turn: a lemma's back-map (b = 0 and c = 1 leave x / a exact)."""
    return tuple((x / a - b) / c for x, a, b, c in zip((f, g, h), abc[0::3], abc[1::3], abc[2::3]))


def _back(order, *abc):
    """The stages of _affine, then the reordering into (D, R, I)."""
    return (_affine, (), abc), (_permute, order, ())


_FLIP = (_affine, (), (1.0, 0.0, 1.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0))  # (f, g, h) -> (f, -g, -h)


def _solution(formula):
    """The lemma solution t -> (f, g, h) of a formula."""
    return lambda t: _run(formula, np.asarray(t, dtype=float))


def _ent(c, x, a, b_sq):
    """(e, j) = (1/q, -q'/q) for q(x) = (ch - a sh)^2 + b_sq sh^2.

    Here ch = cosh(sqrt(c) x / 2) and sh = sinh(sqrt(c) x / 2) / sqrt(c),
    so (e, j) solves e' = e j, j' = j^2 - c - (a^2 + b_sq - c) e / 2 from
    (1, a).  ch and sh are entire in c (cos and sin / sqrt(-c) for c < 0,
    1 and x / 2 at c = 0): one formula serves both sides of the threshold
    c = 0.  Written as a sum of squares, q does not cancel next to the
    saddles, where the expanded form in cosh and sinh of sqrt(c) x loses a
    further factor 1 / distance.  The parameters may be arrays matching x,
    with c of either sign element by element.
    """
    w = np.sqrt(np.abs(c))
    y = 0.5 * w * x
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ch = np.where(c > 0.0, np.cosh(y), np.where(c < 0.0, np.cos(y), 1.0))
        sh = np.where(c == 0.0, 0.5 * x, np.where(c > 0.0, np.sinh(y), np.sin(y)) / w)
        e, j, q = _ent_parts(ch, sh, c, a, b_sq)
        finite = np.isfinite(q) & np.isfinite(j)
        if not finite.all():
            # past overflow (c > 0, |y| above about 354), only where q or j is
            # not finite: the same from ch and sh scaled by e^-|y|, which scales
            # q by z = e^-2|y|, so that e underflows to 0 and j keeps its limit
            z = np.exp(-2.0 * np.abs(y))
            e2, j2, _ = _ent_parts(0.5 * (1.0 + z), np.copysign(0.5, y) * (1.0 - z) / w, c, a, b_sq)
            keep = finite | ~(c > 0.0)
            e, j = np.where(keep, e, z * e2), np.where(keep, j, j2)
    return e, j


def _ent_parts(ch, sh, c, a, b_sq):
    """_ent's (1/q, -q'/q) and q from its ch and sh."""
    u, bsh = ch - a * sh, b_sq * sh
    q = u * u + bsh * sh
    return 1.0 / q, (u * (a * ch - c * sh) - bsh * ch) / q, q


def solve_lemma1(f0: float, g0: float, h0: float):
    """Closed solution of f' = gh, g' = -fh, h' = -fg through (f0, g0, h0).

    f^2 + g^2 and f^2 + h^2 are conserved; (f, g) oscillates as sn/cn and h
    follows dn, with 1 - m = (h0^2 - g0^2)/(f0^2 + h0^2) (g and h swap roles
    when it is negative); at equal radii sn, cn, dn are tanh, sech, sech.
    """
    return _solution(_lemma1(f0, g0, h0, (abs(h0) - abs(g0)) * (abs(h0) + abs(g0)))[0])


def _lemma1(f0: float, g0: float, h0: float, gap: float):
    """solve_lemma1 with gap = h0^2 - g0^2 from a caller who knows it without
    cancellation; its sign decides the swap, so 1 - m is never negative.
    Returns the formula and its constants m, m1 and start u0 of sn."""
    if gap < 0.0:
        formula, constants = _lemma1(f0, h0, g0, -gap)
        return formula + ((_permute, (0, 2, 1), ()),), constants
    if g0 == 0.0 and f0 * h0 == 0.0:  # the rest points, as |h0| >= |g0|
        return _constant(f0, g0, h0), {}
    if gap == 0.0 and g0 < 0.0:
        # cn = sech > 0 at m = 1: reach g0 < 0 by (f, g, h) -> (f, -g, -h)
        formula, constants = _lemma1(f0, -g0, -h0, gap)
        return formula + (_FLIP,), constants

    r_fg, r_fh = math.hypot(f0, g0), math.hypot(f0, h0)
    m, m1 = min((r_fg / r_fh) ** 2, 1.0), min(gap / (r_fh * r_fh), 1.0)
    sig = math.copysign(1.0, h0)
    t0 = el.invert_sn_cn(f0 / r_fg, g0 / r_fg, m, m1=m1)
    return ((_lemma1_fgh, (), (sig * r_fh, t0, m, m1, r_fg)),), {"m": m, "m1": m1, "u0": t0}


def _lemma1_fgh(t, rate, u0, m, m1, r_fg):
    sn, cn, dn = el.jacobi_sn_cn_dn(rate * t + u0, m, m1=m1)
    return r_fg * sn, r_fg * cn, rate * dn


def solve_lemma2(f0: float, g0: float, h0: float):
    """Closed solution of f' = gh, g' = -fh, h' = -f through (f0, g0, h0).

    Here f = -h' and g = (h^2 - h0^2)/2 + g0; h is cn for disc = h0^2 -
    2(sqrt(f0^2 + g0^2) + g0) < 0 and dn otherwise, with 1 - m = |disc| / 4
    over the larger of sqrt(f0^2 + g0^2) and P^2 (a sech pulse at disc = 0).
    """
    return _solution(_lemma2(f0, g0, h0)[0])


def _lemma2(f0: float, g0: float, h0: float):
    """solve_lemma2's formula, and its constants m, m1 and start u0 of sn."""
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
    if disc < 0.0:
        m, m1 = min(p_sq / rfg_sq, 1.0), -disc / (4.0 * rfg_sq)
        # at the start cn = h0 / 2P and |sn| = sqrt(2 (r - g0)) / 2P
        sn0 = math.sqrt(2.0 * r_minus) / (2.0 * p)
        t0 = el.invert_sn_cn(-sn0 if f0 < 0.0 else sn0, h0 / (2.0 * p), m, m1=m1)
        consts = (rate, t0, m, m1, 2.0 * p, 2.0 * p * rate, h0 * h0, g0)
        return ((_lemma2_fgh, (False,), consts),), {"m": m, "m1": m1, "u0": t0}

    m, m1 = min(rfg_sq / p_sq, 1.0), disc / (4.0 * p_sq)
    sig = math.copysign(1.0, h0)
    # at the start sn^2 = (r - g0) / 2r and cn^2 = (r + g0) / 2r
    t0 = el.invert_sn_cn(math.sqrt(r_minus / (2.0 * rfg_sq)), math.sqrt(r_plus / (2.0 * rfg_sq)), m, m1=m1)
    if f0 < 0.0:
        t0 = -t0
    consts = (sig * p, t0, m, m1, sig * 2.0 * p, 2.0 * p_sq * m, h0 * h0, g0)
    return ((_lemma2_fgh, (True,), consts),), {"m": m, "m1": m1, "u0": t0}


def _lemma2_fgh(t, dn_form, rate, u0, m, m1, two_p, amp, h0_sq, g0):
    """h = 2P cn (f = amp sn dn) or, dn_form, h = 2P dn (f = amp sn cn); g = (h^2 - h0^2)/2 + g0."""
    sn, cn, dn = el.jacobi_sn_cn_dn(rate * t + u0, m, m1=m1)
    h = two_p * (dn if dn_form else cn)
    return amp * sn * (cn if dn_form else dn), 0.5 * (h * h - h0_sq) + g0, h


def solve_lemma3(eta: float, f0: float, g0: float, h0: float):
    """Closed solution of f' = -gh, g' = fh, h' = -(f + eta) g, eta > 0.

    R = sqrt(f^2 + g^2) and K = h^2 - (f + eta)^2 are conserved; the branch
    catalogue splits on the sign of K and on R against eta +- sqrt(-K).
    Stationary initial data (the two axes and the line f = -eta, h = 0)
    short-circuit to constants, and h0 < 0 is handled through the symmetry
    (f, g, h) -> (f, -g, -h).
    """
    return _solution(_lemma3(eta, f0, g0, h0))


def _lemma3(eta: float, f0: float, g0: float, h0: float):
    """solve_lemma3's formula."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if g0 * h0 == 0.0 and f0 * h0 == 0.0 and (f0 + eta) * g0 == 0.0:
        return _constant(f0, g0, h0)
    if h0 < 0.0:
        return _lemma3(eta, f0, -g0, -h0) + (_FLIP,)

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


def _orbit_start(sn0, cn0, m1):
    """u0 with (sn, cn)(u0) along (sn0, cn0) at 1 - m = m1."""
    norm = math.hypot(sn0, cn0)
    return el.invert_sn_cn(sn0 / norm, cn0 / norm, 1.0 - m1, m1=m1)


def _orbit(t, rate, u0, m1):
    return el.jacobi_sn_cn_dn(rate * t + u0, 1.0 - m1, m1=m1)


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
    u0 = _orbit_start(g0 * root, r_plus - xi_c * r0, m1)
    return ((_lemma3_k_positive_fgh, (), (theta, u0, m1, xi, xi_c, r0, r0 * root, theta * root)),)


def _lemma3_k_positive_fgh(t, rate, u0, m1, xi, xi_c, r0, c_g, c_h):
    sn, cn, dn = _orbit(t, rate, u0, m1)
    # 1 - cn as sn^2 / (1 + cn) where cn > 0 keeps 1 - xi cn and cn - xi exact
    one_m_cn = np.where(cn > 0.0, sn * sn / (1.0 + np.abs(cn)), 1.0 - cn)
    den = xi_c + xi * one_m_cn
    return r0 * (xi_c - one_m_cn) / den, c_g * sn / den, c_h * dn / den


def _lemma3_k_zero(eta, f0, g0, h0, r0):
    # the invariant surface splits into the two planes h = s (f + eta), s = +-1;
    # on each, u = 1/h solves u'' = (r0^2 - eta^2) u + s eta
    s = 1.0 if f0 + eta > 0.0 else -1.0
    c = (r0 - eta) * (r0 + eta)
    return ((_lemma3_k_zero_fgh, (), (c, -s * g0, h0 * h0, h0, s, -s, eta)),)


def _lemma3_k_zero_fgh(t, c, a, b_sq, h0, s, neg_s, eta):
    e, j = _ent(c, t, a, b_sq)
    h = h0 * e
    return s * h - eta, neg_s * j, h


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
        u0 = _orbit_start(g0 * math.sqrt(a / b) / r_minus,
                          h0 * math.sqrt(2.0 * r0 / ((kap - f0 - eta) * b * r_minus)), m1)
        cg, ch = 2.0 * r0 * math.sqrt(a * b), a * math.sqrt(b * (r_eta + kap))
        return ((_outer_minus, (), (-theta, u0, m1, a, b, r0, cg, ch)),)

    if r_eta > kap:
        u0 = _orbit_start(h0 * math.sqrt(a / b) / (f0 + eta + kap),
                          -g0 * math.sqrt(2.0 * kap / (b * (f0 + eta + kap) * r_plus)), m1)
        cg, ch = a * math.sqrt((r_eta + kap) * b), 2.0 * kap * math.sqrt(a * b)
        return ((_outer_plus, (), (theta, u0, m1, a, b, 2.0 * kap, kap, eta, cg, ch)),)

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
        u0 = _orbit_start(math.copysign(math.sqrt(2.0 * kap * r_minus / a), g0), h0 / math.sqrt(f0 + eta + kap), m1)
        cg, ch = math.sqrt(r0 * a * b / kap), math.sqrt(a * b)
        return ((_middle_inner, (False,), (theta, u0, m1, big_a, r0, 2.0 * r0, cg, ch)),)

    # the inner component R <= eta - kap, a rotation
    theta, big_a = 0.5 * math.sqrt((2.0 * kap - dlt) * b), a / (2.0 * kap - dlt)
    m1 = min(-dlt * big_a / b, 1.0)
    u0 = _orbit_start(math.copysign(math.sqrt(r_minus), g0), math.sqrt(big_a * r_plus), m1)
    cg, ch = 2.0 * r0 * math.sqrt(big_a), math.sqrt(a * b)
    return ((_middle_inner, (True,), (theta, u0, m1, big_a, r0, 2.0 * r0, cg, ch)),)


def _outer_minus(t, rate, u0, m1, a, b, r0, cg, ch):
    sn, cn, dn = _orbit(t, rate, u0, m1)
    den = a + b * sn * sn
    return r0 * (-a + b * sn * sn) / den, cg * sn / den, ch * cn * dn / den


def _outer_plus(t, rate, u0, m1, a, b, two_kap, kap, eta, cg, ch):
    sn, cn, dn = _orbit(t, rate, u0, m1)
    den = a * cn * cn + two_kap * sn * sn  # a - b sn^2
    return -eta + kap * (a + b * sn * sn) / den, -cg * cn * dn / den, ch * sn / den


def _middle_inner(t, inner, rate, u0, m1, big_a, r0, two_r0, cg, ch):
    """The middle form (D from dn^2), or with inner the inner one (from cn^2)."""
    sn, cn, dn = _orbit(t, rate, u0, m1)
    q = big_a * sn * sn + cn * cn
    x, y = (cn, dn) if inner else (dn, cn)
    return -r0 + two_r0 * x * x / q, cg * sn * x / q, ch * y / q


# ---------------------------------------------------------------------------
# per-case builders


def solve_case(params, rho: float, s0) -> ClosedFormSolution:
    """Closed-form trajectory of the quadratic flow through s0.

    Raises UnsupportedCaseError when the parameters are outside the
    catalogue (use the numerical oracle instead) and UnsupportedRatioError
    for a p1/p3 family whose ratio has no catalogued formula.  The radius
    and the state are validated first, so a bad one raises ValueError
    whatever the parameters.  This is the one-state call of _solve_states.
    """
    return next(_solve_states(params, [(rho, s0)]))


def _solve_states(params, states):
    """solve_case at each (rho, state) of an iterable, in turn: the sphere
    checks run as one set of array passes and the per-parameter work
    (classify and its errors, max|p|, the builder, the debug test) once,
    after the first state passes its check; each state is tested for a
    fixed point and built as alone.  A state off its sphere raises its
    error after the states before it."""
    states = list(states)
    if not states:
        return
    rho = [r for r, _ in states]
    s = np.array([x for _, x in states], dtype=float)
    k = _on_sphere(rho, s)
    if k == 0:
        _check_sphere(rho[0], s[0])
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
    p = params.p1, params.p2, params.p3, params.p4, params.p5
    pscale, build = max(*map(abs, p), 1e-300), _CASE_BUILDERS[case_id.case]
    debug = log.isEnabledFor(logging.DEBUG)
    for r, s0, row in zip(rho[:k], s, s[:k].tolist()):
        if math.hypot(*_qqq(*p, r, *row)) <= 1e-13 * r * r * pscale:  # qqq_rhs on floats
            branch, constants, formula = "fixed-point", {}, _constant(*s0)
        else:
            branch, constants, formula = build(params, r, s0, case_id)
        if debug:
            consts = ", ".join(f"{k}={float(v):.17g}" for k, v in constants.items())
            log.debug("solve_case case=%d subcase=%s branch=%s constants={%s}",
                      case_id.case, case_id.subcase or "-", branch, consts)
        yield ClosedFormSolution(case_id, branch, constants, r, s0, formula)
    if k < len(rho):
        _check_sphere(rho[k], s[k])


def _case1_5(params, rho, s0, case_id):
    """Shared closed form for the p1-only and p1/p2 families."""
    # case 1 admits |p2| up to 1e-12 of the scale; its formula takes p2 = 0
    p1, p2 = params.p1, (params.p2 if case_id.case == 5 else 0.0)
    d0, r0, i0 = s0
    tau0, formula = _collapse_from(2.0 * p1 * rho, rho, i0, (0.0, 0.0), (d0, r0), p2 / p1)
    return ("rotating-collapse" if p2 else "collapse"), {"tau0": tau0, "phase0": math.atan2(r0, d0)}, formula


def _collapse_from(k, big_l, i0, centre, offset, ratio=0.0):
    """tau0 = atanh(I0 / L) and the collapse through a state of height I0 and
    in-plane offset X0 - centre, formed exactly: from L - |I0| = r^2 / (L +
    |I0|), r = |offset|, which keeps the digits of r next to a pole."""
    r, a = math.hypot(*offset), abs(i0)
    tau0 = math.copysign(0.5 * math.log1p((2.0 * a / r) * ((big_l + a) / r)), i0)
    amp = big_l / r  # cosh tau0
    return tau0, ((_collapse, (ratio != 0.0,), (k, tau0, ratio, *centre, offset[0] * amp, offset[1] * amp, big_l)),)


def _collapse(t, rotating, k, tau0, ratio, c_d, c_r, a_d, a_r, big_l):
    """(c_d, c_r) + (a_d, a_r) sech(k t - tau0), turned with rotating by ratio
    (log cosh(k t - tau0) - log cosh tau0), and I = -L tanh(k t - tau0)."""
    arg = k * t - tau0
    with np.errstate(over="ignore"):  # cosh = inf past |arg| ~ 710, where sech is 0 as it should be
        ch = np.cosh(arg)
    x, y = a_d / ch, a_r / ch
    if rotating:
        phase = ratio * (np.logaddexp(arg, -arg) - np.logaddexp(tau0, -tau0))
        cos, sin = np.cos(phase), np.sin(phase)
        x, y = x * cos - y * sin, x * sin + y * cos
    return c_d + x, c_r + y, -big_l * np.tanh(arg)


def _rotation(i, j, rate):
    """Builder of a rigid rotation taking component i towards component j.

    rate(params, rho, s0) is the angular rate; the third component stays
    constant.
    """

    def build(params, rho, s0, case_id):
        w = rate(params, rho, s0)
        return "rotation", {"rate": w}, ((_rotate, (i, j), (w, *s0)),)

    return build


def _rotate(t, i, j, w, *s0):
    ang = w * t
    c, s = np.cos(ang), np.sin(ang)
    out = [x * np.ones_like(ang) for x in s0]
    out[i] = s0[i] * c - s0[j] * s
    out[j] = s0[i] * s + s0[j] * c
    return tuple(out)


def _case3(params, rho, s0, case_id):
    p3 = params.p3
    d0, r0, i0 = s0
    k = math.sqrt(8.0) * p3
    gap = 8.0 * p3 * p3 * (abs(d0) - abs(r0)) * (abs(d0) + abs(r0))
    formula, constants = _lemma1(2.0 * p3 * i0, k * r0, k * d0, gap)
    return "lemma1", constants, formula + _back((2, 1, 0), 2.0 * p3, 0.0, 1.0, k, 0.0, 1.0, k, 0.0, 1.0)


def _case6(params, rho, s0, case_id):
    p1, p4 = params.p1, params.p4
    d0, r0, i0 = s0
    mu = p4 / p1
    c1 = d0 * d0 + (r0 - mu * rho) ** 2
    c2 = -2.0 * rho * mu * (r0 - mu * rho)
    c3 = (p1 - p4) * (p1 + p4) * rho * rho / (p1 * p1)
    branch = "p1>p4" if c3 > 0.0 else "p1<p4" if c3 < 0.0 else "p1=p4"
    consts = (c3, 2.0 * p1, i0, c1, d0, r0 - mu * rho, mu * rho)
    return branch, {"C1": c1, "C2": c2, "C3": c3}, ((_case6_fn, (), consts),)


def _case6_fn(t, c3, two_p1, i0, c1, d0, r_off, mu_rho):
    e, i = _ent(c3, two_p1 * t, i0, c1)
    return e * d0, e * r_off + mu_rho, i


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
    formula, constants = _lemma1(*(k * s0[i] for k, i in zip(scale, perm)), gap)
    inverse = tuple(perm.index(i) for i in range(3))
    return "lemma1", constants, formula + _back(inverse, *(v for a in scale for v in (a, 0.0, 1.0)))


def _case8(params, rho, s0, case_id):
    p2, p4 = params.p2, params.p4
    d0, r0, i0 = s0
    formula, constants = _lemma2(
        4.0 * p2 * p4 * rho * r0, 4.0 * p4 * rho * (p2 * d0 + p4 * rho), -2.0 * p2 * i0
    )
    return "lemma2", constants, formula + _back(
        (1, 0, 2), 4.0 * p2 * p4 * rho, 0.0, 1.0, 4.0 * p4 * rho, p4 * rho, p2, -2.0 * p2, 0.0, 1.0)


def _case9(params, rho, s0, case_id):
    p3, p4 = params.p3, params.p4
    d0, r0, i0 = s0
    rt2 = math.sqrt(2.0)
    eta = rt2 * p4 * rho
    formula = _lemma3(eta, 2.0 * rt2 * (p3 * d0 + 0.5 * p4 * rho), 2.0 * p3 * i0, 2.0 * rt2 * p3 * r0)
    return "lemma3", {"eta": eta}, formula + _back(
        (0, 2, 1), 2.0 * rt2, 0.5 * p4 * rho, p3, 2.0 * p3, 0.0, 1.0, 2.0 * rt2 * p3, 0.0, 1.0)


def _case10(params, rho, s0, case_id):
    p3, p5 = params.p3, params.p5
    d0, r0, i0 = s0
    rt2 = math.sqrt(2.0)
    eta = rt2 * p5 * rho
    formula = _lemma3(eta, -2.0 * rt2 * (p3 * r0 - 0.5 * p5 * rho), -2.0 * p3 * i0, 2.0 * rt2 * p3 * d0)
    # x / -a - -b = b - x / a and x / -a = -x / a, bit for bit
    return "lemma3", {"eta": eta}, formula + _back(
        (2, 0, 1), -2.0 * rt2, -0.5 * p5 * rho, p3, -2.0 * p3, 0.0, 1.0, 2.0 * rt2 * p3, 0.0, 1.0)


def _case11(params, rho, s0, case_id):
    builder = {1.0: _case11_balanced, 3.0: _case11_dominant}.get(case_id.ratio, _case11_recessive)
    return builder(params, rho, s0)


def _case11_balanced(params, rho, s0):
    d0, r0, i0 = s0
    if d0 == r0:
        # the fixed circle D = R of p1 = p3, reached within the ratio band
        return "fixed-point", {}, _constant(*s0)
    # the collapse about (mean, mean, 0); L^2 = I0^2 + (D0 - R0)^2 / 2 does not cancel next to the circle
    mean, half = 0.5 * (d0 + r0), 0.5 * (d0 - r0)
    big_l = math.sqrt(i0 * i0 + 2.0 * half * half)
    tau0, formula = _collapse_from(4.0 * params.p1 * big_l, big_l, i0, (mean, mean), (half, -half))
    return "ratio=1", {"L": big_l, "tau0": tau0}, formula


def _case11_dominant(params, rho, s0):
    p3 = params.p1 / 3.0
    d0, r0, i0 = s0
    w_big = math.sqrt(8.0 * rho * rho * (d0 - r0) ** 2 + (d0 + r0) ** 4)
    tau0 = -math.asinh(4.0 * rho * i0 / w_big)
    mean, half = 0.5 * (d0 + r0), 0.5 * (d0 - r0)
    consts = (8.0 * p3 * rho, tau0, w_big, (d0 + r0) ** 2, 4.0 * rho * rho, 2.0 * rho, mean, half, -rho * w_big)
    return "ratio=3", {"W": w_big, "tau0": tau0}, ((_dominant, (), consts),)


def _dominant(t, w, tau0, w_big, x_sq, four_rho_sq, two_rho, mean, half, c_i):
    arg = w * t + tau0
    den = w_big * np.cosh(arg) + x_sq
    e4 = four_rho_sq / den
    e2 = two_rho / np.sqrt(den)
    return mean * e2 + half * e4, mean * e2 - half * e4, c_i * np.sinh(arg) / den


def _case11_recessive(params, rho, s0):
    p3 = 3.0 * params.p1
    d0, r0, i0 = s0
    # in X = D + R, Y = D - R (eigenvectors of the flow) X^2 Y is conserved and
    # v = |Y| / sqrt2 solves I^2 v = -(v - a)(v - b)(v - g) for b <= v <= g
    c_minus = 0.5 * (d0 + r0) ** 2
    if c_minus == 0.0:
        # the invariant plane D = -R: collapse onto the lower pole
        tau0, formula = _collapse_from((8.0 / 3.0) * p3 * rho, rho, i0, (0.0, 0.0), (d0, r0))
        return "ratio=1/3 diag-", {"tau0": tau0}, formula

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
    consts = (theta, t0, m, m1, nu, amp_x, half_y, rate * (1.0 - nu))
    return "ratio=1/3 general", {"a": a, "b": b, "g": g, "m": m, "m1": m1, "t0": t0}, ((_recessive, (), consts),)


def _recessive(t, rate, u0, m, m1, nu, amp_x, half_y, c_i):
    sn, cn, dn = el.jacobi_sn_cn_dn(rate * t + u0, m, m1=m1)
    q = cn * cn + nu * sn * sn
    x, y = amp_x * np.sqrt(q), half_y / q
    return x + y, x - y, c_i * sn * cn * dn / q


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
    consts = (disc, 4.0 * p1, i0, y0 * y0, y0, sin_t, cos_t, x0, (cx + cy) * rho, (cx - cy) * rho)
    return f"|X| {side} threshold", {"Theta": theta_ang, "X": x0, "Y": y0, "threshold": cap}, \
        ((_case14_15_fn, (), consts),)


def _case14_15_fn(t, disc, four_p1, i0, y0_sq, y0, sin_t, cos_t, x0, c_d, c_r):
    e, i = _ent(disc, four_p1 * t, i0, y0_sq)
    y = y0 * e
    return sin_t * (x0 - y - c_d), cos_t * (x0 + y - c_r), i


def _sn_period(quarters, rate, m, m1):
    """quarters K / |rate| for a stage of sn, cn, dn at rate tau + u0, with K
    from the AGM chain the kernel reduces by; None at m1 = 0 (the hyperbolic
    forms)."""
    return quarters * el._chain(m, m1).K / abs(rate) if m1 > 0.0 and rate else None


def _ent_period(c, scale):
    """2 pi / (sqrt|c| |scale|) for _ent at scale tau, periodic for c < 0 alone."""
    return 2.0 * math.pi / (math.sqrt(-c) * abs(scale)) if c < 0.0 and scale else None


# the period in tau of a formula's first stage, by its function, from its
# static arguments and constants: sn, cn and dn repeat after 4K, lemma 2's dn
# form and the 1/3 family's quotients after 2K; the stages not listed
# (constants, the collapse, p1/p3 = 3) have none
_PERIODS = {
    _lemma1_fgh: lambda static, rate, u0, m, m1, *_: _sn_period(4.0, rate, m, m1),
    _lemma2_fgh: lambda static, rate, u0, m, m1, *_: _sn_period(2.0 if static[0] else 4.0, rate, m, m1),
    _recessive: lambda static, rate, u0, m, m1, *_: _sn_period(2.0, rate, m, m1),
    **dict.fromkeys((_lemma3_k_positive_fgh, _outer_minus, _outer_plus, _middle_inner),
                    lambda static, rate, u0, m1, *_: _sn_period(4.0, rate, 1.0 - m1, m1)),
    _rotate: lambda static, w, *_: 2.0 * math.pi / abs(w) if w else None,
    _lemma3_k_zero_fgh: lambda static, c, *_: _ent_period(c, 1.0),
    **dict.fromkeys((_case6_fn, _case14_15_fn), lambda static, c, scale, *_: _ent_period(c, scale)),
}

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

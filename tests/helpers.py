"""Shared test machinery: oracle comparisons and branch-targeted states.

The closed-form acceptance sweep needs initial states driven into every
formula branch, including the measure-zero threshold families (equal
conserved radii, vanishing branch invariants, states exactly on threshold
planes).  Generic branches are filled by seeded rejection sampling; the
threshold families are constructed exactly, parametrized along their
defining curves on the sphere.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import logging
import math

import numpy as np
from scipy.optimize import brentq

import cubicnls.quadratic_flow as qf
from cubicnls.closed_form import (
    _CASE_BUILDERS,
    ClosedFormSolution,
    UnsupportedCaseError,
    UnsupportedRatioError,
    _constant,
    _stacked,
    classify,
    log,
    solve_case,
)
from cubicnls.quadratic_flow import (
    _DP5_A,
    _DP5_B,
    _DP5_E,
    _DP5_EXPONENT,
    _DP5_MAX_FACTOR,
    _DP5_MIN_FACTOR,
    _DP5_SAFETY,
    StiffnessError,
    _check_sphere,
    _qqq,
    amplitudes_to_quad,
    integrate_quad,
    qqq_rhs,
    random_sphere_states,
)
from cubicnls.cli import _Parser, cmd_fixed_points, cmd_profile, cmd_solve, cmd_standardize
from cubicnls.profile import ExtrapolationError, _prefactor
from cubicnls.reconstruction import (
    _G7_W,
    _GK_X,
    _INCONSISTENT,
    _K15_W,
    _MAX_LEVELS,
    _MAX_PANELS,
    _PANEL_WIDTH,
    _PHASE_TOL,
    PhaseIntegralError,
    SingularAnchorError,
)
from cubicnls.standard_form import StandardParams

RHOS = (0.5, 1.0, 2.0)

# members of every catalogued family 1..15, with p4 >= 0 where p5 = 0 (the
# sign the reduction picks when the rotation leaves it free)
CATALOGUE = [
    (1, 0, 0, 0, 0), (0.4, 0, 0, 0, 0), (0, -0.8, 0, 0, 0), (0, 0.5, 0, 0, 0), (0, 0, 1.1, 0, 0),
    (0, 0, 0, 0.9, 0), (0, 0, 0, 0.3, 0), (1, 0.7, 0, 0, 0), (1, 0, 0, 0.4, 0), (1, 0, 0, 1, 0),
    (0.5, 0, 0, 1.2, 0), (0, -2, 1, 0, 0), (0, 0.4, 1, 0, 0), (0, 2, 1, 0, 0), (0, 0.8, 0, 0.5, 0),
    (0, -0.3, 0, 0.9, 0), (0, 0, 1, 0.3, 0), (0, 0, 1, 1.5, 0), (0, 0, 1, 0, 0.3), (0, 0, 1, 0, 1.3),
    (1, 0, 1, 0, 0), (3, 0, 1, 0, 0), (1, 0, 3, 0, 0), (0, 0.7, 0.7, 0.4, 0), (0, -0.7, 0.7, 0, 0.4),
    (0.6, 0.8, 1, 0, 0), (0.6, 0.8, 1, 0.5, 0.5 * 0.6 / 1.8),
]


def split_counts(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def closed_vs_oracle(params, rho, s0, *, span_fac=5.0, n_eval=33, tol=1e-10) -> float:
    """Sup deviation between the closed form and the adaptive oracle over
    tau in [-span, span] with span = span_fac / (rho * max|p|)."""
    big_p = max(abs(x) for x in params.p)
    span = span_fac / (rho * big_p)
    sol = solve_case(params, rho, s0)
    worst = 0.0
    for sgn in (1.0, -1.0):
        taus = sgn * np.linspace(0.0, span, n_eval)
        tr = integrate_quad(params, rho, s0, (0.0, sgn * span), tol=tol)
        worst = max(worst, float(np.max(np.abs(sol(taus) - tr.at(taus)))))
    return worst


def is_fixed_point(params, rho, s) -> bool:
    pscale = max(abs(x) for x in params.p)
    return np.linalg.norm(qqq_rhs(params, rho, s)) <= 1e-12 * rho * rho * pscale


# ---------------------------------------------------------------------------
# branch keys
#
# Lemmas 1 and 2 have no threshold formula: their "equal-radii" and "sech"
# keys label the states within 1e-10 of the separatrix, which the elliptic
# form serves at 1 - m near 0.  Nor have case 6 and cases 14/15: their
# "p1=p4" and "X threshold" keys label the states next to a threshold, which
# one entire-function formula serves on both sides, and no longer name a
# formula.  The same holds for the p1/p3 = 1/3 keys "1/3 diag+" and
# "1/3 diag-" (one elliptic formula, 1 - m near 0 next to the planes
# D = +-R; only the plane D = -R itself has its own) and for all of lemma
# 3's threshold keys: "K0 ..." (the elliptic forms with exact 1 - m on
# either side of K = 0; only a state exactly on the plane takes its
# entire-function formula), "K- R=eta+k" (the outer and middle elliptic
# forms) and "K- R=eta-k" (the middle and inner forms, which meet on the
# separatrix) now only label states.


def _lemma1_key(f0, g0, h0) -> str:
    r_fg, r_fh = math.hypot(f0, g0), math.hypot(f0, h0)
    big = max(r_fg, r_fh, 1e-300)
    if abs(r_fh - r_fg) <= 1e-10 * big:
        return "equal-radii"
    return "dn" if r_fh > r_fg else "dn-swapped"


def _lemma2_key(f0, g0, h0) -> str:
    disc = h0 * h0 - 2.0 * (math.hypot(f0, g0) + g0)
    scale = max(h0 * h0, math.hypot(f0, g0), 1e-300)
    if abs(disc) <= 1e-10 * scale:
        return "sech"
    return "cn" if disc < 0 else "dn"


def _lemma3_key(eta, f0, g0, h0) -> str:
    r0 = math.hypot(f0, g0)
    k0 = h0 * h0 - (f0 + eta) ** 2
    scale = max(r0, eta, abs(h0), abs(f0 + eta))
    if abs(k0) <= 1e-10 * scale * scale:
        if abs(r0 - eta) <= 1e-10 * scale:
            return "K0 R=eta"
        tag = "K0 R<eta" if r0 < eta else "K0 R>eta"
        if f0 + eta < 0:
            tag = "K0 f+eta<0"
        return tag
    if k0 > 0:
        return "K+"
    kap = math.sqrt(-k0)
    if abs(r0 - (eta + kap)) <= 1e-10 * scale:
        return "K- R=eta+k"
    if abs(r0 - (eta - kap)) <= 1e-10 * scale:
        return "K- R=eta-k"
    if r0 > eta + kap:
        return "K- outer S+" if f0 + eta > 0 else "K- outer S-"
    return "K- middle" if r0 > eta - kap else "K- inner"


def lemma_coords(params, rho, s):
    """Map a state to the coordinates of the lemma its case is solved by."""
    d, r, i = s
    p1, p2, p3, p4, p5 = (float(x) for x in params.p)
    case = _casenum(params)
    if case == 3:
        k = math.sqrt(8.0) * p3
        return "lemma1", (2.0 * p3 * i, k * r, k * d)
    if case == 7:
        if p2 < -p3:
            return "lemma1", (
                -math.sqrt(8 * p3 * abs(p2 + p3)) * d,
                math.sqrt(8 * p3 * (p3 - p2)) * r,
                2 * math.sqrt(p2 * p2 - p3 * p3) * i,
            )
        if p2 < p3:
            return "lemma1", (
                2 * math.sqrt(p3 * p3 - p2 * p2) * i,
                math.sqrt(8 * p3 * (p3 - p2)) * r,
                math.sqrt(8 * p3 * (p2 + p3)) * d,
            )
        return "lemma1", (
            -math.sqrt(8 * p3 * (p2 - p3)) * r,
            math.sqrt(8 * p3 * (p2 + p3)) * d,
            2 * math.sqrt(p2 * p2 - p3 * p3) * i,
        )
    if case == 8:
        return "lemma2", (4 * p2 * p4 * rho * r, 4 * p4 * rho * (p2 * d + p4 * rho), -2 * p2 * i)
    if case == 9:
        rt2 = math.sqrt(2.0)
        return "lemma3", (rt2 * p4 * rho, 2 * rt2 * (p3 * d + 0.5 * p4 * rho), 2 * p3 * i, 2 * rt2 * p3 * r)
    if case == 10:
        rt2 = math.sqrt(2.0)
        return "lemma3", (rt2 * p5 * rho, -2 * rt2 * (p3 * r - 0.5 * p5 * rho), -2 * p3 * i, 2 * rt2 * p3 * d)
    return "none", ()


def _casenum(params) -> int:
    from cubicnls.closed_form import classify

    return classify(params).case


def branch_key(params, rho, s) -> str:
    """Branch label of the closed-form formula that a state will take."""
    from cubicnls.closed_form import classify

    cid = classify(params)
    d, r, i = (float(v) for v in s)
    p1, p2, p3, p4, p5 = (float(x) for x in params.p)
    if cid.case in (1, 2, 4, 5, 12, 13):
        return "generic"
    if cid.case == 6:
        return cid.subcase
    if cid.case in (3, 7):
        kind, coords = lemma_coords(params, rho, s)
        prefix = cid.subcase + " " if cid.case == 7 else ""
        return prefix + _lemma1_key(*coords)
    if cid.case == 8:
        _, coords = lemma_coords(params, rho, s)
        return _lemma2_key(*coords)
    if cid.case in (9, 10):
        _, coords = lemma_coords(params, rho, s)
        return _lemma3_key(*coords)
    if cid.case == 11:
        if cid.ratio == 1.0 or cid.ratio == 3.0:
            return cid.subcase
        c_plus = 0.5 * (d - r) ** 2
        c_minus = 0.5 * (d + r) ** 2
        if c_plus <= 1e-10 * rho * rho:
            return "1/3 diag+"
        if c_minus <= 1e-10 * rho * rho:
            return "1/3 diag-"
        if abs(i) <= 1e-12 * rho:
            return "1/3 I0=0 beta" if 2 * c_plus > c_minus else "1/3 I0=0 gamma"
        return "1/3 general"
    if cid.case in (14, 15):
        theta = math.atan2(p1, p2 + p3)
        cx = p2 * p4 / (2 * p1 * p3 * math.cos(theta)) if cid.case == 15 else 0.0
        x0 = d / (2 * math.sin(theta)) + r / (2 * math.cos(theta)) + cx * rho
        cap = (1 - (p4 / (2 * p3 * math.cos(theta))) ** 2) * rho * rho if cid.case == 15 else rho * rho
        disc = cap - x0 * x0
        if abs(disc) <= 1e-10 * rho * rho:
            return "X threshold"
        return "X below" if disc > 0 else "X above"
    return "generic"


# ---------------------------------------------------------------------------
# state construction


def sample_branch_states(params, rho, want_key, n, seed, pool=6000):
    """Seeded random on-sphere states whose branch key matches ``want_key``.

    Fixed points are skipped.  Raises if the pool cannot fill the request,
    which signals the parameters cannot reach the branch at all.
    """
    states = []
    for s in random_sphere_states(rho, pool, seed):
        if len(states) == n:
            break
        if is_fixed_point(params, rho, s):
            continue
        if branch_key(params, rho, s) == want_key:
            states.append(s)
    if len(states) < n:
        raise AssertionError(
            f"pool exhausted: {len(states)}/{n} states for branch {want_key!r} of p={tuple(params.p)}"
        )
    return states


def _on_sphere(d, r, rho, sign_i):
    i_sq = rho * rho - d * d - r * r
    if i_sq < 0:
        return None
    return np.array([d, r, sign_i * math.sqrt(i_sq)])


def curve_states(rho, r_of_d, d_grid, sign_i=1.0):
    """States (d, r(d), +-I) on the sphere along an explicit curve."""
    out = []
    for d in d_grid:
        r = r_of_d(d)
        s = _on_sphere(d, r, rho, sign_i)
        if s is not None:
            out.append(s)
    return out


def solve_on_sphere(fun, rho, d_grid, r_samples=160):
    """States with fun(state) = 0, found by sweeping D and bracketing in R.

    ``fun`` takes a state array; for each D the R-interval on the sphere is
    scanned for sign changes of fun at both signs of I.
    """
    found = []
    for d in d_grid:
        r_max = math.sqrt(max(rho * rho - d * d, 0.0))
        if r_max == 0.0:
            continue
        rs = np.linspace(-r_max, r_max, r_samples)
        for sign_i in (1.0, -1.0):
            vals = []
            for r in rs:
                s = _on_sphere(d, r, rho, sign_i)
                vals.append(fun(s) if s is not None else np.nan)
            vals = np.asarray(vals)
            for j in range(len(rs) - 1):
                if np.isnan(vals[j]) or np.isnan(vals[j + 1]):
                    continue
                if vals[j] == 0.0:
                    found.append(_on_sphere(d, rs[j], rho, sign_i))
                elif vals[j] * vals[j + 1] < 0.0:
                    r_star = brentq(
                        lambda r: fun(_on_sphere(d, r, rho, sign_i)), rs[j], rs[j + 1], xtol=1e-15
                    )
                    found.append(_on_sphere(d, r_star, rho, sign_i))
    return [s for s in found if s is not None]


# ---------------------------------------------------------------------------
# the per-case branch inventory used by the acceptance sweep


def std(p1=0.0, p2=0.0, p3=0.0, p4=0.0, p5=0.0, q=(0.0, 0.0, 0.0)):
    return StandardParams(p1, p2, p3, p4, p5, *q)


def near_touch(gap: float):
    """Uncatalogued parameters whose planar flow X' = A X + b is a centre,
    and the state at rho = 1 on one of its ellipses where |X| has a maximum
    sqrt(1 - gap^2): the orbit comes within I = gap rho of the equator there,
    a near-touch of the sphere.  At gap = 0 the ellipse touches the equator,
    at a fixed point of the flow."""
    params, gap = std(p2=0.8, p3=0.3, p4=0.2, p5=0.1, q=(0.1, -0.2, 0.3)), float(gap)
    a, b, r = np.array([[0.0, 0.5], [-1.1, 0.0]]), np.array([0.1, -0.2]), math.sqrt(1.0 - gap * gap)

    def x_at(th):
        return r * np.array([math.cos(th), math.sin(th)])

    th = brentq(lambda th: x_at(th) @ (a @ x_at(th) + b), 1.9, 2.1)  # |X| is largest there
    return params, np.array([*x_at(th), gap])


def case_branch_plan():
    """(label, params, branch key, threshold family or None) inventory.

    The threshold entry, when present, is a callable (rho -> list of exact
    states) used instead of rejection sampling.
    """
    plan = []

    def add(label, params, key, family=None):
        plan.append((label, params, key, family))

    add("case1", std(p1=1.0), "generic")
    add("case2", std(p2=-0.8), "generic")
    add("case4", std(p4=0.9), "generic")
    add("case5", std(p1=1.0, p2=0.7), "generic")
    add("case12", std(p2=0.7, p3=0.7, p4=0.4), "generic")
    add("case13", std(p2=-0.7, p3=0.7, p5=0.4), "generic")

    add("case6>", std(p1=1.0, p4=0.4), "p1>p4")
    add("case6=", std(p1=1.0, p4=1.0), "p1=p4")
    add("case6<", std(p1=0.5, p4=1.2), "p1<p4")

    # pure p3: lemma 1 through the triple (2 p3 I, sqrt8 p3 R, sqrt8 p3 D)
    p3v = 1.1
    pc3 = std(p3=p3v)
    add("case3 dn", pc3, "dn")
    add("case3 swap", pc3, "dn-swapped")
    add(
        "case3 eq",
        pc3,
        "equal-radii",
        lambda rho: curve_states(rho, lambda d: d, np.linspace(-0.69, 0.69, 40) * rho)
        + curve_states(rho, lambda d: -d, np.linspace(-0.69, 0.69, 40) * rho, sign_i=-1.0),
    )

    # p2/p3 mixtures: three sign regimes, each with the three lemma-1 branches
    for tag, p2v in (("p2<-p3", -2.0), ("mid", 0.4), ("p2>p3", 2.0)):
        pc7 = std(p2=p2v, p3=1.0)
        sub = {"p2<-p3": "p2<-p3", "mid": "-p3<p2<p3", "p2>p3": "p2>p3"}[tag]
        add(f"case7 {tag} dn", pc7, f"{sub} dn")
        add(f"case7 {tag} swap", pc7, f"{sub} dn-swapped")

        def family7(rho, p2v=p2v):
            # equal lemma radii: cg^2 * (mid coordinate)^2 = ch^2 * (last)^2
            p2a, p3a = p2v, 1.0
            if p2a < -p3a:
                ratio = math.sqrt((p3a - p2a) / (2.0 * abs(p2a + p3a) / (4 * p3a) * 4 * p3a))
                # cg^2 R^2 = ch^2 I^2 with cg^2 = 8 p3 (p3 - p2), ch^2 = 4 (p2^2 - p3^2)
                c = math.sqrt(4 * (p2a**2 - p3a**2) / (8 * p3a * (p3a - p2a)))
                out = []
                for sgn in (1.0, -1.0):
                    # R = sgn * c * I on the sphere: parametrize by I
                    for i0 in np.linspace(-0.95, 0.95, 40) * rho / math.hypot(1, c):
                        r0 = sgn * c * i0
                        dsq = rho * rho - r0 * r0 - i0 * i0
                        if dsq > 1e-6:
                            out.append(np.array([math.sqrt(dsq), r0, i0]))
                            out.append(np.array([-math.sqrt(dsq), r0, i0]))
                return out
            if p2a < p3a:
                c = math.sqrt(8 * p3a * (p2a + p3a) / (8 * p3a * (p3a - p2a)))
                return curve_states(rho, lambda d: c * d, np.linspace(-0.9, 0.9, 50) * rho / math.hypot(1, c)) + curve_states(
                    rho, lambda d: -c * d, np.linspace(-0.9, 0.9, 50) * rho / math.hypot(1, c), sign_i=-1.0
                )
            c = math.sqrt(4 * (p2a**2 - p3a**2) / (8 * p3a * (p2a + p3a)))
            out = []
            for sgn in (1.0, -1.0):
                for i0 in np.linspace(-0.95, 0.95, 40) * rho / math.hypot(1, c):
                    d0 = sgn * c * i0
                    rsq = rho * rho - d0 * d0 - i0 * i0
                    if rsq > 1e-6:
                        out.append(np.array([d0, math.sqrt(rsq), i0]))
                        out.append(np.array([d0, -math.sqrt(rsq), i0]))
            return out

        add(f"case7 {tag} eq", pc7, f"{sub} equal-radii", family7)

    # p2/p4 mixture: lemma 2 branches
    pc8 = std(p2=0.8, p4=0.5)
    add("case8 cn", pc8, "cn")
    add("case8 dn", pc8, "dn")

    def family8(rho, params=pc8):
        def gap(s):
            _, (f0, g0, h0) = lemma_coords(params, rho, s)[0], lemma_coords(params, rho, s)[1]
            return h0 * h0 - 2.0 * (math.hypot(f0, g0) + g0)

        return solve_on_sphere(gap, rho, np.linspace(-0.98, 0.98, 18) * rho)

    add("case8 sech", pc8, "sech", family8)

    # p3/p4 and p3/p5 mixtures: lemma 3 branch catalogue.  The coupling
    # windows that reach each regime on the sphere were mapped empirically;
    # note the K = 0 family carries a constant lemma radius, so its R = eta
    # subcase needs the coupling pinned at exactly the p3 value.
    for label, mk in (
        ("case9", lambda c: std(p3=1.0, p4=c)),
        ("case10", lambda c: std(p3=1.0, p5=c)),
    ):
        for key, coupling in (
            ("K+", 0.3),
            ("K- outer S+", 0.3),
            ("K- outer S-", 0.3),
            ("K- middle", 1.5),
            ("K- inner", 1.3),
        ):
            add(f"{label} {key}", mk(coupling), key)
        for kzero_key, coupling in (
            ("K0 R<eta", 1.2),
            ("K0 R=eta", 1.0),
            ("K0 R>eta", 0.6),
            ("K0 f+eta<0", 0.6),
        ):
            params = mk(coupling)

            def family_kzero(rho, params=params, want=kzero_key):
                def kval(s):
                    _, coords = lemma_coords(params, rho, s)
                    eta, f0, g0, h0 = coords
                    return h0 * h0 - (f0 + eta) ** 2

                states = solve_on_sphere(kval, rho, np.linspace(-0.98, 0.98, 40) * rho)
                return [s for s in states if _branch_of(params, rho, s) == want]

            add(f"{label} {kzero_key}", params, kzero_key, family_kzero)
        for thr_key, coupling in (("K- R=eta+k", 0.6), ("K- R=eta-k", 1.35)):
            params = mk(coupling)

            def family_thr(rho, params=params, want=thr_key):
                sign = 1.0 if want.endswith("+k") else -1.0

                def gap(s):
                    _, coords = lemma_coords(params, rho, s)
                    eta, f0, g0, h0 = coords
                    k0 = h0 * h0 - (f0 + eta) ** 2
                    if k0 >= 0:
                        return np.nan
                    return math.hypot(f0, g0) - (eta + sign * math.sqrt(-k0))

                return solve_on_sphere(gap, rho, np.linspace(-0.98, 0.98, 40) * rho)

            add(f"{label} {thr_key}", params, thr_key, family_thr)

    # special p1/p3 ratios
    add("case11 r1", std(p1=1.0, p3=1.0), "ratio=1")
    add("case11 r3", std(p1=3.0, p3=1.0), "ratio=3")
    pc11 = std(p1=1.0, p3=3.0)
    add("case11 r1/3 gen", pc11, "1/3 general")
    add(
        "case11 r1/3 diag+",
        pc11,
        "1/3 diag+",
        lambda rho: curve_states(rho, lambda d: d, np.linspace(-0.69, 0.69, 40) * rho)
        + curve_states(rho, lambda d: d, np.linspace(-0.69, 0.69, 40) * rho, sign_i=-1.0),
    )
    add(
        "case11 r1/3 diag-",
        pc11,
        "1/3 diag-",
        lambda rho: curve_states(rho, lambda d: -d, np.linspace(-0.69, 0.69, 40) * rho)
        + curve_states(rho, lambda d: -d, np.linspace(-0.69, 0.69, 40) * rho, sign_i=-1.0),
    )

    def family11_i0(rho, beta_side):
        out = []
        for ang in np.linspace(0.02, 2 * math.pi - 0.02, 160):
            s = np.array([rho * math.cos(ang), rho * math.sin(ang), 0.0])
            if branch_key(pc11, rho, s) == ("1/3 I0=0 beta" if beta_side else "1/3 I0=0 gamma"):
                if not is_fixed_point(pc11, rho, s):
                    out.append(s)
        return out

    add("case11 r1/3 I0=0 beta", pc11, "1/3 I0=0 beta", lambda rho: family11_i0(rho, True))
    add("case11 r1/3 I0=0 gamma", pc11, "1/3 I0=0 gamma", lambda rho: family11_i0(rho, False))

    # conserved-plane families
    pc14 = std(p1=0.6, p2=0.8, p3=1.0)
    add("case14 below", pc14, "X below")
    add("case14 above", pc14, "X above")

    def family14(rho, params=pc14, cap_of=lambda rho: rho * rho):
        theta = math.atan2(params.p1, params.p2 + params.p3)
        cx = 0.0
        if params.p4 > 0:
            cx = params.p2 * params.p4 / (2 * params.p1 * params.p3 * math.cos(theta))
        target = math.sqrt(cap_of(rho))
        out = []
        for sgn in (1.0, -1.0):
            def r_of_d(d, sgn=sgn):
                return 2 * math.cos(theta) * (sgn * target - cx * rho - d / (2 * math.sin(theta)))

            out += curve_states(rho, r_of_d, np.linspace(-0.98, 0.98, 60) * rho)
            out += curve_states(rho, r_of_d, np.linspace(-0.98, 0.98, 60) * rho, sign_i=-1.0)
        return out

    add("case14 thr", pc14, "X threshold", family14)
    p4v = 0.5
    pc15 = std(p1=0.6, p2=0.8, p3=1.0, p4=p4v, p5=p4v * 0.6 / 1.8)
    add("case15 below", pc15, "X below")
    add("case15 above", pc15, "X above")

    def family15(rho, params=pc15):
        theta = math.atan2(params.p1, params.p2 + params.p3)
        cap = (1 - (params.p4 / (2 * params.p3 * math.cos(theta))) ** 2) * rho * rho
        return family14(rho, params=params, cap_of=lambda rho, cap=cap: cap)

    add("case15 thr", pc15, "X threshold", family15)
    return plan


def _branch_of(params, rho, s):
    _, coords = lemma_coords(params, rho, s)
    return _lemma3_key(*coords)


def branch_states(params, rho, key, family, n, seed):
    """n states in the requested branch: exact families when given, seeded
    rejection sampling otherwise."""
    if family is not None:
        pool = [
            s
            for s in family(rho)
            if not is_fixed_point(params, rho, s) and branch_key(params, rho, s) == key
        ]
        if len(pool) < n:
            raise AssertionError(
                f"threshold family produced {len(pool)} < {n} states for {key!r}"
            )
        idx = np.random.default_rng(seed).permutation(len(pool))[:n]
        return [pool[j] for j in idx]
    return sample_branch_states(params, rho, key, n, seed)


# ---------------------------------------------------------------------------
# the per-family fixed-point ladder that quadratic_flow.fixed_points replaced
# by one algebraic solve, kept as the reference for its sets: the analytic
# sets of the catalogued families (chosen by classify, so within its 1e-12
# bands too) and the algebraic points of case 0 and off the circle of
# families 14 and 15


def _pair(rho: float, k: int, c: float, j: int) -> list:
    """The two points of the sphere with component k = c rho, component
    j = +-rho sqrt(1 - c^2) and the third component zero."""
    w = rho * math.sqrt(1.0 - c**2)
    out = []
    for sgn in (1.0, -1.0):
        s = np.zeros(3)
        s[k], s[j] = c * rho, sgn * w
        out.append(s)
    return out


# the families whose fixed points include +-rho e_k, by axis k of (D, R, I)
_AXES = {
    1: (2,), 2: (2,), 3: (0, 1, 2), 4: (0,), 5: (2,), 7: (0, 1, 2),
    8: (0,), 9: (0,), 10: (1,), 11: (2,), 12: (0,), 13: (1,),
}


def ladder_fixed_points(params, rho: float):
    """Fixed points of the quadratic flow on the sphere of radius rho.

    For the catalogued parameter families the analytic sets are returned
    (continua as Circle descriptors).  For families 14 and 15 the circle is
    analytic and the isolated points off it, like every fixed point of
    parameters outside the catalogue, are algebraic: the equator roots of
    the quartic of _planar and the pair (X*, +-I*) where A X* + b = 0.
    """
    qf._check_sphere(rho)
    p1, p2, p3, p4, p5 = (float(x) for x in params.p)
    case_id = classify(params)
    case = case_id.case
    pts = [sgn * rho * np.eye(3)[k] for k in _AXES.get(case, ()) for sgn in (1.0, -1.0)]
    circles = []

    # the catalogued sets take 0.02-0.08 ms, the algebraic solve below 0.39 ms
    # (about a third of a fixed-points call)
    if case == 2:
        circles = [qf.Circle((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), rho)]
    elif case == 6:
        # the ladder follows classify's subcase (p1 = p4 within 1e-12), not
        # the sign of _case6's C3 that names its branch
        if case_id.subcase == "p1=p4":
            pts = [rho * np.eye(3)[1]]
        elif case_id.subcase == "p1>p4":
            pts = _pair(rho, 1, p4 / p1, 2)
        else:
            pts = _pair(rho, 1, p1 / p4, 0)
    elif case == 8:
        if abs(p2) >= p4:
            pts += _pair(rho, 0, -p4 / p2, 2)
    elif case == 9:
        if p4 <= 2.0 * p3:
            pts += _pair(rho, 0, -p4 / (2.0 * p3), 1)
        if p4 <= p3:
            pts += _pair(rho, 0, -p4 / p3, 2)
    elif case == 10:
        if p5 <= 2.0 * p3:
            pts += _pair(rho, 1, p5 / (2.0 * p3), 0)
        if p5 <= p3:
            pts += _pair(rho, 1, p5 / p3, 2)
    elif case == 11:
        if case_id.ratio == 1.0:
            circles = [qf.Circle((0.0, 0.0, 0.0), tuple(np.array([1.0, -1.0, 0.0]) / math.sqrt(2)), rho)]
        elif p1 < p3:
            # equilibria in the I = 0 plane: p1 (D^2 + R^2) = 2 p3 D R
            for ratio in (
                (p3 + math.sqrt(p3 * p3 - p1 * p1)) / p1,
                (p3 - math.sqrt(p3 * p3 - p1 * p1)) / p1,
            ):
                d = rho * ratio / math.hypot(ratio, 1.0)
                r = rho / math.hypot(ratio, 1.0)
                pts += [np.array([d, r, 0.0]), np.array([-d, -r, 0.0])]
    elif case == 12:
        if 2.0 * p3 > abs(p4):
            w = rho * math.sqrt(1.0 - (p4 / (2.0 * p3)) ** 2)
            circles = [qf.Circle((-p4 / (2 * p3) * rho, 0.0, 0.0), (1.0, 0.0, 0.0), w)]
    elif case == 13:
        if 2.0 * p3 > p5:
            w = rho * math.sqrt(1.0 - (p5 / (2.0 * p3)) ** 2)
            circles = [qf.Circle((0.0, p5 / (2 * p3) * rho, 0.0), (0.0, 1.0, 0.0), w)]
    elif case in (14, 15):
        # p1^2 + p2^2 = p3^2 makes the flow vanish on the whole plane
        # p1 D + (p2 - p3) R + rho p5 = 0; its other fixed points are isolated
        norm = math.hypot(p1, p2 - p3)  # no underflow for tiny p
        axis = np.array([p1 / norm, (p2 - p3) / norm, 0.0])
        offset = -rho * p5 / norm
        if abs(offset) < rho:
            circles = [qf.Circle(tuple(offset * axis), tuple(axis), math.sqrt(rho * rho - offset * offset))]
    if case in (0, 14, 15):
        _, x_star, t = qf._planar(params, rho)
        pts = list(rho * np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1))
        if x_star is not None and x_star @ x_star <= rho * rho:
            pts += [np.append(x_star, sgn * math.sqrt(rho * rho - x_star @ x_star)) for sgn in (1.0, -1.0)]
        # a flow of p / max|p| above 5e-13 rho^2 drops a near-tangent equator pair and X* of a near-singular A
        flow = np.linalg.norm(qf._qqq(*params.p / max(abs(params.p)), rho, *np.reshape(pts, (-1, 3)).T), axis=0)
        pts = [s for s, f in zip(pts, flow) if f <= 5e-13 * rho * rho]
        pts = [s for s in pts if case == 0 or abs(s @ axis - offset) > 1e-6 * rho]

    return qf.FixedPointSet(qf._dedup(pts, 1e-6 * rho), circles)


# ---------------------------------------------------------------------------
# the reference stepper: the Dormand-Prince loop with its trial step inline
# and dimension-generic, with which the oracles of both flows agree bit for bit


def reference_dp5_path(f, t0: float, t1: float, y: list, tol: float):
    """Dormand-Prince 5(4) run of y' = f(y) from the state y (a list of
    floats) at t0 to t1, on Python floats.

    f(*y) returns the derivative as a tuple of floats.  The step sequence
    is scipy RK45's at rtol = atol = tol: its initial step, RMS error norm
    with scale tol + max(|y|, |y_new|) tol, step factors, no growth right
    after a rejection and the last step clipped to t1.  Raises
    StiffnessError when a step falls below 10 ulps of its time.  Returns
    (node times, node states, the 7 stage derivatives of each accepted step
    concatenated, rejected steps, right-hand-side evaluations); a zero-length
    span has the nodes t0, t1 and no step.
    """
    if t1 == t0:
        return [t0, t1], [y, y], [], 0, 0
    _, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = (
        row[:s] for s, row in enumerate(_DP5_A.tolist())
    )
    b1, _, b3, b4, b5, b6 = _DP5_B.tolist()
    e1, _, e3, e4, e5, e6, e7 = _DP5_E.tolist()
    root_n = math.sqrt(len(y))
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)

    # initial step (Hairer, Norsett & Wanner II.4)
    fy = f(*y)
    scale = [tol + abs(v) * tol for v in y]
    d0 = math.hypot(*[v / c for v, c in zip(y, scale)]) / root_n
    d1 = math.hypot(*[g / c for g, c in zip(fy, scale)]) / root_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    hd = h0 * direction
    f1 = f(*[v + hd * g for v, g in zip(y, fy)])
    d2 = math.hypot(*[(u - g) / c for u, g, c in zip(f1, fy, scale)]) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, span)

    t = t0
    times, states, stages = [t], [y], []
    rejected, nfev = 0, 2
    while t != t1:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if not h_abs >= min_step:  # also replaces a NaN step
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError("Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0.0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            k1 = fy
            k2 = f(*[v + (a21 * p) * h for v, p in zip(y, k1)])
            k3 = f(*[v + (a31 * p + a32 * q) * h for v, p, q in zip(y, k1, k2)])
            k4 = f(*[v + (a41 * p + a42 * q + a43 * r) * h for v, p, q, r in zip(y, k1, k2, k3)])
            k5 = f(*[
                v + (a51 * p + a52 * q + a53 * r + a54 * s) * h
                for v, p, q, r, s in zip(y, k1, k2, k3, k4)
            ])
            k6 = f(*[
                v + (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u) * h
                for v, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)
            ])
            y_new = [
                v + h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * w)
                for v, p, r, s, u, w in zip(y, k1, k3, k4, k5, k6)
            ]
            k7 = f(*y_new)
            nfev += 6
            err = math.hypot(*[
                (e1 * p + e3 * r + e4 * s + e5 * u + e6 * w + e7 * z) * h
                / (tol + max(abs(v), abs(vn)) * tol)
                for p, r, s, u, w, z, v, vn in zip(k1, k3, k4, k5, k6, k7, y, y_new)
            ]) / root_n
            if err < 1.0:
                if err == 0.0:
                    factor = _DP5_MAX_FACTOR
                else:
                    factor = min(_DP5_MAX_FACTOR, _DP5_SAFETY * err**_DP5_EXPONENT)
                if step_rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_DP5_MIN_FACTOR, _DP5_SAFETY * err**_DP5_EXPONENT)
            step_rejected = True
            rejected += 1
        stages.append(k1 + k2 + k3 + k4 + k5 + k6 + k7)
        t, y, fy = t_new, y_new, k7
        times.append(t)
        states.append(y)
    return times, states, stages, rejected, nfev


# ---------------------------------------------------------------------------
# the per-state solve_case that closed_form._solve_states replaced by one
# setup pass per grid, body unchanged, over the unchanged builders: the
# reference for the grid entry's solutions


def reference_solve_case(params, rho: float, s0) -> ClosedFormSolution:
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
        branch, constants, formula = "fixed-point", {}, _constant(*s0)
    else:
        branch, constants, formula = _CASE_BUILDERS[case_id.case](params, rho, s0, case_id)
    if log.isEnabledFor(logging.DEBUG):
        consts = ", ".join(f"{k}={float(v):.17g}" for k, v in constants.items())
        log.debug("solve_case case=%d subcase=%s branch=%s constants={%s}",
                  case_id.case, case_id.subcase or "-", branch, consts)
    return ClosedFormSolution(case_id, branch, constants, rho, s0, formula)


# ---------------------------------------------------------------------------
# the argparse parser the CLI built from one builder per subcommand before
# its grammar table, body unchanged: the reference for the help, usage and
# error text of cli.main and for the Namespace of cli._read


def _add_standardize(sub) -> None:
    p_std = sub.add_parser("standardize", help="reduce a general system to standard parameters")
    p_std.add_argument("input", help="path to, or inline, JSON {\"lambda\": [12 numbers]}")
    p_std.add_argument("--out", default=None)
    p_std.set_defaults(func=cmd_standardize)


def _add_solve(sub) -> None:
    p_solve = sub.add_parser("solve", help="sample a quadratic-flow trajectory to CSV")
    p_solve.add_argument("--params", required=True, help="path or inline JSON {\"p\": [...], \"q\": [...]}")
    p_solve.add_argument("--rho", type=float, required=True)
    p_solve.add_argument("--init", required=True, help="state D,R,I on the sphere at tau = 0")
    p_solve.add_argument("--span", required=True, help="time span a,b (use --span=-1,1 for negative a)")
    p_solve.add_argument("--samples", type=int, default=201)
    p_solve.add_argument("--mode", choices=["closed", "oracle", "both"], default="both")
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)


def _add_fixed_points(sub) -> None:
    p_fp = sub.add_parser("fixed-points", help="fixed points and stability as JSON")
    p_fp.add_argument("--params", required=True)
    p_fp.add_argument("--rho", type=float, required=True)
    p_fp.add_argument("--out", default=None)
    p_fp.set_defaults(func=cmd_fixed_points)


def _add_profile(sub) -> None:
    p_prof = sub.add_parser("profile", help="sample the space-time profile to CSV")
    p_prof.add_argument("--params", required=True)
    p_prof.add_argument("--finaldata", required=True, help="CSV xi,re_a1,im_a1,re_a2,im_a2")
    p_prof.add_argument("--t-list", required=True, help="comma-separated times")
    p_prof.add_argument("--x-grid", required=True, help="a,b,n for a uniform x grid")
    p_prof.add_argument("--special", action="store_true", help="cross-check the explicit p1-family profile")
    p_prof.add_argument("--sync-check", action="store_true", help="report the synchronization observable")
    p_prof.add_argument("--out", default=None)
    p_prof.set_defaults(func=cmd_profile)


_SUBCOMMANDS = {
    "standardize": _add_standardize,
    "solve": _add_solve,
    "fixed-points": _add_fixed_points,
    "profile": _add_profile,
}


def reference_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand, or only command's when it names
    one.  The lone subcommand keeps the full usage line, so its help and
    error messages read the same either way."""
    parser = _Parser(
        prog="cubicnls",
        description="Standard-form reduction, quadratic-flow solutions and "
        "large-time profiles of two-component cubic systems.",
    )
    # one add_subparsers call for both would print the metavar instead of
    # "required: command" when no subcommand is given
    if command in _SUBCOMMANDS:
        sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(_SUBCOMMANDS))
        _SUBCOMMANDS[command](sub)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        for add in _SUBCOMMANDS.values():
            add(sub)
    return parser


# ---------------------------------------------------------------------------
# the phase integral's level loop before its bookkeeping was cut to a fixed
# number of array passes a level, with its phase rate and potential, bodies
# unchanged: the reference for the bits and exceptions of
# reconstruction._phases


def reference_v_rate(params, rho: float, s) -> float:
    """The conserved quadratic potential along the flow, as a function of the
    state (one state, or an (n, 3) array of states)."""
    s = np.asarray(s, dtype=float)
    d, r = s[..., 0], s[..., 1]
    return 0.5 * (params.q1 + params.q3) * rho + 0.5 * (params.q1 - params.q3) * d + params.q2 * r


def reference_phase_rate(params, rho: float, s, sign: float):
    """N1 (sign=+1) or N2 (sign=-1), evaluated stably on the sphere, for one
    state (a float) or an (n, 3) array of states (an array).

    Where rho + sign*D <= rho/2 the reciprocal 1/(rho + sign*D) is replaced
    by the on-sphere identity (rho - sign*D)/(R^2 + I^2), whose limit at a
    zero of the weight stays finite.
    """
    s = np.asarray(s, dtype=float)
    d, r, i = s[..., 0], s[..., 1], s[..., 2]
    sd = sign * d
    w = rho + sd
    direct = w > 0.5 * rho
    den = r * r + i * i
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(direct, 1.0 / w, (rho - sd) / den)
        n = (
            sign * params.p1 * rho * r * inv
            + params.p2 * (-3.0 * rho + i * i * inv)
            + params.p3 * (-sign * d + r * r * inv)
            - sign * params.p4 * w
            + params.p5 * (-r - rho * r * inv)
        )
    # an isolated zero point (den == 0 off the direct branch): any finite
    # value integrates to nothing
    n = np.where(~direct & (den == 0.0), 0.0, n)
    return float(n) if n.ndim == 0 else n


def reference_phases(params, jobs):
    """The phase integrals of jobs (rho, src, span, s0) from 0 to span, in
    one refinement loop (see the module docstring).

    Panels are at most _PANEL_WIDTH wide.  A panel integrates N1 - V if
    D >= 0 at its centre node and N2 - V otherwise, and is bisected unless
    that chart's weight rho +- D is at least rho/2 at all 15 nodes.  A job
    ends when every pending panel keeps its weight and the estimates
    |K15 - G7| of all its panels sum to at most _PHASE_TOL; otherwise the
    level accepts each panel that keeps its weight and whose estimate is
    within its width's share of _PHASE_TOL, and bisects the others.  Each
    level evaluates the sources on the pending panels' 15 nodes and far
    edges and, at level 1, on 0 (where it must match s0 within
    1e-8 max(1, rho)) and span: one call for all the jobs of one closed-form
    formula (closed_form._stacked; retried job by job if it raises), one
    per job for any other source.  A fourth source column, dtau/du, weights
    the integrand: the variable is then an orbit parameter u.  Panels are
    kept job by job in one array; only the K15 and G7 products and the sums
    run on each job's own slice, as over stacked jobs they round otherwise.

    Returns per job (integral, charts, states, summed error estimate,
    panels, levels), with the chart signs (+1 for N1, -1 for N2) of the runs
    of adjacent panels and the source's rows at 0, between runs and at
    span; or the exception that ended the job: its source's, ValueError for
    a source that misses s0, or PhaseIntegralError on a non-finite integrand
    value, after _MAX_LEVELS levels or over _MAX_PANELS pending panels.
    """
    out, groups, loc = [None] * len(jobs), {}, np.zeros(len(jobs), dtype=int)
    for k, (_, src, _, _) in enumerate(jobs):
        groups.setdefault(src._key if isinstance(src, ClosedFormSolution) else k, []).append(k)
    for ks in groups.values():
        loc[ks] = np.arange(len(ks))  # each job's place in its group
    groups = [(ks, _stacked([jobs[k][1] for k in ks]) if len(ks) > 1 else None) for ks in groups.values()]
    # the panels of np.linspace(0, span, n + 1), job by job: the pending
    # jobs ks have cnt panels each, pj is the job of each panel
    rho_j, span_j = (np.array([job[j] for job in jobs], dtype=float) for j in (0, 2))
    ks = list(range(len(jobs)))
    cnt = np.array([max(1, math.ceil(abs(span) / _PANEL_WIDTH)) for span in span_j.tolist()], dtype=int)
    pj, i = np.repeat(np.arange(len(jobs)), cnt), np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    step = (span_j / cnt)[pj]
    left, right = i * step + 0.0, np.where(i + 1 < cnt[pj], (i + 1) * step + 0.0, span_j[pj])
    center, half = 0.5 * (right + left), 0.5 * (right - left)
    with np.errstate(divide="ignore"):
        share = _PHASE_TOL / np.abs(span_j) * 2.0
    total, err, levels, width = (np.zeros(len(jobs), dtype=t) for t in (float, float, int, int))
    ends, done, level = np.ones((len(jobs), 2, 4)), [], 0
    while ks:
        level, stop = level + 1, np.cumsum(cnt)
        seg = dict(zip(ks, zip((stop - cnt).tolist(), stop.tolist())))
        taus, far = center[:, None] + half[:, None] * _GK_X, center + half
        # the sources' rows at the panels' 15 nodes, component by component,
        # and at their far edges; 1 past a source's columns
        nodes, edge = np.ones((4, len(pj), 15)), np.ones((len(pj), 4))

        def call(members, evaluate=None):
            """One source call: the jobs of a stacked evaluate, or one job's own
            source; returns the exception it raised, if any."""
            sel = (slice(None) if len(members) == len(ks) else slice(*seg[members[0]]) if len(members) == 1
                   else np.repeat(np.isin(ks, members), cnt))
            q = [taus[sel].ravel(), far[sel]]
            q += [[0.0, end] for end in span_j[members].tolist()] if level == 1 else []
            try:
                if evaluate is None:
                    s = np.asarray(jobs[members[0]][1](np.concatenate(q)), dtype=float)
                else:
                    at = loc[pj[sel]]
                    index = [np.repeat(at, 15), at] + ([np.repeat(loc[members], 2)] if level == 1 else [])
                    s = evaluate(np.concatenate(index), np.concatenate(q))
            except Exception as exc:
                return exc
            n, c = len(q[1]), s.shape[-1]
            width[members], nodes[:c, sel], edge[sel, :c] = c, s[: 15 * n].T.reshape(c, -1, 15), s[15 * n: 16 * n]
            if level == 1:
                ends[members, :, :c] = s[16 * n:].reshape(-1, 2, c)

        pending = set(ks)
        for members, evaluate in groups:
            if (members := [k for k in members if k in pending]) and (failed := call(members, evaluate)) is not None:
                # the job's failure, for its caller to raise in its turn; a shared
                # call is retried job by job, so that each keeps its own exception
                for k in members:
                    out[k] = failed if len(members) == 1 else call([k])
        if level == 1:  # each job's source at 0 against its s0, NaN-safe
            miss = np.abs(np.array([job[3] for job in jobs], dtype=float) - ends[:, 0, :3]).max(axis=1)
            for k in np.flatnonzero(~(miss <= 1e-8 * np.maximum(1.0, rho_j))).tolist():
                out[k] = ValueError(_INCONSISTENT) if out[k] is None else out[k]
        # per node: its job's rho and its panel's chart, +1 where D >= 0 at node 7, the centre
        chart = np.where(nodes[0, :, 7] >= 0.0, 1.0, -1.0)
        rho, sign = np.repeat(rho_j[ks], 15 * cnt).reshape(-1, 15), np.repeat(chart, 15).reshape(-1, 15)
        states = nodes[:3].transpose(1, 2, 0)  # (panel, node, D R I), each component contiguous
        f = reference_phase_rate(params, rho, states, sign) - reference_v_rate(params, rho, states)
        f = f * nodes[3] if 4 in width else f
        finite = np.isfinite(f)
        if not finite.all():
            for j in np.flatnonzero(~finite.all(axis=1)).tolist():
                if out[pj[j]] is None:  # the job's first non-finite value
                    out[pj[j]] = PhaseIntegralError(f"non-finite phase rate at tau = {float(taus[j][~finite[j]][0])!r}")
            f[~finite] = 0.0  # the failed jobs' panels are let go below
        first = stop - cnt
        bounds = list(zip(ks, first.tolist(), stop.tolist()))
        kept = np.logical_and.reduce(rho + sign * nodes[0] >= 0.5 * rho, axis=1)
        kronrod, gauss = np.empty(len(pj)), np.empty(len(pj))
        for _, a, b in bounds:
            # per job: a product over several jobs' stacked panels rounds differently
            kronrod[a:b], gauss[a:b] = f[a:b] @ _K15_W, f[a:b] @ _G7_W
        kronrod = half * kronrod
        diff = np.abs(kronrod - half * gauss)
        # a job whose panels all keep their weights and whose estimates sum
        # to at most _PHASE_TOL accepts them all; the sums run per job
        finish = np.logical_and.reduceat(kept, first)
        for j in np.flatnonzero(finish).tolist():
            k, a, b = bounds[j]
            d = np.add.reduce(diff[a:b])
            finish[j] = err[k] + d <= _PHASE_TOL
            if finish[j]:
                total[k], err[k] = total[k] + np.add.reduce(kronrod[a:b]), err[k] + d
        ok = kept & (np.repeat(finish, cnt) | (diff <= share[pj] * np.abs(half)))
        if any(out[k] is not None for k in ks):  # a failed job's panels are let go
            ok |= np.repeat([out[k] is not None for k in ks], cnt)
        if not finish.all():
            at, accepted_k, accepted_d = np.concatenate([[0], np.cumsum(ok)]), kronrod[ok], diff[ok]
            for j in np.flatnonzero(~finish).tolist():
                k, a, b = bounds[j]
                total[k] += np.add.reduce(accepted_k[at[a]:at[b]])
                err[k] += np.add.reduce(accepted_d[at[a]:at[b]])
        if ok.all():
            done.append((pj, far, chart, edge))
            levels[ks] = level
            break
        done.append((pj[ok], far[ok], chart[ok], edge[ok]))
        unresolved = np.add.reduceat(~ok, first, dtype=int)
        levels[np.array(ks)[unresolved == 0]] = level
        over = (unresolved > 0) & ((2 * unresolved > _MAX_PANELS) | (level == _MAX_LEVELS))
        for j in np.flatnonzero(over).tolist():
            out[ks[j]] = PhaseIntegralError(
                f"phase integral not within {_PHASE_TOL:g} after {level} levels ({unresolved[j]} panels unresolved)"
            )
        # bisect the rest: each job's left halves, then its right halves
        rest, more = ~ok & ~np.repeat(over, cnt), (unresolved > 0) & ~over
        jj, c, h = pj[rest], center[rest], 0.5 * half[rest]
        order = np.argsort(np.concatenate([jj, jj]), kind="stable")
        pj, center, half = np.concatenate([jj, jj])[order], np.concatenate([c - h, c + h])[order], np.tile(h, 2)[order]
        ks, cnt = [k for k, go in zip(ks, more) if go], 2 * unresolved[more]
    if done:
        # each finished job's accepted panels in order of |far edge|: the
        # charts of its runs and the far-edge rows where the chart changes
        jd, fd, cd, sd = (np.concatenate(x) for x in zip(*done))
        order = np.lexsort((np.abs(fd), jd))
        jd, cd, sd = jd[order], cd[order], sd[order]
        runs = np.flatnonzero(np.concatenate([[True], (jd[1:] != jd[:-1]) | (cd[1:] != cd[:-1])]))
        runs_of, panels = np.searchsorted(jd[runs], np.arange(len(jobs) + 1)).tolist(), np.bincount(jd).tolist()
        for k in (k for k in range(len(jobs)) if out[k] is None):
            r, c = runs[runs_of[k]:runs_of[k + 1]], width[k]
            states = np.concatenate([ends[k, :1, :c], sd[r[1:] - 1, :c], ends[k, 1:, :c]])
            out[k] = (float(total[k]), cd[r], states, float(err[k]), panels[k], int(levels[k]))
    return out


def assert_same_phases(got, want):
    """Results of reconstruction._phases equal to reference_phases': each
    field of each tuple bit for bit, of the same type and dtype, and each
    exception of the same type and message."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w), (g, w)
            continue
        assert isinstance(g, tuple) and len(g) == len(w) == 6, g
        for a, b in zip(g, w):
            assert type(a) is type(b), (a, b)
            a, b = np.asarray(a), np.asarray(b)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (a, b)


# unchanged: the reference for the bits, debug lines and exceptions of
# profile.uapp's and reconstruction.reconstruct's per-point work around the
# phase integral (profile._flows, uapp's tail and reconstruction's
# _reconstruct_jobs, _results, _turned and _reconstructed as they were one
# call a point), with reference_phases for the integral


_reconstruction_log = logging.getLogger("cubicnls.reconstruction")


def reference_uapp(params, fd, t: float, x):
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
    if np.ndim(x) > 1:
        raise ValueError(f"the profile takes a number or a 1-D array x, got an array of shape {np.shape(x)}")
    xs = [x] if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    tau = 0.5 * math.copysign(1.0, t) * math.log(abs(t))
    xi = np.asarray(xs, dtype=float) / (2.0 * t)
    try:
        (a1, a2), n = fd.interp(xi), len(xi)
    except ExtrapolationError:  # the points before the first outside the data run, then it raises
        n = fd._inside(xi)
        a1, a2 = fd.interp(xi[:n])
    pairs = reference_flows(params, list(zip(a1.tolist(), a2.tolist())), tau)
    if n < len(xi):
        fd.interp(xs[n] / (2.0 * t))  # that point's error, after the points before it
    u = np.array([[_prefactor(t, v) * a for a in pair] for v, pair in zip(xs, pairs)], dtype=complex).reshape(-1, 2)
    return (complex(u[0, 0]), complex(u[0, 1])) if np.ndim(x) == 0 else (u[:, 0], u[:, 1])


@functools.lru_cache(maxsize=None)
def reference_cheb_nodes(n: int):
    """The points cos(j pi / n), j = 0..n, and the matrices from values there
    to the n + 1 coefficients of their interpolant and from n + 2
    coefficients to values there."""
    theta = math.pi * np.arange(n + 1) / n
    dct = 2.0 / n * np.cos(np.outer(np.arange(n + 1), theta))
    dct[:, [0, n]] *= 0.5
    dct[[0, n]] *= 0.5
    return np.cos(theta), dct, np.cos(np.outer(theta, np.arange(n + 2)))


class ReferenceSigmaOrbit:
    """quadratic_flow._SigmaOrbit as one orbit was built on its own before a
    grid's orbits were built together (quadratic_flow._sigma_orbits): the
    orbit of s0 over the time tau, by the sigma-reduction.

    sigma runs over [lo, hi]: on each side of 0 the first zero of
    F = rho^2 - |X|^2 within 3 rho |tau| (a turning point, where I changes
    sign), or else 2 rho |tau|, which |I| <= rho keeps out of reach.  A
    near-touch of the sphere (a minimum F > 0, by Newton steps on F') cuts it.
    On sigma = c - h cos(phi), I = sign(sin phi) sqrt F and
    tau(phi) = int h |sin phi| / (2 sqrt F) dphi is smooth across simple
    turning points, past which phi runs on by symmetry: with both ends
    turning the orbit is periodic in phi.  tau is a Chebyshev series on each
    piece of [0, pi], bisected until it meets its share of the target, and
    inverted by Newton steps.  The kind is open, turning (one end), periodic
    or fixed (a fixed point: span is tau, the states constant).  For
    reconstruction: phi0, span (phi to the state at tau, less ``periods``
    whole periods) and states(phi), rows of D, R, I and dtau/dphi (D, R, I
    for a fixed point).  Raises _Decline, a ValueError, at a tangent turning
    point (a separatrix), a zero missed between the ends, over 4096 bases on
    a side, or a rule short of its target at 256 pieces.  Logs one debug
    line: kind, sigma interval, period, nodes and the two-rule estimate.
    """

    def __init__(self, params, rho: float, s0, tau: float):
        p1, p2, p3, p4, p5 = params.p1, params.p2, params.p3, params.p4, params.p5
        pmax = max(abs(p1), abs(p2), abs(p3), abs(p4), abs(p5))
        self.rho, self.a, self.n, self.b = rho, p1, (p2 - p3, -(p2 + p3)), (rho * p5, -rho * p4)
        pq, coef = (1.0, 0.0), []
        for inv in qf._SIGMA_INV_FACTORIALS:
            coef.append((pq[0] * inv, pq[1] * inv))
            pq = (p1 * pq[0] + (p3 * p3 - p2 * p2) * pq[1], pq[0] + p1 * pq[1])
        self.lo = self.hi = self.phi0 = self.estimate = 0.0
        self.period, self.periods, self.nodes, i0 = None, 0, 0, float(s0[2])
        base0 = self._row(float(s0[0]), float(s0[1]), i0 * i0)
        df0 = -2.0 * (base0[0] * base0[2] + base0[1] * base0[3])  # F' = -2 X.W
        if base0[2] == base0[3] == 0.0 or (i0 == 0.0 and df0 == 0.0):
            self.kind, self.span = "fixed", tau
            self.states = lambda t: np.tile(np.asarray(s0, dtype=float), np.shape(t) + (1,))
            return self._log()
        reach = 2.0 * rho * abs(tau)
        self.step = min(1.0 / max(math.hypot(p1, p1, *self.n), 1e-300), 0.375 * reach)  # >= 4 bases a side
        # the terms a step needs: with x = step (|p1| + sqrt|kappa|) the first one
        # left out is below (x^m + m x^(m-1)) / (m+1)!, relative
        x = self.step * (abs(p1) + math.sqrt(abs(p3 * p3 - p2 * p2)))
        m = next((m for m in range(2, qf._SIGMA_TERMS) if x**m + m * x ** (m - 1) <= 1e-17 * math.factorial(m + 1)),
                 qf._SIGMA_TERMS)
        self.coef, self.horner = np.array(coef[:m]), coef[:m][::-1]
        # bases every step out from s0 to the first F <= 0 or to 1.5 reach (a
        # zero just past reach still ends the interval)
        ends, zeros, grid = {-1.0: -reach, 1.0: reach}, {}, {}
        for side in ends:
            rows = grid[side] = [base0]
            if i0 == 0.0 and side * df0 < 0.0:
                ends[side] = 0.0  # s0 is a turning point on this side
            while ends[side] and (len(rows) - 1) * self.step < 1.5 * reach:
                if len(rows) > qf._SIGMA_BASES:
                    self._decline(f"more than {qf._SIGMA_BASES} bases on a side")
                x0, x1, f = self._past(rows[-1], side * self.step)
                if not f > 0.0:
                    lo, f_lo = side * self.step * (len(rows) - 1), rows[-1][6]
                    for j in range(1, 60):  # from a turning start (F = 0) the zero past it may lie within this step
                        if f_lo > 0.0:
                            break
                        lo = side * self.step * 0.5**j
                        f_lo = self._past(rows[-1], lo)[2]
                    if not f_lo > 0.0:
                        self._decline("tangent turning point (a separatrix)")
                    zeros[side] = (lo, side * self.step * len(rows), f_lo, f)
                    break
                rows.append(self._row(x0, x1, f))
        self.k, self.rows = len(grid[-1.0]) - 1, grid[-1.0][::-1] + grid[1.0][1:]
        # a minimum of F on the bases below half their maximum: F's minimum next
        # to it, by Newton steps on F' = -2 X.W, is a near-touch of the sphere
        # that cuts the interval, or at F <= 0 brackets the first of two zeros
        fs, touches = [r[6] for r in self.rows], []
        deep = 0.5 * max(fs)
        for i in range(1, len(fs) - 1):
            if fs[i] <= min(fs[i - 1], fs[i + 1]) and fs[i] < deep:
                s = (i - self.k) * self.step
                s, row, _ = self._newton(s - self.step, s + self.step, s, lambda r: (
                    r[0] * r[2] + r[1] * r[3], r[2] * r[2] + r[3] * r[3] + r[0] * (self.a * r[2] + r[4])
                    + r[1] * (self.a * r[3] + r[5])))  # X.W and its derivative W.W + X.A W
                f, side, j = row[6], math.copysign(1.0, s), int(s / self.step) + self.k  # j: the base before it
                if f > 0.0:
                    touches.append(s)
                elif side not in zeros or abs(s) < abs(zeros[side][1]):
                    zeros[side] = ((j - self.k) * self.step, s, fs[j], f)
        self.turning, self.ends = [ends[-1.0] == 0.0, ends[1.0] == 0.0], [base0, base0]
        for side, (lo, hi, f_lo, f_hi) in zeros.items():
            # the zero of F between lo (F > 0) and hi (F <= 0), and X there by X' = W
            s = lo + (hi - lo) * f_lo / (f_lo - f_hi) if math.isfinite(f_hi) else 0.5 * (lo + hi)
            s, row, ends[side] = self._newton(lo, hi, s, lambda r: (r[6], -2.0 * (r[0] * r[2] + r[1] * r[3])))
            x = row[0] + (ends[side] - s) * row[2], row[1] + (ends[side] - s) * row[3]
            self.turning[side > 0.0], self.ends[side > 0.0] = True, self._row(*x, 0.0)  # F = 0 there exactly
        self.lo, self.hi = ends[-1.0], ends[1.0]
        self.c, self.h = 0.5 * (self.lo + self.hi), 0.5 * (self.hi - self.lo)
        self.bases = np.array(self.rows + self.ends)
        df = [2.0 * abs(r[0] * r[2] + r[1] * r[3]) for r in self.ends]
        if any(t and not d > 1e-9 * rho * rho * pmax for t, d in zip(self.turning, df)):
            self._decline("tangent turning point (a separatrix)")
        # dtau/dphi at phi = 0 and pi: sqrt(h / (2 |F'|)) at a turning point, 0 at an open end
        self.g_end = [math.sqrt(self.h / (2.0 * d)) if t else 0.0 for t, d in zip(self.turning, df)]
        self.kind = "periodic" if all(self.turning) else "turning" if any(self.turning) else "open"
        self.phi0 = math.atan2(2.0 * math.sqrt(-self.lo * self.hi), self.hi + self.lo)  # sigma(phi0) = 0
        self.phi0 = 2.0 * math.pi - self.phi0 if i0 < 0.0 else self.phi0
        cuts = sorted([0.0, math.pi] + [math.acos((self.c - s) / self.h) for s in touches if self.lo < s < self.hi])
        self._rule(cuts, abs(tau), qf._SIGMA_TOL / (rho * pmax))
        phi = self._phi(self._tau(self.phi0) + tau)
        if self.kind == "periodic":
            # leave a remainder of one whole period, not of none: the phase integral needs a span
            self.period = 2.0 * self.half
            self.periods = int(math.copysign(math.ceil(abs(phi - self.phi0) / (2.0 * math.pi)) - 1, tau))
        self.span = phi - self.phi0 - 2.0 * math.pi * self.periods
        self._log()

    def _log(self, declined=None):
        qf.log.debug(
            "sigma kind=%s interval=(%.17g, %.17g) period=%s nodes=%d estimate=%.3g",
            self.kind if declined is None else f"declined reason={declined!r}", self.lo, self.hi,
            "none" if self.period is None else "%.17g" % self.period, self.nodes, self.estimate,
        )

    def _decline(self, reason: str):
        self._log(reason)
        raise qf._Decline(reason)

    def _row(self, x0: float, x1: float, f: float) -> tuple:
        """A base: (X, W = A X + b, N W, F) at X = (x0, x1), with F = f."""
        w0, w1 = self.a * x0 + self.n[0] * x1 + self.b[0], self.n[1] * x0 + self.a * x1 + self.b[1]
        return x0, x1, w0, w1, self.n[0] * w1, self.n[1] * w0, f

    def _past(self, row, d: float):
        """(X, F) at d past a base, on floats."""
        j0 = j1 = 0.0
        for c0, c1 in self.horner:
            j0, j1 = (j0 + c0) * d, (j1 + c1) * d
        d0, d1 = j0 * row[2] + j1 * row[4], j0 * row[3] + j1 * row[5]
        return row[0] + d0, row[1] + d1, row[6] - d0 * (2.0 * row[0] + d0) - d1 * (2.0 * row[1] + d1)

    def _newton(self, lo: float, hi: float, s: float, fn):
        """(s, the base at s, the next step) for a zero of v between lo (v > 0)
        and hi (v <= 0) from s, with (v, dv/dsigma) = fn(base): Newton steps
        kept inside the shrinking bracket, bisection otherwise."""
        for _ in range(200):
            i = min(max(round(s / self.step), -self.k), len(self.rows) - 1 - self.k)
            row = self._row(*self._past(self.rows[i + self.k], s - i * self.step))
            v, dv = fn(row)
            lo, hi = (s, hi) if v > 0.0 else (lo, s)
            new = s - v / dv if dv != 0.0 else lo
            if (new - lo) * (new - hi) > 0.0:
                new = 0.5 * (lo + hi)
            elif abs(new - s) <= 1e-8 * (abs(s) + self.step):  # quadratic convergence: exact
                return s, row, new
            s = new
        return s, row, s

    def states(self, phi):
        """Rows of D, R, I and dtau/dphi at a 1-D array of phi."""
        sin, cos = np.sin(0.5 * phi), np.cos(0.5 * phi)
        to_lo, to_hi = (2.0 * self.h) * sin * sin, (2.0 * self.h) * cos * cos  # sigma - lo, hi - sigma
        i = np.minimum(np.maximum(np.rint((to_lo + self.lo) / self.step), -self.k), len(self.rows) - 1 - self.k)
        delta, i = (to_lo + self.lo) - i * self.step, (i + self.k).astype(int)
        # within half a step of a turning point, from the nearer one: sigma - lo and sigma - hi exactly
        for e, d, near in ((0, to_lo, to_lo <= to_hi), (1, -to_hi, to_hi < to_lo)):
            near &= self.turning[e] & (np.abs(d) < 0.5 * self.step)
            i[near], delta[near] = len(self.rows) + e, d[near]
        b = self.bases[i]
        p = np.empty((len(delta), len(self.coef)))
        p[:] = delta[:, None]
        j = np.multiply.accumulate(p, axis=1) @ self.coef  # J0, J1
        dx = j[:, :1] * b[:, 2:4] + j[:, 1:] * b[:, 4:6]
        out = np.empty((len(delta), 4))
        out[:, :2] = x = b[:, :2] + dx
        f = b[:, 6] - np.einsum("ij,ij->i", dx, x + b[:, :2])  # F at the base less dx.(2 X_base + dx)
        if f.min() < -1e-12 * self.rho * self.rho:
            self._decline("F < 0 inside the interval (a missed zero)")
        root = np.sqrt(np.maximum(f, 0.0))
        out[:, 2] = np.copysign(root, sin * cos)
        # dtau/dphi = h |sin phi| / (2 sqrt F), its limit at an end where F = 0
        np.divide(self.h * np.abs(sin * cos), root, out=out[:, 3], where=root > 0.0)
        out[root == 0.0, 3] = np.where(to_lo < to_hi, *self.g_end)[root == 0.0]
        return out

    def _rule(self, cuts, tau: float, tol: float):
        """Chebyshev series of dtau/dphi (a) and of tau (t) on each piece
        between cuts from 2n + 1 Clenshaw-Curtis nodes, each checked against
        the series of every other node.  The rule is done once the estimates
        sum to the target, which shrinks with the half-periods that tau spans;
        otherwise the pieces within their share of it (of the tolerance by
        width, of the rounding allowance by time) are kept and the others
        bisected, as reconstruction._phases bisects its panels, and a round
        evaluates only the new pieces."""
        n, cuts = qf._SIGMA_NODES, np.array(cuts)
        x, _, synth = reference_cheb_nodes(2 * n)
        lo, hi, kept, err = cuts[:-1], cuts[1:], [], 0.0  # kept: the pieces of earlier rounds
        while True:
            mid, width = 0.5 * (hi + lo)[:, None], (hi - lo)[:, None]
            g = self.states((mid + 0.5 * width * x).ravel())[:, 3].reshape(len(mid), -1)
            (a, t), coarse = (self._series(v, width) for v in (g, g[:, ::2]))
            diff, total = (np.abs(t[:, :n + 2] - coarse[1]), np.abs(t[:, n + 2:])), t.sum(axis=1)
            count = sum(len(k[0]) for k in kept) + len(lo)
            self.half, self.nodes = float(np.concatenate([k[4] for k in kept] + [total]).sum()), count * (2 * n + 1)
            self.estimate, share = err + float(diff[0].sum() + diff[1].sum()), tol / (1.0 + tau / self.half)
            # the estimate sums the differences of all coefficients, so its rounding grows with them
            if self.estimate <= share + 1e-16 * self.nodes * self.half:
                break
            est = diff[0].sum(axis=1) + diff[1].sum(axis=1)
            ok = est <= share / math.pi * width[:, 0] + 1e-16 * self.nodes * total
            if ok.all():
                break
            if count + np.count_nonzero(~ok) > qf._SIGMA_PIECES:
                self._decline(f"time rule estimate {self.estimate:.3g} above its target at {count} pieces")
            kept.append(tuple(v[ok] for v in (lo, hi, a, t, total)))
            err += float(est[ok].sum())
            lo, hi = np.concatenate((lo[~ok], mid[~ok, 0])), np.concatenate((mid[~ok, 0], hi[~ok]))
        if kept:  # in increasing phi
            order = np.argsort(np.concatenate([k[0] for k in kept] + [lo]), kind="stable")
            lo, hi, a, t, total = (np.concatenate(v)[order] for v in zip(*kept, (lo, hi, a, t, total)))
        # tau at the nodes, in increasing phi, for _phi's first guess
        self.pieces = (np.append(lo, hi[-1]), a, t, np.cumsum(total) - total, (t @ synth.T)[:, ::-1])

    @staticmethod
    def _series(g, width):
        """Chebyshev coefficients of the interpolants of rows of values at
        Clenshaw-Curtis nodes and of their integrals from the pieces' starts
        (the pieces' widths in a column)."""
        a = g @ reference_cheb_nodes(g.shape[1] - 1)[1].T
        c = np.zeros((len(a), a.shape[1] + 2))
        c[:, :a.shape[1]] = a
        c[:, 0] *= 2.0
        t = np.empty((len(a), a.shape[1] + 1))
        j = np.arange(1, a.shape[1] + 1)
        t[:, 1:] = (0.25 * width) * (c[:, :-2] - c[:, 2:]) / j
        t[:, 0] = -(t[:, 1:] @ (-1.0) ** j)
        return a, t

    def _eval(self, p: int, phi: float):
        """(tau from the start of piece p, dtau/dphi) at phi."""
        cuts, a, t = self.pieces[:3]
        x = (2.0 * phi - cuts[p] - cuts[p + 1]) / (cuts[p + 1] - cuts[p])
        cos = np.cos(math.acos(min(1.0, max(-1.0, x))) * np.arange(t.shape[1]))
        return float(t[p] @ cos), float(a[p] @ cos[:-1])

    def _tau(self, phi: float) -> float:
        """tau from phi = 0 to phi, for any real phi."""
        k, r, mirror = qf._fold(phi, 2.0 * math.pi)
        p = max(int(np.searchsorted(self.pieces[0], r)) - 1, 0)
        val = self.pieces[3][p] + self._eval(p, r)[0]
        return 2.0 * self.half * k + (2.0 * self.half - val if mirror else val)

    def _phi(self, y: float) -> float:
        """phi with tau(phi) = y: Newton steps on the piece holding it, from
        linear interpolation between its nodes."""
        k, r, mirror = qf._fold(y, 2.0 * self.half)
        cuts, _, _, before, at_nodes = self.pieces
        p = max(int(np.searchsorted(before, r, side="right")) - 1, 0)
        lo, hi, r = cuts[p], cuts[p + 1], r - before[p]
        phi = float(np.interp(r, at_nodes[p], 0.5 * (lo + hi) - 0.5 * (hi - lo) * reference_cheb_nodes(at_nodes.shape[1] - 1)[0]))
        for _ in range(100):
            val, der = self._eval(p, phi)
            if val == r:
                break
            lo, hi = (phi, hi) if val < r else (lo, phi)
            new = phi - (val - r) / der if der > 0.0 else lo
            new = new if lo < new < hi else 0.5 * (lo + hi)
            done, phi = abs(new - phi) <= 1e-8 * (hi - lo), new  # Newton converges quadratically
            if done:
                break
        return 2.0 * math.pi * k + (2.0 * math.pi - phi if mirror else phi)


def reference_flows(params, a0s, tau: float) -> list[tuple[complex, complex]]:
    """The amplitude pairs of the list a0s advanced by tau: closed form +
    reconstruction for catalogued parameters, else the sigma-reduction, whose
    declines (logged at debug level) fail their points.  One setup pass
    (solve_case's and reconstruct's per-grid work once) and one
    phase-integral loop serve all points; the first failing point raises,
    after the points before it."""
    if tau == 0.0:
        return list(a0s)
    live, points, failed = [a0 for a0 in a0s if a0[0] != 0 or a0[1] != 0], [], None
    try:
        for a0, sol in zip(live, reference_solve_states(params, (amplitudes_to_quad(*a0) for a0 in live))):
            points.append((a0, sol, sol.rho, sol.initial, None))
    except Exception as exc:  # raised after the points before it
        failed = exc
    if isinstance(failed, UnsupportedCaseError):  # outside the catalogue, point by point
        failed = None
        for a0 in live:
            try:  # each state checked on its sphere, as its own solve_case call would
                rho, s0 = amplitudes_to_quad(*a0)
                points.append((a0, None, rho, _check_sphere(rho, s0), ReferenceSigmaOrbit(params, rho, s0, tau)))
            except Exception as exc:
                failed = exc
                break
    points = reference_reconstruct_jobs(points, tau)
    results = iter(reference_phases(params, [job for jobs, _ in points for job in jobs]))
    pairs = iter([pair([next(results) for _ in jobs]) for jobs, pair in points])
    if failed is not None:
        raise failed
    return [next(pairs) if a0[0] != 0 or a0[1] != 0 else a0 for a0 in a0s]


def reference_solve_states(params, states):
    """solve_case at each (rho, state) of an iterable, in turn: the
    per-parameter work (classify and its errors, max|p|, the builder, the
    debug test) runs once, after the first state's sphere check; each state
    is checked on its sphere and for a fixed point and built as alone."""
    case_id = None
    for rho, s0 in states:
        s0 = _check_sphere(rho, s0)
        if case_id is None:
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
        if math.hypot(*_qqq(*p, rho, *s0.tolist())) <= 1e-13 * rho * rho * pscale:  # qqq_rhs on floats
            branch, constants, formula = "fixed-point", {}, _constant(*s0)
        else:
            branch, constants, formula = build(params, rho, s0, case_id)
        if debug:
            consts = ", ".join(f"{k}={float(v):.17g}" for k, v in constants.items())
            log.debug("solve_case case=%d subcase=%s branch=%s constants={%s}",
                      case_id.case, case_id.subcase or "-", branch, consts)
        yield ClosedFormSolution(case_id, branch, constants, rho, s0, formula)


def reference_reconstruct(params, a0, quad_src, rho: float, tau: float, anchor: int | None = None):
    """reconstruction.reconstruct, one job builder call and one pair."""
    a0 = complex(a0[0]), complex(a0[1])
    if a0[0] == 0 and a0[1] == 0:
        raise ValueError("reconstruction needs a nontrivial amplitude pair")
    ((jobs, pair),) = reference_reconstruct_jobs([(a0, quad_src, rho, None, None)], tau, anchor)
    return pair(reference_phases(params, jobs))


def reference_reconstruct_jobs(points, tau: float, anchor=None):
    """reconstruct's checks, of tau once, for nontrivial points (a0, source,
    rho, s0, orbit), then per point its jobs (none at tau = 0) and the
    function that builds its pair from their results.  s0 = None stands for
    a0's (D, R, I), checked NaN-safe against rho and the source; a grid
    passes its own.  The source runs over tau, or a sigma orbit's states
    over phi from phi0 do: its span and, with whole periods, one period."""
    if not math.isfinite(tau):
        raise ValueError(f"reconstruction needs a finite tau, got {tau!r}")
    if abs(tau) > _MAX_PANELS * _PANEL_WIDTH:
        raise PhaseIntegralError(f"tau = {tau!r} needs more than {_MAX_PANELS} panels")
    out = []
    for a0, src, rho, s0, orbit in points:
        if s0 is None:
            _check_sphere(rho)
            rho0, s0 = amplitudes_to_quad(*a0)
            tol = 1e-8 * max(1.0, rho)
            if not (abs(rho0 - rho) <= tol
                    and (tau != 0.0 or np.max(np.abs(s0 - np.asarray(src(0.0), dtype=float))) <= tol)):
                raise ValueError(_INCONSISTENT)
        if anchor not in (None, 1, 2):
            raise ValueError("anchor must be 1, 2 or None")
        start = 1.0 if (abs(a0[0]) >= abs(a0[1]) if anchor is None else anchor == 1) else -1.0
        seed = a0[0] if start > 0.0 else a0[1]
        if seed == 0:
            raise SingularAnchorError("requested anchor component vanishes at tau = 0")
        spans, periods = [tau], 0
        if orbit is not None:
            src, periods = (lambda u, orbit=orbit: orbit.states(orbit.phi0 + u)), orbit.periods
            spans = [orbit.span] + [math.copysign(2.0 * math.pi, periods)] * (periods != 0)
        out.append(([], lambda _, a0=a0: a0) if tau == 0.0 else
                   ([(rho, src, span, s0) for span in spans],
                    functools.partial(reference_reconstructed, rho, tau, seed, start, periods)))
    return out


def reference_reconstructed(rho: float, tau: float, seed: complex, start: float, periods: int, results):
    """The pair at tau from a point's job results (see _reconstruct_jobs),
    built on the component of D's sign there, and its debug line."""
    phase, out, s, switches = reference_turned(results[0], start)
    _, _, _, err, panels, levels = results[0]
    if periods:
        turn, _, _, more = reference_turned(results[1], start, start)
        phase, switches = phase + abs(periods) * turn, switches + abs(periods) * more
        err, panels, levels = err + abs(periods) * results[1][3], panels + results[1][4], max(levels, results[1][5])
    _reconstruction_log.debug(
        "reconstruct tau=%.17g anchor=%d switches=%d panels=%d levels=%d error_estimate=%.3g",
        tau, 1 if start > 0.0 else 2, switches, panels, levels, err,
    )
    d, r, i = s
    w = rho + out * d
    factor = seed / abs(seed) * complex(math.cos(phase), math.sin(phase))
    amp = math.sqrt(w / 2.0) * factor
    comp = complex(r, out * i) / math.sqrt(2.0 * w) * factor
    return (amp, comp) if out > 0 else (comp, amp)


def reference_turned(result, start: float, end=None):
    """A result of _phases (raised if it is an exception) converted from chart
    ``start`` into chart ``end``, by default D's sign at span: (phase, end
    chart, state at span, conversions)."""
    if isinstance(result, Exception):
        raise result
    phase, charts, s = result[:3]
    out = (1.0 if s[-1, 0] >= 0.0 else -1.0) if end is None else end
    signs = np.concatenate([[start], charts, [out]])
    # from chart +1 to -1 the phase gains arg(R + i I), back it loses it
    turn = 0.5 * (signs[:-1] - signs[1:])
    return phase + float(np.sum(turn * np.arctan2(s[:, 2], s[:, 1]))), out, s[-1, :3], np.count_nonzero(turn)


def reference_results(done, ends, out, total, err, panels, levels, width):
    """Each position's result of _phases, or its exception, from the
    accepted panels of each level (see _phases) and the rows at 0 and
    span."""
    jd, cd = np.concatenate([x[0] for x in done]), np.concatenate([x[2] for x in done])
    # per job the sum of its panels' charts: +-panels when one chart covers it
    sums, runs = np.bincount(jd, weights=cd, minlength=len(out)).tolist(), {}
    if any(o is None and abs(s) != n for o, s, n in zip(out, sums, panels)):
        # some job switches chart: its panels in order of |far edge|, and
        # where the next panel of the job has the other chart
        by_tau = np.lexsort((np.abs(np.concatenate([x[1] for x in done])), jd))
        cd, starts = cd[by_tau], list(itertools.accumulate(panels, initial=0))
        # the far-edge rows of the accepted panels
        sd = np.concatenate([edge if ok is None else edge[ok] for *_, rows, ok in done
                             for edge in [np.concatenate([s[15 * n:16 * n] for s, n in rows])]])
        for x in np.flatnonzero(cd[1:] != cd[:-1]).tolist():
            p = bisect.bisect_right(starts, x) - 1
            if x + 1 < starts[p + 1]:
                runs.setdefault(p, [cd[starts[p]]]).append((cd[x + 1], sd[by_tau[x]]))
    for p, o in enumerate(out):
        if o is None:
            first, *switch = runs.get(p, [1.0 if sums[p] > 0.0 else -1.0])
            states = [ends[p, :1, :width[p]], *(s[None, :width[p]] for _, s in switch), ends[p, 1:, :width[p]]]
            o = (float(total[p]), np.array([first, *(c for c, _ in switch)]), np.concatenate(states), float(err[p]),
                 panels[p], levels[p])
        yield o

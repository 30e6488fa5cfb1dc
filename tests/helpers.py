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
    integrate_quad,
    qqq_rhs,
    random_sphere_states,
)
from cubicnls.cli import _Parser, cmd_fixed_points, cmd_profile, cmd_solve, cmd_standardize
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

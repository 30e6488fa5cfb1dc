"""Rebuild the complex amplitude pair from its quadratic quantities.

Given D, R, I as functions of time (closed form or dense numerical output),
the amplitudes are recovered on two charts, one per component:

    |A1| = sqrt((rho + D)/2),     A2 = (R + i I) / sqrt(2 (rho + D)) * e^(i theta1)
    |A2| = sqrt((rho - D)/2),     A1 = (R - i I) / sqrt(2 (rho - D)) * e^(i theta2)

with theta1 = arg A1 and theta2 = arg A2 advancing at N1 - V and N2 - V.
N1 and N2 are explicit rational functions of the state and V is the
conserved quadratic potential along the flow.  Neither phase is defined on
every orbit (A1 vanishes at D = -rho, A2 at D = +rho), so the phase
integral follows theta1 where D >= 0 and theta2 where D < 0, where the
chart's weight rho +- D is at least rho, and converts between them by
theta2 = theta1 + arg(R + i I), which holds wherever both are nonzero.

The phase integral is taken on G7-K15 Gauss-Kronrod panels at most 0.25
wide in tau.  A panel is bisected while its chart's weight falls below
rho/2 at one of its nodes, and panels are bisected until the estimates
|K15 - G7| sum to at most 1e-11 absolute.  On a periodic orbit (a sigma
orbit, or a closed form with a period P) the integral over [0, tau] is
that over the remainder tau - n P plus n times that over one period,
whenever the two spans are shorter than tau; each of the two integrals
then settles at 1e-11 / (1 + |n|), so that the remainder's estimate plus
|n| times the period's is still at most 1e-11.  One refinement loop serves a
list of integrals, such as those of every point of a profile grid: each
level evaluates the sources on the nodes and far edges of the pending
panels (and at the first level on each integral's two ends), with one
call for all the closed forms of one formula and one per other source,
and does the rest of the level in array passes over all panels.  A non-finite
integrand value, or a rule that does not get there within a fixed number
of levels and panels, raises PhaseIntegralError.  Each ``reconstruct`` and
each profile point, sigma-reduced ones too, logs the chart switches, panels,
levels and summed error estimate at debug level on this module's logger.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math

import numpy as np

from .closed_form import ClosedFormSolution, _stacked
from .quadratic_flow import Trajectory, _check_sphere, _SigmaOrbit, amplitudes_to_quad, full_ode_rhs, qqq_rhs

__all__ = [
    "PhaseIntegralError",
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
_INCONSISTENT = "quadratic source is inconsistent with the initial amplitudes"

# The phase integral's rule: G7-K15 panels (Piessens et al., QUADPACK, 1983,
# qk15), at most _PANEL_WIDTH wide in tau, bisected until the summed
# estimates |K15 - G7| are within _PHASE_TOL absolute (see _phases).
_PANEL_WIDTH = 0.25
_PHASE_TOL = 1e-11
_MAX_LEVELS = 40  # refinement levels before PhaseIntegralError
_MAX_PANELS = 4096  # pending panels in one level before PhaseIntegralError
# qk15 abscissae x_1 > ... > x_7 > 0 (the even-numbered ones are the Gauss
# nodes besides 0) and the weights of the Kronrod (8, the last at 0) and
# Gauss (4, the last at 0) rules on them
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
# the 15 nodes on [-1, 1] in increasing order and both rules' weights there
_GK_X = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_K15_W = np.concatenate([_WGK, _WGK[-2::-1]])
_G7_W = np.zeros(15)
_G7_W[1::2] = np.concatenate([_WG, _WG[-2::-1]])

log = logging.getLogger(__name__)


class SingularAnchorError(ZeroDivisionError):
    """The anchored component vanishes where the formula needs it."""


class PhaseIntegralError(ValueError):
    """The phase integral met a non-finite integrand or missed its tolerance."""


def v_rate(params, rho: float, s) -> float:
    """The conserved quadratic potential along the flow, as a function of the
    state (one state, or an (n, 3) array of states)."""
    s = np.asarray(s, dtype=float)
    d, r = s[..., 0], s[..., 1]
    return 0.5 * (params.q1 + params.q3) * rho + 0.5 * (params.q1 - params.q3) * d + params.q2 * r


def _phase_rate(params, rho: float, s, sign: float):
    """N1 (sign=+1) or N2 (sign=-1), evaluated stably on the sphere, for one
    state (a float) or an (n, 3) array of states (an array).

    Where rho + sign*D <= rho/2 the reciprocal 1/(rho + sign*D) is replaced
    by the on-sphere identity (rho - sign*D)/(R^2 + I^2), whose limit at a
    zero of the weight stays finite.
    """
    s = np.asarray(s, dtype=float)
    n = _rate(params, rho, s.transpose(-1, *range(s.ndim - 1)), sign)[0]
    return float(n) if n.ndim == 0 else n


def _rate(params, rho, s, sign):
    """_phase_rate's N for the states s = (D, R, I) along the first axis, and
    where the chart's weight rho + sign*D is at least rho/2."""
    d, r = s[0], s[1]
    sd = sign * d
    w, floor = rho + sd, 0.5 * rho
    direct = w > floor
    rr, ii = r * r, s[2] * s[2]
    den = rr + ii
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(direct, 1.0 / w, (rho - sd) / den)
        n = (
            sign * params.p1 * rho * r * inv
            + params.p2 * (-3.0 * rho + ii * inv)
            + params.p3 * (-sign * d + rr * inv)
            - sign * params.p4 * w
            + params.p5 * (-r - rho * r * inv)
        )
    if not den.all():
        # an isolated zero point (den == 0 off the direct branch): any
        # finite value integrates to nothing
        n = np.where(~direct & (den == 0.0), 0.0, n)
    return n, w >= floor


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
    from scipy.optimize import brentq  # lazy: no CLI path calls zero_times, so scipy stays unloaded

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


def _phases(params, jobs):
    """The phase integrals of jobs (rho, src, span, s0, tol) from 0 to span,
    in one refinement loop (see the module docstring).

    Panels are at most _PANEL_WIDTH wide.  A panel integrates N1 - V if
    D >= 0 at its centre node and N2 - V otherwise, and is bisected unless
    that chart's weight rho +- D is at least rho/2 at all 15 nodes.  A job
    ends when every pending panel keeps its weight and the estimates
    |K15 - G7| of all its panels sum to at most its tol; otherwise the
    level accepts each panel that keeps its weight and whose estimate is
    within its width's share of tol, and bisects the others.  Each
    level evaluates the sources on the pending panels' 15 nodes and far
    edges and, at level 1, on 0 (where it must match s0 within
    1e-8 max(1, rho)) and span: one call for all the jobs of one closed-form
    formula (closed_form._stacked; retried job by job if it raises), one
    per job for any other source.  A fourth source column, dtau/du, weights
    the integrand: the variable is then an orbit parameter u.  The jobs of
    one call lie next to each other, so that its panels are one slice of
    the level's arrays; only the K15 and G7 products and the sums run on
    each job's own slice, as over stacked jobs they round otherwise.

    Returns per job (integral, charts, states, summed error estimate,
    panels, levels), with the chart signs (+1 for N1, -1 for N2) of the runs
    of adjacent panels and the source's rows at 0, between runs and at
    span; or the exception that ended the job: its source's, ValueError for
    a source that misses s0, or PhaseIntegralError on a non-finite integrand
    value, after _MAX_LEVELS levels or over _MAX_PANELS pending panels.
    """
    keyed = {}
    for k, (_, src, _, _, _) in enumerate(jobs):
        keyed.setdefault(src._key if isinstance(src, ClosedFormSolution) else k, []).append(k)
    # position p holds job order[p]; one source call serves the positions g0:g1
    order, calls = [], []
    for ks in keyed.values():
        calls.append((len(order), len(order) + len(ks), _stacked([jobs[k][1] for k in ks]) if len(ks) > 1 else None))
        order += ks
    n_jobs, spans, tol = len(order), [jobs[k][2] for k in order], [jobs[k][4] for k in order]
    rho = np.array([jobs[k][0] for k in order], dtype=float)
    share = np.array([e / abs(x) * 2.0 if x else math.inf for x, e in zip(spans, tol)])
    # the pending jobs ks have cnt panels each, pj is the job of each panel
    cnt = [max(1, math.ceil(abs(x) / _PANEL_WIDTH)) for x in spans]
    pj, center, half = _panels(spans, cnt)
    out, width, levels, panels = [None] * n_jobs, [0] * n_jobs, [0] * n_jobs, [0] * n_jobs
    total, err = [0.0] * n_jobs, [0.0] * n_jobs
    ks, done, level = list(range(n_jobs)), [], 0
    while ks:
        level += 1
        bounds = list(zip(ks, itertools.accumulate([0] + cnt[:-1]), itertools.accumulate(cnt)))
        taus, far = center[:, None] + half[:, None] * _GK_X, center + half
        # each source call's rows in panel order: (rows or None, its panels, its positions)
        parts, b = [], 0
        for g0, g1, stacked in calls:
            a = b
            while b < len(bounds) and bounds[b][0] < g1:
                b += 1
            tries = [(stacked or jobs[order[g0]][1], g0 if stacked else None, bounds[a:b])] if a < b else []
            for src, first, members in tries:
                try:
                    parts.append(_source_rows(src, first, members, taus, far, level == 1 and spans))
                except Exception as exc:
                    if len(members) == 1:
                        out[members[0][0]] = exc
                        parts.append((None, members[0][2] - members[0][1], [members[0][0]]))
                    else:  # a shared call is retried job by job, so that each keeps its own exception
                        tries += [(jobs[order[m[0]]][1], None, [m]) for m in members]
        if level == 1:
            c = max((s.shape[1] for s, _, _ in parts if s is not None), default=3)
        rows = []
        for s, n, ps in parts:
            # a failed call's panels run on ones and are let go below; a
            # narrower source's columns are made up with ones
            for p in ps if s is not None else ():
                width[p] = s.shape[1]
            s = np.ones((16 * n + 2 * len(ps) * (level == 1), c)) if s is None else s
            rows.append((np.concatenate([s, np.ones((len(s), c - s.shape[1]))], axis=1) if s.shape[1] < c else s, n))
        # the rows at the panels' 15 nodes, component by component
        nodes = np.concatenate([s[:15 * n].T for s, n in rows], axis=1).reshape(c, -1, 15)
        if level == 1:  # each job's source at 0 against its s0, NaN-safe
            ends = np.concatenate([s[16 * n:] for s, n in rows]).reshape(-1, 2, c)
            miss = np.abs(np.array([jobs[k][3] for k in order], dtype=float) - ends[:, 0, :3])
            hit = miss <= 1e-8 * np.maximum(1.0, rho)[:, None]
            if not hit.all():
                for p in np.flatnonzero(~hit.all(axis=1)).tolist():
                    out[p] = ValueError(_INCONSISTENT) if out[p] is None else out[p]
        # per node: its job's rho and its panel's chart, +1 where D >= 0 at node 7, the centre
        chart = np.where(nodes[0, :, 7] >= 0.0, 1.0, -1.0)
        rho_n = np.repeat(rho[pj], 15).reshape(-1, 15)
        f, kept = _rate(params, rho_n, nodes, np.repeat(chart, 15).reshape(-1, 15))
        f = f - v_rate(params, rho_n, nodes[:3].transpose(1, 2, 0))
        f = f * nodes[3] if c > 3 else f
        finite = np.isfinite(f)
        if not finite.all():
            for j in np.flatnonzero(~finite.all(axis=1)).tolist():
                if out[pj[j]] is None:  # the job's first non-finite value
                    out[pj[j]] = PhaseIntegralError(f"non-finite phase rate at tau = {float(taus[j][~finite[j]][0])!r}")
            f[~finite] = 0.0  # the failed jobs' panels are let go below
        kronrod, gauss = np.empty(len(pj)), np.empty(len(pj))
        for _, a, b in bounds:
            # per job: a product over several jobs' stacked panels rounds differently
            kronrod[a:b], gauss[a:b] = f[a:b] @ _K15_W, f[a:b] @ _G7_W
        kronrod = half * kronrod
        diff = np.abs(kronrod - half * gauss)
        # a job whose panels all keep their weights and whose estimates sum
        # to at most _PHASE_TOL accepts them all, as a failed job lets them
        # go; the sums run per job
        settled = np.logical_and.reduceat(kept.ravel(), [15 * a for _, a, _ in bounds]).tolist()
        for j, (p, a, b) in enumerate(bounds):
            if settled[j] and out[p] is None:
                d = np.add.reduce(diff[a:b])
                settled[j] = err[p] + d <= tol[p]
                if settled[j]:
                    total[p], err[p] = total[p] + np.add.reduce(kronrod[a:b]), err[p] + d
            settled[j] = settled[j] or out[p] is not None
        if all(settled):
            unresolved = [0] * len(ks)
        else:
            # the others accept each panel that keeps its weight and is within its share
            ok = kept.all(axis=1) & (diff <= share[pj] * np.abs(half)) | np.repeat(settled, cnt)
            at, accepted_k, accepted_d = np.concatenate([[0], np.cumsum(ok)]).tolist(), kronrod[ok], diff[ok]
            for (p, a, b), go in zip(bounds, settled):
                if not go:
                    total[p] += np.add.reduce(accepted_k[at[a]:at[b]])
                    err[p] += np.add.reduce(accepted_d[at[a]:at[b]])
            unresolved = [n - at[b] + at[a] for (_, a, b), n in zip(bounds, cnt)]
        # the accepted panels' jobs, far edges and charts, and the level's
        # rows with the mask of the accepted ones (None for all)
        done.append((pj, far, chart, rows, None) if not any(unresolved) else (pj[ok], far[ok], chart[ok], rows, ok))
        more = []
        for p, n, u in zip(ks, cnt, unresolved):
            levels[p], panels[p] = level if u == 0 else levels[p], panels[p] + n - u
            if u and (2 * u > _MAX_PANELS or level == _MAX_LEVELS):
                out[p] = PhaseIntegralError(f"phase integral not within {tol[p]:g} after {level} levels ({u} panels unresolved)")
            more.append(u > 0 and out[p] is None)
        if any(more):  # bisect the rest: each job's left halves, then its right halves
            rest = ~ok & np.repeat(more, cnt)
            jj, mid, h = pj[rest], center[rest], 0.5 * half[rest]
            halves = np.argsort(np.concatenate([jj, jj]), kind="stable")
            pj, center, half = np.concatenate([jj, jj])[halves], np.concatenate([mid - h, mid + h])[halves], np.tile(h, 2)[halves]
        ks, cnt = [p for p, go in zip(ks, more) if go], [2 * u for u, go in zip(unresolved, more) if go]
    result = [None] * len(jobs)
    for k, res in zip(order, _results(done, ends, out, total, err, panels, levels, width) if done else ()):
        result[k] = res
    return result


def _panels(spans, cnt):
    """The job, centre and half width of each panel of
    np.linspace(0, span, n + 1) for each span and its n = cnt panels."""
    m, span, cnt = max(cnt, default=0), np.array(spans, dtype=float), np.array(cnt, dtype=int)
    col = np.arange(m + 1)
    inside = col < cnt[:, None]
    edges = np.where(inside, col * (span / cnt)[:, None] + 0.0, span[:, None])  # the span from each job's last edge on
    valid, right, left = inside[:, :-1], edges[:, 1:], edges[:, :-1]
    return np.nonzero(valid)[0], (0.5 * (right + left))[valid], (0.5 * (right - left))[valid]


def _source_rows(src, g0, members, taus, far, spans):
    """One source call for the pending panels of members (position, first
    panel, stop): their 15 nodes and far edges and, given spans (level 1),
    the members' 0 and span; src is one job's source, or (g0 not None) the
    stacked formula of the positions from g0.  Returns (rows, panels,
    positions)."""
    a, b, ps = members[0][1], members[-1][2], [p for p, _, _ in members]
    q = [taus[a:b].ravel(), far[a:b]] + ([[x for p in ps for x in (0.0, spans[p])]] if spans else [])
    if g0 is None:
        return np.asarray(src(np.concatenate(q)), dtype=float), b - a, ps
    at = np.repeat([p - g0 for p in ps], [y - x for _, x, y in members])
    index = [np.repeat(at, 15), at] + ([np.repeat([p - g0 for p in ps], 2)] if spans else [])
    return src(np.concatenate(index), np.concatenate(q)), b - a, ps


def _results(done, ends, out, total, err, panels, levels, width):
    """Each position's result of _phases, or its exception, from the
    accepted panels of each level (see _phases) and the rows at 0 and
    span: the charts of all jobs lie in one array and their rows in
    another, and each job's are views of them."""
    jd, cd = np.concatenate([x[0] for x in done]), np.concatenate([x[2] for x in done])
    # per job the sum of its panels' charts: +-panels when one chart covers it
    sums = np.bincount(jd, weights=cd, minlength=len(out)).tolist()
    if all(o is not None or abs(s) == n for o, s, n in zip(out, sums, panels)):
        charts, rows, runs = np.array([1.0 if s > 0.0 else -1.0 for s in sums]), ends.reshape(-1, ends.shape[2]), None
    else:
        # some job switches chart: its panels in order of |far edge|, the
        # first of each run of one chart, and the far-edge rows before them
        by_tau = np.lexsort((np.abs(np.concatenate([x[1] for x in done])), jd))
        jd, cd = jd[by_tau], cd[by_tau]
        head = np.flatnonzero(np.concatenate([[True], (jd[1:] != jd[:-1]) | (cd[1:] != cd[:-1])]))
        charts, runs = cd[head], np.bincount(jd[head], minlength=len(out))
        sd = np.concatenate([edge if ok is None else edge[ok] for *_, rows, ok in done
                             for edge in [np.concatenate([s[15 * n:16 * n] for s, n in rows])]])
        # job p's rows: ends[p, 0], the row before each of its later runs, ends[p, 1]
        first = np.cumsum(runs) - runs
        rows = np.empty((len(charts) + len(out), ends.shape[2]))
        rows[first + np.arange(len(out))] = ends[:, 0]
        rows[first + runs + np.arange(len(out))] = ends[:, 1]
        later = np.ones(len(charts), dtype=bool)
        later[first[runs > 0]] = False
        rows[np.flatnonzero(later) + jd[head[later]]] = sd[by_tau[head[later] - 1]]
        runs = runs.tolist()
    at = list(range(len(out) + 1)) if runs is None else list(itertools.accumulate(runs, initial=0))
    for p, o in enumerate(out):
        if o is None:
            a, b = at[p], at[p + 1]
            o = (float(total[p]), charts[a:b], rows[a + p:b + p + 1, :width[p]], float(err[p]), panels[p], levels[p])
        yield o


def reconstruct(params, a0, quad_src, rho: float, tau: float, anchor: int | None = None):
    """Amplitude pair at time tau from the quadratic-quantity source.

    ``quad_src`` maps tau -> (D, R, I) (vectorized over arrays) and must be
    consistent with the quadratic quantities of ``a0`` at tau = 0 within
    1e-8.  The phase of the anchor, the larger component of a0
    (overridable with ``anchor`` in {1, 2}), seeds the phase integral.
    That integral runs on two charts, the phase of the first component
    where D >= 0 and of the second where D < 0, and converts between them
    by arg A2 = arg A1 + arg(R + i I) at each switch, at tau = 0 and at
    tau.  The pair at tau is built on its larger component.  The integral
    is evaluated on G7-K15 Gauss-Kronrod panels of width <= 0.25 in tau,
    one array call of ``quad_src`` per refinement level (the first also
    takes tau = 0 and tau), bisected until the estimates |K15 - G7| sum to
    at most 1e-11 absolute.  A ClosedFormSolution with a period P passed as
    ``quad_src`` folds whole periods out: the integral runs over the
    remainder tau - n P (n = round(tau / P)) and one period, counted |n|
    times, each within 1e-11 / (1 + |n|), whenever that integrates less
    than [0, tau].  Raises ValueError for a non-finite tau or rho or an a0
    off rho or the source at 0 (NaN too), and PhaseIntegralError when a
    span it integrates needs more than 4096 panels (|span| > 1024), on a
    non-finite integrand value, or when the rule misses its target within
    its level and panel caps.  uapp's points run through the same job
    builder and pair assembly.
    """
    a0 = complex(a0[0]), complex(a0[1])
    if a0[0] == 0 and a0[1] == 0:
        raise ValueError("reconstruction needs a nontrivial amplitude pair")
    jobs, plan = _reconstruct_jobs([a0], [quad_src], [rho], None, tau, anchor)
    if tau == 0.0:
        return a0
    pairs, failed = _reconstructed(plan, _phases(params, jobs))
    if failed is not None:
        raise failed
    return pairs[0]


def _reconstruct_jobs(a0s, sources, rho, s0, tau: float, anchor=None):
    """reconstruct's checks, of tau once, and the jobs of nontrivial points:
    amplitude pairs a0s, their sources, radii and states (rows of s0), with
    the plan that _reconstructed builds their pairs from.  s0 = None stands
    for a lone point's (D, R, I), checked NaN-safe against rho and the
    source.  A source runs over tau; a sigma orbit's states run over phi
    from phi0: its span and, with whole periods, one period.  A closed form
    with a period P (ClosedFormSolution._period) runs over the remainder
    tau - n P, of either sign, and one period of n's sign, n = round(tau /
    P), when |tau - n P| + P < |tau|, and over tau otherwise.  The two jobs
    of a point with whole periods each get the tolerance 1e-11 / (1 +
    |periods|); every span must fit in the 4096 first-level panels."""
    if not math.isfinite(tau):
        raise ValueError(f"reconstruction needs a finite tau, got {tau!r}")
    if s0 is None:
        _check_sphere(rho[0])
        rho0, s = amplitudes_to_quad(*a0s[0])
        tol = 1e-8 * max(1.0, rho[0])
        if not (abs(rho0 - rho[0]) <= tol
                and (tau != 0.0 or np.max(np.abs(s - np.asarray(sources[0](0.0), dtype=float))) <= tol)):
            raise ValueError(_INCONSISTENT)
        s0 = [s]
    if anchor not in (None, 1, 2):
        raise ValueError("anchor must be 1, 2 or None")
    jobs, points = [], []
    for a0, src, r, s in zip(a0s, sources, rho, s0):
        start = 1.0 if (abs(a0[0]) >= abs(a0[1]) if anchor is None else anchor == 1) else -1.0
        seed = a0[0] if start > 0.0 else a0[1]
        if seed == 0:
            raise SingularAnchorError("requested anchor component vanishes at tau = 0")
        spans, periods = [tau], 0
        if isinstance(src, _SigmaOrbit):
            orbit, periods = src, src.periods
            src = lambda u, orbit=orbit: orbit.states(orbit.phi0 + u)
            spans = [orbit.span] + [math.copysign(2.0 * math.pi, periods)] * (periods != 0)
        elif isinstance(src, ClosedFormSolution) and (period := src._period) is not None:
            n = round(tau / period) if math.isfinite(tau / period) else 0  # an overflow fails in the source
            if abs(tau - n * period) + period < abs(tau):  # folding integrates less
                spans, periods = [tau - n * period, math.copysign(period, n)], n
        for span in spans:
            if abs(span) > _MAX_PANELS * _PANEL_WIDTH:
                raise PhaseIntegralError(f"a span of {span!r} (tau = {tau!r}) needs more than {_MAX_PANELS} panels")
        tol = _PHASE_TOL / (1 + abs(periods))  # the span's estimate plus |periods| times the period's
        jobs += [(r, src, span, s, tol) for span in spans]
        points.append((r, seed, start, periods))
    return jobs, (tau, points)


def _reconstructed(plan, results):
    """The pairs at tau of the points of a plan (see _reconstruct_jobs) from
    their jobs' results: a list of pairs for the points before the first
    with a failed job, and that job's exception (None if no job failed).
    Each pair is built on the component of D's sign at tau, with the phase
    turned by arg(R + i I) at each chart switch, and logs its debug line.
    The turns of all jobs take one arctan2 and one reduceat; a job adds
    only views and tolist calls, a point a few Python float and complex
    operations."""
    tau, points = plan
    first = list(itertools.accumulate((1 + bool(point[3]) for point in points), initial=0))
    bad = next((j for j, res in enumerate(results) if isinstance(res, Exception)), None)
    k = len(points) if bad is None else bisect.bisect_right(first, bad) - 1
    # a job's signs run from the start chart over the charts of its runs to
    # D's sign at span (for a period job, the start chart again); from chart
    # +1 to -1 the phase gains arg(R + i I) at the row between, back it loses
    # it.  Each job's sum starts from a 0 of its own, as np.sum does from +0.
    turns, rows, at, switches, spans = [], [], [], [], []
    for (_, _, start, _), a, b in zip(points, first, first[1:k + 1]):
        spans.append(results[a][2][-1, :3].tolist())  # (D, R, I) at span
        for j in range(a, b):
            signs = [start, *results[j][1].tolist(), start if j > a else 1.0 if spans[-1][0] >= 0.0 else -1.0]
            at.append(len(turns))
            turns.append(0.0)
            turns += [0.5 * (x - y) for x, y in zip(signs, signs[1:])]
            switches.append(sum(x != y for x, y in zip(signs, signs[1:])))
            rows += (_PAD, results[j][2][:, 1:3])
    if at:
        rows = np.concatenate(rows)
        turned = np.add.reduceat(np.array(turns) * np.arctan2(rows[:, 1], rows[:, 0]), at).tolist()
    pairs, debug = [], log.isEnabledFor(logging.DEBUG)
    for (rho, seed, start, periods), j, (d, r, i) in zip(points, first, spans):
        total, _, _, err, panels, levels = results[j]
        phase, count = total + turned[j], switches[j]
        if periods:  # plus |periods| whole periods
            total, _, _, err1, panels1, levels1 = results[j + 1]
            phase, count = phase + abs(periods) * (total + turned[j + 1]), count + abs(periods) * switches[j + 1]
            err, panels, levels = err + abs(periods) * err1, panels + panels1, max(levels, levels1)
        if debug:
            log.debug("reconstruct tau=%.17g anchor=%d switches=%d panels=%d levels=%d error_estimate=%.3g",
                      tau, 1 if start > 0.0 else 2, count, panels, levels, err)
        out = 1.0 if d >= 0.0 else -1.0
        w = rho + out * d
        factor = seed / abs(seed) * complex(math.cos(phase), math.sin(phase))
        amp = math.sqrt(w / 2.0) * factor
        comp = complex(r, out * i) / math.sqrt(2.0 * w) * factor
        pairs.append((amp, comp) if out > 0 else (comp, amp))
    return pairs, None if bad is None else results[bad]


_PAD = np.zeros((1, 2))  # a row (R, I) whose arctan2 is +0


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

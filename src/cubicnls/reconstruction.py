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
|K15 - G7| sum to at most 1e-11 absolute.  One refinement loop serves a
list of integrals, such as those of every point of a profile grid: each
level evaluates the sources on the nodes and far edges of the pending
panels (and at the first level on each integral's two ends), with one
call for all the closed forms of one formula and one per other source,
and does the rest of the level in array passes over all panels.  A non-finite
integrand value, or a rule that does not get there within a fixed number
of levels and panels, raises PhaseIntegralError.  Each ``reconstruct``
logs the chart switches, panels, levels and summed error estimate at
debug level on the ``cubicnls.reconstruction`` logger.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np

from .closed_form import ClosedFormSolution, _stacked
from .quadratic_flow import Trajectory, amplitudes_to_quad, full_ode_rhs, qqq_rhs

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
    edges and, at level 1, on 0 (where it must match s0 within 1e-8, unless
    s0 is None) and span: one call for all the jobs of one closed-form
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
    # each job's s0 (NaN where none is given), checked at level 1 against its source at 0
    s0_j = np.array([np.full(3, np.nan) if job[3] is None else job[3] for job in jobs])
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
        for k, miss in enumerate(np.abs(s0_j - ends[:, 0, :3]).max(axis=1).tolist() if level == 1 else ()):
            if out[k] is None and miss > 1e-8 * max(1.0, jobs[k][0]):
                out[k] = ValueError(_INCONSISTENT)
        # per node: its job's rho and its panel's chart, +1 where D >= 0 at node 7, the centre
        chart = np.where(nodes[0, :, 7] >= 0.0, 1.0, -1.0)
        rho, sign = np.repeat(rho_j[ks], 15 * cnt).reshape(-1, 15), np.repeat(chart, 15).reshape(-1, 15)
        states = nodes[:3].transpose(1, 2, 0)  # (panel, node, D R I), each component contiguous
        f = _phase_rate(params, rho, states, sign) - v_rate(params, rho, states)
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


def _turned(result, start: float, end=None):
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
    at most 1e-11 absolute.  Raises ValueError for a non-finite tau, and
    PhaseIntegralError when |tau| needs more than 4096 panels, on a
    non-finite integrand value, or when the rule misses its target within
    its level and panel caps.
    """
    a0 = complex(a0[0]), complex(a0[1])
    if a0[0] == 0 and a0[1] == 0:
        raise ValueError("reconstruction needs a nontrivial amplitude pair")
    ((jobs, pair),) = _reconstruct_jobs([(a0, quad_src, rho, None)], tau, anchor)
    return pair(_phases(params, jobs))


def _reconstruct_jobs(points, tau: float, anchor=None):
    """reconstruct's checks, of tau once, for nontrivial points (a0, source,
    rho, s0), then per point its job (none at tau = 0) and the function
    that builds its pair from that job's result.  s0 = None stands for a0's
    (D, R, I), checked against rho and the source; a grid passes its own."""
    if not math.isfinite(tau):
        raise ValueError(f"reconstruction needs a finite tau, got {tau!r}")
    if abs(tau) > _MAX_PANELS * _PANEL_WIDTH:
        raise PhaseIntegralError(f"tau = {tau!r} needs more than {_MAX_PANELS} panels")
    out = []
    for a0, src, rho, s0 in points:
        if s0 is None:
            rho0, s0 = amplitudes_to_quad(*a0)
            tol = 1e-8 * max(1.0, rho)
            if abs(rho0 - rho) > tol or (tau == 0.0 and np.max(np.abs(s0 - np.asarray(src(0.0), dtype=float))) > tol):
                raise ValueError(_INCONSISTENT)
        if anchor not in (None, 1, 2):
            raise ValueError("anchor must be 1, 2 or None")
        start = 1.0 if (abs(a0[0]) >= abs(a0[1]) if anchor is None else anchor == 1) else -1.0
        seed = a0[0] if start > 0.0 else a0[1]
        if seed == 0:
            raise SingularAnchorError("requested anchor component vanishes at tau = 0")
        out.append(([], lambda _, a0=a0: a0) if tau == 0.0 else
                   ([(rho, src, tau, s0)], functools.partial(_reconstructed, rho, tau, seed, start)))
    return out


def _reconstructed(rho: float, tau: float, seed: complex, start: float, results):
    """The pair at tau from a reconstruct job's result, and its debug line."""
    phase, out, s, switches = _turned(results[0], start)
    _, _, _, err, panels, levels = results[0]
    log.debug(
        "reconstruct tau=%.17g anchor=%d switches=%d panels=%d levels=%d error_estimate=%.3g",
        tau, 1 if start > 0.0 else 2, switches, panels, levels, err,
    )
    return _pair(rho, seed, phase, out, s)


def _pair(rho: float, seed: complex, phase: float, out: float, s):
    """The pair with quadratic quantities s = (D, R, I), built on the
    component of chart ``out``, whose phase is arg(seed) + phase."""
    d, r, i = s
    w = rho + out * d
    factor = seed / abs(seed) * complex(math.cos(phase), math.sin(phase))
    amp = math.sqrt(w / 2.0) * factor
    comp = complex(r, out * i) / math.sqrt(2.0 * w) * factor
    return (amp, comp) if out > 0 else (comp, amp)


def _orbit_jobs(a0, rho: float, orbit):
    """The phase-integral jobs over phi of a sigma-reduced orbit (its span
    and, with whole periods, one period) and the function that builds from
    their results the pair at its end, anchored on a0's larger component."""
    seed, start = (a0[0], 1.0) if abs(a0[0]) >= abs(a0[1]) else (a0[1], -1.0)
    src = lambda u: orbit.states(orbit.phi0 + u)
    jobs = [(rho, src, orbit.span, None)]
    if orbit.periods:
        jobs.append((rho, src, math.copysign(2.0 * math.pi, orbit.periods), None))

    def pair(results):
        phase, out, s, _ = _turned(results[0], start)
        if orbit.periods:
            phase += abs(orbit.periods) * _turned(results[1], start, start)[0]
        return _pair(rho, complex(seed), phase, out, s)

    return jobs, pair


def _orbit_pair(params, a0, rho: float, orbit):
    """The pair at the end of a sigma-reduced orbit (see _orbit_jobs)."""
    jobs, pair = _orbit_jobs(a0, rho, orbit)
    return pair(_phases(params, jobs))


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

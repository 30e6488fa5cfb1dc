"""Phase rates, two-chart amplitude reconstruction, residual observable."""

import logging
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from cubicnls.closed_form import CaseId, ClosedFormSolution, solve_case
from cubicnls.profile import FinalData, uapp
from cubicnls.quadratic_flow import amplitudes_to_quad, full_ode_rhs, integrate_full, random_sphere_states
from cubicnls.reconstruction import (
    PhaseIntegralError,
    SingularAnchorError,
    _phase_rate,
    _phases,
    phase_rate_N1,
    phase_rate_N2,
    reconstruct,
    residual,
    v_rate,
    zero_times,
)
from cubicnls.standard_form import StandardParams

from helpers import assert_same_phases, reference_phases, reference_reconstruct, std


class _Raw:
    """Bare parameter container for identities outside the sign conventions."""

    def __init__(self, p1, p2, p3, p4, p5, q1=0.0, q2=0.0, q3=0.0):
        self.p1, self.p2, self.p3, self.p4, self.p5 = p1, p2, p3, p4, p5
        self.q1, self.q2, self.q3 = q1, q2, q3


def random_amplitudes(rng, scale=0.8):
    v = rng.standard_normal(4) * scale
    return complex(v[0], v[1]), complex(v[2], v[3])


class TestPhaseRates:
    def test_pure_p2_example(self):
        assert phase_rate_N1(std(p2=1.0), 1.0, (1.0, 0.0, 0.0)) == pytest.approx(-3.0)
        assert phase_rate_N2(std(p2=1.0), 1.0, (-1.0, 0.0, 0.0)) == pytest.approx(-3.0)

    def test_pure_p4_rate(self):
        # the sign confirmed by the full-flow oracle below: -(rho + D) p4
        assert phase_rate_N1(std(p4=1.0), 1.0, (1.0, 0.0, 0.0)) == pytest.approx(-2.0)

    def test_vanishing_parameters(self):
        raw = _Raw(0, 0, 0, 0, 0)
        assert phase_rate_N1(raw, 1.0, (0.2, 0.5, 0.6)) == 0.0
        assert phase_rate_N2(raw, 1.0, (0.2, 0.5, 0.6)) == 0.0

    def test_singular_anchor_raises(self):
        with pytest.raises(SingularAnchorError):
            phase_rate_N1(std(p1=1.0), 1.0, (-1.0, 0.0, 0.0))
        with pytest.raises(SingularAnchorError):
            phase_rate_N2(std(p1=1.0), 1.0, (1.0, 0.0, 0.0))

    def test_component_swap_symmetry(self):
        # N2(p; D,R,I) = N1(p'; -D,R,-I) with p' = (-p1, p2, p3, -p4, p5)
        rng = np.random.default_rng(2)
        for _ in range(100):
            p1, p2, p3, p4, p5 = rng.uniform(-1, 1, 5)
            raw = _Raw(p1, p2, p3, p4, p5)
            swapped = _Raw(-p1, p2, p3, -p4, p5)
            s = random_sphere_states(1.0, 1, rng.integers(2**31))[0]
            if 1.0 - abs(s[0]) < 1e-3:
                continue
            lhs = phase_rate_N2(raw, 1.0, s)
            rhs = phase_rate_N1(swapped, 1.0, (-s[0], s[1], -s[2]))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_phase_rate_matches_full_flow(self):
        # d/dtau arg A1 along the full flow equals N1 - V
        p = std(p1=0.8, p2=0.3, p3=0.4, q=(0.3, -0.2, 0.5))
        a0 = (0.9 + 0.1j, 0.2 - 0.4j)
        rho, _ = amplitudes_to_quad(*a0)
        tr = integrate_full(p, a0, (0.0, 3.0), tol=1e-11)
        h = 1e-5
        for tau in np.linspace(0.2, 2.8, 14):
            am, a0_, ap = tr.at(tau - h), tr.at(tau), tr.at(tau + h)
            fd = np.angle(ap[0] / am[0]) / (2 * h)
            s = amplitudes_to_quad(*a0_)[1]
            assert fd == pytest.approx(
                phase_rate_N1(p, rho, s) - v_rate(p, rho, s), abs=1e-6
            )

    def test_v_rate_formula(self):
        p = std(p1=1.0, q=(0.7, -0.3, 0.2))
        s = (0.2, -0.5, 0.0)
        expected = 0.5 * (0.7 + 0.2) * 1.0 + 0.5 * (0.7 - 0.2) * 0.2 + (-0.3) * (-0.5)
        assert v_rate(p, 1.0, s) == pytest.approx(expected)


class TestReconstruct:
    def test_tau_zero_identity(self):
        p = std(p1=1.0)
        a0 = (0.5 + 0.2j, -0.3 + 0.6j)
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)
        assert reconstruct(p, a0, sol.eval, rho, 0.0) == a0

    def test_pure_p4_phase(self):
        p = std(p4=1.0)
        a0 = (1.0 + 0j, 0j)
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)
        for tau in (0.4, -1.7, 3.0):
            a1, a2 = reconstruct(p, a0, sol.eval, rho, tau)
            assert a1 == pytest.approx(np.exp(-2j * tau), abs=1e-10)
            assert a2 == 0

    def test_case1_matches_full_flow(self):
        p = std(p1=1.0, q=(0.3, -0.2, 0.5))
        rng = np.random.default_rng(8)
        for _ in range(4):
            a0 = random_amplitudes(rng)
            rho, s0 = amplitudes_to_quad(*a0)
            sol = solve_case(p, rho, s0)
            for sgn in (1.0, -1.0):
                tr = integrate_full(p, a0, (0.0, sgn * 3.0), tol=1e-11)
                for tau in sgn * np.linspace(0.5, 3.0, 6):
                    got = reconstruct(p, a0, sol.eval, rho, tau)
                    ref = tr.at(tau)
                    assert abs(got[0] - ref[0]) < 1e-8
                    assert abs(got[1] - ref[1]) < 1e-8

    def test_inconsistent_source_rejected(self):
        p = std(p1=1.0)
        a0 = (1.0 + 0j, 0j)
        wrong = solve_case(p, 1.0, (0.0, 0.6, 0.8))
        # tau = 0 returns a0 without a phase integral, but still checks the source
        for tau in (1.0, 0.0):
            with pytest.raises(ValueError, match="inconsistent"):
                reconstruct(p, a0, wrong.eval, 1.0, tau)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["a1", "a2", "rho"])
    def test_nonfinite_input_rejected(self, where, bad, tau):
        # NaN or inf in a component of a0 or in rho raises ValueError at any
        # tau, never a pair (a NaN a1 once gave a finite, wrong one at tau = 1)
        p = std(p3=1.0, q=(0.1, -0.2, 0.3))
        a0 = [0.6 + 0.1j, 0.3 - 0.2j]
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)
        if where == "rho":
            rho = bad
        else:
            a0[where == "a2"] = complex(bad)
        with pytest.raises(ValueError) as exc:
            reconstruct(p, a0, sol.eval, rho, tau)
        assert not isinstance(exc.value, PhaseIntegralError)

    def test_trivial_pair_rejected(self):
        p = std(p1=1.0)
        with pytest.raises(ValueError):
            reconstruct(p, (0j, 0j), lambda t: np.zeros(3), 0.0, 1.0)

    def test_anchor_agreement(self):
        # both anchored formulas valid away from the poles: they must agree
        p = std(p2=0.7, p3=1.1, q=(0.1, 0.2, -0.3))
        rng = np.random.default_rng(9)
        for _ in range(5):
            a0 = random_amplitudes(rng)
            rho, s0 = amplitudes_to_quad(*a0)
            if min(rho + s0[0], rho - s0[0]) < 0.15 * rho:
                continue
            sol = solve_case(p, rho, s0)
            for tau in (-1.0, 0.7, 2.0):
                s_tau = sol(tau)
                if min(rho + s_tau[0], rho - s_tau[0]) < 0.12 * rho:
                    continue
                one = reconstruct(p, a0, sol.eval, rho, tau, anchor=1)
                two = reconstruct(p, a0, sol.eval, rho, tau, anchor=2)
                assert abs(one[0] - two[0]) < 1e-7
                assert abs(one[1] - two[1]) < 1e-7

    def test_gauge_consistency(self):
        # reconstruct with potential q equals the q = 0 reconstruction times
        # exp(-i integral of the potential)
        q = (0.4, -0.3, 0.2)
        p_full = std(p2=-0.8, p4=0.5, q=q)
        p_free = std(p2=-0.8, p4=0.5)
        a0 = (0.7 + 0.1j, 0.35 - 0.2j)
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p_full, rho, s0)
        from scipy.integrate import quad as squad

        for tau in (0.8, -1.5, 2.5):
            full = reconstruct(p_full, a0, sol.eval, rho, tau)
            free = reconstruct(p_free, a0, sol.eval, rho, tau)
            vint, _ = squad(
                lambda s: v_rate(p_full, rho, sol(float(s))), 0.0, tau,
                epsabs=1e-12, limit=200,
            )
            gauge = np.exp(-1j * vint)
            assert abs(full[0] - free[0] * gauge) < 1e-8
            assert abs(full[1] - free[1] * gauge) < 1e-8

    def test_quadratic_consistency(self):
        p = std(p3=1.0, p4=0.6)
        a0 = (0.6 - 0.3j, 0.4 + 0.5j)
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)
        for tau in np.linspace(-3, 3, 13):
            got = reconstruct(p, a0, sol.eval, rho, tau)
            _, s_rec = amplitudes_to_quad(*got)
            assert np.max(np.abs(s_rec - sol(tau))) < 1e-8

    def test_zero_splice(self):
        # a coupling driving the anchored amplitude through zero: the chart
        # switches must carry the phase across each grazing zero
        p = std(p2=-0.7, p3=0.7, p5=0.4, q=(0.1, 0.0, -0.2))
        x, y = 0.8, 0.35
        a0 = (complex(x), 1j * y)  # R0 = 0: the orbit is a full great circle
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)
        zs = zero_times(p, rho, sol.eval, 12.0, +1.0)
        assert len(zs) == 1  # one pole passage per rotation period
        for sgn in (1.0, -1.0):
            tr = integrate_full(p, a0, (0.0, sgn * 12.0), tol=1e-11)
            for tau in sgn * np.linspace(0.5, 12.0, 12):
                got = reconstruct(p, a0, sol.eval, rho, tau)
                ref = tr.at(tau)
                assert abs(got[0] - ref[0]) < 1e-7
                assert abs(got[1] - ref[1]) < 1e-7

    def test_zero_scan_matches_loop_reference(self):
        # the scan picks its candidate dips with array masks; this loop over
        # every grid point is the reference it must reproduce exactly
        from scipy.optimize import brentq

        from cubicnls.quadratic_flow import qqq_rhs

        def loop_zero_times(p, rho, src, tau, sign, n_scan=512):
            ts = np.linspace(0.0, tau, n_scan + 1)
            w = rho + sign * np.asarray(src(ts))[:, 0]

            def wdot(t):
                return sign * qqq_rhs(p, rho, src(float(t)))[0]

            zeros = []
            for j in range(1, n_scan):
                if w[j] <= w[j - 1] and w[j] <= w[j + 1] and w[j] < 5e-2 * rho:
                    a, b = ts[j - 1], ts[j + 1]
                    t_star = brentq(wdot, a, b, xtol=1e-12) if wdot(a) * wdot(b) < 0.0 else ts[j]
                    if rho + sign * src(float(t_star))[0] < 1e-10 * rho:
                        zeros.append(float(t_star))
            return sorted(zeros, key=abs)

        cases = [(std(p2=-0.7, p3=0.7, p5=0.4), np.array([0.8**2 - 0.35**2, 0.0, 2 * 0.8 * 0.35]))]
        cases += [(p, s) for p in (std(p3=1.0), std(p1=1.0, p3=3.0)) for s in random_sphere_states(1.3, 4, seed=7)]
        found = 0
        for p, s0 in cases:
            rho = float(np.linalg.norm(s0))
            sol = solve_case(p, rho, s0)
            for tau in (12.0, -9.0):
                for sign in (1.0, -1.0):
                    got = zero_times(p, rho, sol.eval, tau, sign)
                    assert got == loop_zero_times(p, rho, sol.eval, tau, sign)
                    found += len(got)
        assert found > 0


FAMILIES = {
    "p1": std(p1=1.0, q=(0.2, -0.1, 0.15)),
    "p3": std(p3=1.3, q=(-0.25, 0.1, 0.05)),
    "p1/p3=1/3": std(p1=1.0, p3=3.0, q=(0.1, 0.2, -0.3)),
    "case15": std(p1=0.6, p2=0.8, p3=1.0, p4=0.6, p5=0.2, q=(0.3, -0.2, 0.1)),
}
TAUS = (1.0, 4.0, 0.5 * math.log(1e8))


def _anchored_pair(s, rho, sign, turn):
    """An amplitude pair with quadratic quantities s, built on the component
    that ``sign`` anchors (its weight rho + sign*D must be positive)."""
    d, r, i = s
    lead = math.sqrt((rho + sign * d) / 2.0)
    other = complex(r, sign * i) / math.sqrt(2.0 * (rho + sign * d))
    pair = (lead, other) if sign > 0 else (other, lead)
    return tuple(complex(a) * complex(math.cos(turn), math.sin(turn)) for a in pair)


def _reference_phase(params, rho, src, tau, anchor):
    """The phase at tau of the component larger there, seeded by the
    anchor's phase at tau = 0, by an independent two-chart rule: the sign
    changes of D on a 2048-cell grid refined by brentq, scalar QUADPACK at
    1e-13 on each chart (N1 - V where D >= 0, N2 - V where D < 0) and
    arg A2 = arg A1 + arg(R + i I) at 0, at each switch and at tau.  Also
    returns the index of that component and the number of conversions."""
    ts = np.linspace(0.0, tau, 2049)
    d = np.asarray(src(ts))[:, 0]
    cuts = [brentq(lambda t: src(float(t))[0], a, b, xtol=1e-15)
            for a, b, da, db in zip(ts[:-1], ts[1:], d[:-1], d[1:]) if da * db < 0.0]
    nodes = [0.0] + cuts + [tau]
    charts = [1.0 if src(0.5 * (a + b))[0] >= 0.0 else -1.0 for a, b in zip(nodes[:-1], nodes[1:])]
    out = 1.0 if src(float(tau))[0] >= 0.0 else -1.0
    signs = [1.0 if anchor == 1 else -1.0] + charts + [out]
    total, turns = 0.0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a, b, sign in zip(nodes[:-1], nodes[1:], charts):
            def rate(t, sign=sign):
                s = src(float(t))
                return _phase_rate(params, rho, s, sign) - v_rate(params, rho, s)

            total += quad(rate, a, b, epsabs=1e-13, epsrel=1e-13, limit=1000)[0]
    for t, before, after in zip(nodes, signs[:-1], signs[1:]):
        _, r, i = src(float(t))
        total += 0.5 * (before - after) * math.atan2(i, r)
        turns += before != after
    return total, (0 if out > 0 else 1), turns


def _phase_error(params, a0, tau, anchor):
    """|reconstructed phase - reference phase| (mod 2 pi) of the component
    larger at tau, and the number of conversions the reference made."""
    rho, s0 = amplitudes_to_quad(*a0)
    sol = solve_case(params, rho, s0)
    got = reconstruct(params, a0, sol.eval, rho, tau, anchor=anchor)
    phase, j, k = _reference_phase(params, rho, sol.eval, tau, anchor)
    unit = a0[anchor - 1] / abs(a0[anchor - 1])
    return abs(np.angle(got[j] / (unit * np.exp(1j * phase)))), k


class TestPhaseIntegral:
    def test_matches_scalar_quadpack(self):
        rng = np.random.default_rng(61)
        for name, p in FAMILIES.items():
            for rho in (0.6, 1.4):
                for s0 in random_sphere_states(rho, 2, seed=int(rng.integers(2**31))):
                    a0 = _anchored_pair(s0, rho, 1.0 if s0[0] >= 0 else -1.0, rng.uniform(0, 6))
                    for tau in TAUS:
                        for anchor in (1, 2):
                            err, _ = _phase_error(p, a0, tau, anchor)
                            assert err <= 1e-11, (name, rho, tuple(s0), tau, anchor, err)

    def test_zero_split_matches_scalar_quadpack(self):
        # states flowed back from a pole of the anchored weight, so that
        # rho +- D touches zero at tau = 1.3 (pure p3 is left out: its poles
        # are fixed points, reached by no orbit); the two-chart rule never
        # integrates next to that zero, so every result is certified
        split = {}
        for name, p in FAMILIES.items():
            if name == "p3":
                continue
            for rho in (0.6, 1.4):
                for anchor in (1, 2):
                    sign = 1.0 if anchor == 1 else -1.0
                    back = solve_case(p, rho, np.array([-sign * rho, 0.0, 0.0]))(-1.3)
                    a0 = _anchored_pair(rho * back / np.linalg.norm(back), rho, sign, 0.3)
                    for tau in TAUS:
                        err, k = _phase_error(p, a0, tau, anchor)
                        assert err <= 1e-11, (name, rho, anchor, tau, err)
                        split[name] = split.get(name, 0) + (k > 0)
        assert len(split) == 3 and min(split.values()) >= 4, split

    @pytest.mark.parametrize("gap", [2e-3, 1e-5, 1e-8])
    def test_one_third_next_to_the_anti_diagonal(self, gap):
        # p1/p3 = 1/3 states |D + R| = gap rho off the invariant plane D = -R,
        # where one elliptic formula replaced a band that returned an orbit
        # of the plane (reconstruct rejected those sources as inconsistent)
        p, rho = FAMILIES["p1/p3=1/3"], 1.0
        for i0 in (0.5, -0.3):
            far = math.sqrt(2.0 * (rho * rho - i0 * i0) - (gap * rho) ** 2)
            s0 = np.array([0.5 * (gap * rho + far), 0.5 * (gap * rho - far), i0])
            for sign in (1.0, -1.0):
                a0 = _anchored_pair(s0, rho, sign, 0.3)
                for tau in TAUS:
                    for anchor in (1, 2):
                        err, _ = _phase_error(p, a0, tau, anchor)
                        assert err <= 1e-11, (gap, i0, sign, tau, anchor, err)

    @pytest.mark.parametrize("name", ["p1", "case15"])
    def test_near_miss_matches_full_flow(self, name):
        # the anchored weight dips to 5e-11 rho, below zero_times' level but
        # measurably above 0: the phase turns by pi across the dip within
        # about 1e-5 in tau, and that turn must be counted exactly once
        p = FAMILIES[name]
        matched = 0
        for rho in (0.4, 1.3):
            for anchor in (1, 2):
                sign = 1.0 if anchor == 1 else -1.0
                near = np.array([-sign * rho, 1e-5 * rho, 0.5e-5 * rho])
                back = solve_case(p, rho, rho * near / np.linalg.norm(near))(-1.3)
                a0 = _anchored_pair(rho * back / np.linalg.norm(back), rho, sign, 0.3)
                r, s0 = amplitudes_to_quad(*a0)
                sol = solve_case(p, r, s0)
                assert zero_times(p, r, sol.eval, 4.0, sign)  # the dip counts as a zero there
                ref = integrate_full(p, a0, (0.0, 4.0), tol=1e-11).at(4.0)
                try:
                    got = reconstruct(p, a0, sol.eval, r, 4.0, anchor=anchor)
                except PhaseIntegralError:
                    continue
                assert abs(got[0] - ref[0]) < 1e-8 and abs(got[1] - ref[1]) < 1e-8
                matched += 1
        assert matched >= 2

    def test_one_array_call_per_level(self, caplog, monkeypatch):
        # reconstruct calls its source once a level, on the 15 nodes and the
        # far edge of each pending panel, and at level 1 on tau = 0 and tau
        # besides: no separate call for either
        tau, rho = 0.5 * math.log(1e8), 1.1
        first = 16 * math.ceil(tau / 0.25) + 2
        for p in FAMILIES.values():
            for s0 in random_sphere_states(rho, 3, seed=17):
                sol = solve_case(p, rho, s0)
                calls = []

                def src(t):
                    calls.append(np.shape(t))
                    return sol(t)

                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="cubicnls.reconstruction"):
                    reconstruct(p, _anchored_pair(s0, rho, 1.0 if s0[0] >= 0 else -1.0, 0.3), src, rho, tau)
                (line,) = [r.getMessage() for r in caplog.records if r.name == "cubicnls.reconstruction"]
                assert len(calls) == int(line.split("levels=")[1].split()[0]) <= 10
                assert calls[0] == (first,)
                # bisected panels come in pairs
                assert all(len(shape) == 1 and shape[0] % 32 == 0 for shape in calls[1:])
        # a 9-point profile grid: one closed-form call per formula and level
        # for all the points that share the formula and are still pending,
        # on their panels' nodes and far edges (at level 1 also on 0 and tau)
        real, calls = ClosedFormSolution.__call__, []

        def counted(sol, t):
            calls.append((sol._key, np.shape(t)))
            return real(sol, t)

        monkeypatch.setattr(ClosedFormSolution, "__call__", counted)
        xi = np.linspace(-1.6, 1.6, 9)
        fd = FinalData(xi, (0.7 + 0.2j) * np.exp(-xi * xi / 4), (0.3 - 0.4j) * np.exp(-xi * xi / 3))
        for p in FAMILIES.values():
            keys = [solve_case(p, *amplitudes_to_quad(*fd.interp(v)))._key for v in xi]
            calls.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="cubicnls.reconstruction"):
                uapp(p, fd, 1e8, 2e8 * xi)
            levels = [int(r.getMessage().split("levels=")[1].split()[0])
                      for r in caplog.records if r.name == "cubicnls.reconstruction"]
            assert len(levels) == 9
            expected = [key for level in range(1, max(levels) + 1) for key in dict.fromkeys(keys)
                        if any(k == key and n >= level for k, n in zip(keys, levels))]
            assert [key for key, _ in calls] == expected
            assert calls[0][1] == (keys.count(keys[0]) * first,)

    def test_chart_weight_bisects(self):
        # with every coupling and potential zero the rate N - V vanishes and
        # |K15 - G7| accepts every panel at once; on a source sweeping the
        # great circle (rho cos wt, rho sin wt, 0) only the rule that a
        # chart's weight rho +- D stays >= rho/2 at the nodes bisects, until
        # a switch sits at each of the 6 sign changes of D in (0, 1)
        rho, w = 1.3, 20.0

        def src(t):
            t = np.asarray(t, dtype=float)
            return rho * np.stack([np.cos(w * t), np.sin(w * t), np.zeros_like(t)], axis=-1)

        ((total, charts, s, err, panels, _),) = _phases(_Raw(0, 0, 0, 0, 0), [(rho, src, 1.0, src(0.0))])
        assert (total, err) == (0.0, 0.0)
        assert panels > 4
        assert list(charts) == [1.0, -1.0] * 3 + [1.0]
        # the states at 0, at the 6 switches and at 1
        assert len(s) == 8 and np.array_equal(s[[0, -1]], src([0.0, 1.0]))
        assert np.all(np.abs(s[1:-1, 0]) <= 0.55 * rho)

    def test_nonfinite_source_raises(self):
        p = FAMILIES["case15"]
        a0 = (0.7 + 0.2j, -0.3 + 0.4j)
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)

        def src(t):
            out = sol(t)
            return np.where(np.asarray(t)[..., None] > 0.0, np.nan, out)

        with pytest.raises(PhaseIntegralError, match="non-finite"):
            reconstruct(p, a0, src, rho, 2.0)

    def test_debug_log_line(self, caplog):
        p = FAMILIES["p1/p3=1/3"]
        a0 = (0.6 - 0.3j, 0.4 + 0.5j)
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)
        with caplog.at_level(logging.DEBUG, logger="cubicnls.reconstruction"):
            reconstruct(p, a0, sol.eval, rho, 3.0)
        lines = [r.getMessage() for r in caplog.records if r.name == "cubicnls.reconstruction"]
        assert len(lines) == 1
        for key in ("switches=", "panels=", "levels=", "error_estimate="):
            assert key in lines[0]


    def test_nonfinite_tau_rejected(self):
        p = FAMILIES["p1"]
        a0 = (0.7 + 0.2j, -0.3 + 0.4j)
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)
        for tau in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite tau"):
                reconstruct(p, a0, sol.eval, rho, tau)

    def test_first_level_panel_cap(self):
        # tau = 2000 needs 8000 panels of 0.25 at its first level, over the
        # 4096 cap: the rule must refuse before it evaluates the source
        p = FAMILIES["p1"]
        a0 = (0.7 + 0.2j, -0.3 + 0.4j)
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)
        calls = []

        def src(t):
            calls.append(np.shape(t))
            return sol(t)

        for tau in (2000.0, -2000.0):
            with pytest.raises(PhaseIntegralError, match="4096 panels"):
                reconstruct(p, a0, src, rho, tau)
        assert calls == []

    @pytest.mark.parametrize("kind,message", [
        # a jump by 1e12 in the integrand: the estimates of the panels next
        # to it halve with each bisection, and are still above the tolerance
        # at the level cap
        ("jump", r"after 40 levels [(]\d+ panels unresolved[)]"),
        # an integrand that turns 1e4 times a unit of tau leaves most panels
        # unresolved until their number passes the pending-panel cap
        ("oscillation", r"after 10 levels [(]\d+ panels unresolved[)]"),
    ])
    def test_rule_gives_up(self, kind, message):
        p = FAMILIES["p1"]
        a0 = (0.7 + 0.2j, -0.3 + 0.4j)
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)
        calls = []

        def src(t):
            calls.append(np.size(t))
            out = sol(t)
            if kind == "jump":
                return np.where(np.asarray(t)[..., None] > 1.3, 1e6 * out, out)
            return out * (1.0 + 0.2 * np.sin(1e4 * np.asarray(t)))[..., None]

        with pytest.raises(PhaseIntegralError, match=message):
            reconstruct(p, a0, src, rho, 2.0)
        assert len(calls) == (40 if kind == "jump" else 10)

    def test_anchor_errors(self):
        p = FAMILIES["p1"]
        for a0, anchor, error, message in [
            ((0.7 + 0.2j, -0.3 + 0.4j), 3, ValueError, "anchor must be 1, 2 or None"),
            ((0.7 + 0.2j, 0j), 2, SingularAnchorError, "requested anchor component vanishes"),
            ((0j, 0.7 + 0.2j), 1, SingularAnchorError, "requested anchor component vanishes"),
        ]:
            rho, s0 = amplitudes_to_quad(*a0)
            with pytest.raises(error, match=message):
                reconstruct(p, a0, solve_case(p, rho, s0).eval, rho, 1.0, anchor=anchor)


def _circle(rho, w):
    """A source sweeping the great circle (rho cos wt, rho sin wt, 0)."""
    def src(t):
        t = np.asarray(t, dtype=float)
        return rho * np.stack([np.cos(w * t), np.sin(w * t), np.zeros_like(t)], axis=-1)
    return src


def _circle_formula(t, rho, w):
    """A closed-form stage of that circle that refuses a negative w."""
    if np.any(np.asarray(w) < 0.0):
        raise ValueError("a negative angular speed")
    return rho * np.cos(w * t), rho * np.sin(w * t), 0.0 * t


def _circle_solution(rho, w):
    return ClosedFormSolution(CaseId(0), "circle", {}, rho, np.array([rho, 0.0, 0.0]),
                              ((_circle_formula, (), (rho, w)),))


class TestReferencePhases:
    """_phases against tests/helpers.reference_phases, the level loop it
    replaced: every result field bit for bit, every exception's type and
    message (the grids and sigma orbits are in test_profile)."""

    @staticmethod
    def check(params, jobs):
        got = _phases(params, jobs)
        assert_same_phases(got, reference_phases(params, jobs))
        return got

    @pytest.mark.parametrize("t", [10.0, 1e4, 1e8])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_one_job(self, name, t):
        p = FAMILIES[name]
        for a0 in [(0.9 + 0.1j, 0.3 - 0.1j), (0.2 - 0.4j, 0.8 + 0.3j)]:
            rho, s0 = amplitudes_to_quad(*a0)
            sol = solve_case(p, rho, s0)
            for tau in (0.5 * math.log(t), -0.5 * math.log(t)):
                self.check(p, [(rho, sol, tau, s0)])

    def test_chart_switches_and_weight_bisection(self):
        # the great circle switches chart 6 times in (0, 1), and its panels
        # are bisected by the weight rule alone (zero parameters) or by both
        # rules; a p3 orbit through D = 0 switches on its own
        for params in (_Raw(0, 0, 0, 0, 0), FAMILIES["case15"]):
            ((_, charts, _, _, _, levels),) = self.check(params, [(1.3, _circle(1.3, 20.0), 1.0, [1.3, 0, 0])])
            assert len(charts) == 7 and levels > 1
        p, rho, s0 = FAMILIES["p3"], 1.0, np.array([0.1, 0.7, math.sqrt(0.5)])
        ((_, charts, *_),) = self.check(p, [(rho, solve_case(p, rho, s0), 4.0, s0)])
        assert len(charts) > 1

    @pytest.mark.parametrize("kind,message", [
        ("nan", "non-finite phase rate"),
        ("jump", "after 40 levels"),
        ("oscillation", "after 10 levels"),
        ("off-start", "inconsistent"),
        ("raises", "level 2"),
    ])
    def test_errors(self, kind, message):
        p = FAMILIES["p1"]
        rho, s0 = amplitudes_to_quad(0.7 + 0.2j, -0.3 + 0.4j)
        sol, calls = solve_case(p, rho, s0), []

        def src(t):
            calls.append(None)
            out, t = sol(t), np.asarray(t)[..., None]
            if kind == "nan":
                return np.where(t > 0.7, np.nan, out)
            if kind == "raises" and len(calls) == 2:
                raise RuntimeError("the source fails at level 2")
            if kind in ("jump", "raises"):
                return np.where(t > 1.3, 1e6 * out, out)
            if kind == "oscillation":
                return out * (1.0 + 0.2 * np.sin(1e4 * t))
            return out

        start = s0 + 1e-6 if kind == "off-start" else s0
        # alone, and next to a job that completes
        for jobs in ([(rho, src, 2.0, start)], [(rho, sol, 2.0, s0), (rho, src, 2.0, start)]):
            calls.clear()
            got = _phases(p, jobs)
            calls.clear()
            assert_same_phases(got, reference_phases(p, jobs))
            assert message in str(got[-1])

    def test_mixed_sources_and_a_failing_stacked_call(self):
        # one formula for three circles, one of which refuses its constant:
        # the stacked call raises and is retried job by job; next to them a
        # plain source, a closed form of its own and a job off its start
        p, rho = FAMILIES["case15"], 1.1
        a0 = (0.6 - 0.3j, 0.4 + 0.5j)
        r0, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, r0, s0)
        start = np.array([rho, 0.0, 0.0])
        jobs = [(rho, _circle_solution(rho, 3.0), 1.5, start), (r0, sol, 2.5, s0),
                (rho, _circle_solution(rho, -2.0), 1.5, start), (rho, _circle(rho, 5.0), -1.0, start),
                (rho, _circle_solution(rho, 7.0), 1.5, start), (r0, sol, 2.5, s0 + 1e-3)]
        got = self.check(p, jobs)
        assert [type(g) for g in got] == [tuple, tuple, ValueError, tuple, tuple, ValueError]
        # the stacked call alone, with no failure
        self.check(p, [jobs[0], jobs[4], (rho, _circle_solution(rho, 11.0), -0.5, start)])


POLE_EPS = (0.0, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
POLE_FAMILIES = {
    "p1": std(p1=1.0, q=(0.2, -0.1, 0.15)),
    "p1/p3=1/3": std(p1=1.0, p3=3.0, q=(0.2, -0.1, 0.15)),
    "case15": std(p1=0.6, p2=0.8, p3=1.0, p4=0.6, p5=0.2, q=(0.2, -0.1, 0.15)),
}


class TestReferenceReconstruct:
    """reconstruct, the one-point call of uapp's path, against
    tests/helpers.reference_reconstruct, the path it replaced: the pair bit
    for bit, its debug line, and each exception's type and message."""

    @pytest.mark.parametrize("anchor", [None, 1, 2])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_anchors(self, caplog, name, anchor):
        p = FAMILIES[name]
        for a0 in [(0.9 + 0.1j, 0.3 - 0.1j), (0.2 - 0.4j, 0.8 + 0.3j), (0.5 + 0.0j, 0.0j)]:
            rho, s0 = amplitudes_to_quad(*a0)
            sol = solve_case(p, rho, s0)
            for src, tau in [(sol, tau) for tau in (0.0, 1.15, -9.2, 3.0)] + [(lambda u: sol(u) + 1e-6, 0.0)]:
                outs = []
                for fn in (reconstruct, reference_reconstruct):
                    caplog.clear()
                    with caplog.at_level(logging.DEBUG, logger="cubicnls"):
                        try:
                            got = np.array(fn(p, a0, src, rho, tau, anchor)).tobytes()
                        except Exception as exc:
                            got = (type(exc), str(exc))
                    outs.append((got, [r.getMessage() for r in caplog.records]))
                assert outs[0] == outs[1]


class TestPoleGrid:
    @pytest.mark.parametrize("name", list(POLE_FAMILIES))
    def test_pole_passages_match_dop853(self, name):
        # orbits from the pole (-s rho, 0, 0) of the anchored weight moved
        # by (0, eps, eps/2) rho, renormalized and flowed back by 1.3, so the
        # anchored amplitude passes zero or misses it by about eps; 80
        # results a family (10 eps, 2 radii, both anchors, 2 taus), each
        # against one DOP853 run of the full flow at rtol 1e-13
        p = POLE_FAMILIES[name]
        taus = (4.0, 0.5 * math.log(1e8))
        for eps in POLE_EPS:
            for rho in (0.4, 1.3):
                for anchor in (1, 2):
                    sign = 1.0 if anchor == 1 else -1.0
                    near = np.array([-sign * rho, eps * rho, 0.5 * eps * rho])
                    back = solve_case(p, rho, rho * near / np.linalg.norm(near))(-1.3)
                    a0 = _anchored_pair(rho * back / np.linalg.norm(back), rho, sign, 0.3)
                    r, s0 = amplitudes_to_quad(*a0)
                    sol = solve_case(p, r, s0)
                    ref = solve_ivp(
                        lambda t, a: full_ode_rhs(p, a), (0.0, taus[-1]), np.array(a0),
                        method="DOP853", rtol=1e-13, atol=1e-13 * r, t_eval=taus,
                    )
                    for k, tau in enumerate(taus):
                        got = reconstruct(p, a0, sol.eval, r, tau, anchor=anchor)
                        err = max(abs(got[0] - ref.y[0, k]), abs(got[1] - ref.y[1, k]))
                        assert err < 1e-10, (eps, rho, anchor, tau, err)


class TestResidual:
    def test_oracle_path_is_consistent(self):
        p = std(p1=1.0, p2=0.4)
        a0 = (0.8 + 0.1j, -0.2 + 0.3j)
        tr = integrate_full(p, a0, (0.0, 1.0), tol=1e-11)
        path = tr.resampled(np.arange(0.0, 0.5, 1e-3))
        assert residual(p, path) < 1e-6

    def test_constant_zero_path(self):
        from cubicnls.quadratic_flow import Trajectory

        p = std(p1=1.0)
        times = np.linspace(0, 1, 11)
        path = Trajectory(times, np.zeros((11, 2), dtype=complex), "amplitude")
        assert residual(p, path) == 0.0

    def test_reconstructed_path(self):
        p = std(p1=1.0, q=(0.2, 0.1, -0.3))
        a0 = (0.7 + 0.2j, 0.1 - 0.5j)
        rho, s0 = amplitudes_to_quad(*a0)
        sol = solve_case(p, rho, s0)
        taus = np.arange(0.0, 0.2 + 1e-12, 1e-2)
        states = np.array([reconstruct(p, a0, sol.eval, rho, t) for t in taus])
        from cubicnls.quadratic_flow import Trajectory

        path = Trajectory(taus, states, "amplitude")
        assert residual(p, path) < 1e-5

    def test_too_few_nodes(self):
        from cubicnls.quadratic_flow import Trajectory

        path = Trajectory(np.linspace(0, 1, 5), np.zeros((5, 2), dtype=complex), "amplitude")
        with pytest.raises(ValueError):
            residual(std(p1=1.0), path)

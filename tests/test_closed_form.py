"""Classification, the three lemma solvers, and per-case closed forms vs oracle."""

import functools
import logging
import math
import zlib

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cubicnls.closed_form import (
    CaseId,
    ClosedFormSolution,
    UnsupportedCaseError,
    UnsupportedRatioError,
    classify,
    solve_case,
    solve_lemma1,
    solve_lemma2,
    solve_lemma3,
    _lemma1,
    _lemma2,
    _ent,
    _lemma3,
    _solve_states,
    _stacked,
)
from cubicnls.quadratic_flow import _qqq, fixed_points, integrate_quad, qqq_rhs, random_sphere_states
from cubicnls.standard_form import StandardParams, TrivialSystemError

from helpers import branch_states, case_branch_plan, closed_vs_oracle, curve_states, reference_solve_case, std


def lemma_oracle(rhs, y0, span=(-5.0, 5.0), n=41):
    ts = np.linspace(span[0], span[1], n)
    out = np.zeros((n, 3))
    for sgn in (1.0, -1.0):
        sel = ts * sgn >= 0
        sol = solve_ivp(
            rhs, (0.0, sgn * max(abs(span[0]), abs(span[1]))), y0,
            method="RK45", rtol=1e-12, atol=1e-12, dense_output=True,
        )
        out[sel] = sol.sol(ts[sel]).T
    return ts, out


class TestClassify:
    def test_pure_cases(self):
        assert classify(std(p1=1.0)) == CaseId(1)
        assert classify(std(p2=-2.0)) == CaseId(2)
        assert classify(std(p3=0.5)) == CaseId(3)
        assert classify(std(p4=-0.7)) == CaseId(4)

    def test_trivial_rejected(self):
        with pytest.raises(TrivialSystemError):
            StandardParams(0, 0, 0, 0, 0)

    def test_case7_values(self):
        assert classify(std(p2=0.75, p3=0.25)).case == 7

    def test_case7_degenerate(self):
        assert classify(std(p2=0.5, p3=0.5)).case == 0
        assert classify(std(p2=-0.5, p3=0.5)).case == 0

    def test_case11_ratios(self):
        assert classify(std(p1=1.0, p3=3.0)) == CaseId(11, "ratio=0.333333", 1.0 / 3.0)
        assert classify(std(p1=2.0, p3=2.0)).ratio == 1.0
        assert classify(std(p1=6.0, p3=2.0)).ratio == 3.0
        out = classify(std(p1=2.0, p3=1.0))
        assert out.case == 11 and out.subcase == "ratio-unsupported"

    def test_case14_15(self):
        assert classify(std(p1=0.6, p2=0.8, p3=1.0)).case == 14
        p4 = 0.5
        assert classify(std(p1=0.6, p2=0.8, p3=1.0, p4=p4, p5=p4 * 0.6 / 1.8)).case == 15
        # a ratio violating the conserved-plane relation is uncatalogued
        assert classify(std(p1=0.6, p2=0.8, p3=1.0, p4=p4, p5=p4)).case == 0

    def test_pure_p5_uncatalogued(self):
        assert classify(std(p5=1.0)).case == 0

    def test_case6_wrong_sign_uncatalogued(self):
        assert classify(std(p1=1.0, p4=-0.5)).case == 0


class TestLemma1:
    def test_zero_fg(self):
        fgh = solve_lemma1(0.0, 0.0, 0.7)
        f, g, h = fgh(np.linspace(-3, 3, 7))
        assert np.all(f == 0) and np.all(g == 0) and np.all(h == 0.7)

    def test_equal_radii_rest(self):
        fgh = solve_lemma1(0.9, 0.0, 0.0)
        f, g, h = fgh(np.linspace(-3, 3, 7))
        assert np.all(f == 0.9) and np.all(g == 0) and np.all(h == 0)

    def test_generic_vs_oracle(self):
        def rhs(t, y):
            return [y[1] * y[2], -y[0] * y[2], -y[0] * y[1]]

        ts, ref = lemma_oracle(rhs, [0.3, 0.4, 0.9])
        got = np.stack(solve_lemma1(0.3, 0.4, 0.9)(ts), axis=-1)
        assert np.max(np.abs(got - ref)) < 1e-7

    def test_conserved_radii(self):
        fgh = solve_lemma1(0.5, -1.1, 0.8)
        f, g, h = fgh(np.linspace(-4, 4, 101))
        assert np.max(np.abs(f**2 + g**2 - (0.5**2 + 1.1**2))) < 1e-12
        assert np.max(np.abs(f**2 + h**2 - (0.5**2 + 0.8**2))) < 1e-12


class TestLemma2:
    def test_rest_states(self):
        f, g, h = solve_lemma2(0.0, -0.4, 0.0)(np.linspace(-2, 2, 5))
        assert np.all(f == 0) and np.all(g == -0.4) and np.all(h == 0)
        f, g, h = solve_lemma2(0.0, 0.0, 1.3)(np.linspace(-2, 2, 5))
        assert np.all(f == 0) and np.all(g == 0) and np.all(h == 1.3)

    def test_generic_vs_oracle_and_branch(self):
        def rhs(t, y):
            return [y[1] * y[2], -y[0] * y[2], -y[0]]

        f0, g0, h0 = 0.5, -0.2, 1.7
        assert h0**2 > 2 * (math.hypot(f0, g0) + g0)  # dn-branch data
        ts, ref = lemma_oracle(rhs, [f0, g0, h0])
        got = np.stack(solve_lemma2(f0, g0, h0)(ts), axis=-1)
        assert np.max(np.abs(got - ref)) < 1e-7

    def test_all_branches(self):
        def rhs(t, y):
            return [y[1] * y[2], -y[0] * y[2], -y[0]]

        cases = [(0.8, 0.4, 0.3), (0.8, 0.4, 3.0)]
        f0, g0 = -0.7, 0.6
        cases.append((f0, g0, math.sqrt(2 * (math.hypot(f0, g0) + g0))))  # threshold
        for y0 in cases:
            ts, ref = lemma_oracle(rhs, list(y0))
            got = np.stack(solve_lemma2(*y0)(ts), axis=-1)
            assert np.max(np.abs(got - ref)) < 1e-7, y0


class TestLemma3:
    ETA = 1.3

    def rhs(self, t, y):
        return [-y[1] * y[2], y[0] * y[2], -(y[0] + self.ETA) * y[1]]

    def test_stationary_set(self):
        for y0 in [(2.0, 0.0, 0.0), (0.0, 0.0, -1.5), (-self.ETA, 0.7, 0.0)]:
            f, g, h = solve_lemma3(self.ETA, *y0)(np.linspace(-3, 3, 7))
            assert np.all(f == y0[0]) and np.all(g == y0[1]) and np.all(h == y0[2])

    def test_rational_threshold(self):
        # K = 0, lemma radius equal to eta: algebraic-in-t collapse
        eta = self.ETA
        ang = 0.8
        y0 = (eta * math.cos(ang), eta * math.sin(ang), eta * math.cos(ang) + eta)
        ts, ref = lemma_oracle(self.rhs, list(y0))
        got = np.stack(solve_lemma3(eta, *y0)(ts), axis=-1)
        assert np.max(np.abs(got - ref)) < 1e-7

    def test_generic_vs_oracle(self):
        ts, ref = lemma_oracle(self.rhs, [0.4, 0.5, 1.2])
        got = np.stack(solve_lemma3(self.ETA, 0.4, 0.5, 1.2)(ts), axis=-1)
        assert np.max(np.abs(got - ref)) < 1e-7

    def test_conserved_quantities(self):
        fgh = solve_lemma3(self.ETA, 0.4, 0.5, 1.2)
        f, g, h = fgh(np.linspace(-4, 4, 101))
        assert np.max(np.abs(f**2 + g**2 - (0.4**2 + 0.5**2))) < 1e-10
        k0 = 1.2**2 - (0.4 + self.ETA) ** 2
        assert np.max(np.abs(h**2 - (f + self.ETA) ** 2 - k0)) < 1e-10

    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(11)
        ts = np.linspace(-2, 2, 9)
        for _ in range(10):
            y0 = rng.uniform(-2, 2, 3)
            f1, g1, h1 = solve_lemma3(self.ETA, *y0)(ts)
            f2, g2, h2 = solve_lemma3(self.ETA, y0[0], -y0[1], -y0[2])(ts)
            assert np.max(np.abs(f1 - f2)) < 1e-12
            assert np.max(np.abs(g1 + g2)) < 1e-12
            assert np.max(np.abs(h1 + h2)) < 1e-12

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            solve_lemma3(0.0, 1, 1, 1)


class TestSolveCase:
    def test_unsupported_raises(self):
        with pytest.raises(UnsupportedCaseError):
            solve_case(std(p5=1.0), 1.0, (0.6, 0.0, 0.8))

    def test_unsupported_ratio_raises(self):
        with pytest.raises(UnsupportedRatioError):
            solve_case(std(p1=2.0, p3=1.0), 1.0, (0.6, 0.0, 0.8))

    def test_fixed_point_short_circuit(self):
        sol = solve_case(std(p1=1.0), 1.0, (0, 0, 1.0))
        assert sol.branch == "fixed-point"
        assert np.allclose(sol(np.linspace(-4, 4, 9)), [0, 0, 1.0])

    def test_case1_tanh_profile(self):
        # equatorial start: the collapse coordinate is exactly -tanh(2 tau)
        sol = solve_case(std(p1=1.0), 1.0, (0.6, 0.8, 0.0))
        taus = np.linspace(-2, 2, 21)
        assert np.max(np.abs(sol(taus)[:, 2] + np.tanh(2 * taus))) < 1e-12

    def test_case2_rotation(self):
        p = std(p2=0.9)
        s0 = np.array([0.3, -0.5, math.sqrt(1 - 0.09 - 0.25)])
        sol = solve_case(p, 1.0, s0)
        taus = np.linspace(-3, 3, 13)
        vals = sol(taus)
        assert np.max(np.abs(vals[:, 2] - s0[2])) < 1e-14
        ang = 2 * 0.9 * s0[2] * taus
        assert np.allclose(vals[:, 0], s0[0] * np.cos(ang) + s0[1] * np.sin(ang), atol=1e-12)

    def test_case6_rational_limit(self):
        # equal couplings: algebraic 1/tau collapse onto (0, rho, 0)
        p = std(p1=1.0, p4=1.0)
        s0 = random_sphere_states(1.0, 1, 9)[0]
        sol = solve_case(p, 1.0, s0)
        dist = lambda t: np.linalg.norm(sol(float(t)) - [0.0, 1.0, 0.0])
        assert dist(500.0) < 1e-2 and dist(-500.0) < 1e-2
        assert dist(5000.0) < 1e-3 and dist(5000.0) * 10 < dist(500.0) * 1.2

    def test_initial_state_validation(self):
        with pytest.raises(ValueError):
            solve_case(std(p1=1.0), 1.0, (0.5, 0.0, 0.5))

    @pytest.mark.parametrize(
        "params",
        [
            std(p1=1.0),
            std(p2=0.8),
            std(p3=1.1),
            std(p4=-0.9),
            std(p1=1.0, p2=-0.6),
            std(p1=1.0, p4=0.4),
            std(p2=0.4, p3=1.0),
            std(p2=-0.8, p4=0.5),
            std(p3=1.0, p4=0.7),
            std(p3=1.0, p5=0.7),
            std(p1=1.0, p3=1.0),
            std(p1=3.0, p3=1.0),
            std(p1=1.0, p3=3.0),
            std(p2=0.7, p3=0.7, p4=0.4),
            std(p2=-0.7, p3=0.7, p5=0.4),
            std(p1=0.6, p2=0.8, p3=1.0),
            std(p1=0.6, p2=0.8, p3=1.0, p4=0.5, p5=0.5 * 0.6 / 1.8),
        ],
    )
    def test_spot_check_vs_oracle(self, params):
        for s0 in random_sphere_states(1.0, 3, 21):
            assert closed_vs_oracle(params, 1.0, s0, n_eval=17) < 1e-6

    def test_case_invariants_case3(self):
        p = std(p3=1.2)
        s0 = random_sphere_states(1.0, 1, 13)[0]
        sol = solve_case(p, 1.0, s0)
        v = sol(np.linspace(-4, 4, 101))
        d, r, i = v[:, 0], v[:, 1], v[:, 2]
        for qty in (2 * d**2 + i**2, 2 * r**2 + i**2, d**2 - r**2):
            assert np.max(np.abs(qty - qty[0])) < 1e-8

    def test_case_invariants_case8(self):
        p2v, p4v = 0.8, 0.5
        p = std(p2=p2v, p4=p4v)
        s0 = random_sphere_states(1.0, 1, 14)[0]
        v = solve_case(p, 1.0, s0)(np.linspace(-4, 4, 101))
        d, r, i = v[:, 0], v[:, 1], v[:, 2]
        cyl = (d + p4v / p2v) ** 2 + r**2
        par = p2v * i**2 - 2 * p4v * d
        assert np.max(np.abs(cyl - cyl[0])) < 1e-8
        assert np.max(np.abs(par - par[0])) < 1e-8

    def test_case_invariants_case14(self):
        p = std(p1=0.6, p2=0.8, p3=1.0)
        theta = math.atan2(0.6, 1.8)
        s0 = random_sphere_states(1.0, 1, 15)[0]
        v = solve_case(p, 1.0, s0)(np.linspace(-4, 4, 101))
        x = v[:, 0] / (2 * math.sin(theta)) + v[:, 1] / (2 * math.cos(theta))
        assert np.max(np.abs(x - x[0])) < 1e-8

    def test_case11_fixed_circle(self):
        # balanced couplings: the diagonal circle is pointwise fixed
        p = std(p1=1.0, p3=1.0)
        for ang in (0.3, 2.0, 4.4):
            s0 = np.array(
                [math.cos(ang) / math.sqrt(2), math.cos(ang) / math.sqrt(2), math.sin(ang)]
            )
            sol = solve_case(p, 1.0, s0)
            assert sol.branch == "fixed-point"
            assert np.max(np.abs(sol(np.linspace(-3, 3, 7)) - s0)) < 1e-12

    @pytest.mark.parametrize("eps", [1e-13, -1e-13])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_case6_band_start_at_fixed_point(self, eps, rho):
        # p1 = p4 within classify's band: (0, rho, 0) is not fixed for these
        # parameters but drifts by about 1e-13 rho^2 a unit of tau, which the
        # closed form follows without dividing 0/0
        params, s0 = std(p1=1.0, p4=1.0 + eps), np.array([0.0, rho, 0.0])
        taus = np.linspace(-3, 3, 7)
        ref = _dop853(lambda y: qqq_rhs(params, rho, y), s0, taus)
        assert np.max(np.abs(solve_case(params, rho, s0)(taus) - ref)) <= 1e-15

    @pytest.mark.parametrize("eps", [3e-13, -3e-13])
    def test_case11_band_fixed_circle(self, eps):
        # p1/p3 within the band of ratio 1, on the circle D = R with I != 0,
        # where the balanced formula would take atanh(+-1)
        p = std(p1=1.0, p3=1.0 + eps)
        for ang in (0.3, 2.0, 4.4):
            s0 = np.array(
                [math.cos(ang) / math.sqrt(2), math.cos(ang) / math.sqrt(2), math.sin(ang)]
            )
            assert np.max(np.abs(solve_case(p, 1.0, s0)(np.linspace(-3, 3, 7)) - s0)) < 1e-12

    @pytest.mark.parametrize("eps", [0.0, 3e-13])
    @pytest.mark.parametrize("i_frac", [0.0, 0.3])
    def test_case11_balanced_next_to_fixed_circle(self, eps, i_frac):
        # states a distance delta * rho off the circle D = R, at the exact
        # ratio 1 and inside its band: rho^2 - (D + R)^2 / 2 and I0 / L
        # cancel there unless written through c_plus
        p, rho = std(p1=1.0, p3=1.0 + eps), 1.0
        i0 = i_frac * rho
        taus = np.linspace(0.0, 3.0, 13)
        for delta in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
            total = math.sqrt(2.0 * (rho * rho - i0 * i0) - (delta * rho) ** 2)
            s0 = np.array([0.5 * (total + delta * rho), 0.5 * (total - delta * rho), i0])
            sol = solve_case(p, rho, s0)
            assert np.max(np.abs(sol(0.0) - s0)) < 1e-15, delta
            tr = integrate_quad(p, rho, s0, (0.0, 3.0), tol=1e-12)
            assert np.max(np.abs(sol(taus) - tr.at(taus))) < 1e-10, delta

    def test_eval_initial_consistency(self):
        rng = np.random.default_rng(31)
        for params in (std(p3=1.0, p4=0.6), std(p1=1.0, p3=3.0), std(p2=-0.8, p4=0.5)):
            for s0 in random_sphere_states(1.3, 4, rng.integers(2**31)):
                sol = solve_case(params, 1.3, s0)
                assert np.max(np.abs(sol(0.0) - s0)) < 1e-10

    def test_large_argument_period_reduction(self):
        # elliptic cases stay on the sphere even at huge times
        p = std(p3=1.0, p4=0.7)
        s0 = random_sphere_states(1.0, 1, 16)[0]
        sol = solve_case(p, 1.0, s0)
        v = sol(np.array([1e5, -3e5, 7e5]))
        assert np.max(np.abs(np.sum(v * v, axis=1) - 1.0)) < 1e-6

    def test_near_one_elliptic_parameter(self):
        # lemma 2's cn branch at 1 - m = 4e-11: the AGM chain evaluates F at
        # |phi| >= pi/2, and the solution stays on the orbit against DOP853
        # over 20 time units
        params, rho = StandardParams(0.0, 1.0, 0.0, 0.5, 0.0), 1.0
        s0 = (-0.9974999999799999, 0.049937461288096154, 0.05)
        sol = solve_case(params, rho, s0)
        for sgn in (1.0, -1.0):
            taus = sgn * np.linspace(0.0, 20.0, 201)
            ref = solve_ivp(
                lambda _, s: qqq_rhs(params, rho, s), (0.0, sgn * 20.0), s0,
                method="DOP853", rtol=1e-13, atol=1e-13, t_eval=taus,
            ).y.T
            assert np.max(np.abs(sol(taus) - ref)) < 1e-6

    def test_debug_line(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="cubicnls.closed_form"):
            solve_case(std(p1=1.0, p2=0.3), 1.0, (0.6, 0.0, 0.8))
            solve_case(std(p1=1.0, p4=0.5), 1.0, (0.6, 0.0, 0.8))
            solve_case(std(p3=1.1), 1.0, (0.6, 0.0, 0.8))
            solve_case(std(p1=1.0), 1.0, (0.0, 0.0, 1.0))
        lines = [r.getMessage() for r in caplog.records if r.name == "cubicnls.closed_form"]
        assert lines == [
            "solve_case case=5 subcase=- branch=rotating-collapse "
            "constants={tau0=1.0986122886681098, phase0=0}",
            "solve_case case=6 subcase=p1>p4 branch=p1>p4 constants={C1=0.60999999999999999, C2=0.5, C3=0.75}",
            "solve_case case=3 subcase=- branch=lemma1 "
            "constants={m=0.4705882352941177, m1=0.52941176470588225, u0=1.8299276276516536}",
            "solve_case case=1 subcase=- branch=fixed-point constants={}",
        ]

    @pytest.mark.parametrize("case,params,lemma", [
        (3, std(p3=1.1), 1),
        (7, std(p2=0.4, p3=1.0), 1),
        (8, std(p2=1.0, p4=0.5), 2),
    ])
    def test_lemma_debug_line(self, caplog, case, params, lemma):
        # the lemma families report the elliptic parameter m, its complement
        # m1 and the start u0 of sn, which decide a near-separatrix answer
        with caplog.at_level(logging.DEBUG, logger="cubicnls.closed_form"):
            sol = solve_case(params, 1.0, (0.6, 0.0, 0.8))
        (line,) = [r.getMessage() for r in caplog.records if r.name == "cubicnls.closed_form"]
        head, consts = line.split(" constants=")
        assert head.startswith(f"solve_case case={case} ") and head.endswith(f" branch=lemma{lemma}")
        got = dict(kv.split("=") for kv in consts.strip("{}").split(", "))
        assert {k: float(v) for k, v in got.items()} == sol.constants
        assert list(got) == ["m", "m1", "u0"]
        assert 0.0 < sol.constants["m"] < 1.0 and abs(sol.constants["m"] + sol.constants["m1"] - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# near the separatrices of lemmas 1 and 2, against mpmath


def _lemma1_mp(f0, g0, h0, taus):
    """Lemma 1's exact solution (f, g, h) through mpmath numbers (f0, g0, h0),
    evaluated by mpmath at taus."""
    swap = abs(h0) < abs(g0)
    if swap:
        g0, h0 = h0, g0
    r_fg, r_fh = mp.hypot(f0, g0), mp.hypot(f0, h0)
    sg, sh = mp.sign(g0), mp.sign(h0)
    out = []
    for tau in taus:
        if r_fg == r_fh:
            u = sg * sh * r_fh * tau + mp.atanh(f0 / r_fh)
            f, g, h = r_fh * mp.tanh(u), sg * r_fh * mp.sech(u), sh * r_fh * mp.sech(u)
        else:
            m = (r_fg / r_fh) ** 2
            u = sh * r_fh * tau + mp.ellipf(mp.atan2(f0, g0), m)
            sn, cn, dn = (mp.ellipfun(kind, u, m=m) for kind in ("sn", "cn", "dn"))
            f, g, h = r_fg * sn, r_fg * cn, sh * r_fh * dn
        out.append((f, h, g) if swap else (f, g, h))
    return out


def _case3_mp(p3, s0, taus):
    """Pure p3 (case 3) through the float state s0, evaluated by mpmath: the
    lemma-1 solution of (f, g, h) = (2 p3 I, sqrt8 p3 R, sqrt8 p3 D)."""
    d0, r0, i0 = (mp.mpf(float(x)) for x in s0)
    k = mp.sqrt(8) * p3
    sol = _lemma1_mp(2 * p3 * i0, k * r0, k * d0, taus)
    return np.array([[h / k, g / k, f / (2 * p3)] for f, g, h in sol], dtype=float)


def _case7_scales(p2, p3):
    """Squared lemma-1 scales of D, R and I in family 7 (all three subcases)."""
    return [8 * p3 * abs(p2 + p3), 8 * p3 * abs(p3 - p2), 4 * abs(p2 * p2 - p3 * p3)]


def _case7_axes(p2, p3):
    """The components of (D, R, I) that _case7 maps to lemma 1's f, g, h, and
    the sign of f."""
    return ((0, 1, 2), -1) if p2 < -p3 else ((2, 1, 0), 1) if p2 < p3 else ((1, 0, 2), -1)


def _case7_mp(p2, p3, s0, taus):
    """Family 7 through the float state s0, evaluated by mpmath: the lemma-1
    solution of (f, g, h) = (+-c_a a, c_b b, c_c c) for _case7's axes a, b, c."""
    s = [mp.mpf(float(x)) for x in s0]
    c = [mp.sqrt(x) for x in _case7_scales(mp.mpf(p2), mp.mpf(p3))]
    (fa, ga, ha), sign = _case7_axes(p2, p3)
    out = []
    for f, g, h in _lemma1_mp(sign * c[fa] * s[fa], c[ga] * s[ga], c[ha] * s[ha], taus):
        state = [None] * 3
        state[fa], state[ga], state[ha] = sign * f / c[fa], g / c[ga], h / c[ha]
        out.append(state)
    return np.array(out, dtype=float)


def _lemma2_mp(p2, p4, rho, s0, taus):
    """Case 8 through the float state s0, evaluated by mpmath: the lemma-2
    solution of (4 p2 p4 rho R, 4 p4 rho (p2 D + p4 rho), -2 p2 I)."""
    d0, r0, i0 = (mp.mpf(float(x)) for x in s0)
    f0, g0, h0 = 4 * p2 * p4 * rho * r0, 4 * p4 * rho * (p2 * d0 + p4 * rho), -2 * p2 * i0
    r = mp.hypot(f0, g0)
    p_sq = (r - g0) / 2 + h0 * h0 / 4
    p = mp.sqrt(p_sq)
    cn_side = h0 * h0 - 2 * (r + g0) < 0
    out = []
    for tau in taus:
        if cn_side:
            m = p_sq / r
            u = mp.sqrt(r) * tau + mp.sign(f0) * mp.ellipf(mp.acos(h0 / (2 * p)), m)
            sn, cn, dn = (mp.ellipfun(kind, u, m=m) for kind in ("sn", "cn", "dn"))
            f, h = 2 * p * mp.sqrt(r) * sn * dn, 2 * p * cn
        else:
            m = r / p_sq
            phi = mp.asin(mp.sqrt((1 - (h0 / (2 * p)) ** 2) / m))
            u = mp.sign(h0) * p * tau + mp.sign(f0) * mp.ellipf(phi, m)
            sn, cn, dn = (mp.ellipfun(kind, u, m=m) for kind in ("sn", "cn", "dn"))
            f, h = 2 * p_sq * m * sn * cn, mp.sign(h0) * 2 * p * dn
        g = (h * h - h0 * h0) / 2 + g0
        out.append([(g / (4 * p4 * rho) - p4 * rho) / p2, f / (4 * p2 * p4 * rho), -h / (2 * p2)])
    return np.array(out, dtype=float)


class TestNearSeparatrix:
    """Lemma 1 (pure p3, family 7) and lemma 2 (case 8) next to and on their
    separatrix 1 - m = 0, against an mpmath evaluation (40 digits) of the exact solution
    through the same float state.  The solvers had threshold bands here that
    put the separatrix limit in place of the periodic solution: 2.0 off on
    the lemma-1 slice, up to 2.4e-3 on the lemma-2 curve."""

    P3 = 1.1

    @pytest.mark.parametrize("i0", [0.3, 0.6])
    @pytest.mark.parametrize("delta", [1e-12, 3e-11, 1e-10, 1e-9])
    def test_lemma1_slice(self, i0, delta):
        # the benchmark's slice: |D| - |R| = delta |R|, over at least 10 K
        r = math.sqrt((1.0 - i0 * i0) / (1.0 + (1.0 + delta) ** 2))
        s0 = np.array([r * (1.0 + delta), r, i0])
        s0 /= np.linalg.norm(s0)
        r_fh = math.hypot(2.0 * self.P3 * s0[2], math.sqrt(8.0) * self.P3 * s0[0])
        m1 = 8.0 * self.P3**2 * (s0[0] - s0[1]) * (s0[0] + s0[1]) / r_fh**2
        span = math.ceil(10.0 * math.log(4.0 / math.sqrt(m1)) / r_fh)
        taus = np.linspace(-span, span, 9)
        with mp.workdps(40):
            ref = _case3_mp(self.P3, s0, taus)
        assert np.max(np.abs(solve_case(std(p3=self.P3), 1.0, s0)(taus) - ref)) <= 1e-12

    @pytest.mark.parametrize("i0", [0.3, -0.6])
    @pytest.mark.parametrize("sd, sr", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_lemma1_on_the_separatrix(self, i0, sd, sr):
        # D = +-R exactly: 1 - m = 0, the tanh/sech orbit
        c = math.sqrt((1.0 - i0 * i0) / 2.0)
        s0 = np.array([sd * c, sr * c, i0])
        taus = np.linspace(-30.0, 30.0, 13)
        with mp.workdps(40):
            ref = _case3_mp(self.P3, s0, taus)
        assert np.max(np.abs(solve_case(std(p3=self.P3), 1.0, s0)(taus) - ref)) <= 1e-12

    @pytest.mark.parametrize("p2", [-1.6, 0.4, 1.6])
    @pytest.mark.parametrize("delta", [1e-12, 1e-10, 1e-8])
    def test_case7_next_to_the_separatrix(self, p2, delta):
        # lemma 1's |h0| = |g0| (1 + delta), with f's component at 0.3, over
        # at least 10 K; the gap h0^2 - g0^2 from rounded products was up to
        # 5.6e-4 off (p2 = +-1.6, delta = 1e-12)
        sc = _case7_scales(p2, 1.0)
        (fa, ga, ha), _ = _case7_axes(p2, 1.0)
        w = math.sqrt(sc[ga] / sc[ha]) * (1.0 + delta)
        s0 = np.empty(3)
        s0[fa], s0[ga] = 0.3, math.sqrt(0.91 / (1.0 + w * w))
        s0[ha] = w * s0[ga]
        s0 /= np.linalg.norm(s0)
        r_fh = math.sqrt(sc[fa] * s0[fa] ** 2 + sc[ha] * s0[ha] ** 2)
        span = math.ceil(10.0 * math.log(4.0 / math.sqrt(2.0 * delta)) / r_fh)
        taus = np.linspace(-span, span, 9)
        with mp.workdps(40):
            ref = _case7_mp(p2, 1.0, s0, taus)
        assert np.max(np.abs(solve_case(std(p2=p2, p3=1.0), 1.0, s0)(taus) - ref)) <= 1e-12

    def test_case7_next_to_its_fixed_points(self):
        # p = (0, 0.4, 1, 0, 0): seeded states 1e-6 to 1e-12 rho off the
        # fixed points (0, +-rho, 0), where lemma 1's 1 - m rounded above 1
        # and the kernel refused it for most of them; each state now matches
        # DOP853 over |tau| <= 5
        params, rho = std(p2=0.4, p3=1.0), 1.0
        rng = np.random.default_rng(7)
        taus = np.linspace(-5.0, 5.0, 11)
        for dist in (1e-6, 1e-8, 1e-10, 1e-12):
            for _ in range(40):
                d, i = rng.standard_normal(2)
                d, i = dist * d / math.hypot(d, i), dist * i / math.hypot(d, i)
                s0 = np.array([d, math.copysign(math.sqrt(rho * rho - d * d - i * i), rng.uniform(-1.0, 1.0)), i])
                ref = _dop853(lambda y: qqq_rhs(params, rho, y), s0, taus)
                assert np.max(np.abs(solve_case(params, rho, s0)(taus) - ref)) <= 1e-11, s0

    @pytest.mark.parametrize("disc", [-1e-8, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-8])
    @pytest.mark.parametrize("sr", [1.0, -1.0])
    def test_lemma2_curve(self, disc, sr):
        # p = (0, 1, 0, 0.5, 0), rho = 1, I0 = 0.9: the lemma's disc is
        # -8 (D + 0.19) to first order, and D = -0.19 gives disc = 0.0 exactly
        d0 = -0.19 - disc / 8.0
        s0 = np.array([d0, sr * math.sqrt(0.19 - d0 * d0), 0.9])
        taus = np.linspace(-20.0, 20.0, 17)
        with mp.workdps(40):
            ref = _lemma2_mp(1, 0.5, 1, s0, taus)
        got = solve_case(std(p2=1.0, p4=0.5), 1.0, s0)(taus)
        assert np.max(np.abs(got - ref)) <= 1e-7

    @pytest.mark.parametrize("r0", [1e-9, 1e-7, 1e-5])
    @pytest.mark.parametrize("i0", [0.0, 1e-9, -3e-8])
    def test_lemma2_next_to_the_saddle(self, r0, i0):
        # next to the fixed point (-rho, 0, 0) the lemma's r + g0 cancels; it
        # used to give the saddle itself, up to 1.0 off
        s0 = np.array([-math.sqrt(1.0 - r0 * r0 - i0 * i0), r0, i0])
        taus = np.linspace(-20.0, 20.0, 9)
        with mp.workdps(40):
            ref = _lemma2_mp(1, 0.5, 1, s0, taus)
        got = solve_case(std(p2=1.0, p4=0.5), 1.0, s0)(taus)
        assert np.max(np.abs(got - ref)) <= 1e-7


# ---------------------------------------------------------------------------
# across the elementary thresholds, against DOP853


def _dop853(rhs, y0, taus):
    """DOP853 (rtol = atol = 1e-13) through y0 at taus, forward and backward."""
    out = np.empty((len(taus), 3))
    for sgn in (1.0, -1.0):
        sel = taus * sgn >= 0.0
        if np.any(taus[sel] != 0.0):
            end = float(np.max(np.abs(taus[sel])))
            out[sel] = solve_ivp(
                lambda _, y: rhs(y), (0.0, sgn * end), y0, method="DOP853",
                rtol=1e-13, atol=1e-13, dense_output=True,
            ).sol(taus[sel]).T
        else:
            out[sel] = y0
    return out


def _lemma3_dev(eta, y0, taus):
    """Largest deviation of solve_lemma3 through y0 from DOP853 at taus."""
    def rhs(y):
        return np.array([-y[1] * y[2], y[0] * y[2], -(y[0] + eta) * y[1]])

    got = np.stack(solve_lemma3(eta, *y0)(taus), axis=-1)
    return np.max(np.abs(got - _dop853(rhs, np.asarray(y0, dtype=float), taus)))


def _case14_15_start(case, delta):
    """A state with disc = cap - X^2 = delta rho^2 (rho = 1), built as the
    acceptance sweep's family14: X = +sqrt(cap - delta) along a curve of
    constant X, I > 0."""
    p4 = 0.5 if case == 15 else 0.0
    params = std(p1=0.6, p2=0.8, p3=1.0, p4=p4, p5=p4 * 0.6 / 1.8)
    theta = math.atan2(params.p1, params.p2 + params.p3)
    cx = params.p2 * p4 / (2 * params.p1 * params.p3 * math.cos(theta))
    cap = 1.0 - (p4 / (2 * params.p3 * math.cos(theta))) ** 2
    d = 0.5 if case == 14 else 0.4
    r = 2 * math.cos(theta) * (math.sqrt(cap - delta) - cx - d / (2 * math.sin(theta)))
    return params, np.array([d, r, math.sqrt(1.0 - d * d - r * r)])


class TestElementaryThresholds:
    """Case 6 at p1 = p4, cases 14/15 at |X| = sqrt(cap) and lemma 3's K = 0
    plane at R = eta: one entire-function formula on both sides of each
    threshold and on it; lemma 3's elliptic forms next to K = 0, R = eta +-
    kappa and the corner K = 0, R = eta.  All against DOP853 over |tau| <=
    9.21 (t <= 1e8)."""

    DELTAS = [1e-2, -1e-2, 1e-6, -1e-6, 1e-9, -1e-9, 1e-10, -1e-10, 1e-12, -1e-12, 1e-16, -1e-16, 0.0]
    TAUS = np.linspace(-9.21, 9.21, 41)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("i_sign", [1.0, -1.0])
    def test_case6(self, delta, i_sign):
        params = std(p1=1.0, p4=1.0 + delta)
        s0 = np.array([0.3, 0.1, i_sign * math.sqrt(0.9)])
        ref = _dop853(lambda y: qqq_rhs(params, 1.0, y), s0, self.TAUS)
        assert np.max(np.abs(solve_case(params, 1.0, s0)(self.TAUS) - ref)) <= 1e-11

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("case", [14, 15])
    def test_case14_15(self, case, delta):
        params, s0 = _case14_15_start(case, delta)
        ref = _dop853(lambda y: qqq_rhs(params, 1.0, y), s0, self.TAUS)
        assert np.max(np.abs(solve_case(params, 1.0, s0)(self.TAUS) - ref)) <= 1e-11

    @pytest.mark.parametrize("delta", DELTAS)
    def test_lemma3_k_zero(self, delta):
        # the plane h = f + eta with R = eta (1 + delta)
        eta, r0 = 1.0, 1.0 + delta
        f0, g0 = r0 * math.cos(0.7), r0 * math.sin(0.7)
        assert _lemma3_dev(eta, (f0, g0, f0 + eta), self.TAUS) <= 1e-11

    @pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-9, 1e-10, 1e-12, 0.5])
    @pytest.mark.parametrize("g_sign", [1.0, -1.0])
    def test_lemma3_k_zero_negative_plane(self, delta, g_sign):
        # the plane h = -(f + eta), which needs R > eta: f0 halfway between
        # -R and -eta
        eta, r0 = 1.0, 1.0 + delta
        f0 = -0.5 * (eta + r0)
        g0 = g_sign * math.sqrt((r0 - f0) * (r0 + f0))
        assert _lemma3_dev(eta, (f0, g0, -(f0 + eta)), self.TAUS) <= 1e-11

    TANGENT = [1e-2, -1e-2, 1e-9, -1e-9, 3e-11, -3e-11, 1e-12, -1e-12, 1e-16, -1e-16, 0.0]

    @pytest.mark.parametrize("delta", TANGENT)
    @pytest.mark.parametrize("kap", [0.2, 0.5, 1.3])
    def test_lemma3_tangent(self, kap, delta):
        # K = -kap^2 with R = eta + kap + delta on the component f + eta > 0:
        # the outer (delta > 0) and middle (delta <= 0) elliptic forms meet at
        # m = 0 here, with no band between them
        eta, r0, f0 = 1.0, 1.0 + kap + delta, kap
        y0 = np.array([f0, math.sqrt((r0 - f0) * (r0 + f0)), math.sqrt(eta * (eta + 2.0 * kap))])
        assert _lemma3_dev(eta, y0, self.TAUS) <= 1e-11

    @pytest.mark.parametrize("delta", [d for d in TANGENT if d >= 0.0])
    @pytest.mark.parametrize("kap", [0.2, 0.5, 1.3])
    def test_lemma3_tangent_negative_side(self, kap, delta):
        # the component f + eta < 0 exists for R >= eta + kap only: at
        # R = eta + kap + delta it is a loop of width delta around the rest
        # point (-R, 0, 0), started halfway across it
        eta, r0 = 1.0, 1.0 + kap + delta
        f0 = -(eta + kap) - 0.5 * delta
        h0 = math.sqrt(0.5 * delta * (2.0 * kap + 0.5 * delta))
        y0 = np.array([f0, math.sqrt(max((r0 - f0) * (r0 + f0), 0.0)), h0])
        assert _lemma3_dev(eta, y0, self.TAUS) <= 1e-11

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("f_sign", [1.0, -1.0])
    def test_lemma3_next_to_k_zero(self, f_sign, delta):
        # K = delta at R = 1.5, h0 = 0.4, on either sign of f0 + eta: the
        # elliptic forms with exact 1 - m; the K band of earlier versions put
        # the K = 0 orbit there, 2.4e-6 off at |K| = 1e-10
        eta, r0, h0 = 1.0, 1.5, 0.4
        f0 = f_sign * math.sqrt(h0 * h0 - delta) - eta
        assert _lemma3_dev(eta, (f0, math.sqrt((r0 - f0) * (r0 + f0)), h0), self.TAUS) <= 1e-11

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("r_off", [1e-6, 1e-10, -1e-10])
    def test_lemma3_corner(self, r_off, delta):
        # K = delta at R = eta (1 + r_off), where all of lemma 3's branches
        # meet; R - eta enters 1 - m and is taken exactly
        eta, r0, h0 = 1.0, 1.0 + r_off, 0.5
        f0 = math.sqrt(h0 * h0 - delta) - eta
        assert _lemma3_dev(eta, (f0, math.sqrt((r0 - f0) * (r0 + f0)), h0), self.TAUS) <= 1e-11

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("f0", [0.2, -0.3, 0.45])
    @pytest.mark.parametrize("g_sign", [1.0, -1.0])
    def test_lemma3_separatrix(self, g_sign, f0, delta):
        # K = -kap^2 with R = eta - kap + delta: the middle (delta > 0) and
        # inner forms meet on the separatrix in the pulse through the saddle
        # (-R, 0, 0); the band of earlier versions was 3.7e-6 off there
        eta, kap = 1.0, 0.5
        r0 = eta - kap + delta
        y0 = (f0, g_sign * math.sqrt((r0 - f0) * (r0 + f0)), math.sqrt((f0 + eta) ** 2 - kap * kap))
        assert _lemma3_dev(eta, y0, self.TAUS) <= 1e-11

    def test_large_argument_is_finite(self):
        # sqrt(|c|) |x| = 600 on the hyperbolic side of each threshold, where
        # cosh and sinh reach 1e260 but do not overflow
        for params, s0, rate in (
            (std(p1=1.0, p4=0.5), np.array([0.3, 0.1, math.sqrt(0.9)]), 2.0 * math.sqrt(0.75)),
            (*_case14_15_start(14, 0.25), 4.0 * 0.6 * 0.5),
        ):
            taus = np.array([-600.0, 600.0]) / rate
            got = solve_case(params, 1.0, s0)(taus)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(np.sum(got * got, axis=1) - 1.0)) <= 1e-12
        f0, g0 = 3.0 * math.cos(0.7), 3.0 * math.sin(0.7)
        taus = np.array([-600.0, 600.0]) / math.sqrt(8.0)
        assert np.all(np.isfinite(solve_lemma3(1.0, f0, g0, f0 + 1.0)(taus)))


# ---------------------------------------------------------------------------
# p1/p3 = 1/3 next to the planes D = +-R, against an mpmath Taylor integration


def _one_third_mp(p3, s0, taus, order=30):
    """The flow of p = (p3 / 3, 0, p3, 0, 0) from the float state s0 at taus,
    by a Taylor integration in mpmath at the working precision.  In X = D + R
    and Y = D - R it reads X' = -(4/3) p3 I X, Y' = (8/3) p3 I Y and
    I' = (2/3) p3 X^2 - (4/3) p3 Y^2; each step is as long as the last two
    series coefficients allow at a tolerance 8 digits below the precision."""
    p3 = mp.mpf(float(p3))
    kx, ky, cx, cy = -4 * p3 / 3, 8 * p3 / 3, 2 * p3 / 3, -4 * p3 / 3
    tol = mp.mpf(10) ** (8 - mp.mp.dps)
    d0, r0, i0 = (mp.mpf(float(v)) for v in s0)
    out = {}
    for sgn in (1, -1):
        y, t = [d0 + r0, d0 - r0, i0], mp.mpf(0)
        for tau in sorted((float(v) for v in taus if v * sgn >= 0), key=abs):
            target = mp.mpf(tau)
            while t != target:
                x, w, i = [y[0]], [y[1]], [y[2]]
                for k in range(order):
                    def conv(a, b):
                        return mp.fdot(a[: k + 1], b[k::-1])

                    x.append(kx * conv(i, x) / (k + 1))
                    w.append(ky * conv(i, w) / (k + 1))
                    i.append((cx * conv(x, x) + cy * conv(w, w)) / (k + 1))
                h = min((tol / max(abs(c[k]) for c in (x, w, i))) ** (mp.mpf(1) / k) for k in (order - 1, order))
                if h >= abs(target - t):
                    h, t = abs(target - t), target
                else:
                    t += sgn * h
                y = [mp.polyval(c[::-1], sgn * h) for c in (x, w, i)]
            out[tau] = [float((y[0] + y[1]) / 2), float((y[0] - y[1]) / 2), float(y[2])]
    return np.array([out[float(v)] for v in taus])


_PLANE_ROWS = [(plane, d) for plane in ("D=R", "D=-R") for d in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)]
_PLANE_ROWS.append(("D=R", 0.0))


class TestOneThirdPlanes:
    """p1/p3 = 1/3 at |D -+ R| = delta rho from the planes D = +-R (the
    eigenvectors of the flow's quadratic form) and on D = R: one elliptic
    formula with 1 - m from the middle root, which goes to 0 on both planes,
    against a 30-digit Taylor integration from the same float state."""

    TAUS = np.array([-5.0, -1.0, 1.0, 5.0])

    @staticmethod
    def _state(plane, delta, i0):
        # rho = 1: |D - R| = delta on "D=R", |D + R| = delta on "D=-R"
        far = math.sqrt(2.0 * (1.0 - i0 * i0) - delta * delta)
        x, y = (far, delta) if plane == "D=R" else (delta, far)
        return np.array([0.5 * (x + y), 0.5 * (x - y), i0])

    @pytest.mark.parametrize("i0", [0.5, -0.3])
    @pytest.mark.parametrize("plane, delta", _PLANE_ROWS)
    def test_next_to_the_plane(self, plane, delta, i0):
        s0 = self._state(plane, delta, i0)
        sol = solve_case(std(p1=1.0, p3=3.0), 1.0, s0)
        assert sol.branch == "ratio=1/3 general"
        with mp.workdps(30):
            ref = _one_third_mp(3.0, s0, self.TAUS)
        assert np.max(np.abs(sol(self.TAUS) - ref)) <= (1e-10 if delta == 1e-14 else 1e-12)


# ---------------------------------------------------------------------------
# the collapse onto a pole: cases 1 and 5, p1 = p3, and p1/p3 = 1/3 on D = -R


# (p1, p2, p3), the branch, and kap: with c the flow's fixed centre (the
# origin, or ((D + R)/2, (D + R)/2) for p1 = p3) the in-plane offset y = (D,
# R) - c and I solve |y|' = kap I |y|, I' = -kap |y|^2, while y turns at
# -2 p2 I; so on the circle of radius L = |(y, I)| the offset shrinks by
# cosh(tau0) / cosh(kap L tau - tau0), tau0 = atanh(I0 / L), and turns by
# (p2 / p1) (log cosh(kap L tau - tau0) - log cosh tau0)
_COLLAPSES = {
    "p1": ((1.0, 0.0, 0.0), "collapse", 2),
    "p1/p2": ((1.0, 0.7, 0.0), "rotating-collapse", 2),
    "p1=p3": ((1.0, 0.0, 1.0), "ratio=1", 4),
    "p1/p3=1/3": ((1.0, 0.0, 3.0), "ratio=1/3 diag-", 8),
}


def _collapse_mp(family, s0, taus):
    """The exact collapse of a _COLLAPSES family through the float state s0,
    evaluated by mpmath at the working precision."""
    (p1, p2, p3), _, kap = _COLLAPSES[family]
    d0, r0, i0 = (mp.mpf(float(x)) for x in s0)
    c = (d0 + r0) / 2 if p3 == p1 else mp.mpf(0)
    y = (d0 - c, r0 - c)
    big_l = mp.sqrt(y[0] ** 2 + y[1] ** 2 + i0 ** 2)
    tau0, ratio = mp.atanh(i0 / big_l), mp.mpf(p2) / mp.mpf(p1)
    out = []
    for tau in taus:
        arg = kap * p1 * big_l * mp.mpf(tau) - tau0
        s, ph = mp.cosh(tau0) / mp.cosh(arg), ratio * (mp.log(mp.cosh(arg)) - mp.log(mp.cosh(tau0)))
        out.append((c + s * (y[0] * mp.cos(ph) - y[1] * mp.sin(ph)), c + s * (y[0] * mp.sin(ph) + y[1] * mp.cos(ph)),
                    -big_l * mp.tanh(arg)))
    return out


class TestCollapse:
    """The collapse onto a pole of the collapse circle, for cases 1 and 5,
    p1 = p3 and the plane D = -R of p1/p3 = 1/3: one evaluator, started from
    tau0 = atanh(I0 / L) taken from the in-plane offset, against the exact
    collapse through the same float state (mpmath, 50 digits) over |tau| <=
    9.21 (t <= 1e8).  A start from atanh(I0 / rho) raised "math domain error"
    within about 1e-8 rho of a pole, and was up to 0.31 off outside it.  At
    1e-14 rho a state is inside solve_case's fixed-point test (|qqq_rhs| <=
    1e-13 rho^2 max|p|) and stays put, so the scan stops at 1e-13."""

    TAUS = np.linspace(-9.21, 9.21, 19)

    @staticmethod
    def _state(family, rho, near, pole, rng):
        """A seeded state of the family's collapse: in-plane distance
        near * rho from its pole of sign pole, or anywhere for near None."""
        if near is None:
            if family != "p1/p3=1/3":
                return random_sphere_states(rho, 1, rng.integers(2**31))[0]
            i0 = rng.uniform(-0.95, 0.95) * rho
            d = math.copysign(math.sqrt(0.5 * (rho * rho - i0 * i0)), rng.uniform(-1.0, 1.0))
            return np.array([d, -d, i0])
        ang = rng.uniform(0.0, 2.0 * math.pi)
        if family == "p1=p3":  # about a seeded centre (m, m, 0) on D = R
            m, h = rng.uniform(-0.4, 0.4) * rho, math.copysign(near * rho / math.sqrt(2.0), math.cos(ang))
            return np.array([m + h, m - h, pole * math.sqrt(rho * rho - 2.0 * (m * m + h * h))])
        d, r = near * rho * math.cos(ang), near * rho * math.sin(ang)
        if family == "p1/p3=1/3":
            d, r = math.copysign(near * rho / math.sqrt(2.0), d), -math.copysign(near * rho / math.sqrt(2.0), d)
        return np.array([d, r, pole * math.sqrt(rho * rho - d * d - r * r)])

    @pytest.mark.parametrize("family", list(_COLLAPSES))
    def test_reference_solves_the_flow(self, family):
        (p1, p2, p3), _, _ = _COLLAPSES[family]
        s0 = self._state(family, 1.3, 0.4, 1.0, np.random.default_rng(3))
        with mp.workdps(50):
            for tau in (-0.6, 0.0, 0.9):
                state = _collapse_mp(family, s0, [tau])[0]
                slope = [mp.diff(lambda x: _collapse_mp(family, s0, [x])[0][k], tau) for k in range(3)]
                assert max(abs(a - b) for a, b in zip(slope, _qqq(p1, p2, p3, 0.0, 0.0, 1.3, *state))) < 1e-40

    @pytest.mark.parametrize("near", [None, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13])
    @pytest.mark.parametrize("family", list(_COLLAPSES))
    def test_against_mpmath(self, family, near):
        (p1, p2, p3), branch, _ = _COLLAPSES[family]
        rng = np.random.default_rng(zlib.crc32(f"{family} {near}".encode()))
        for rho in (0.5, 1.0, 2.0):
            for pole in (1.0, -1.0):
                s0 = self._state(family, rho, near, pole, rng)
                sol = solve_case(std(p1, p2, p3), rho, s0)
                assert sol.branch == branch
                with mp.workdps(50):
                    ref = np.array(_collapse_mp(family, s0, self.TAUS), dtype=float)
                assert np.max(np.abs(sol(self.TAUS) - ref)) <= 1e-13, (rho, s0)


@functools.cache
def plan_states():
    """(label, params, rho, state): two seeded states of every branch of
    case_branch_plan() at rho = 0.5 and 2."""
    out = []
    for label, params, key, family in case_branch_plan():
        for rho in (0.5, 2.0):
            out += [(label, params, rho, s0) for s0 in branch_states(params, rho, key, family, 2, seed=zlib.crc32(label.encode()))]
    return out


class TestGroupedEvaluation:
    """closed_form._stacked: the solutions of one formula evaluated in one call,
    each constant repeated over its own solution's taus, bit for bit what
    each solution's own call returns, over seeded states of every catalogue
    family and every branch of the builders."""

    @staticmethod
    @functools.cache
    def solutions():
        sols = [solve_case(params, rho, s0) for _, params, rho, s0 in plan_states()]
        # pure p3 at |D| = |R| with R < 0 (lemma 1's sign flip at gap = 0) and
        # at |D| < |R| (its swap)
        for s0 in ((0.6, -0.6, math.sqrt(0.28)), (-0.6, -0.6, -math.sqrt(0.28)), (0.3, -0.8, math.sqrt(0.27))):
            sols.append(solve_case(std(p3=1.1), 1.0, np.array(s0)))
        # fixed points, and the lemmas' rest points
        sols += [solve_case(std(p3=1.1), 1.0, np.array(s0)) for s0 in ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0))]
        for formula in (_lemma1(0.0, 0.0, 0.5, 0.25)[0], _lemma2(0.0, 0.3, 0.0)[0], _lemma3(1.0, 0.4, 0.0, 0.0)):
            sols.append(ClosedFormSolution(CaseId(0), "rest", {}, 1.0, np.zeros(3), formula))
        return sols

    def test_branches_covered(self):
        sols = self.solutions()
        stages = {tuple((fn.__name__, static) for fn, static, _ in sol._formula) for sol in sols}
        heads = {s[0] for s in stages}
        assert any(s[0][0] == "_lemma1_fgh" and s[1] == ("_permute", (0, 2, 1)) for s in stages)  # the swap
        assert any(s[0][0] == "_lemma1_fgh" and [n for n, _ in s[1:3]] == ["_affine"] * 2 for s in stages)  # the flip
        assert sum(sol.branch == "fixed-point" for sol in sols) >= 2 and ("_const", ()) in heads
        assert {("_lemma3_k_positive_fgh", ()), ("_lemma3_k_zero_fgh", ()), ("_outer_plus", ()), ("_outer_minus", ()),
                ("_middle_inner", (False,)), ("_middle_inner", (True,)), ("_recessive", ())} <= heads
        sides = {(sol.case_id.case, float(np.sign(sol._formula[0][2][0]))) for sol in sols
                 if sol._formula[0][0].__name__ in ("_case6_fn", "_case14_15_fn")}
        assert {(6, -1.0), (6, 0.0), (6, 1.0), (14, -1.0), (14, 1.0), (15, -1.0), (15, 1.0)} <= sides

    def test_bits_of_each_solution(self):
        groups = {}
        for sol in self.solutions():
            groups.setdefault(sol._key, []).append(sol)
        rng = np.random.default_rng(5)
        for members in groups.values():
            taus = [rng.uniform(-6.0, 6.0, rng.integers(1, 40)) / sol.rho for sol in members]
            order = rng.permutation(sum(len(t) for t in taus))
            index = np.repeat(np.arange(len(members)), [len(t) for t in taus])[order]
            tau = np.concatenate(taus)[order]
            got = _stacked(members)(index, tau)
            for j, sol in enumerate(members):
                assert np.array_equal(got[index == j].view(np.uint64), sol(tau[index == j]).view(np.uint64)), sol.branch


class TestGridEntry:
    """closed_form._solve_states, one setup pass for the states of a grid:
    state by state the case, branch, constants, rows and debug lines of the
    per-state reference (helpers.reference_solve_case, the former
    solve_case), over grids that mix every branch of a family at two
    radii, its fixed points, ratio 1's circle D = R and ratio 1/3's plane
    D = -R."""

    TAUS = np.linspace(-4.0, 4.0, 17)

    @staticmethod
    @functools.cache
    def grids():
        """Per family: its parameters and the shuffled (rho, state) pairs."""
        families = {}
        for _, params, rho, s0 in plan_states():
            families.setdefault(tuple(params.p), (params, []))[1].append((rho, s0))
        for params, grid in families.values():
            grid += [(rho, s0) for rho in (0.5, 2.0) for s0 in fixed_points(params, rho).all_points()[:4]]
        for p, plane in (((1.0, 0.0, 1.0, 0.0, 0.0), 1.0), ((1.0, 0.0, 3.0, 0.0, 0.0), -1.0)):
            d = np.linspace(-0.69, 0.69, 7)
            families[p][1].extend((rho, s0) for rho in (0.5, 2.0) for s0 in curve_states(rho, lambda d: plane * d, d * rho))
        rng = np.random.default_rng(11)
        return [(params, [grid[j] for j in rng.permutation(len(grid))]) for params, grid in families.values()]

    def test_grids_cover_the_special_states(self):
        branches = {(tuple(params.p), sol.branch) for params, grid in self.grids()
                    for sol in _solve_states(params, grid)}
        assert ((1.0, 0.0, 1.0, 0.0, 0.0), "fixed-point") in branches
        assert ((1.0, 0.0, 3.0, 0.0, 0.0), "ratio=1/3 diag-") in branches
        assert sum(b == "fixed-point" for _, b in branches) >= 10

    def test_state_by_state_as_the_reference(self):
        for params, grid in self.grids():
            got = list(_solve_states(params, grid))
            assert len(got) == len(grid)
            for sol, (rho, s0) in zip(got, grid):
                ref = reference_solve_case(params, rho, s0)
                assert (sol.case_id, sol.branch, sol.constants) == (ref.case_id, ref.branch, ref.constants)
                taus = self.TAUS / rho
                assert sol(taus).tobytes() == ref(taus).tobytes(), (params, rho, s0, sol.branch)

    def test_debug_lines(self, caplog):
        for params, grid in self.grids():
            with caplog.at_level(logging.DEBUG, logger="cubicnls.closed_form"):
                list(_solve_states(params, grid))
                got = [r.getMessage() for r in caplog.records]
                caplog.clear()
                for rho, s0 in grid:
                    reference_solve_case(params, rho, s0)
                assert got == [r.getMessage() for r in caplog.records] and len(got) == len(grid)
                caplog.clear()

    def test_errors_in_their_turn(self):
        # the states before a bad one are solved, then its error raises;
        # outside the catalogue the first state's sphere check still comes
        # before the parameters' error
        good, bad = np.array([0.6, 0.0, 0.8]), np.array([0.6, 0.0, 0.9])
        states = _solve_states(std(p1=1.0), [(1.0, good), (1.0, bad), (1.0, good)])
        assert next(states).branch == "collapse"
        with pytest.raises(ValueError, match="off the sphere"):
            next(states)
        with pytest.raises(UnsupportedRatioError):
            next(_solve_states(std(p1=2.0, p3=1.0), [(1.0, good), (1.0, bad)]))
        with pytest.raises(ValueError, match="off the sphere"):
            next(_solve_states(std(p1=2.0, p3=1.0), [(1.0, bad), (1.0, good)]))


# families 14 and 15 below their threshold out to the largest float t

# the state of ROADMAP item 5's solve command, case 15 below its threshold
FAR_CASE15 = (std(0.6, 0.8, 1.0, 0.6, 0.2, q=(0.3, -0.2, 0.1)), 1.259855431265944,
              (0.020899662772089465, 0.027599554665534414, -1.2593796791947116))


class TestEntPastOverflow:
    """_ent's (e, j) = (1/q, -q'/q) past tau of about 250, where q and the
    numerator of j overflow, against mpmath (50 digits) on both sides of
    the overflow: e underflows to 0 and j keeps its finite limit."""

    @staticmethod
    def _mp(c, x, a, b_sq):
        c, x, a, b_sq = (mp.mpf(float(v)) for v in (c, x, a, b_sq))
        w = mp.sqrt(c)

        def q(t):
            return (mp.cosh(w * t / 2) - a * mp.sinh(w * t / 2) / w) ** 2 + b_sq * (mp.sinh(w * t / 2) / w) ** 2

        return 1 / q(x), -mp.diff(q, x) / q(x)

    def test_against_mpmath(self):
        sol = solve_case(*FAR_CASE15)
        assert sol.branch == "|X| below threshold"
        disc, four_p1, i0, y0_sq = sol._formula[0][2][:4]
        taus = np.concatenate([[1.0, 100.0, 250.0, 300.0, 354.0], np.linspace(280.0, 285.0, 11)])
        e, j = _ent(disc, four_p1 * taus, i0, y0_sq)
        with mp.workdps(50):
            for tau, got_e, got_j in zip(taus, e, j):
                want_e, want_j = self._mp(disc, four_p1 * tau, i0, y0_sq)
                # e carries the rounding of its argument, about |y| times eps
                assert abs(got_e - want_e) <= 1e-12 * want_e + 1e-300, tau
                assert abs(got_j - want_j) <= 4e-16 * abs(want_j), tau

    @pytest.mark.filterwarnings("error")
    def test_states_finite(self):
        taus = np.linspace(0.0, 360.0, 73)
        got = solve_case(*FAR_CASE15)(taus)
        assert np.isfinite(got).all()
        assert np.max(np.abs(got[-20:] - got[-1])) <= 1e-15  # at its limit point

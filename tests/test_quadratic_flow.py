"""Flow right-hand sides, integrators, fixed points, stability, synchronization."""

import logging
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import cubicnls.quadratic_flow as qf
from cubicnls.closed_form import UnsupportedCaseError, classify, solve_case
from cubicnls.quadratic_flow import (
    ASYMPTOTICALLY_STABLE,
    INCONCLUSIVE,
    StiffnessError,
    Trajectory,
    amplitudes_to_quad,
    detect_sync,
    fibonacci_sphere,
    fixed_points,
    full_ode_rhs,
    gamma_pair,
    integrate_full,
    integrate_quad,
    qqq_rhs,
    random_sphere_states,
    stability,
)
from cubicnls.standard_form import StandardParams
from helpers import CATALOGUE, ladder_fixed_points, reference_dp5_path

CASE1 = StandardParams(1, 0, 0, 0, 0)
# four isolated fixed points, one passing the sufficient test, and g > 0 on
# an arc of the equator: a 64-start lattice rejected its candidate
LATTICE_REJECTED = StandardParams(0.75, -0.89, 0.03, 0.69, 0.59)
# p1 > 0, det A > 0 and |X*| < rho, but g > 0 on the thin equator arc
# [1.2437, 1.2927]: a 64-start lattice reported synchronization here, and
# the orbits through that arc are periodic
LATTICE_SYNC = StandardParams(1.4, 1.0, 0.7, 1.3, 0.8)


def rand_params(rng):
    return StandardParams(
        rng.uniform(0, 1), rng.uniform(-1, 1), rng.uniform(0, 1),
        rng.uniform(-1, 1), rng.uniform(0, 1), *rng.uniform(-1, 1, 3),
    )


class TestRhs:
    def test_case1_pole_is_fixed(self):
        assert np.allclose(qqq_rhs(CASE1, 1.0, (0, 0, 1)), 0.0)
        assert np.allclose(qqq_rhs(CASE1, 1.0, (0, 0, -1)), 0.0)

    def test_case1_equator_value(self):
        assert np.allclose(qqq_rhs(CASE1, 1.0, (1, 0, 0)), [0, 0, -2])

    def test_origin_formal_zero(self):
        p = StandardParams(0.3, -0.4, 0.5, 0.6, 0.7)
        assert np.allclose(qqq_rhs(p, 1.0, (0, 0, 0)), 0.0)

    def test_tangency(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rand_params(rng)
            rho = rng.uniform(0.3, 2.0)
            s = random_sphere_states(rho, 1, rng.integers(2**31))[0]
            assert abs(qqq_rhs(p, rho, s) @ s) < 1e-12 * rho**3 * max(1, *np.abs(p.p))

    def test_full_rhs_zero(self):
        p = StandardParams(0.3, -0.4, 0.5, 0.6, 0.7, 1, 2, 3)
        assert np.allclose(full_ode_rhs(p, (0j, 0j)), 0.0)

    def test_full_rhs_pure_p4(self):
        da = full_ode_rhs(StandardParams(0, 0, 0, 1, 0), (1 + 0j, 0j))
        assert da[0] == -2j and da[1] == 0

    def test_chain_rule_consistency(self):
        # d/dtau of the quadratic quantities computed from the complex RHS
        # must equal the quadratic RHS at the mapped state
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rand_params(rng)
            v = rng.standard_normal(4)
            a = (complex(v[0], v[1]), complex(v[2], v[3]))
            da = full_ode_rhs(p, a)
            rho, s = amplitudes_to_quad(*a)
            ddot = 2 * (np.conj(da[0]) * a[0]).real - 2 * (np.conj(da[1]) * a[1]).real
            cross = np.conj(da[0]) * a[1] + np.conj(a[0]) * da[1]
            got = np.array([ddot, 2 * cross.real, 2 * cross.imag])
            scale = max(1.0, rho) ** 2 * max(1, *np.abs(p.p), *np.abs(p.q))
            assert np.max(np.abs(got - qqq_rhs(p, rho, s))) < 1e-10 * scale

    def test_amplitudes_of_an_array(self):
        # amplitude arrays give each element exactly its single-pair value,
        # and raise the error of the first pair whose rho is out of range
        rng = np.random.default_rng(3)
        a1 = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) * 10.0 ** rng.uniform(-100, 100, 40)
        a2 = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) * 10.0 ** rng.uniform(-100, 100, 40)
        a1[::7], a2[3] = 0.0, -0.0
        rho, states = amplitudes_to_quad(a1, a2)
        for k in range(len(a1)):
            one = amplitudes_to_quad(complex(a1[k]), complex(a2[k]))
            assert type(one[0]) is float and one[0] == rho[k] and one[1].tobytes() == states[k].tobytes()
        assert amplitudes_to_quad(a1[:0], a2[:0])[1].shape == (0, 3)
        a1[[5, 9]], a2[[5, 9]] = 1e155, 1e-170
        with pytest.raises(ValueError, match=r"^the amplitudes \(\(1e\+155\+0j\), \(1e-170\+0j\)\) are out of range"):
            amplitudes_to_quad(a1, a2)

    def test_columns_of_a_state_array(self):
        # the batched oracle evaluates a (3, N) array of states in one call;
        # it must give each column exactly its single-state value
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rand_params(rng)
            rho = rng.uniform(0.3, 2.0)
            states = random_sphere_states(rho, 17, rng.integers(2**31))
            columns = np.column_stack([qqq_rhs(p, rho, s) for s in states])
            assert np.array_equal(qqq_rhs(p, rho, states.T), columns)


class TestIntegrators:
    def test_fixed_point_constant(self):
        tr = integrate_quad(CASE1, 1.0, (0, 0, -1), (0, 5.0), tol=1e-10)
        assert np.max(np.abs(tr.states - [0, 0, -1])) < 1e-10

    def test_sphere_conservation(self):
        s0 = random_sphere_states(1.0, 1, 3)[0]
        tr = integrate_quad(CASE1, 1.0, s0, (0, 5.0), tol=1e-10)
        radii = np.sum(tr.states**2, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-8

    def test_zero_amplitudes_stay_zero(self):
        p = StandardParams(0.5, 0.1, 0.2, 0.3, 0.4)
        tr = integrate_full(p, (0j, 0j), (0, 4.0), tol=1e-9)
        assert np.max(np.abs(tr.states)) == 0.0

    def test_mass_drift(self):
        p = StandardParams(0.5, -0.3, 0.2, 0.4, 0.1, 0.2, -0.5, 0.3)
        tr = integrate_full(p, (0.7 + 0.2j, -0.1 + 0.5j), (0, 6.0), tol=1e-10)
        mass = np.abs(tr.states[:, 0]) ** 2 + np.abs(tr.states[:, 1]) ** 2
        assert np.max(np.abs(mass - mass[0])) < 1e-8

    def test_quad_full_consistency(self):
        # quadratic quantities of the full flow solve the quadratic system
        p = StandardParams(0.6, 0.2, 0.3, -0.2, 0.1)
        tr = integrate_full(p, (0.8 + 0.1j, 0.3 - 0.4j), (0, 4.0), tol=1e-11)
        rho, _ = amplitudes_to_quad(0.8 + 0.1j, 0.3 - 0.4j)
        taus = np.linspace(0.2, 3.8, 40)
        h = 1e-4
        for tau in taus:
            sm = amplitudes_to_quad(*tr.at(tau - h))[1]
            sp = amplitudes_to_quad(*tr.at(tau + h))[1]
            s = amplitudes_to_quad(*tr.at(tau))[1]
            fd = (sp - sm) / (2 * h)
            assert np.max(np.abs(fd - qqq_rhs(p, rho, s))) < 1e-6

    def test_dense_output_matches_nodes(self):
        s0 = random_sphere_states(1.0, 1, 4)[0]
        tr = integrate_quad(CASE1, 1.0, s0, (0, 2.0), tol=1e-10)
        for j in (0, len(tr.times) // 2, -1):
            assert np.array_equal(tr.at(tr.times[j]), tr.states[j])

    def test_at_first_stored_node_wins_in_any_order(self):
        # unsorted times with a repeat, as resampled or backward trajectories have
        times = np.array([2.0, -1.0, 0.5, -1.0, 3.0])
        states = np.arange(15.0).reshape(5, 3)
        tr = Trajectory(times, states, "quad", lambda t: np.full((3, len(t)), -7.0))
        taus = np.array([3.0, -1.0, 0.25, 2.0, 0.5, 4.0, -2.0])
        off = [-7.0] * 3
        expected = [states[4], states[1], off, states[0], states[2], off, off]
        assert np.array_equal(tr.at(taus), expected)
        assert np.array_equal(tr.at(-1.0), states[1])

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            integrate_quad(CASE1, 1.0, (0, 0, 1), (0, 1.0), tol=1e-3)
        with pytest.raises(ValueError):
            integrate_quad(CASE1, 1.0, (0.5, 0, 0.5), (0, 1.0), tol=1e-10)  # off-sphere

    @pytest.mark.parametrize("end", [math.inf, -math.inf, math.nan])
    def test_nonfinite_span_rejected(self, end):
        # an infinite or NaN end would keep the adaptive step loop running
        with pytest.raises(ValueError, match="finite"):
            integrate_quad(CASE1, 1.0, (1, 0, 0), (0.0, end))
        with pytest.raises(ValueError, match="finite"):
            integrate_full(CASE1, (0.6, 0.8j), (0.0, end))

    def test_scaling_property(self):
        # rescaled trajectories solve the rescaled system
        rng = np.random.default_rng(5)
        for _ in range(5):
            p = rand_params(rng)
            rho1, rho2 = 1.0, rng.uniform(0.4, 2.5)
            lam = rho2 / rho1
            s0 = random_sphere_states(rho1, 1, rng.integers(2**31))[0]
            t_end = 3.0 / max(1, *np.abs(p.p))
            tr1 = integrate_quad(p, rho1, s0, (0, t_end), tol=1e-11)
            tr2 = integrate_quad(p, rho2, lam * s0, (0, t_end / lam), tol=1e-11)
            taus = np.linspace(0, t_end / lam, 17)
            dev = np.max(np.abs(lam * tr1.at(lam * taus) - tr2.at(taus)))
            assert dev < 1e-7

    def test_csv_round_trip(self, tmp_path):
        s0 = random_sphere_states(1.0, 1, 6)[0]
        tr = integrate_quad(CASE1, 1.0, s0, (0, 1.0), tol=1e-10)
        path = tmp_path / "traj.csv"
        tr.write_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert np.array_equal(data["tau"], tr.times)
        assert np.array_equal(data["D"], tr.states[:, 0])

    def test_csv_amplitude_rows(self, tmp_path):
        tr = integrate_full(CASE1, (0.6 + 0.1j, -0.3 + 0.7j), (0, 0.5), tol=1e-10)
        path = tmp_path / "amp.csv"
        tr.write_csv(path)
        lines = path.read_bytes().decode().split("\n")
        assert lines[0] == "tau,re_a1,im_a1,re_a2,im_a2"
        assert lines[-1] == "" and len(lines) == len(tr.times) + 2
        for line, t, (a1, a2) in zip(lines[1:], tr.times, tr.states):
            assert line == ",".join(f"{v:.17g}" for v in (t, a1.real, a1.imag, a2.real, a2.imag))

    def test_csv_template_matches_per_value_format(self):
        # the one-template writer against formatting each value on its own
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                    1.7976931348623157e308, math.nan, math.inf, -math.inf, 1 / 3, -2.5, 1e-5, 123456789.0]
        rng = np.random.default_rng(10)
        rows = [(np.float64(v), v, np.float64(-v), float(w)) for v, w in zip(specials, rng.standard_normal(15))]
        rows += (rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-300, 300, (9, 4))).tolist()
        expected = "a,b,c,d\n" + "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
        assert qf._csv("a,b,c,d", rows) == expected
        assert qf._csv("a,b,c,d", iter(rows)) == expected
        assert qf._csv("a,b,c,d", []) == "a,b,c,d\n"
        assert qf._csv("only", [(math.nan,), (np.float64(-0.0),)]) == "only\nnan\n-0\n"


class TestFixedPoints:
    def test_case1(self):
        fps = fixed_points(CASE1, 1.0)
        pts = sorted(tuple(np.round(p, 12)) for p in fps.points)
        assert pts == [(0, 0, -1), (0, 0, 1)]
        assert fps.circles == []

    def test_case2_circle(self):
        fps = fixed_points(StandardParams(0, 1, 0, 0, 0), 2.0)
        assert len(fps.points) == 2
        assert len(fps.circles) == 1
        c = fps.circles[0]
        assert c.radius == pytest.approx(2.0)
        for s in c.samples():
            assert np.linalg.norm(qqq_rhs(StandardParams(0, 1, 0, 0, 0), 2.0, s)) < 1e-12

    def test_case6(self):
        p = StandardParams(1, 0, 0, 0.6, 0)
        fps = fixed_points(p, 1.0)
        w = math.sqrt(1 - 0.36)
        expect = {(0.0, 0.6, w), (0.0, 0.6, -w)}
        got = {tuple(np.round(q, 12)) for q in fps.points}
        assert got == {tuple(np.round(e, 12)) for e in expect}

    def test_case6_p1_below_p4(self):
        # p1 < p4: the two points (+-rho sqrt(1 - c^2), c rho, 0), c = p1 / p4,
        # on the equator, where _planar's quartic finds them too
        p, rho = StandardParams(0.6, 0, 0, 1.0, 0), 1.3
        fps = fixed_points(p, rho)
        assert len(fps.points) == 2 and fps.circles == []
        for s in fps.points:
            assert np.linalg.norm(qqq_rhs(p, rho, s)) < 1e-14
        t = qf._planar(p, rho)[2]
        equator = rho * np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        assert sorted(map(tuple, np.round(fps.points, 12))) == sorted(map(tuple, np.round(equator, 12)))

    def test_case9_families_and_merge(self):
        p = StandardParams(0, 0, 1.0, 0.5, 0)
        fps = fixed_points(p, 1.0)
        assert len(fps.points) == 6  # poles + two conditional pairs
        # at p4 = 2 p3 the middle family merges with the pole: reported once
        p_merge = StandardParams(0, 0, 1.0, 2.0, 0)
        fps_m = fixed_points(p_merge, 1.0)
        pts = [tuple(np.round(q, 9)) for q in fps_m.points]
        assert len(pts) == len(set(pts))
        # there g has a triple root at t = pi: (-rho, 0, 0) is listed exactly once
        assert sum(np.linalg.norm(q - [-1.0, 0.0, 0.0]) <= 1e-6 for q in fps_m.points) == 1
        assert min(np.linalg.norm(q - [-1.0, 0.0, 0.0]) for q in fps_m.points) <= 1e-15

    @pytest.mark.parametrize(
        "p, point", [((0, 0.3, 1, 2, 0), (-1.0, 0.0, 0.0)), ((0, 0.3, 1, 0, 2), (0.0, 1.0, 0.0))]
    )
    @pytest.mark.parametrize("rho", [1.0, 0.37])
    def test_triple_equator_root(self, p, point, rho):
        # p1 = p5 = 0, p4 = 2 p3 (or p4 = 0, p5 = 2 p3): g = sin t (2 p3 cos t + p4)
        # has a triple root at t = pi (at t = pi / 2), outside the catalogue;
        # an eigenvalue solve scatters it about 6e-6 off |z| = 1, the quartic
        # in closed form gives it exactly
        p = StandardParams(*p)
        point = rho * np.array(point)
        assert classify(p).case == 0 and np.all(qqq_rhs(p, rho, point) == 0.0)
        pts = fixed_points(p, rho).points
        assert sum(np.linalg.norm(q - point) <= 1e-6 * rho for q in pts) == 1
        assert min(np.linalg.norm(q - point) for q in pts) <= 1e-15 * rho

    def test_all_reported_points_are_fixed(self):
        rng = np.random.default_rng(7)
        examples = [
            StandardParams(0, 0, 1.1, 0, 0),
            StandardParams(0, -1.4, 1.0, 0, 0),
            StandardParams(0, 0.8, 0, 0.5, 0),
            StandardParams(0, 0, 1.0, 0, 0.4),
            StandardParams(1.0, 0, 1.0, 0, 0),
            StandardParams(1.0, 0, 3.0, 0, 0),
            StandardParams(0, 0.7, 0.7, 0.4, 0),
            StandardParams(0, -0.7, 0.7, 0, 0.4),
        ]
        for p in examples:
            rho = rng.uniform(0.5, 2.0)
            fps = fixed_points(p, rho)
            for s in fps.all_points():
                assert np.linalg.norm(qqq_rhs(p, rho, s)) < 1e-9 * rho * rho

    @pytest.mark.parametrize("eps", [3e-13, -3e-13])
    def test_ratio_one_band_keeps_circle(self, eps):
        # classify puts p1/p3 within 1e-12 of 1 in the ratio-1 family, whose
        # fixed set is the circle D = R; the poles lie on it, so no isolated
        # point is listed
        fps = fixed_points(StandardParams(1, 0, 1 + eps, 0, 0), 1.0)
        (circle,) = fps.circles
        assert np.allclose(circle.axis, np.array([1.0, -1.0, 0.0]) / math.sqrt(2), atol=1e-15)
        for pole in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
            assert abs((np.array(pole) - circle.center) @ circle.axis) <= 1e-15
        assert fps.points == []

    def test_p1_p4_band_single_point(self):
        # within the p1 = p4 band the fixed set is the one point (0, rho, 0)
        fps = fixed_points(StandardParams(1, 0, 0, 1 - 3e-13, 0), 2.0)
        assert [p.tolist() for p in fps.points] == [[0.0, 2.0, 0.0]]

    @pytest.mark.parametrize("eps", [8e-13, -8e-13])
    def test_p1_p4_band_edge_lists_exact_points(self, eps):
        # near the edge of the p1 = p4 band the flow at (0, rho, 0), 2 |p1 - p4|
        # rho^2, is above the band's 1e-12: the exact points are listed, the
        # equator roots t = pi / 2 +- 1.3e-6 or the pair (X*, +-I*)
        p, rho = StandardParams(1, 0, 0, 1 + eps, 0), 2.0
        pts = fixed_points(p, rho).points
        assert len(pts) == 2 and all(np.linalg.norm(s - [0.0, rho, 0.0]) > 1e-6 * rho for s in pts)
        for s in pts:
            assert np.linalg.norm(qqq_rhs(p, rho, s)) <= 1e-15 * rho * rho

    def test_tangent_point_needs_its_flow_check(self):
        # |X*| is within 1e-12 of rho, but rho X*/|X*| has a flow of 1.2e-12
        # rho^2 max|p|: the pair (X*, +-I*) is listed in its place
        p, rho = StandardParams(1e-6, 1e-12, 1e-13, 1e-6, 1e-160), 1e-3
        _, x_star, _ = qf._planar(p, rho)
        assert classify(p).case == 0 and abs(math.hypot(*x_star) - rho) <= 1e-12 * rho
        pts = fixed_points(p, rho).points
        for sgn in (1.0, -1.0):
            pair = np.append(x_star, sgn * math.sqrt(rho * rho - x_star @ x_star))
            assert min(np.linalg.norm(s - pair) for s in pts) == 0.0
        for s in pts:
            assert np.linalg.norm(qqq_rhs(p, rho, s)) <= 1e-12 * rho * rho * np.max(np.abs(p.p))

    @pytest.mark.parametrize("p2, axis", [(1.0, (1.0, 0.0, 0.0)), (-1.0, (0.0, 1.0, 0.0))])
    def test_degenerate_p2_equal_p3(self, p2, axis):
        # classify's 'degenerate |p2| = p3' row of case 0: A is singular and
        # b = 0, so the flow vanishes on the circle D = 0 (R = 0); the equator
        # points off it are the circle's poles
        p, rho = StandardParams(0, p2, 1, 0, 0), 1.3
        assert classify(p).subcase == "degenerate |p2| = p3"
        fps = fixed_points(p, rho)
        assert fps.circles == [qf.Circle((0.0, 0.0, 0.0), axis, rho)]
        assert len(fps.points) == 2
        for pole in (rho * np.array(axis), -rho * np.array(axis)):
            assert min(np.linalg.norm(s - pole) for s in fps.points) <= 1e-15 * rho
        for s in fps.all_points():
            assert np.linalg.norm(qqq_rhs(p, rho, s)) <= 1e-15 * rho * rho

    @pytest.mark.parametrize("eps", [7.5e-13, -7.5e-13])
    @pytest.mark.parametrize("p4, p5", [(0.0, 0.0), (0.5, 0.5 * 0.6 / 1.8)])
    def test_singular_band_is_wider_than_families_14_15(self, eps, p4, p5):
        # |det A| <= 1e-12 (p1^2 + p2^2 + p3^2) is twice classify's band
        # |p1^2 + p2^2 - p3^2| <= 1e-12 p3^2 of families 14 and 15: here
        # classify gives case 0, and fixed_points the family's circle, whose
        # samples are fixed to the 2e-12 of that band
        p, rho = StandardParams(0.6, 0.8, 1 + eps, p4, p5), 1.3
        assert classify(p).case == 0
        fps = fixed_points(p, rho)
        (circle,) = fps.circles
        (exact,) = fixed_points(StandardParams(0.6, 0.8, 1, p4, p5), rho).circles
        assert np.allclose(circle.center, exact.center, rtol=0, atol=1e-12 * rho)
        assert np.allclose(circle.axis, exact.axis, rtol=0, atol=1e-12)
        assert abs(circle.radius - exact.radius) <= 1e-12 * rho
        for s in circle.samples(32):
            assert np.linalg.norm(qqq_rhs(p, rho, s)) <= 2e-12 * rho * rho
        assert len(fps.points) == 2
        for s in fps.points:
            assert abs((s - np.asarray(circle.center)) @ np.asarray(circle.axis)) > 1e-6 * rho
            assert np.linalg.norm(qqq_rhs(p, rho, s)) <= 1e-12 * rho * rho

    def test_numeric_fallback(self):
        # uncatalogued parameters: the algebraic fixed points of the planar flow
        p = StandardParams(0.8, 0.3, 0.5, 0.2, 0.1)
        fps = fixed_points(p, 1.0)
        assert fps.points, "fallback found no equilibria"
        for s in fps.points:
            assert np.linalg.norm(qqq_rhs(p, 1.0, s)) < 1e-9

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            fixed_points(CASE1, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_case14_circle_at_tiny_scale(self):
        # p1^2 + (p2 - p3)^2 = 4e-401 underflows to 0, the norm of the
        # circle's plane normal (p1, p2 - p3) must not
        fps = fixed_points(StandardParams(0.6e-200, 0.8e-200, 1e-200, 0, 0), 1.3)
        (circle,) = fps.circles
        assert circle.axis == pytest.approx((0.6 / math.sqrt(0.4), -0.2 / math.sqrt(0.4), 0.0), rel=1e-15)
        assert circle.radius == 1.3 and circle.center == (0.0, 0.0, 0.0)

    def test_equator_point_a_lattice_search_missed(self):
        # a 64-start root search on this uncatalogued system found three of
        # the four equator points; the quartic has all four
        p, rho = StandardParams(0.0708, -0.4004, 1.4191, 0.4467, 1.6987), 1.9031
        pts = fixed_points(p, rho).points
        assert min(np.linalg.norm(s - [-0.6964, 1.7711, 0.0]) for s in pts) < 1e-4 * rho
        assert len(pts) == 6
        for s in pts:
            assert np.linalg.norm(qqq_rhs(p, rho, s)) <= 1e-12 * rho * rho * np.max(np.abs(p.p))

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(
            st.floats(0, 2), st.floats(-2, 2), st.floats(0, 2), st.floats(-2, 2), st.floats(0, 2)
        ).filter(any),
        st.floats(0.2, 3.0),
    )
    def test_every_point_is_fixed(self, p, rho):
        # every family's points pass fixed_points' flow checks, which are at
        # or below this bound (rho X*/|X*|, which stands for the 1e-12 band of
        # |X*| = rho, is held to the bound itself)
        p = StandardParams(*p)
        for s in fixed_points(p, rho).points:
            assert np.linalg.norm(qqq_rhs(p, rho, s)) <= 1e-12 * rho * rho * np.max(np.abs(p.p))

    def test_newton_scan_finds_no_other_point(self):
        # 500 Fibonacci starts of scipy's hybrid Newton method in spherical
        # angles, on each of 20 seeded uncatalogued systems: every fixed
        # point it reaches is one of the returned points
        from scipy.optimize import root

        rng = np.random.default_rng(11)
        for _ in range(20):
            p, rho = rand_params(rng), rng.uniform(0.3, 2.0)
            assert classify(p).case == 0
            pts = fixed_points(p, rho).points
            pscale = np.max(np.abs(p.p))

            def on_sphere(angles):
                th, ph = angles
                return rho * np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])

            def tangential(angles):
                th, ph = angles
                st_, ct, sp, cp = math.sin(th), math.cos(th), math.sin(ph), math.cos(ph)
                fd, fr, fi = qf._qqq(*p.p.tolist(), rho, rho * st_ * cp, rho * st_ * sp, rho * ct)
                # the flow along e_phi and e_theta
                return [-sp * fd + cp * fr, ct * cp * fd + ct * sp * fr - st_ * fi]

            reached = 0
            for s0 in fibonacci_sphere(500, rho):
                res = root(tangential, [math.acos(s0[2] / rho), math.atan2(s0[1], s0[0])], method="hybr", tol=1e-12)
                s = on_sphere(res.x)
                if res.success and np.linalg.norm(qqq_rhs(p, rho, s)) <= 1e-9 * rho * rho * pscale:
                    reached += 1
                    assert min(np.linalg.norm(s - q) for q in pts) <= 1e-6 * rho
            assert reached >= 100

    @pytest.mark.parametrize(
        "p", [StandardParams(0.6, 0.8, 1.0, 0, 0), StandardParams(0.6, 0.8, 1.0, 0.6, 0.2)]
    )
    def test_case14_15_circle(self, p):
        rho = 1.3
        fps = fixed_points(p, rho)
        (circle,) = fps.circles
        axis = np.asarray(circle.axis)
        for s in circle.samples(32):
            assert abs(s @ s - rho * rho) < 1e-12
            assert np.linalg.norm(qqq_rhs(p, rho, s)) < 1e-13 * rho * rho
        assert fps.points
        for s in fps.points:
            assert abs((s - np.asarray(circle.center)) @ axis) > 1e-6 * rho
            assert np.linalg.norm(qqq_rhs(p, rho, s)) < 1e-9 * rho * rho
        assert detect_sync(p, rho) is None


# seeded radii for the catalogue tests
CATALOGUE_RHOS = (0.6, 1.0, float(np.random.default_rng(29).uniform(0.3, 3.0)))
# members of classify's 1e-12 bands: p1/p3 = 1 (family 11), p1 = p4 (family
# 6) and p2 = p3 (family 12), each 3e-13 to either side
BAND_MEMBERS = [
    p for e in (3e-13, -3e-13)
    for p in ((1, 0, 1 + e, 0, 0), (1, 0, 0, 1 + e, 0), (1 + e, 0, 0, 1, 0), (0, 0.7 * (1 + e), 0.7, 0.4, 0))
]


def _set_distance(a, b) -> float:
    """Hausdorff distance between two lists of points (inf if their sizes differ)."""
    if len(a) != len(b):
        return math.inf
    gaps = [min(np.linalg.norm(x - y) for y in b) for x in a] + [min(np.linalg.norm(x - y) for x in a) for y in b]
    return max(gaps, default=0.0)


class TestFixedPointCatalogue:
    @pytest.mark.parametrize("rho", CATALOGUE_RHOS)
    @pytest.mark.parametrize("p", CATALOGUE + BAND_MEMBERS)
    def test_matches_the_ladder(self, p, rho):
        # the one algebraic solve gives each family's set as the per-family
        # ladder did (tests/helpers.py), except that a point on a circle is
        # not listed (the poles of p1/p3 = 1 lie on its circle D = R)
        p = StandardParams(*p)
        got, ref = fixed_points(p, rho), ladder_fixed_points(p, rho)
        ref_points = [s for s in ref.points if all(abs((s - c.center) @ c.axis) > 1e-6 * rho for c in ref.circles)]
        assert _set_distance(got.points, ref_points) <= 1e-12 * rho
        assert len(got.circles) == len(ref.circles)
        for c, r in zip(got.circles, ref.circles):
            assert np.linalg.norm(np.subtract(c.center, r.center)) <= 1e-12 * rho
            assert min(np.linalg.norm(np.subtract(c.axis, r.axis)), np.linalg.norm(np.add(c.axis, r.axis))) <= 1e-12
            assert abs(c.radius - r.radius) <= 1e-12 * rho

    @pytest.mark.parametrize("rho", [1e-100, 1e-60, 1e60, 1e100])
    @pytest.mark.parametrize("p", CATALOGUE)
    def test_scale_free_at_extreme_radii(self, p, rho):
        # the flow checks measure |flow| without squaring it, so the set at
        # radius rho is rho times the set at radius 1, and each of its points
        # passes stability's and solve_case's fixed-point tests, however far
        # rho^2 is from 1
        p = StandardParams(*p)
        got, ref = fixed_points(p, rho), fixed_points(p, 1.0)
        assert _set_distance([s / rho for s in got.points], ref.points) <= 1e-12
        assert len(got.circles) == len(ref.circles)
        for s in got.points:
            stability(p, rho, s)
            assert solve_case(p, rho, s).branch == "fixed-point"

    @pytest.mark.parametrize("p", CATALOGUE)
    def test_every_family_set_is_fixed(self, p):
        rng = np.random.default_rng(31)
        p = StandardParams(*p)
        for rho in rng.uniform(0.2, 3.0, 3):
            for s in fixed_points(p, rho).all_points():
                assert np.linalg.norm(qqq_rhs(p, rho, s)) <= 1e-12 * rho * rho * np.max(np.abs(p.p))


def _mp_equator_angles(p) -> list:
    """Angles of the roots within 1e-6 of |z| = 1 of _planar's quartic for the
    parameters p, by mpmath's polyroots at 30 digits (None if g = 0)."""
    p1, _, p3, p4, p5 = (mp.mpf(v) for v in p)
    coeffs = [p3, mp.mpc(p4, -p5), mp.mpc(0, -2 * p1), mp.mpc(-p4, -p5), -p3]
    while coeffs and coeffs[0] == 0 and coeffs[-1] == 0:
        coeffs = coeffs[1:-1]
    if len(coeffs) < 2:
        return None if not coeffs or coeffs[0] == 0 else []
    with mp.workdps(30):
        roots = mp.polyroots(coeffs, maxsteps=400, extraprec=60)
    return [float(mp.arg(z)) for z in roots if abs(abs(z) - 1) <= 1e-6]


def _assert_angles_match(p, rho=1.0):
    got, ref = qf._planar(StandardParams(*p), rho)[2], _mp_equator_angles(p)
    assert len(got) == len(ref), (p, got, ref)
    for a in ref:
        assert min(abs(math.remainder(a - t, 2.0 * math.pi)) for t in got) <= 1e-13, (p, got, ref)


class TestQuartic:
    def test_seeded_uncatalogued_against_mpmath(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            p = rand_params(rng)
            assert classify(p).case == 0
            _assert_angles_match(p.p.tolist(), rng.uniform(0.3, 3.0))

    @pytest.mark.parametrize("p", [(0.7, -0.4, 0, 0.9, 0.3), (0.7, -0.4, 0, 0.5, 0.1), (0.7, -0.4, 0, 0, 0)])
    def test_reduced_degree(self, p):
        # p3 = 0 leaves a quadratic, p3 = p4 = p5 = 0 no root
        _assert_angles_match(p)

    def test_g_identically_zero_is_the_equator(self):
        p = StandardParams(0, -0.4, 0, 0, 0)
        assert _mp_equator_angles(p.p.tolist()) is None and qf._planar(p, 1.3)[2].size == 0
        (circle,) = fixed_points(p, 1.3).circles
        assert circle == qf.Circle((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.3)

    def test_double_root(self):
        # family 6 at p1 = p4: g = p1 (sin t - 1), a double root at t = pi / 2
        _assert_angles_match((1, 0, 0, 1, 0))
        assert qf._planar(StandardParams(1, 0, 0, 1, 0), 1.0)[2].tolist() == [math.pi / 2] * 2

    def test_family9_at_p4_equal_p3(self):
        # the pair (X*, +-I*) meets the equator root t = pi (the quartic's
        # roots 0, pi, +-2 pi / 3 stay simple)
        _assert_angles_match((0, 0, 1, 1, 0))

    def test_near_tangent_pair_dropped(self):
        # p4 = p1 (1 - 1e-10): the complex pair at |z| = 1 +- 1.4e-5 is no
        # equator root, and only the pair (X*, +-I*) is fixed
        p = StandardParams(1, 0, 0, 1 - 1e-10, 0)
        assert _mp_equator_angles(p.p.tolist()) == [] and qf._planar(p, 1.0)[2].size == 0
        pts = fixed_points(p, 1.0).points
        assert len(pts) == 2 and all(abs(s[2]) > 1e-6 for s in pts)


class TestStability:
    def test_case1_poles(self):
        low = stability(CASE1, 1.0, (0, 0, -1))
        high = stability(CASE1, 1.0, (0, 0, 1))
        assert low.classification == ASYMPTOTICALLY_STABLE
        assert all(ev < 0 for ev in low.tangent_form_eigenvalues)
        assert high.classification == INCONCLUSIVE

    def test_case4_zero_form(self):
        rep = stability(StandardParams(0, 0, 0, 1, 0), 1.0, (1, 0, 0))
        assert rep.classification == INCONCLUSIVE
        assert rep.tangent_form_eigenvalues == pytest.approx((0.0, 0.0), abs=1e-14)

    def test_non_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            stability(CASE1, 1.0, (1, 0, 0))

    @pytest.mark.parametrize("p1", [1e-12, 1e-9, 1.0, 1e6])
    @pytest.mark.parametrize("rho", [1e-3, 1.0, 1e3])
    def test_verdict_independent_of_scale(self, p1, rho):
        # the threshold scales with the Jacobian, rho max|p|: the attracting
        # pole of pure p1 is stable at every scale, as detect_sync says
        params = StandardParams(p1, 0, 0, 0, 0)
        rep = stability(params, rho, (0, 0, -rho))
        assert rep.classification == ASYMPTOTICALLY_STABLE
        assert stability(params, rho, (0, 0, rho)).classification == INCONCLUSIVE
        assert detect_sync(params, rho) is not None


class TestSync:
    def test_case1_detects(self):
        res = detect_sync(CASE1, 1.0)
        assert res is not None
        assert np.allclose(res.point, [0, 0, -1], atol=1e-12)
        g1, g2 = res.gamma
        assert g1 == pytest.approx(1.0)
        assert g2 == pytest.approx(-1j, abs=1e-12)

    def test_case6_detects(self):
        p = StandardParams(1.0, 0, 0, 0.5, 0)
        res = detect_sync(p, 1.0)
        assert res is not None
        assert np.allclose(res.point, [0, 0.5, -math.sqrt(0.75)], atol=1e-12)

    def test_case2_none(self):
        assert detect_sync(StandardParams(0, 1, 0, 0, 0), 1.0) is None

    def test_case4_none(self):
        assert detect_sync(StandardParams(0, 0, 0, 1, 0), 1.0) is None

    def test_lattice_rejects_single_stable_candidate(self):
        # four isolated fixed points and exactly one passes the sufficient
        # test, but g > 0 on an arc of the equator, so the certificate refuses
        p = LATTICE_REJECTED
        fps = fixed_points(p, 1.0)
        assert fps.circles == [] and len(fps.points) == 4
        verdicts = [stability(p, 1.0, s).classification for s in fps.points]
        assert verdicts.count(ASYMPTOTICALLY_STABLE) == 1
        assert detect_sync(p, 1.0) is None

    def test_gamma_of_first_pole(self):
        g1, g2 = gamma_pair((1.0, 0.0, 0.0), 1.0)
        assert g1 == 0.0 and abs(g2) == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize(
        "p,x_star_over_rho,roots",
        [
            (LATTICE_SYNC, "0.639", [1.2437, 1.2927]),
            (LATTICE_REJECTED, "0.77", [1.6941, 2.843]),
            (StandardParams(0.6, 0.8, 1.0, 0, 0), "none", [-2.8198, -1.8925, 0.32175, 1.249]),
            (StandardParams(0, 1, 0, 0, 0), "0", []),
        ],
        ids=["lattice_sync", "rejected", "singular", "p1_band"],
    )
    def test_debug_log_line(self, caplog, p, x_star_over_rho, roots):
        # a refusal reports A, |X*| / rho ("none" when det A = 0) and the
        # sorted equator roots of g
        with caplog.at_level(logging.DEBUG, logger="cubicnls.quadratic_flow"):
            assert detect_sync(p, 1.0) is None
        lines = [r.getMessage() for r in caplog.records if r.name == "cubicnls.quadratic_flow"]
        assert len(lines) == 1
        m = re.fullmatch(
            r"detect_sync certificate trace_A=(\S+) det_A=(\S+) x_star_over_rho=(\S+) "
            r"equator_roots=\[(.*)\] outcome=none",
            lines[0],
        )
        assert m is not None, lines[0]
        assert float(m[1]) == 2.0 * p.p1
        assert float(m[2]) == pytest.approx(p.p1**2 + p.p2**2 - p.p3**2, rel=1e-12, abs=1e-15)
        assert m[3] == x_star_over_rho
        got = [float(v) for v in m[4].split(", ")] if m[4] else []
        assert got == pytest.approx(roots, abs=1e-4)

    def test_certificate_debug_line(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="cubicnls.quadratic_flow"):
            detect_sync(CASE1, 1.0)
        lines = [r.getMessage() for r in caplog.records if r.name == "cubicnls.quadratic_flow"]
        assert lines == [
            "detect_sync candidate=(-0, -0, -1) certificate trace_A=2 det_A=1 x_star_over_rho=0 outcome=sync"
        ]

    @pytest.mark.parametrize("level", [logging.WARNING, logging.DEBUG], ids=["debug_off", "debug_on"])
    def test_huge_p_logs_without_a_warning(self, caplog, level):
        # det A of the unscaled p = 1e200 overflows a float: the debug line
        # reports inf, and no logging level computes it with a warning
        with caplog.at_level(level, logger="cubicnls.quadratic_flow"), warnings.catch_warnings():
            warnings.simplefilter("error")
            res = detect_sync(StandardParams(1e200, 0.3, 0.2, 0.1, 0.4), 1.0)
        assert res is not None
        lines = [r.getMessage() for r in caplog.records if r.name == "cubicnls.quadratic_flow"]
        assert [" det_A=inf " in line for line in lines] == ([True] if level == logging.DEBUG else [])

    def test_certificate_where_the_lattice_missed(self):
        # the 64-start lattice at the horizon 20 / (rho p1) reported no
        # synchronization here: the contraction is slower than that horizon
        # assumes, but ten times longer every start reaches the point
        p, rho = StandardParams(1.073, 0.413, 0.954, 0.442, 0.523), 1.6003
        point = certified_point(p, rho)
        res = detect_sync(p, rho)
        assert np.allclose(res.point, point, rtol=0, atol=1e-12 * rho)
        assert long_lattice_distance(p, rho, point) <= 1e-6 * rho

    def test_periodic_band_is_not_synchronization(self):
        # the lattice's false positive: an orbit from the arc where g > 0
        # keeps its distance from the candidate (X*, -I*) for good
        assert detect_sync(LATTICE_SYNC, 1.0) is None
        assert candidate_distance(LATTICE_SYNC, 1.0) >= 0.1

    def test_refusals_keep_off_the_candidate(self):
        # refused systems whose candidate exists (p1 > 0, det A > 0,
        # |X*| < rho): g > 0 somewhere, and an orbit from there stays away
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 10:
            p, rho = rand_params(rng), rng.uniform(0.3, 2.0)
            p = StandardParams(p.p1 + 0.3, *p.p[1:], *p.q)
            if planar_candidate(p, rho) is None or detect_sync(p, rho) is not None:
                continue
            checked += 1
            assert equator_g(p, 20000)[1].max() > 0.0
            assert candidate_distance(p, rho) >= 0.1 * rho

    def test_certificate_agrees_with_long_lattice(self):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 40:
            p, rho = rand_params(rng), rng.uniform(0.3, 2.0)
            p = StandardParams(p.p1 + 1.0, *p.p[1:], *p.q)
            point = certified_point(p, rho)
            if point is None:
                continue
            checked += 1
            res = detect_sync(p, rho)
            assert np.allclose(res.point, point, rtol=0, atol=1e-12 * rho)
            assert long_lattice_distance(p, rho, point) <= 1e-6 * rho


def planar_candidate(p, rho):
    """(X*, -I*) when p1 > 0, det A > 0 and |X*| < rho, computed without
    _planar, else None."""
    a = np.array([[p.p1, p.p2 - p.p3], [-(p.p2 + p.p3), p.p1]])
    if not (p.p1 > 0.0 and np.linalg.det(a) > 0.0):
        return None
    x = np.linalg.solve(a, -rho * np.array([p.p5, -p.p4]))
    if x @ x >= rho * rho:
        return None
    return np.append(x, -math.sqrt(rho * rho - x @ x))


def equator_g(p, n):
    """n equally spaced equator angles t and g(t) = I' / (2 rho^2) there."""
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return t, -p.p1 + p.p3 * np.sin(2.0 * t) + p.p4 * np.sin(t) - p.p5 * np.cos(t)


def certified_point(p, rho):
    """(X*, -I*) when the planar certificate's conditions hold with a margin,
    checked without _planar (g sampled at 4096 angles), else None."""
    point = planar_candidate(p, rho)
    if point is None or equator_g(p, 4096)[1].max() >= -1e-3 * np.max(np.abs(p.p)):
        return None
    return point


def long_lattice_distance(p, rho, point):
    """Largest distance to point after one scipy DOP853 run (rtol = atol =
    1e-10) of the 64 lattice starts off the two fixed points, stacked into
    one system of 3 N equations, to 200 / (rho p1)."""
    repeller = point * [1.0, 1.0, -1.0]
    starts = np.transpose([
        s for s in fibonacci_sphere(64, rho)
        if min(np.linalg.norm(s - point), np.linalg.norm(s - repeller)) >= 1e-6 * rho
    ])
    sol = solve_ivp(
        lambda t, y: qqq_rhs(p, rho, y.reshape(3, -1)).ravel(), (0.0, 200.0 / (rho * p.p1)),
        starts.ravel(), method="DOP853", rtol=1e-10, atol=1e-10,
    )
    assert sol.success
    ends = sol.y[:, -1].reshape(3, -1)
    return np.max(np.linalg.norm(ends - point[:, None], axis=0))


def candidate_distance(p, rho):
    """Smallest distance to the candidate (X*, -I*) over tau in
    [50, 100] / (rho p1) of a scipy DOP853 run (rtol = atol = 1e-12) from
    I = 1e-3 rho above the equator angle where g is largest."""
    t, g = equator_g(p, 20000)
    top, i0 = t[np.argmax(g)], 1e-3 * rho
    w = math.sqrt(rho * rho - i0 * i0)
    window = np.linspace(50.0, 100.0, 2001) / (rho * p.p1)
    sol = solve_ivp(
        lambda tau, y: qqq_rhs(p, rho, y), (0.0, window[-1]), [w * math.cos(top), w * math.sin(top), i0],
        method="DOP853", rtol=1e-12, atol=1e-12, t_eval=window,
    )
    assert sol.success
    return np.min(np.linalg.norm(sol.y - planar_candidate(p, rho)[:, None], axis=0))


# the fifteen catalogue members of the benchmark's solve-sweep workload
FAMILY_MEMBERS = [
    (1.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, -0.8, 0.0, 0.0, 0.0),
    (0.0, 0.0, 1.1, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.9, 0.0),
    (1.0, 0.7, 0.0, 0.0, 0.0),
    (1.0, 0.0, 0.0, 0.4, 0.0),
    (0.0, 0.4, 1.0, 0.0, 0.0),
    (0.0, 0.8, 0.0, 0.5, 0.0),
    (0.0, 0.0, 1.0, 0.7, 0.0),
    (0.0, 0.0, 1.0, 0.0, 0.4),
    (1.0, 0.0, 3.0, 0.0, 0.0),
    (0.0, 0.7, 0.7, 0.4, 0.0),
    (0.0, -0.7, 0.7, 0.0, 0.4),
    (0.6, 0.8, 1.0, 0.0, 0.0),
    (0.6, 0.8, 1.0, 0.6, 0.2),
]


def scipy_rk45(fun, span, y0, tol):
    sol = solve_ivp(lambda t, y: fun(y), span, y0, method="RK45", rtol=tol, atol=tol, dense_output=True)
    assert sol.success
    return sol


class TestLeanOracle:
    """integrate_quad and integrate_full against scipy's RK45 at the same
    tolerance: the same pair under the same controller, so the two agree up
    to rounding, at the stored nodes and in between."""

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", FAMILY_MEMBERS, ids=[f"family{k}" for k in range(1, 16)])
    def test_quad_matches_scipy_rk45(self, p, rho):
        params = StandardParams(*p)
        s0 = random_sphere_states(rho, 1, 11)[0]
        span = 1.5 / (rho * max(np.abs(p)))
        for t0, t1 in ((0.0, span), (0.0, -span), (0.7, 0.7 + span)):
            tr = integrate_quad(params, rho, s0, (t0, t1), tol=1e-10)
            sol = scipy_rk45(lambda y: qqq_rhs(params, rho, y), (t0, t1), s0, 1e-10)
            assert tr.times[0] == t0 and tr.times[-1] == t1
            assert np.array_equal(tr.states[0], s0)
            # the same first step (the initial-step rule); an error estimate
            # is a difference of nearly equal stage sums, so later steps may
            # part at rounding level amplified
            assert tr.times[1] - t0 == pytest.approx(sol.t[1] - t0, rel=1e-9, abs=0.0)
            taus = np.linspace(t0, t1, 201)
            assert np.max(np.abs(tr.states - sol.sol(tr.times).T)) <= 1e-11 * rho
            assert np.max(np.abs(tr.at(taus) - sol.sol(taus).T)) <= 1e-11 * rho

    def test_full_matches_scipy_rk45(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            p = rand_params(rng)
            a0 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            rho = abs(a0[0]) ** 2 + abs(a0[1]) ** 2
            y0 = [a0[0].real, a0[0].imag, a0[1].real, a0[1].imag]

            def rhs(y):
                da = full_ode_rhs(p, (y[0] + 1j * y[1], y[2] + 1j * y[3]))
                return [da[0].real, da[0].imag, da[1].real, da[1].imag]

            for span in ((0.0, 3.0), (0.0, -2.0), (-0.4, 1.6)):
                tr = integrate_full(p, a0, span, tol=1e-10)
                sol = scipy_rk45(rhs, span, y0, 1e-10)
                taus = np.linspace(*span, 201)
                for got, ref in ((tr.states, sol.sol(tr.times)), (tr.at(taus), sol.sol(taus))):
                    ref = np.stack([ref[0] + 1j * ref[1], ref[2] + 1j * ref[3]], axis=-1)
                    assert np.max(np.abs(got - ref)) <= 1e-11 * rho

    def test_zero_length_span(self):
        s0 = np.array([0.6, 0.0, 0.8])
        tr = integrate_quad(CASE1, 1.0, s0, (0.5, 0.5))
        sol = scipy_rk45(lambda y: qqq_rhs(CASE1, 1.0, y), (0.5, 0.5), s0, 1e-10)
        assert np.array_equal(tr.times, sol.t)
        assert np.array_equal(tr.states, sol.y.T)
        taus = np.array([-1.0, 0.5, 2.0])
        assert np.array_equal(tr.at(taus), np.tile(s0, (3, 1)))
        amp = integrate_full(CASE1, (0.6, 0.8j), (1.0, 1.0))
        assert np.array_equal(amp.at(taus), np.tile([0.6, 0.8j], (3, 1)))

    @pytest.mark.parametrize("span", [(0.0, 2.5), (0.0, -2.5), (1.0, -0.5)])
    def test_stored_nodes_exact(self, span):
        s0 = random_sphere_states(1.3, 1, 13)[0]
        p = StandardParams(0.6, 0.8, 1.0, 0.6, 0.2)
        tr = integrate_quad(p, 1.3, s0, span, tol=1e-9)
        assert np.array_equal(tr.at(tr.times), tr.states)
        assert np.array_equal(tr.at(tr.times[::-1]), tr.states[::-1])
        amp = integrate_full(p, (0.6 + 0.1j, -0.3 + 0.7j), span, tol=1e-9)
        assert np.array_equal(amp.at(amp.times), amp.states)

    @pytest.mark.parametrize("span", [(math.nan, 1.0), (-math.inf, 0.0), (0.0, math.inf)])
    def test_nonfinite_span_raises(self, span):
        with pytest.raises(ValueError, match="finite"):
            integrate_quad(CASE1, 1.0, (1, 0, 0), span)
        with pytest.raises(ValueError, match="finite"):
            integrate_full(CASE1, (0.6, 0.8j), span)

    def test_step_underflow_raises(self, monkeypatch):
        # a right-hand side that turns NaN makes every step fail its error
        # test until the step falls below 10 ulps of its time
        monkeypatch.setattr(qf, "_qqq", lambda *args: (math.nan, math.nan, math.nan))
        with pytest.raises(StiffnessError, match="step size"):
            integrate_quad(CASE1, 1.0, (0.6, 0.0, 0.8), (0.0, 1.0))

    def test_float_rhs_is_qqq_rhs(self):
        # the oracle evaluates qqq_rhs's own formula on floats
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = rand_params(rng)
            rho = rng.uniform(0.3, 2.0)
            s = random_sphere_states(rho, 1, rng.integers(2**31))[0]
            floats = qf._qqq(p.p1, p.p2, p.p3, p.p4, p.p5, rho, *s.tolist())
            assert all(type(v) is float for v in floats)
            assert np.array_equal(floats, qqq_rhs(p, rho, s))

    @pytest.mark.parametrize("flow", ["quad", "full"])
    def test_debug_log_line(self, caplog, flow):
        with caplog.at_level(logging.DEBUG, logger="cubicnls.quadratic_flow"):
            if flow == "quad":
                tr = integrate_quad(CASE1, 1.0, (0.6, 0.0, 0.8), (0.0, -2.0), tol=1e-9)
            else:
                tr = integrate_full(CASE1, (0.6, 0.8j), (0.0, -2.0), tol=1e-9)
        lines = [r.getMessage() for r in caplog.records if r.name == "cubicnls.quadratic_flow"]
        assert len(lines) == 1
        assert lines[0].startswith(f"oracle flow={flow} span=(0, -2) tol=1e-09 ")
        fields = dict(kv.split("=") for kv in lines[0].split()[-3:])
        assert int(fields["accepted"]) == len(tr.times) - 1
        # two evaluations choose the first step, six more go into each trial step
        trials = int(fields["accepted"]) + int(fields["rejected"])
        assert int(fields["rhs_evals"]) == 2 + 6 * trials


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestReferenceStepper:
    """The oracles against the reference stepper of tests/helpers.py: the
    quadratic flow's written-out trial step and the full flow's generic one
    give the same nodes, states, stages, rejected steps, right-hand-side
    evaluations and dense output, bit for bit."""

    @staticmethod
    def _runs(monkeypatch):
        # every _dp5_path call an oracle makes, with its f, ends, state, tol
        # and result
        runs, real = [], qf._dp5_path

        def spy(f, trial, t0, t1, y, tol):
            out = real(f, trial, t0, t1, y, tol)
            runs.append(((f, t0, t1, list(y), tol), out))
            return out

        monkeypatch.setattr(qf, "_dp5_path", spy)
        return runs

    @staticmethod
    def _assert_same(run, tr) -> int:
        """Rejected steps of the reference run, after checking bit equality."""
        (f, t0, t1, y, tol), (times, states, stages, rejected, nfev) = run
        ref_times, ref_states, ref_stages, ref_rejected, ref_nfev = reference_dp5_path(f, t0, t1, y, tol)
        assert _bits(times) == _bits(ref_times)
        assert _bits(states) == _bits(ref_states)
        assert _bits(stages) == _bits(ref_stages)
        assert (rejected, nfev) == (ref_rejected, ref_nfev)
        nodes = np.array(ref_states)
        if tr.kind == "amplitude":
            nodes = nodes[:, 0::2] + 1j * nodes[:, 1::2]
        dense = qf._DenseDP5(np.array(ref_times), np.array(ref_states), ref_stages)
        ref = Trajectory(ref_times, nodes, tr.kind, dense)
        taus = np.linspace(min(t0, t1) - 0.25, max(t0, t1) + 0.25, 41)
        assert tr.at(taus).tobytes() == ref.at(taus).tobytes()
        return ref_rejected

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-4])
    def test_quad(self, monkeypatch, tol):
        runs = self._runs(monkeypatch)
        rng = np.random.default_rng(23)
        members = [StandardParams(*p) for p in CATALOGUE] + [rand_params(rng) for _ in range(8)]
        for k, params in enumerate(members):
            rho = (0.5, 1.0, 2.0)[k % 3]
            s0 = random_sphere_states(rho, 1, 100 + k)[0]
            span = 1.5 / (rho * max(np.abs(params.p)))
            for ends in ((0.0, span), (0.0, -span), (0.7, 0.7 - 2.0 * span), (0.3, 0.3)):
                tr = integrate_quad(params, rho, s0, ends, tol=tol)
                self._assert_same(runs[-1], tr)
        assert len(runs) == 4 * len(members)

    def test_quad_rejected_steps(self, monkeypatch):
        # a loose tolerance over a long span: the controller rejects steps
        runs = self._runs(monkeypatch)
        params = StandardParams(0.6, 0.8, 1.0, 0.6, 0.2)
        tr = integrate_quad(params, 2.0, random_sphere_states(2.0, 1, 5)[0], (-1.0, 12.0), tol=1e-4)
        assert self._assert_same(runs[-1], tr) > 0

    def test_full(self, monkeypatch):
        runs = self._runs(monkeypatch)
        rng = np.random.default_rng(24)
        cases = [(1e-13, (0.0, 1.0)), (1e-10, (0.5, -1.5)), (1e-4, (-0.2, 3.0)), (1e-10, (1.0, 1.0))]
        for tol, ends in cases:
            a0 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            tr = integrate_full(rand_params(rng), a0, ends, tol=tol)
            self._assert_same(runs[-1], tr)


# ---------------------------------------------------------------------------
# input contract of the entry points taking a radius

BAD_RHO = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
)
VALIDATED_PARAMS = [
    CASE1,
    StandardParams(0, 0, 1.1, 0, 0),
    StandardParams(0.3, 0.5, 0.7, 0.2, 0.1),  # outside the catalogue
]


@st.composite
def bad_radius_or_state(draw):
    """(rho, s): a bad radius, or a good one with a non-finite or off-sphere state."""
    v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)))
    v /= np.linalg.norm(v)
    if draw(st.booleans()):
        return draw(BAD_RHO), v
    rho = draw(st.floats(0.1, 10.0))
    s = rho * v
    if draw(st.booleans()):
        s[draw(st.integers(0, 2))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:
        s *= 1.0 + draw(st.one_of(st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6)))
    return rho, s


class TestInputContract:
    @settings(max_examples=80, deadline=None)
    @given(params=st.sampled_from(VALIDATED_PARAMS), bad=bad_radius_or_state())
    def test_solvers_reject(self, params, bad):
        rho, s = bad
        with pytest.raises(ValueError) as exc:
            solve_case(params, rho, s)
        assert not isinstance(exc.value, UnsupportedCaseError)
        with pytest.raises(ValueError):
            integrate_quad(params, rho, s, (0.0, 1.0))
        with pytest.raises(ValueError):
            stability(params, rho, s)

    @settings(max_examples=40, deadline=None)
    @given(params=st.sampled_from(VALIDATED_PARAMS), rho=BAD_RHO)
    def test_fixed_points_and_sync_reject(self, params, rho):
        with pytest.raises(ValueError):
            fixed_points(params, rho)
        with pytest.raises(ValueError):
            detect_sync(params, rho)

"""Space-time profiles: identity at t = 1, mass, specialized formulas, decay."""

import cmath
import dataclasses
import gc
import logging
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import cubicnls.profile as profile
from cubicnls.closed_form import classify, solve_case
from cubicnls.elliptic import EllipticDomainError
from cubicnls.profile import (
    ExtrapolationError,
    FinalData,
    case1_profile,
    case3_profile,
    sync_decay,
    uapp,
)
from cubicnls.quadratic_flow import _Decline, _SigmaOrbit, amplitudes_to_quad, detect_sync, full_ode_rhs
from cubicnls.reconstruction import _INCONSISTENT, _PHASE_TOL, _phases
from cubicnls.standard_form import nonlinearity

import helpers
from helpers import assert_same_phases, near_touch, reference_phases, reference_results, reference_uapp, std

# outside the catalogue every point is a sigma orbit or a typed error, never an RK45 run
pytestmark = pytest.mark.usefixtures("no_full_oracle")

XI = np.linspace(-2.0, 2.0, 41)


def make_fd(kind="generic"):
    env = 1.0 / (1.0 + XI**2)
    if kind == "generic":
        a1 = env * (0.9 + 0.2 * np.cos(XI)) * np.exp(1j * 0.3 * XI)
        a2 = env * (0.5 + 0.1 * np.sin(2 * XI)) * np.exp(-1j * 0.2 * XI + 0.4j)
    elif kind == "elliptic":
        # |D0| dominant so the explicit elliptic profile ordering holds
        a1 = (env * (1.0 + 0.1 * np.cos(XI))).astype(complex)
        a2 = env * (0.25 + 0.05 * np.sin(XI)) * np.exp(0.35j)
    elif kind == "strong":
        # order-one mass so the synchronization collapse is fast
        env_s = 1.3 / (1.0 + 0.3 * XI**2)
        a1 = env_s * np.exp(1j * 0.1 * XI)
        a2 = env_s * 0.45 * np.exp(-0.25j)
    return FinalData(XI, a1, a2)


class TestFinalData:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            FinalData([0.0, 0.0, 1.0], np.zeros(3, complex), np.zeros(3, complex))

    def test_extrapolation_rejected(self):
        fd = make_fd()
        with pytest.raises(ExtrapolationError):
            fd.interp(5.0)

    def test_nan_rejected(self):
        with pytest.raises(ExtrapolationError):
            make_fd().interp(math.nan)

    def test_array_xi_as_each_point(self):
        # a 1-D xi, nodes and the grid's ends included, gives each element the
        # bits of its own call; the first xi outside the grid names the error
        fd, xi = make_fd(), np.array([-2.0, -1.3, 0.0, -0.0, 0.37, 1.95, 2.0])
        a1, a2 = fd.interp(xi)
        want = np.array([fd.interp(float(v)) for v in xi])
        assert np.array_equal(np.stack([a1, a2], axis=1).view(np.uint64), want.view(np.uint64))
        assert [len(a) for a in fd.interp(xi[:0])] == [0, 0]
        with pytest.raises(ExtrapolationError, match=r"xi = 2\.5 outside"):
            fd.interp(np.array([0.0, 2.5, math.nan, -3.0]))
        with pytest.raises(ExtrapolationError, match=r"xi = nan outside"):
            fd.interp(np.array([0.0, math.nan, 2.5]))

    def test_nonfinite_grid_rejected(self):
        # NaN compares False, so a grid test written as "no step <= 0" passes it
        with pytest.raises(ValueError):
            FinalData([0.0, math.nan, 1.0], np.ones(3, complex), np.ones(3, complex))
        with pytest.raises(ValueError):
            FinalData([0.0, 0.5, math.inf], np.ones(3, complex), np.ones(3, complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("which", [1, 2])
    def test_nonfinite_alpha_rejected(self, bad, which):
        alphas = [np.ones(3, complex), np.ones(3, complex)]
        alphas[which - 1][1] = bad
        with pytest.raises(ValueError, match="finite"):
            FinalData([0.0, 0.5, 1.0], *alphas)

    @pytest.mark.parametrize("shapes", [(2, 3), (3, 4), ((3, 1), 3)])
    def test_alpha_shape_rejected(self, shapes):
        with pytest.raises(ValueError, match="alpha arrays must match the grid"):
            FinalData([0.0, 0.5, 1.0], *(np.ones(n, complex) for n in shapes))

    def test_decay_envelope(self):
        fd = make_fd()
        c = fd.decay_constant()
        mag = np.abs(fd.alpha1) + np.abs(fd.alpha2)
        assert np.all(mag <= c / (1.0 + XI**2) + 1e-15)


class TestUapp:
    def test_t_one_identity(self):
        fd = make_fd()
        p = std(p1=1.0, q=(0.2, -0.1, 0.3))
        for x in (-1.7, 0.0, 0.9):
            u1, u2 = uapp(p, fd, 1.0, x)
            a1, a2 = fd.interp(x / 2.0)
            pref = cmath.exp(1j * x * x / 4.0) / cmath.sqrt(2j)
            assert abs(u1 - pref * a1) < 1e-14
            assert abs(u2 - pref * a2) < 1e-14

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            uapp(std(p1=1.0), make_fd(), 0.0, 0.1)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_nonfinite_t_rejected(self, t):
        with pytest.raises(ValueError, match="finite t"):
            uapp(std(p1=1.0), make_fd(), t, 0.1)

    def test_pointwise_mass(self):
        fd = make_fd()
        p = std(p1=1.0, p2=0.3, q=(0.1, 0.2, 0.3))
        for t in (3.0, -6.0, 40.0):
            xi = 0.62
            u1, u2 = uapp(p, fd, t, 2 * t * xi)
            rho, _ = amplitudes_to_quad(*fd.interp(xi))
            assert abs(abs(u1) ** 2 + abs(u2) ** 2 - rho / (2 * abs(t))) < 1e-12

    def test_profile_mass_time_independent(self):
        fd = make_fd()
        p = std(p1=1.0)
        ref = np.trapezoid(
            [sum(abs(a) ** 2 for a in fd.interp(x)) for x in XI], XI
        )
        for t in (2.0, 8.0, 30.0):
            xs = 2 * t * XI
            dens = []
            for x in xs:
                u1, u2 = uapp(p, fd, t, x)
                dens.append(abs(u1) ** 2 + abs(u2) ** 2)
            total = np.trapezoid(dens, xs)
            assert abs(total - ref) < 0.01 * ref

    @staticmethod
    def _full_flow_deviation(p, s0):
        """Largest deviation in (D, R, I) of uapp at t = 10 and 1e4 from the
        full amplitude flow (DOP853), final data s0 (rho = 1) at xi = 0."""
        lead = math.sqrt((1.0 + s0[0]) / 2.0)
        a0 = (complex(lead), complex(s0[1], s0[2]) / (2.0 * lead))
        fd = FinalData(np.array([-1.0, 1.0]), np.array([a0[0]] * 2), np.array([a0[1]] * 2))
        worst = 0.0
        for t in (10.0, 1e4):
            u = np.array(uapp(p, fd, t, 0.0)) * math.sqrt(2.0 * t)
            tau = 0.5 * math.log(t)
            ref = solve_ivp(lambda _, a: full_ode_rhs(p, a), (0.0, tau), np.array(a0), method="DOP853",
                            rtol=1e-13, atol=1e-13).y[:, -1]
            worst = max(worst, np.max(np.abs(amplitudes_to_quad(*u)[1] - amplitudes_to_quad(*ref)[1])))
        return worst

    def test_one_third_next_to_the_anti_diagonal(self):
        # final data 1e-5 rho from the invariant plane D = -R of p1/p3 = 1/3:
        # the profile follows the full amplitude flow there
        d_plus_r, i0 = 1e-5, 0.5
        far = math.sqrt(2.0 * (1.0 - i0 * i0) - d_plus_r**2)
        s0 = (0.5 * (d_plus_r + far), 0.5 * (d_plus_r - far), i0)
        assert self._full_flow_deviation(std(p1=1.0, p3=3.0), s0) <= 1e-9

    @pytest.mark.parametrize("off", [1e-10, -1e-10])
    def test_lemma3_next_to_k_zero(self, off):
        # family 9 with final data 1e-10 relative off lemma 3's K = 0 plane,
        # R^2 = (D + p4 rho / p3)^2 (1 + off): the profile follows the full
        # amplitude flow there (the K band of earlier versions was 5.1e-8 off)
        d = 0.1
        r = (d + 0.5) * math.sqrt(1.0 + off)
        s0 = (d, r, math.sqrt(1.0 - d * d - r * r))
        assert self._full_flow_deviation(std(p3=1.0, p4=0.5), s0) <= 1e-9

    def test_uncatalogued_falls_back_to_oracle(self):
        # no closed form: the sigma-reduction of the flow, held to DOP853
        fd = make_fd()
        for p in (std(p5=1.0), std(p1=0.3, p2=0.5, p3=0.7, p4=0.2, p5=0.1, q=(0.1, -0.2, 0.3))):
            for t, x in ((3.0, 1.2), (1e-3, 1e-3), (1e8, -1e8)):
                a1, a2 = fd.interp(x / (2 * t))

                def rhs(_, y):
                    f1, f2 = nonlinearity(p, complex(y[0], y[1]), complex(y[2], y[3]))
                    return [f1.imag, -f1.real, f2.imag, -f2.real]

                tau = 0.5 * math.copysign(1.0, t) * math.log(abs(t))
                y = solve_ivp(rhs, (0.0, tau), [a1.real, a1.imag, a2.real, a2.imag], method="DOP853",
                              rtol=1e-13, atol=1e-13).y[:, -1]
                pref = cmath.exp(1j * x * x / (4 * t)) / cmath.sqrt(2j * t)
                want = pref * np.array([complex(y[0], y[1]), complex(y[2], y[3])])
                got = np.array(uapp(p, fd, t, x))
                assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))

    def test_case4_log_phase(self):
        # decoupled family: the first component picks up the standard
        # logarithmic phase correction relative to the free profile
        p4v = 0.7
        fd = make_fd()
        p = std(p4=p4v)
        for t in (3.0, 11.0):
            for xi in (-0.8, 0.4):
                a1, a2 = fd.interp(xi)
                u1, _ = uapp(p, fd, t, 2 * t * xi)
                pref = cmath.exp(1j * (2 * t * xi) ** 2 / (4 * t)) / cmath.sqrt(2j * t)
                expect = pref * a1 * cmath.exp(-2j * p4v * abs(a1) ** 2 * 0.5 * math.log(t))
                assert abs(u1 - expect) < 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [10.0, 30.0, 1e40])
    def test_collapse_of_large_data_warns_nothing(self, m):
        # pure p1 with rho from 126 up: cosh in the collapse overflows to inf
        # far from the pole, where sech is 0, silently
        a1 = np.full(len(GRID_XI), m * (1.0 + 0.1j))
        fd = FinalData(GRID_XI, a1, a1 / 2.0)
        assert all(np.isfinite(uapp(GRID_FAMILIES["p1"], fd, 1e4, 0.0)))


class TestSpecializedProfiles:
    def test_case1_agrees_with_pipeline(self):
        fd = make_fd()
        q = (0.2, -0.1, 0.3)
        p = std(p1=1.0, q=q)
        worst = 0.0
        for t in (2.0, 7.0, 50.0):
            for xi in (-1.5, -0.4, 0.3, 1.2):
                x = 2 * t * xi
                ug = uapp(p, fd, t, x)
                us = case1_profile(1.0, q, fd, t, x)
                scale = max(abs(ug[0]), abs(ug[1]))
                worst = max(worst, max(abs(ug[0] - us[0]), abs(ug[1] - us[1])) / scale)
        assert worst < 1e-6

    def test_case1_degenerate_rejected(self):
        # data with I0 = rho (second component = i * first)
        fd = FinalData(
            XI, np.full(XI.shape, 0.5, dtype=complex), np.full(XI.shape, 0.5j, dtype=complex)
        )
        with pytest.raises(ValueError, match="degenerate"):
            case1_profile(1.0, (0, 0, 0), fd, 2.0, 0.4)

    @pytest.mark.parametrize("profile,coupling", [(case1_profile, 1.0), (case3_profile, 1.3)])
    def test_zero_alpha1_rejected(self, profile, coupling):
        fd = FinalData(XI, np.zeros(XI.shape, complex), np.full(XI.shape, 0.5, complex))
        with pytest.raises(ValueError, match=r"alpha1\(xi\) != 0"):
            profile(coupling, (0, 0, 0), fd, 2.0, 0.4)

    def test_case3_zero_d0_rejected(self):
        # |alpha1| = |alpha2|: D0 = 0
        fd = FinalData(XI, np.full(XI.shape, 0.5, complex), np.full(XI.shape, 0.5j, complex))
        with pytest.raises(ValueError, match="D0 != 0"):
            case3_profile(1.3, (0, 0, 0), fd, 2.0, 0.4)

    def test_case1_requires_t_above_one(self):
        with pytest.raises(ValueError):
            case1_profile(1.0, (0, 0, 0), make_fd(), 0.5, 0.1)

    @pytest.mark.parametrize("profile,coupling", [(case1_profile, 1.0), (case3_profile, 1.3)])
    @pytest.mark.parametrize(
        "bad", [{"coupling": math.nan}, {"coupling": math.inf}, {"t": math.nan}, {"t": math.inf},
                {"x": math.nan}],
    )
    def test_nonfinite_input_rejected(self, profile, coupling, bad):
        args = {"coupling": coupling, "t": 2.0, "x": 0.4} | bad
        with pytest.raises(ValueError):
            profile(args["coupling"], (0, 0, 0), make_fd("elliptic"), args["t"], args["x"])

    @pytest.mark.parametrize("profile,coupling", [(case1_profile, 1.0), (case3_profile, 1.3)])
    @pytest.mark.parametrize("q", [(math.nan, 0, 0), (0, math.inf, 0), (0, 0, -math.inf)])
    def test_nonfinite_q_rejected(self, profile, coupling, q):
        with pytest.raises(ValueError, match="q must be finite"):
            profile(coupling, q, make_fd("elliptic"), 2.0, 0.4)

    def test_case1_synchronized_combination_decays(self):
        fd = make_fd()
        p1v = 1.0
        worst_prev = None
        for t in (5.0, 50.0, 500.0):
            xi = 0.45
            u1, u2 = case1_profile(p1v, (0, 0, 0), fd, t, 2 * t * xi)
            val = math.sqrt(t) * abs(u1 - 1j * u2)
            if worst_prev is not None:
                assert val < worst_prev
            worst_prev = val
        assert worst_prev < 1e-2

    def test_case3_agrees_with_pipeline(self):
        fd = make_fd("elliptic")
        q = (0.15, 0.25, -0.1)
        p3v = 1.3
        p = std(p3=p3v, q=q)
        worst = 0.0
        for t in (2.0, 7.0, 50.0):
            for xi in (-1.2, -0.3, 0.5, 1.4):
                x = 2 * t * xi
                ug = uapp(p, fd, t, x)
                us = case3_profile(p3v, q, fd, t, x)
                scale = max(abs(ug[0]), abs(ug[1]))
                worst = max(worst, max(abs(ug[0] - us[0]), abs(ug[1] - us[1])) / scale)
        assert worst < 1e-5

    def test_case3_modulus_and_t0(self):
        from cubicnls import elliptic as el

        fd = make_fd("elliptic")
        a1, a2 = fd.interp(0.5)
        rho, (d0, r0, i0) = amplitudes_to_quad(a1, a2)
        om1 = math.copysign(math.sqrt((i0**2 + 2 * d0**2) / (2 * rho**2)), d0)
        om2 = math.sqrt((i0**2 + 2 * r0**2) / (2 * rho**2))
        m = (om2 / om1) ** 2
        assert m == (om2**2) / (om1**2)
        # the time shift reproduces the stated normalized pair
        norm = math.sqrt(i0**2 + 2 * r0**2)
        t0 = el.invert_sn_cn(i0 / norm, math.sqrt(2.0) * r0 / norm, m)
        j = el.jacobi(t0, m)
        assert j.sn == pytest.approx(i0 / norm, abs=1e-10)
        assert j.cn == pytest.approx(math.sqrt(2.0) * r0 / norm, abs=1e-10)

    def test_case3_ordering_violation_rejected(self):
        # |R0| dominant violates the omega ordering
        a1 = np.full_like(XI, 0.6, dtype=complex)
        fd = FinalData(XI, a1, a1 * 0.95)
        with pytest.raises(ValueError, match="ordering"):
            case3_profile(1.0, (0, 0, 0), fd, 2.0, 0.4)


class TestSyncDecay:
    def test_gamma_zero(self):
        fd = make_fd()
        assert sync_decay(std(p1=1.0), fd, (0j, 0j), 5.0, (-1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("t", [1.0, 0.5, -3.0])
    def test_t_at_most_one_rejected(self, t):
        with pytest.raises(ValueError, match="defined for t > 1"):
            sync_decay(std(p1=1.0), make_fd(), (1, -1j), t, (-1.0, 1.0))

    def test_empty_region(self):
        fd = make_fd()
        with pytest.raises(ValueError, match="region"):
            sync_decay(std(p1=1.0), fd, (1, -1j), 5.0, (10.0, 11.0))

    def test_case1_decays(self):
        fd = make_fd("strong")
        p = std(p1=1.0)
        sync = detect_sync(p, 1.0)
        early = sync_decay(p, fd, sync.gamma, math.e**2, (-1.0, 1.0))
        late = sync_decay(p, fd, sync.gamma, math.e**8, (-1.0, 1.0))
        assert late < early
        assert late < 2e-2

    def test_case4_does_not_decay(self):
        fd = make_fd("strong")
        p = std(p4=1.0)
        gamma = (1.0 + 0j, -1j)
        early = sync_decay(p, fd, gamma, math.e, (-1.0, 1.0))
        late = sync_decay(p, fd, gamma, math.e**8, (-1.0, 1.0))
        assert late > 0.1 * early


# ---------------------------------------------------------------------------
# the x-grid in one call


GRID_FAMILIES = {
    "p1": std(p1=1.0, q=(0.2, -0.1, 0.15)),
    "p3": std(p3=1.1, q=(0.2, -0.1, 0.15)),
    "p1/p3=1/3": std(p1=1.0, p3=3.0, q=(0.2, -0.1, 0.15)),
    "case15": std(p1=0.6, p2=0.8, p3=1.0, p4=0.6, p5=0.2, q=(0.3, -0.2, 0.1)),
}
GRID_XI = np.linspace(-1.6, 1.6, 9)


def grid_fd(dominant=1, xi=GRID_XI):
    """Final data on xi whose component ``dominant`` is the larger, or, for
    "alternating", whose second component is alternately 0.2 and 0.9 times
    the first (pure p3 splits it into formula groups of 5 and 4 points)."""
    env = np.exp(-xi * xi / 4.0)
    big = env * (0.8 + 0.1j) * np.exp(0.3j * xi)
    if dominant == "alternating":
        return FinalData(xi, big, big * np.where(np.arange(len(xi)) % 2, 0.9, 0.2))
    small = env * (0.25 - 0.1j) * np.exp(-0.2j * xi)
    return FinalData(xi, big, small) if dominant == 1 else FinalData(xi, small, big)


def bits(values):
    """The bit patterns of complex values."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def grid_and_points(params, fd, t, xs):
    """uapp on the grid xs, and one uapp call per point of it."""
    got = uapp(params, fd, t, xs)
    want = [uapp(params, fd, t, x) for x in xs]
    assert all(g.dtype == complex and g.shape == (len(xs),) for g in got)
    return bits(np.stack(got)), bits(np.array(want).T)


# uncatalogued, with a saddle and a centre in its planar flow: periodic_fd's
# orbits are periodic, most of them over whole periods at t = 1e4 and 1e8
PERIODIC = std(p1=0.3, p2=0.5, p3=0.7, p4=0.2, p5=0.1, q=(0.1, -0.2, 0.3))


def periodic_fd(xi=GRID_XI):
    """Final data on xi about (1.5 + 0.4i, 0.9 - 1.0i), an orbit of PERIODIC
    whose time period is a few units of tau."""
    return FinalData(xi, (1.5 + 0.4j) * (1.0 + 0.1 * xi), (0.9 - 1.0j) * np.exp(0.3j * xi) * (1.0 - 0.05 * xi))


def declining_grid(k):
    """Uncatalogued parameters, and grid_fd() with point k on an ellipse of
    X' = A X + b that comes within I = 1e-6 rho of the equator, where the
    rounding of F keeps the time rule of the sigma-reduction short of its
    target at its piece cap; and that state."""
    params, s0 = near_touch(1e-6)
    a1, a2 = grid_fd().alpha1.copy(), grid_fd().alpha2.copy()
    a1[k] = math.sqrt((1.0 + s0[0]) / 2.0)
    a2[k] = complex(s0[1], s0[2]) / (2.0 * a1[k])
    return params, s0, FinalData(GRID_XI, a1, a2)


def declined_in_turn(params, fd, t, xs):
    """The decline that uapp on the grid xs raises, and the index and the
    decline of the first of the one-point calls that raises."""
    with pytest.raises(_Decline) as grid:
        uapp(params, fd, t, xs)
    for k, x in enumerate(xs):
        try:
            uapp(params, fd, t, x)
        except _Decline as exc:
            return grid.value, k, exc
    raise AssertionError("no one-point call declined")


class TestGrid:
    @pytest.mark.parametrize("name", GRID_FAMILIES)
    @pytest.mark.parametrize("dominant", [1, 2, "alternating"])
    @pytest.mark.parametrize("t", [10.0, 1e4, 1e8])
    def test_grid_matches_points(self, name, dominant, t):
        got, want = grid_and_points(GRID_FAMILIES[name], grid_fd(dominant), t, 2.0 * t * GRID_XI)
        assert np.array_equal(got, want)

    def test_decline_at_construction(self):
        # the declined point raises its typed error in its turn, as its
        # one-point call does; the points before it match theirs
        params, s0, fd = declining_grid(4)
        with pytest.raises(_Decline):
            _SigmaOrbit(params, 1.0, s0, 0.5 * math.log(10.0))
        got, want = grid_and_points(params, fd, 10.0, 20.0 * GRID_XI[:4])
        assert np.array_equal(got, want)
        grid, k, point = declined_in_turn(params, fd, 10.0, 20.0 * GRID_XI)
        assert isinstance(grid, ValueError) and k == 4 and str(grid) == str(point)

    def test_decline_in_the_phase_integral(self, monkeypatch):
        # a source that declines for one point's orbit inside the level loop:
        # only once the orbit is built, whose construction evaluates its
        # states too, so the decline reaches the pair built after the loop,
        # which raises it in the point's turn
        params, fd = std(p1=0.3, p2=0.5, p3=0.7, p4=0.2, p5=0.1, q=(0.1, -0.2, 0.3)), grid_fd()
        target = amplitudes_to_quad(*fd.interp(GRID_XI[6]))[0]
        real_init, real_states, declined = _SigmaOrbit.__init__, _SigmaOrbit.states, []

        def init(orbit, *args):
            real_init(orbit, *args)
            orbit.built = True

        def states(orbit, phi):
            if getattr(orbit, "built", False) and orbit.rho == target:
                declined.append(phi)
                raise _Decline("declined for the test")
            return real_states(orbit, phi)

        monkeypatch.setattr(_SigmaOrbit, "__init__", init)
        monkeypatch.setattr(_SigmaOrbit, "states", states)
        got, want = grid_and_points(params, fd, 1e4, 2e4 * GRID_XI[:6])
        assert np.array_equal(got, want)
        grid, k, point = declined_in_turn(params, fd, 1e4, 2e4 * GRID_XI)
        assert k == 6 and str(grid) == str(point) == "declined for the test"
        assert len(declined) == 2  # in the grid's phase integral, then in the point's

    @pytest.mark.parametrize("name", ["p1", "case15"])
    def test_extrapolation_error(self, name):
        # two points outside the data: the grid raises the first one's error
        t, xs = 10.0, 20.0 * np.array([-1.0, 0.5, 2.5, 0.0, -3.0])
        fd = grid_fd(xi=np.linspace(-2.0, 2.0, 9))
        with pytest.raises(ExtrapolationError) as grid:
            uapp(GRID_FAMILIES[name], fd, t, xs)
        with pytest.raises(ExtrapolationError) as points:
            [uapp(GRID_FAMILIES[name], fd, t, x) for x in xs]
        assert str(grid.value) == str(points.value) and "xi = 2.5 " in str(grid.value)

    def test_failing_point_of_a_group(self, monkeypatch):
        # the pure-p3 points of a grid share one lemma-1 formula and one source
        # call a level; two of them get an m1 off 1 - m, so that call raises
        # and is retried point by point: each bad point keeps its own error,
        # the grid raises the first one's, and the other points' integrals
        # are those of an intact grid, bit for bit
        params, fd, t = GRID_FAMILIES["p3"], grid_fd(), 1e4
        bad = {3: -0.25, 6: -0.5}
        sols = [solve_case(params, *amplitudes_to_quad(*fd.interp(v))) for v in GRID_XI]
        assert len({sol._key for sol in sols}) == 1

        def broken(sol, m1):
            (fn, static, consts), *rest = sol._formula
            return dataclasses.replace(sol, _formula=((fn, static, (*consts[:3], m1, *consts[4:])), *rest))

        jobs = [(sol.rho, sol, 0.5 * math.log(t), sol.initial, _PHASE_TOL) for sol in sols]
        intact = _phases(params, jobs)
        got = _phases(params, [(rho, broken(sol, bad[k]) if k in bad else sol, span, s0, tol)
                               for k, (rho, sol, span, s0, tol) in enumerate(jobs)])
        for k, (res, ref) in enumerate(zip(got, intact)):
            if k in bad:
                assert isinstance(res, EllipticDomainError) and f"m1={bad[k]}" in str(res)
            else:
                assert res[0] == ref[0] and np.array_equal(res[2], ref[2]) and res[3:] == ref[3:]
        real = profile._solve_states

        def solve_states(*args):
            return [broken(sol, bad[k]) if k in bad else sol for k, sol in enumerate(real(*args))]

        monkeypatch.setattr(profile, "_solve_states", solve_states)
        with pytest.raises(EllipticDomainError, match=r"m1=-0\.25 "):
            uapp(params, fd, t, 2.0 * t * GRID_XI)

    def test_outside_point_raises_in_its_turn(self, caplog):
        # the 4th x lies outside the data: the grid solves and reconstructs
        # points 1-3 with the lines of three one-point calls, then raises the
        # 4th point's error; the 5th, outside too, is never reached
        params, fd, t = GRID_FAMILIES["p3"], grid_fd(xi=np.linspace(-2.0, 2.0, 9)), 10.0
        xs = 20.0 * np.array([-1.0, 0.5, 1.5, 2.5, -3.0, 0.0])

        def lines(kind):
            return [r.getMessage() for r in caplog.records if r.getMessage().startswith(kind)]

        with caplog.at_level(logging.DEBUG, logger="cubicnls"):
            with pytest.raises(ExtrapolationError, match=r"xi = 2\.5 outside"):
                uapp(params, fd, t, xs)
            grid = [r.getMessage() for r in caplog.records]
            caplog.clear()
            for x in xs[:3]:
                uapp(params, fd, t, x)
        assert [g for g in grid if g.startswith("solve_case")] == lines("solve_case") and len(lines("solve_case")) == 3
        assert [g for g in grid if g.startswith("reconstruct")] == lines("reconstruct") and len(lines("reconstruct")) == 3
        assert grid[-1].startswith("reconstruct")  # raised after the points before it

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [GRID_FAMILIES["p1"], std(p1=0.8, p2=0.4, p3=0.9, p4=0.3, p5=0.35)],
                             ids=["catalogued", "uncatalogued"])
    @pytest.mark.parametrize("big, error", [(1e150, "too large"), (1e-170, "rho must be"),
                                            (1e155, "out of range")])
    def test_bad_point_in_its_turn(self, caplog, params, big, error):
        # a point whose radius overflows or underflows raises the ValueError
        # of its own call, with no warning, after the points before it and
        # before those after it, whether or not the parameters are
        # catalogued: each of the 5 points before it logs its reconstruct
        # line, and outside the catalogue its sigma line too
        a1, a2 = grid_fd().alpha1.copy(), grid_fd().alpha2.copy()
        a1[5], a2[5] = big, 0.0
        fd, xs, t = FinalData(GRID_XI, a1, a2), 2e4 * GRID_XI, 1e4
        with caplog.at_level(logging.DEBUG, logger="cubicnls"):
            with pytest.raises(ValueError, match=error) as grid:
                uapp(params, fd, t, xs)
            lines = [r.getMessage() for r in caplog.records]
        with pytest.raises(type(grid.value)) as points:
            [uapp(params, fd, t, x) for x in xs]
        assert str(grid.value) == str(points.value)
        assert sum(g.startswith("reconstruct tau=") for g in lines) == 5
        assert sum(g.startswith("sigma kind=") for g in lines) == (0 if classify(params).case else 5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [GRID_FAMILIES["p1"], std(p1=0.8, p2=0.4, p3=0.9, p4=0.3, p5=0.35)],
                             ids=["catalogued", "uncatalogued"])
    @pytest.mark.parametrize("big, error", [
        # rho = 1.26e300: on its sphere, which the check now finds, and past
        # 2^511, where the flow's squares overflow
        (1e150, r"rho = 1.26\d*e\+300 is too large"),
        (1e-170, r"too small: rho must be positive, but \|a1\|\^2 \+ \|a2\|\^2 underflows to 0"),
        (1e155, r"out of range: \|a1\|\^2 \+ \|a2\|\^2 overflows"),
    ], ids=["1e+150", "1e-170", "1e+155"])
    def test_radius_out_of_range(self, params, big, error):
        # final data with alpha2 = alpha1 / 2 whose radius overflows or
        # underflows: a typed ValueError naming what went wrong, and no
        # warning on the way, for a point and for the grid around it
        a1 = np.full(len(GRID_XI), big * (1.0 + 0.1j))
        fd = FinalData(GRID_XI, a1, 0.5 * a1)
        for x in (0.0, 2e4 * GRID_XI):
            with pytest.raises(ValueError, match=error):
                uapp(params, fd, 1e4, x)

    @pytest.mark.parametrize("t", [1e4, -1e8])
    def test_periodic_sigma_grid(self, caplog, t):
        # outside the catalogue, orbits that fold whole periods (periods != 0,
        # of either sign) next to ones that do not: the grid's values, and its
        # sigma and reconstruct lines, are those of the one-point calls, bit
        # for bit and in order, and each point reports its phase estimate
        params, fd, xs = PERIODIC, periodic_fd(), 2.0 * t * GRID_XI
        tau = 0.5 * math.copysign(1.0, t) * math.log(abs(t))
        periods = [_SigmaOrbit(params, *amplitudes_to_quad(*fd.interp(v)), tau).periods for v in GRID_XI]
        assert any(periods) and len(set(periods)) > 2
        with caplog.at_level(logging.DEBUG, logger="cubicnls"):
            caplog.clear()
            got = uapp(params, fd, t, xs)
            grid = [r.getMessage() for r in caplog.records]
            caplog.clear()
            want = [uapp(params, fd, t, x) for x in xs]
            points = [r.getMessage() for r in caplog.records]
        assert np.array_equal(bits(np.stack(got)), bits(np.array(want).T))
        for kind in ("sigma kind=", "reconstruct tau="):
            lines = [g for g in grid if g.startswith(kind)]
            assert lines == [p for p in points if p.startswith(kind)] and len(lines) == len(xs)
        assert all("error_estimate=" in g for g in grid if g.startswith("reconstruct"))

    @pytest.mark.parametrize("case", [(name, t) for name in GRID_FAMILIES for t in (10.0, 1e4, 1e8)]
                             + [("sigma", 1e4), ("sigma", -1e8), ("sigma one point", 1e4), ("sigma one point", 1e-4)]
                             + [(f"{name} folded", t) for name in ("p3", "p1/p3=1/3", "case15") for t in (1e8, -1e8)],
                             ids=lambda case: f"{case[0]}-t={case[1]:g}")
    def test_phases_match_reference(self, monkeypatch, request, case):
        # every phase-integral call of a 9-point grid of the four families
        # (with no period folded out, and with whole periods of both signs
        # folded out), and of sigma orbits that fold whole periods of both
        # signs (a grid, and one point, whose two jobs are its span and one
        # period), gives the results of tests/helpers.reference_phases bit for
        # bit; the jobs of each tolerance (a point's share, 1e-11 / (1 +
        # |periods|)) against the reference at that tolerance
        name, t = case
        calls, shares = [], set()

        def both(params, jobs):
            got = _phases(params, jobs)
            for tol in {job[4] for job in jobs}:
                group = [k for k, job in enumerate(jobs) if job[4] == tol]
                monkeypatch.setattr(helpers, "_PHASE_TOL", tol)
                assert_same_phases([got[k] for k in group], reference_phases(params, [jobs[k][:4] for k in group]))
                shares.add(tol)
            calls.append(len(jobs))
            return got

        monkeypatch.setattr(profile, "_phases", both)
        if name.startswith("sigma"):
            xs = 2.0 * t * (GRID_XI if name == "sigma" else GRID_XI[4:5])
            uapp(PERIODIC, periodic_fd(), t, xs)
            assert calls[0] > len(xs) and min(shares) < _PHASE_TOL  # some points fold whole periods
        else:
            if not name.endswith("folded"):
                request.getfixturevalue("no_fold")
            for dominant in (1, 2, "alternating"):
                uapp(GRID_FAMILIES[name.split()[0]], grid_fd(dominant), t, 2.0 * t * GRID_XI)
            assert calls == [9, 9, 9] if not name.endswith("folded") else max(calls) > 9 and min(shares) < _PHASE_TOL

    def test_sigma_source_off_its_start(self, monkeypatch):
        # a sigma orbit whose states at phi0, once it is built, miss its
        # point's state: the phase integral's start check fails that point
        # with the inconsistency error, in its turn, as its one-point call
        params, fd, t = PERIODIC, periodic_fd(), 1e4
        target = amplitudes_to_quad(*fd.interp(GRID_XI[6]))[0]
        real_init, real_states = _SigmaOrbit.__init__, _SigmaOrbit.states

        def init(orbit, *args):
            real_init(orbit, *args)
            orbit.built = True

        def states(orbit, phi):
            out = real_states(orbit, phi)
            if getattr(orbit, "built", False) and orbit.rho == target:
                out[:, 0] += 1e-6
            return out

        monkeypatch.setattr(_SigmaOrbit, "__init__", init)
        monkeypatch.setattr(_SigmaOrbit, "states", states)
        got, want = grid_and_points(params, fd, t, 2.0 * t * GRID_XI[:6])
        assert np.array_equal(got, want)
        for xs in (2.0 * t * GRID_XI, 2.0 * t * GRID_XI[6]):
            with pytest.raises(ValueError) as exc:
                uapp(params, fd, t, xs)
            assert type(exc.value) is ValueError and str(exc.value) == _INCONSISTENT

    def test_uncatalogued_grid_point_by_point(self, caplog):
        # outside the catalogue the grid logs no solve_case line and each
        # point its own sigma line, a decline included, in the order of the
        # one-point calls; the declined point raises in its turn
        params, _, fd = declining_grid(2)
        xs = 20.0 * GRID_XI[:5]
        with caplog.at_level(logging.DEBUG, logger="cubicnls"):
            with pytest.raises(_Decline) as grid_error:
                uapp(params, fd, 10.0, xs)
            grid = [r.getMessage() for r in caplog.records]
            caplog.clear()
            for x in xs[:2]:
                uapp(params, fd, 10.0, x)
            with pytest.raises(_Decline) as point_error:
                uapp(params, fd, 10.0, xs[2])
            points = [r.getMessage() for r in caplog.records]
        sigma = [g for g in grid if g.startswith("sigma")]
        assert not any("solve_case" in g for g in grid + points)
        assert sigma == [p for p in points if p.startswith("sigma")] and len(sigma) == 3
        assert "declined" in sigma[2] and sum("declined" in g for g in sigma) == 1
        assert str(grid_error.value) == str(point_error.value)

    def test_no_cyclic_garbage(self):
        # the level loop's source calls leave no reference cycle, so a level's
        # arrays are freed when _phases returns, not at some later collection
        params, fd, t = GRID_FAMILIES["p3"], grid_fd(), 1e4
        sols = [solve_case(params, *amplitudes_to_quad(*fd.interp(v))) for v in GRID_XI]
        jobs = [(sol.rho, sol, 0.5 * math.log(t), sol.initial, _PHASE_TOL) for sol in sols]
        gc.collect()
        gc.disable()
        try:
            _phases(params, jobs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("x", [np.zeros((3, 3)), np.zeros((1, 4)), [[0.0]]])
    def test_x_of_more_dimensions_rejected(self, x):
        with pytest.raises(ValueError, match=r"1-D array x, got an array of shape \(" + str(np.shape(x)[0])):
            uapp(GRID_FAMILIES["p1"], grid_fd(), 10.0, x)


# ---------------------------------------------------------------------------
# whole periods folded out of the phase integral


# a member of every family whose closed forms are periodic (all three
# subcases of family 7; 14 and 15 above the threshold on grid_fd(1); 15 is
# below it at every point of grid_fd(2))
FOLD_FAMILIES = {
    name: std(*p, q=(0.2, -0.1, 0.15)) for name, p in {
        "2": (0, -0.8), "3": (0, 0, 1.1), "4": (0, 0, 0, 0.9), "6 p1<p4": (0.5, 0, 0, 1.2),
        "7 p2<-p3": (0, -2, 1), "7": (0, 0.4, 1), "7 p2>p3": (0, 2, 1), "8": (0, 0.8, 0, 0.5),
        "9": (0, 0, 1, 0.3), "10": (0, 0, 1, 0, 0.3), "1/3": (1, 0, 3), "12": (0, 0.7, 0.7, 0.4),
        "13": (0, -0.7, 0.7, 0, 0.4), "14": (0.6, 0.8, 1), "15": (0.6, 0.8, 1, 0.6, 0.2),
    }.items()
}


def debug_estimates(caplog):
    """The error estimates of the reconstruct lines caplog holds."""
    return [float(r.getMessage().split("error_estimate=")[1]) for r in caplog.records
            if r.getMessage().startswith("reconstruct tau=")]


class TestFold:
    @pytest.mark.parametrize("name,dominant", [(name, dominant) for name in FOLD_FAMILIES
                                               for dominant in (1, 2 if name != "15" else "alternating")])
    def test_folded_matches_unfolded(self, monkeypatch, caplog, request, name, dominant):
        # a 9-point grid with whole periods folded out of its phase integrals
        # against the same grid integrated over all of [0, tau]: within 1e-13
        # relative, or 4 ulps of its largest phase integral where that is more
        # (both sum the phase to the rounding of its size), and every point's
        # summed estimate within 1e-11
        params, fd = FOLD_FAMILIES[name], grid_fd(dominant)
        sols = [solve_case(params, *amplitudes_to_quad(*fd.interp(v))) for v in GRID_XI]
        tau = 0.5 * math.log(1e100)
        assert any(sol._period and abs(tau - round(tau / sol._period) * sol._period) + sol._period < tau
                   for sol in sols)
        folded = {}
        for t in (1e4, 1e8, 1e40, 1e100):
            with caplog.at_level(logging.DEBUG, logger="cubicnls.reconstruction"):
                caplog.clear()
                folded[t] = np.stack(uapp(params, fd, t, 2.0 * t * GRID_XI))
                assert len(debug_estimates(caplog)) == 9 and max(debug_estimates(caplog)) <= 1e-11
        request.getfixturevalue("no_fold")
        real, size = profile._phases, []

        def phases(*args):
            results = real(*args)
            size.append(max(abs(res[0]) for res in results))
            return results

        monkeypatch.setattr(profile, "_phases", phases)
        for t, got in folded.items():
            want = np.stack(uapp(params, fd, t, 2.0 * t * GRID_XI))
            bound = max(1e-13, 4.0 * np.finfo(float).eps * size[-1])
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), (t, bound)

    @pytest.mark.parametrize("t", [1e8, 1e40, 1e100, 1e300])
    def test_pure_p3_against_case3_profile(self, t):
        # pure p3 folds whole periods out up to the largest float t: its
        # profile stays on the explicit one (whose phase QUADPACK integrates
        # over one period and the remainder) within 1e-12, finite everywhere
        fd, q, p3 = make_fd("elliptic"), (0.15, 0.25, -0.1), 1.3
        xs = 2.0 * t * np.linspace(-1.6, 1.6, 13)
        got = np.stack(uapp(std(p3=p3, q=q), fd, t, xs))
        want = np.array([case3_profile(p3, q, fd, t, x) for x in xs]).T
        assert np.isfinite(got).all()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("t", [1e4, -1e8, 1e40])
    def test_sigma_estimates_within_tolerance(self, caplog, t):
        # sigma points with whole periods split the tolerance between their two
        # integrals the same way: each point's summed estimate is within 1e-11
        with caplog.at_level(logging.DEBUG, logger="cubicnls.reconstruction"):
            uapp(PERIODIC, periodic_fd(), t, 2.0 * t * GRID_XI)
        assert len(debug_estimates(caplog)) == 9 and max(debug_estimates(caplog)) <= 1e-11

    def test_prefactor_at_large_t(self):
        # the prefactor's phase x^2 / 4t is formed as x xi / 2: finite where x^2
        # overflows, of modulus 1/sqrt(2t), and within rounding of mpmath's
        # exp(i x^2 / 4t) / sqrt(2 i t) where the phase is small
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        for t in (10.0, 1e4, 1e150, 1e300):
            for x in (2.0 * t * GRID_XI).tolist():
                got = profile._prefactor(t, x)
                assert math.isfinite(abs(got)) and abs(abs(got) * math.sqrt(2.0 * t) - 1.0) <= 4e-16
                if t <= 1e4:
                    mx, mt = mpmath.mpf(x), mpmath.mpf(t)
                    want = complex(mpmath.exp(1j * mx * mx / (4 * mt)) / mpmath.sqrt(2j * mt))
                    assert abs(got - want) <= 1e-15 * (1.0 + abs(x * x / (4.0 * t))) * abs(want)


# ---------------------------------------------------------------------------
# the per-point work around the phase integral against its one-call-a-point
# reference


def outcome(fn, params, fd, t, x, caplog):
    """fn(params, fd, t, x): the bits of its pair, or its exception's type
    and message, and the debug lines logged on the way, in order."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cubicnls"):
        try:
            got = bits(np.stack(fn(params, fd, t, x)) if np.ndim(x) else np.array(fn(params, fd, t, x))).tobytes()
        except Exception as exc:
            got = (type(exc), str(exc))
    return got, [(r.name, r.getMessage()) for r in caplog.records]


@pytest.fixture
def results_as_reference(monkeypatch):
    """Every reconstruction._results call checked against the reference's."""
    import cubicnls.reconstruction as reconstruction

    real = reconstruction._results

    def both(*args):
        got = list(real(*args))
        assert_same_phases(got, list(reference_results(*args)))
        return iter(got)

    monkeypatch.setattr(reconstruction, "_results", both)


@pytest.mark.usefixtures("results_as_reference", "no_fold")
class TestReferenceFlows:
    """uapp on a grid and on a number against tests/helpers.reference_uapp,
    the per-point path it replaces (with reference_phases): the pairs bit
    for bit, the debug lines in order, and each exception's type, message
    and turn (the lines logged before it).  No closed form folds whole
    periods out, as the reference integrates all of [0, tau]."""

    @pytest.mark.parametrize("name", GRID_FAMILIES)
    @pytest.mark.parametrize("dominant", [1, 2, "alternating"])
    @pytest.mark.parametrize("t", [10.0, 1e4, 1e8])
    def test_grid_families(self, caplog, name, dominant, t):
        args = GRID_FAMILIES[name], grid_fd(dominant), t
        for x in (2.0 * t * GRID_XI, 2.0 * t * GRID_XI[3]):
            assert outcome(uapp, *args, x, caplog) == outcome(reference_uapp, *args, x, caplog)

    @pytest.mark.parametrize("t", [1e4, -1e8])
    def test_periodic_sigma_grid(self, caplog, t):
        got, lines = outcome(uapp, PERIODIC, periodic_fd(), t, 2.0 * t * GRID_XI, caplog)
        assert (got, lines) == outcome(reference_uapp, PERIODIC, periodic_fd(), t, 2.0 * t * GRID_XI, caplog)
        assert sum(line.startswith("reconstruct tau=") for _, line in lines) == len(GRID_XI)

    @pytest.mark.parametrize("params", [GRID_FAMILIES["p3"], PERIODIC], ids=["catalogued", "uncatalogued"])
    def test_zero_amplitude_points(self, caplog, params):
        # points with both components 0 keep their data; one with a1 = 0 is anchored on a2
        a1, a2 = grid_fd().alpha1.copy(), grid_fd().alpha2.copy()
        a1[[2, 7]], a2[[2, 7]], a1[5] = 0.0, 0.0, 0.0
        fd = FinalData(GRID_XI, a1, a2)
        for t in (10.0, 1e4):
            assert outcome(uapp, params, fd, t, 2.0 * t * GRID_XI, caplog) == \
                outcome(reference_uapp, params, fd, t, 2.0 * t * GRID_XI, caplog)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, params", [
        ("outside the data", GRID_FAMILIES["p1"]), ("outside the data", PERIODIC),
        ("radius out of range", GRID_FAMILIES["p1"]), ("radius out of range", PERIODIC),
        ("declined orbit", None),
    ], ids=["outside-catalogued", "outside-uncatalogued", "radius-catalogued", "radius-uncatalogued", "declined"])
    def test_fifth_point_fails(self, caplog, kind, params):
        # the fifth point fails: the four before it are built and logged, then its error raises
        t, xs, fd = 10.0, 20.0 * GRID_XI, grid_fd()
        if kind == "outside the data":
            xs = xs.copy()
            xs[4] = 20.0 * 1.7
        elif kind == "radius out of range":
            a1 = fd.alpha1.copy()
            a1[4] = 1e155
            fd = FinalData(GRID_XI, a1, fd.alpha2)
        else:
            params, _, fd = declining_grid(4)
        got, lines = outcome(uapp, params, fd, t, xs, caplog)
        assert isinstance(got, tuple) and issubclass(got[0], ValueError)
        assert (got, lines) == outcome(reference_uapp, params, fd, t, xs, caplog)
        assert sum(line.startswith("reconstruct tau=") for _, line in lines) == 4

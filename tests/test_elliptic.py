"""Elliptic kernel tests: quadrature oracles, identities, degenerate limits."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cubicnls import elliptic as el


def quad_F(phi, m):
    """Independent quadrature oracle for the defining integral."""
    val, _ = quad(
        lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
        0.0,
        phi,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=300,
    )
    return val


class TestCompleteK:
    def test_k_zero_is_half_pi(self):
        assert el.complete_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_k_half_matches_quadrature(self):
        assert abs(el.complete_K(0.5) - quad_F(math.pi / 2, 0.5)) < 1e-12
        # frozen oracle value
        assert el.complete_K(0.5) == pytest.approx(1.8540746773013717, abs=1e-14)

    def test_monotone_in_m(self):
        ms = np.linspace(0.0, 0.99, 34)
        ks = [el.complete_K(m) for m in ms]
        assert np.all(np.diff(ks) > 0)

    @pytest.mark.parametrize("m", [1.0, -0.1, 1.2, float("nan")])
    def test_out_of_domain(self, m):
        with pytest.raises(el.EllipticDomainError):
            el.complete_K(m)


class TestIncompleteF:
    def test_quarter_period_is_K(self):
        for m in (0.0, 0.3, 0.77, 0.999):
            assert el.incomplete_F(math.pi / 2, m) == pytest.approx(el.complete_K(m), rel=1e-13)

    def test_m_zero_is_identity(self):
        for phi in (-2.0, -0.4, 0.0, 1.1, 7.0):
            assert el.incomplete_F(phi, 0.0) == pytest.approx(phi, abs=1e-14)

    def test_matches_quadrature(self):
        # frozen oracle value for the headline point
        assert el.incomplete_F(0.7, 0.3) == pytest.approx(0.71651771598539316, abs=1e-13)
        rng = np.random.default_rng(5)
        for _ in range(40):
            phi = rng.uniform(-4.0, 4.0)
            m = rng.uniform(0.0, 0.95)
            assert abs(el.incomplete_F(phi, m) - quad_F(phi, m)) < 1e-12

    def test_odd_and_quasi_periodic(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            phi = rng.uniform(-1.5, 1.5)
            m = rng.uniform(0.0, 0.98)
            assert el.incomplete_F(-phi, m) == pytest.approx(-el.incomplete_F(phi, m), abs=1e-12)
            assert el.incomplete_F(phi + math.pi, m) == pytest.approx(
                el.incomplete_F(phi, m) + 2.0 * el.complete_K(m), rel=1e-12, abs=1e-12
            )

    def test_m_one_branch(self):
        assert el.incomplete_F(0.9, 1.0) == pytest.approx(math.atanh(math.sin(0.9)), abs=1e-14)
        with pytest.raises(el.EllipticDomainError):
            el.incomplete_F(math.pi / 2, 1.0)


class TestJacobi:
    def test_trigonometric_limit(self):
        for u in (-3.2, 0.4, 2.9):
            j = el.jacobi(u, 0.0)
            assert j.sn == pytest.approx(math.sin(u), abs=1e-14)
            assert j.cn == pytest.approx(math.cos(u), abs=1e-14)
            assert j.dn == pytest.approx(1.0, abs=1e-14)
            assert (j.cd, j.sd, j.nd) == pytest.approx((math.cos(u), math.sin(u), 1.0), abs=1e-14)

    def test_hyperbolic_limit(self):
        for u in (-1.7, 0.3, 2.5):
            j = el.jacobi(u, 1.0)
            assert j.sn == pytest.approx(math.tanh(u), abs=1e-14)
            assert j.cn == pytest.approx(1.0 / math.cosh(u), abs=1e-14)
            assert j.dn == pytest.approx(1.0 / math.cosh(u), abs=1e-14)
            assert j.cd == pytest.approx(1.0, abs=1e-14)
            assert j.sd == pytest.approx(math.sinh(u), rel=1e-14)
            assert j.nd == pytest.approx(math.cosh(u), rel=1e-14)

    def test_origin(self):
        for m in (0.0, 0.42, 1.0):
            j = el.jacobi(0.0, m)
            assert (j.sn, j.cn, j.dn, j.cd, j.sd, j.nd) == (0.0, 1.0, 1.0, 1.0, 0.0, 1.0)

    @given(
        u=st.floats(-50.0, 50.0),
        m=st.floats(0.0, 1.0 - 1e-6),
    )
    @settings(max_examples=300, deadline=None)
    def test_algebraic_identities(self, u, m):
        j = el.jacobi(u, m)
        assert abs(j.sn**2 + j.cn**2 - 1.0) < 1e-12
        assert abs(j.dn**2 + m * j.sn**2 - 1.0) < 1e-12
        assert j.cd == j.cn / j.dn and j.sd == j.sn / j.dn and j.nd == 1.0 / j.dn
        assert abs(j.sn) <= 1.0 + 1e-15 and abs(j.cn) <= 1.0 + 1e-15
        assert math.sqrt(1.0 - m) - 1e-15 <= j.dn <= 1.0 + 1e-15

    def test_derivative_identities(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(60):
            u = rng.uniform(-8.0, 8.0)
            m = rng.uniform(0.0, 0.999)
            jp, jm, j0 = el.jacobi(u + h, m), el.jacobi(u - h, m), el.jacobi(u, m)
            assert (jp.sn - jm.sn) / (2 * h) == pytest.approx(j0.cn * j0.dn, abs=1e-6)
            assert (jp.cn - jm.cn) / (2 * h) == pytest.approx(-j0.sn * j0.dn, abs=1e-6)
            assert (jp.dn - jm.dn) / (2 * h) == pytest.approx(-m * j0.sn * j0.cn, abs=1e-6)

    def test_periodicity(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            u = rng.uniform(-5.0, 5.0)
            m = rng.uniform(0.0, 0.99)
            K = el.complete_K(m)
            a, b = el.jacobi(u, m), el.jacobi(u + 4 * K, m)
            assert max(abs(a.sn - b.sn), abs(a.cn - b.cn), abs(a.dn - b.dn)) < 1e-10
            d1, d2 = el.jacobi(u, m).dn, el.jacobi(u + 2 * K, m).dn
            assert abs(d1 - d2) < 1e-10

    def test_parity(self):
        for u, m in ((1.3, 0.6), (2.9, 0.2)):
            a, b = el.jacobi(u, m), el.jacobi(-u, m)
            assert b.sn == pytest.approx(-a.sn, abs=1e-13)
            assert b.cn == pytest.approx(a.cn, abs=1e-13)
            assert b.dn == pytest.approx(a.dn, abs=1e-13)

    def test_quarter_period_shift(self):
        # sn(u+K) = cd(u), cn(u+K) = -sqrt(1-m) sd(u), dn(u+K) = sqrt(1-m) nd(u)
        for m in (0.15, 0.6, 0.93):
            K = el.complete_K(m)
            for u in (-1.2, 0.3, 0.9):
                a, shifted = el.jacobi(u, m), el.jacobi(u + K, m)
                root = math.sqrt(1.0 - m)
                assert shifted.sn == pytest.approx(a.cd, abs=1e-12)
                assert shifted.cn == pytest.approx(-root * a.sd, abs=1e-12)
                assert shifted.dn == pytest.approx(root * a.nd, abs=1e-12)

    def test_round_trip_with_F(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            phi = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
            m = rng.uniform(0.0, 0.99)
            u = el.incomplete_F(phi, m)
            assert el.jacobi(u, m).sn == pytest.approx(math.sin(phi), abs=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(el.EllipticDomainError):
            el.jacobi(float("inf"), 0.5)


class TestAmplitude:
    def test_zero(self):
        for m in (0.0, 0.5, 1.0):
            assert el.jacobi_am(0.0, m) == 0.0

    def test_quarter_period(self):
        for m in (0.1, 0.5, 0.95):
            assert el.jacobi_am(el.complete_K(m), m) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_gudermannian_at_m_one(self):
        for u in (-2.0, 0.7, 4.0):
            assert el.jacobi_am(u, 1.0) == pytest.approx(math.atan(math.sinh(u)), abs=1e-14)

    def test_unwrapped_monotone(self):
        m = 0.8
        us = np.linspace(-20.0, 20.0, 400)
        vals = el.jacobi_am(us, m)
        assert np.all(np.diff(vals) > 0)
        K = el.complete_K(m)
        assert el.jacobi_am(3.3 + 2 * K, m) == pytest.approx(
            el.jacobi_am(3.3, m) + math.pi, abs=1e-11
        )

    def test_derivative_is_dn(self):
        h = 1e-5
        for u, m in ((0.9, 0.4), (-2.2, 0.85)):
            fd = (el.jacobi_am(u + h, m) - el.jacobi_am(u - h, m)) / (2 * h)
            assert fd == pytest.approx(el.jacobi(u, m).dn, abs=1e-8)

    def test_matches_dn_quadrature(self):
        for u, m in ((1.7, 0.3), (4.0, 0.9)):
            val, _ = quad(lambda v: el.jacobi(v, m).dn, 0.0, u, epsabs=1e-13, limit=200)
            assert el.jacobi_am(u, m) == pytest.approx(val, abs=1e-11)


class TestClamping:
    def test_within_tolerance_clamps(self):
        assert el.arcsin_clamped(1.0 + 5e-13) == pytest.approx(math.pi / 2)
        assert el.arccos_clamped(-1.0 - 5e-13) == pytest.approx(math.pi)

    def test_beyond_tolerance_raises(self):
        with pytest.raises(el.EllipticDomainError):
            el.arcsin_clamped(1.0 + 1e-9)
        with pytest.raises(el.EllipticDomainError):
            el.arccos_clamped(-1.1)

    def test_invert_sn_cn(self):
        for phi, m in ((0.6, 0.3), (-1.2, 0.8), (2.8, 0.5)):
            u = el.invert_sn_cn(math.sin(phi), math.cos(phi), m)
            j = el.jacobi(u, m)
            assert j.sn == pytest.approx(math.sin(phi), abs=1e-12)
            assert j.cn == pytest.approx(math.cos(phi), abs=1e-12)


NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
M = st.floats(0.0, 1.0)

# (function, strategies for a valid call, positions that also take arrays)
CONTRACT = [
    pytest.param(el.complete_K, (st.floats(0.0, 1.0, exclude_max=True),), (), id="complete_K"),
    pytest.param(el.incomplete_F, (st.floats(-1.5, 1.5), M), (0,), id="incomplete_F"),
    pytest.param(el.jacobi_sn_cn_dn, (st.floats(-50.0, 50.0), M), (0,), id="jacobi_sn_cn_dn"),
    pytest.param(el.jacobi_am, (st.floats(-50.0, 50.0), M), (0,), id="jacobi_am"),
    pytest.param(el.jacobi, (st.floats(-50.0, 50.0), M), (), id="jacobi"),
    pytest.param(el.invert_sn_cn, (st.just(0.6), st.just(0.8), M), (), id="invert_sn_cn"),
    pytest.param(el.arcsin_clamped, (st.floats(-1.0, 1.0),), (0,), id="arcsin_clamped"),
    pytest.param(el.arccos_clamped, (st.floats(-1.0, 1.0),), (0,), id="arccos_clamped"),
]


class TestInputContract:
    @pytest.mark.parametrize("fn,valid,array_args", CONTRACT)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_nonfinite_argument_raises(self, fn, valid, array_args, data):
        args = [data.draw(arg) for arg in valid]
        i = data.draw(st.integers(0, len(args) - 1))
        bad = data.draw(NONFINITE)
        if i in array_args and data.draw(st.booleans()):
            args[i] = np.full(3, args[i])
            args[i][data.draw(st.integers(0, 2))] = bad
        else:
            args[i] = bad
        with pytest.raises(el.EllipticDomainError):
            fn(*args)

    def test_m_range_message(self):
        with pytest.raises(el.EllipticDomainError, match=r"outside \[0, 1\]$"):
            el.jacobi_am(0.3, 1.5)
        with pytest.raises(el.EllipticDomainError, match=r"outside \[0, 1\)$"):
            el.complete_K(1.0)


class TestMpmathReference:
    """sn, cn, dn (absolute error) and am, F, K (relative error) against mpmath
    at 30 digits, for m in [0, 1 - 1e-6], |u| <= 8K and |phi| <= 3 pi.  The
    separatrix band above 1 - 1e-6 is not covered here."""

    TOL = 1e-13

    @staticmethod
    def _ms(rng):
        spread = rng.uniform(0.0, 1.0 - 1e-6, 32)
        near_one = 1.0 - 10.0 ** -rng.uniform(0.0, 6.0, 32)
        return [0.0, 1e-300, 1e-16, 0.5, 1.0 - 1e-6, *spread, *near_one]

    def test_complete_K(self):
        with mp.workdps(30):
            for m in self._ms(np.random.default_rng(11)):
                ref = mp.ellipk(m)
                assert abs(el.complete_K(m) - ref) <= self.TOL * ref, m

    def test_sn_cn_dn_am_long_arguments(self):
        rng = np.random.default_rng(12)
        with mp.workdps(30):
            for m in self._ms(rng):
                k_ref = mp.ellipk(m)
                us = rng.uniform(-8.0, 8.0, 8) * float(k_ref)
                sn, cn, dn = el.jacobi_sn_cn_dn(us, m)
                am = el.jacobi_am(us, m)
                for i, u in enumerate(us):
                    s, c, d = (mp.ellipfun(kind, u, m=m) for kind in ("sn", "cn", "dn"))
                    assert max(abs(sn[i] - s), abs(cn[i] - c), abs(dn[i] - d)) <= self.TOL, (u, m)
                    # am is the branch of atan2(sn, cn) within pi/2 of pi u / (2K).
                    ref = mp.atan2(s, c)
                    ref += 2 * mp.pi * mp.nint((mp.pi * u / (2 * k_ref) - ref) / (2 * mp.pi))
                    assert abs(am[i] - ref) <= self.TOL * abs(ref), (u, m)

    def test_incomplete_F(self):
        rng = np.random.default_rng(13)
        with mp.workdps(30):
            for m in self._ms(rng):
                phis = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, 8)
                F = el.incomplete_F(phis, m)
                for i, phi in enumerate(phis):
                    ref = mp.ellipf(phi, m)
                    assert abs(F[i] - ref) <= self.TOL * abs(ref), (phi, m)


NEAR_ONE = pytest.mark.parametrize(
    "lo, hi, tol", [(1e-12, 1e-6, 1e-13), (2.0**-53, 1e-12, 1e-12)], ids=["to-1e-12", "to-one-ulp"]
)


class TestMpmathNearOne:
    """The AGM chain for 1 - m down to one ulp: sn, cn and dn (absolute error)
    and am, F and K (relative error) against mpmath at 30 digits, |u| <= 8K
    and |phi| <= 3 pi, with 1 - m log-uniform in each band."""

    @NEAR_ONE
    def test_sn_cn_am_F_K(self, lo, hi, tol):
        rng = np.random.default_rng(14)
        m1s = [lo, hi, *np.exp(rng.uniform(math.log(lo), math.log(hi), 16))]
        with mp.workdps(30):
            for m in (1.0 - m1 for m1 in m1s):
                k_ref = mp.ellipk(m)
                assert abs(el.complete_K(m) - k_ref) <= tol * k_ref, m
                us = rng.uniform(-8.0, 8.0, 8) * float(k_ref)
                sn, cn, _ = el.jacobi_sn_cn_dn(us, m)
                am = el.jacobi_am(us, m)
                for i, u in enumerate(us):
                    s, c = mp.ellipfun("sn", u, m=m), mp.ellipfun("cn", u, m=m)
                    assert max(abs(sn[i] - s), abs(cn[i] - c)) <= tol, (u, m)
                    ref = mp.atan2(s, c)
                    ref += 2 * mp.pi * mp.nint((mp.pi * u / (2 * k_ref) - ref) / (2 * mp.pi))
                    assert abs(am[i] - ref) <= tol * abs(ref), (u, m)
                phis = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, 8)
                F = el.incomplete_F(phis, m)
                for i, phi in enumerate(phis):
                    ref = mp.ellipf(phi, m)
                    assert abs(F[i] - ref) <= tol * abs(ref), (phi, m)

    @NEAR_ONE
    def test_exact_m1(self, lo, hi, tol):
        """With m1 passed exactly the reference parameter is 1 - m1, which the
        rounded m = 1 - m1 cannot carry; dn = sqrt(m1 + m cn^2) does not
        cancel (sqrt(1 - m sn^2) was 2.4e-11 and 1.7e-9 off here)."""
        rng = np.random.default_rng(15)
        m1s = [lo, hi, *np.exp(rng.uniform(math.log(lo), math.log(hi), 16))]
        with mp.workdps(30):
            for m1 in m1s:
                m_ref = 1 - mp.mpf(m1)
                k_ref = mp.ellipk(m_ref)
                us = rng.uniform(-8.0, 8.0, 8) * float(k_ref)
                got = el.jacobi_sn_cn_dn(us, 1.0 - m1, m1=m1)
                for i, u in enumerate(us):
                    for kind, val in zip(("sn", "cn", "dn"), got):
                        assert abs(val[i] - mp.ellipfun(kind, u, m=m_ref)) <= tol, (kind, u, m1)
                phis = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, 8)
                F = el.incomplete_F(phis, 1.0 - m1, m1=m1)
                for i, phi in enumerate(phis):
                    ref = mp.ellipf(phi, m_ref)
                    assert abs(F[i] - ref) <= tol * abs(ref), (phi, m1)
                u = el.invert_sn_cn(math.sin(phis[0]), math.cos(phis[0]), 1.0 - m1, m1=m1)
                assert abs(u - mp.ellipf(math.atan2(math.sin(phis[0]), math.cos(phis[0])), m_ref)) <= tol * abs(u)

    def test_m1_zero_is_the_hyperbolic_limit(self):
        u = np.linspace(-30.0, 30.0, 13)
        sn, cn, dn = el.jacobi_sn_cn_dn(u, 1.0 - 2.0**-53, m1=0.0)
        np.testing.assert_array_equal(sn, np.tanh(u))
        np.testing.assert_array_equal(cn, 1.0 / np.cosh(u))
        np.testing.assert_array_equal(dn, cn)
        assert el.incomplete_F(1.2, 1.0, m1=0.0) == math.asinh(math.tan(1.2))
        # the inverse Gudermannian stays finite up to the last float below pi/2
        with mp.workdps(30):
            for phi in (0.5 * math.pi - 1e-9, math.nextafter(0.5 * math.pi, 0.0)):
                assert abs(el.incomplete_F(phi, 1.0) - mp.asinh(mp.tan(phi))) <= 1e-15 * mp.asinh(mp.tan(phi))


class TestComplementaryParameter:
    """m1 must be 1 - m to within a few ulps, in [0, 1] and not NaN."""

    CALLS = {
        "jacobi_sn_cn_dn": lambda m, m1: el.jacobi_sn_cn_dn(0.7, m, m1=m1),
        "incomplete_F": lambda m, m1: el.incomplete_F(0.7, m, m1=m1),
        "invert_sn_cn": lambda m, m1: el.invert_sn_cn(0.6, 0.8, m, m1=m1),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    @pytest.mark.parametrize(
        "m, m1",
        [(1.0, -1e-300), (1.0, -2.0**-60), (0.0, 1.0 + 2.0**-52), (0.5, math.nan), (0.5, 0.5 + 1e-13),
         (0.9, 0.2), (1.0 - 1e-10, 1e-10 + 1e-14), (0.3, math.inf)],
    )
    def test_rejected(self, call, m, m1):
        with pytest.raises(el.EllipticDomainError, match="complementary parameter"):
            call(m, m1)

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    @pytest.mark.parametrize("m, m1", [(1.0, 2.0**-60), (1.0 - 1e-10, 1e-10), (0.3, 0.7 + 2.0**-52), (0.0, 1.0)])
    def test_accepted(self, call, m, m1):
        call(m, m1)

    def test_default_is_one_minus_m(self):
        u = np.linspace(-9.0, 9.0, 19)
        for m in (0.0, 0.3, 1.0 - 1e-9, 1.0):
            for a, b in zip(el.jacobi_sn_cn_dn(u, m), el.jacobi_sn_cn_dn(u, m, m1=1.0 - m)):
                np.testing.assert_array_equal(a, b)


class TestQuarterPeriodReflection:
    """Within K/2 of an odd multiple of K the kernel evaluates sn(K + x) = cd x,
    cn(K + x) = -k' sd x and dn(K + x) = k' nd x (DLMF 22.4(iii)), and
    invert_sn_cn inverts through x: cn and dn keep relative accuracy next to
    m = 1, where cos of an amplitude near pi/2 kept only absolute accuracy."""

    @pytest.mark.parametrize("m1", [1e-6, 1e-12])
    def test_cn_dn_relative_error(self, m1):
        # |u| <= 3K on a grid K/40 apart that stays K/80 off the zeros of cn
        with mp.workdps(40):
            m_ref = 1 - mp.mpf(m1)
            k = float(mp.ellipk(m_ref))
            us = (np.arange(-120, 120) + 0.5) * (k / 40.0)
            _, cn, dn = el.jacobi_sn_cn_dn(us, 1.0 - m1, m1=m1)
            for i, u in enumerate(us):
                for kind, val in (("cn", cn[i]), ("dn", dn[i])):
                    ref = mp.ellipfun(kind, u, m=m_ref)
                    assert abs(val - ref) <= 1e-10 * abs(ref), (kind, u, m1)

    def test_scalar_and_array_agree(self):
        k = el.complete_K(1.0 - 1e-12)
        us = np.array([0.2 * k, 0.9 * k, -1.3 * k, 2.0 * k, 2.6 * k])
        arrays = el.jacobi_sn_cn_dn(us, 1.0 - 1e-12, m1=1e-12)
        for i, u in enumerate(us):
            for got, want in zip(el.jacobi_sn_cn_dn(u, 1.0 - 1e-12, m1=1e-12), arrays):
                assert got == want[i]

    @pytest.mark.parametrize("sn_sign, cn_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_invert_next_to_the_quarter_period(self, sn_sign, cn_sign):
        # |cn| = 1e-12 at m1 = 1e-12: u lies 1e-6 from +-K.  The float spacing
        # of u there (1.8e-15) alone moves cn by up to 9e-10 relative, so the
        # check is on u, against mpmath's F(atan2(sn, cn)) at 50 digits: it
        # must be within an ulp (the amplitude next to pi/2 put it 4e4 ulps off)
        m1 = 1e-12
        cn = cn_sign * 1e-12
        sn = sn_sign * math.sqrt((1.0 - cn) * (1.0 + cn))
        u = el.invert_sn_cn(sn, cn, 1.0 - m1, m1=m1)
        with mp.workdps(50):
            m_ref = 1 - mp.mpf(m1)
            exact = mp.ellipf(mp.atan2(sn, cn), m_ref)
            assert abs(u - exact) <= math.ulp(u)
            # cn comes back to relative 1e-10 beyond what one ulp of u moves it
            _, cn_back, _ = el.jacobi_sn_cn_dn(u, 1.0 - m1, m1=m1)
            slope = abs(mp.ellipfun("sn", exact, m=m_ref) * mp.ellipfun("dn", exact, m=m_ref))
            assert abs(cn_back - cn) <= 1e-10 * abs(cn) + float(slope) * math.ulp(u)


class TestArrayParameter:
    """m and m1 as arrays broadcast against u: each element gets the bits of a
    call with its own (m, m1) alone, and a single bad element raises."""

    @staticmethod
    def elements(seed=0):
        """(u, m, m1): seeded m, m = 0, m1 = 0, m1 = 1e-16, arguments within
        K/2 of an odd K and |u| up to 8K, in runs of equal parameters and
        element by element."""
        rng = np.random.default_rng(seed)
        m1 = np.concatenate([rng.uniform(0.0, 1.0, 12), 10.0 ** rng.uniform(-16.0, -1.0, 6), [1.0, 0.0, 1e-16]])
        m = 1.0 - m1
        k = np.array([el.complete_K(a) if b > 0.0 else 1.0 for a, b in zip(np.minimum(m, 1.0 - 2.0**-53), m1)])
        odd = 2 * rng.integers(-4, 4, m.size) + 1
        u = np.stack([rng.uniform(-8.0, 8.0, m.size) * k, (odd + rng.uniform(-0.5, 0.5, m.size)) * k,
                      rng.uniform(-40.0, 40.0, m.size), np.zeros(m.size)], axis=1)
        u[m1 == 0.0, :2] = rng.uniform(-30.0, 30.0, (1, 2))
        runs = np.repeat(np.arange(m.size), u.shape[1])
        shuffled = rng.permutation(runs.size)
        return [(u.ravel(), m[runs], m1[runs]), (u.ravel()[shuffled], m[runs][shuffled], m1[runs][shuffled])]

    @pytest.mark.parametrize("layout", [0, 1], ids=["runs", "mixed"])
    def test_bits_of_one_call_per_element(self, layout):
        u, m, m1 = self.elements()[layout]
        got = el.jacobi_sn_cn_dn(u, m, m1=m1)
        for j in range(u.size):
            want = el.jacobi_sn_cn_dn(u[j], float(m[j]), m1=float(m1[j]))
            assert [float(g[j]) for g in got] == [float(w) for w in want], (u[j], m[j], m1[j])
            assert all(np.signbit(g[j]) == np.signbit(w) for g, w in zip(got, want))

    def test_broadcast_and_default_m1(self):
        u = np.linspace(-6.0, 6.0, 7)
        m = np.array([[0.0], [0.3], [0.9]])
        sn, cn, dn = el.jacobi_sn_cn_dn(u, m)
        assert sn.shape == cn.shape == dn.shape == (3, 7)
        for i, row in enumerate(m[:, 0]):
            for got, want in zip((sn, cn, dn), el.jacobi_sn_cn_dn(u, float(row))):
                assert np.array_equal(got[i], want)

    @pytest.mark.parametrize("bad", ["m", "m1", "u"])
    def test_one_bad_element_raises(self, bad):
        u, m, m1 = (x.copy() for x in self.elements()[0])
        j = u.size // 2
        if bad == "m":
            m[j], m1[j] = 1.5, -0.5
        elif bad == "m1":
            m1[j] = m1[j] + 1e-9
        else:
            u[j] = math.nan
        with pytest.raises(el.EllipticDomainError):
            el.jacobi_sn_cn_dn(u, m, m1=m1)

"""The sigma-reduction of uncatalogued profiles against scipy's DOP853.

Outside the catalogue, profile._flows advances the final data along the
planar orbit X' = A X + b in sigma = int 2 I dtau (quadratic_flow._SigmaOrbit)
and integrates the phase over the orbit parameter (reconstruction's one job
builder, _reconstruct_jobs, as for a closed form).
Most checks here compare the amplitude pair with a DOP853 run of the full
complex flow at rtol = atol = 1e-13, over t in {1e-3, 0.5, 10, 1e4, 1e8}, so
negative times are covered.  TestGridBuild checks the orbits of a grid,
built together, against the one-orbit build they replaced
(tests/helpers.ReferenceSigmaOrbit), bit for bit.
"""

import logging
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import cubicnls.quadratic_flow as qf
from cubicnls.closed_form import classify
from cubicnls.profile import FinalData, _flows, uapp
from cubicnls.quadratic_flow import _SigmaOrbit, amplitudes_to_quad
from cubicnls.reconstruction import _phases, _reconstruct_jobs, _reconstructed
from cubicnls.standard_form import StandardParams, nonlinearity
from helpers import ReferenceSigmaOrbit, near_touch

# outside the catalogue every point is a sigma orbit or a typed error, never an RK45 run
pytestmark = pytest.mark.usefixtures("no_full_oracle")

TIMES = (1e-3, 0.5, 10.0, 1e4, 1e8)
Q = (0.1, -0.2, 0.3)


def tau_of(t):
    return 0.5 * math.copysign(1.0, t) * math.log(abs(t))


def dop853(params, a0, tau):
    def rhs(_, y):
        f1, f2 = nonlinearity(params, complex(y[0], y[1]), complex(y[2], y[3]))
        return [f1.imag, -f1.real, f2.imag, -f2.real]

    y0 = [a0[0].real, a0[0].imag, a0[1].real, a0[1].imag]
    y = solve_ivp(rhs, (0.0, tau), y0, method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
    return np.array([complex(y[0], y[1]), complex(y[2], y[3])])


def orbit_pair(params, a0, rho, s0, orbit, tau):
    """The pair at the end of the orbit of (rho, s0) over tau, by
    reconstruction's job builder, as profile._flows builds it."""
    jobs, plan = _reconstruct_jobs([a0], [orbit], [rho], [s0], tau)
    pairs, failed = _reconstructed(plan, _phases(params, jobs))
    if failed is not None:
        raise failed
    return np.array(pairs[0])


def orbit_and_error(params, a0, tau):
    """The orbit and the relative deviation of its pair from DOP853."""
    rho, s0 = amplitudes_to_quad(*a0)
    orbit = _SigmaOrbit(params, rho, s0, tau)
    got = orbit_pair(params, a0, rho, s0, orbit, tau)
    ref = dop853(params, a0, tau)
    return orbit, float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def pair_of(rho, s):
    """An amplitude pair with quadratic quantities (rho, s)."""
    a1 = math.sqrt((rho + s[0]) / 2.0)
    return a1, complex(s[1], s[2]) / (2.0 * a1)


def saddle_geometry(p, rho):
    """X* and the stable and unstable eigenvectors of A."""
    p1, p2, p3, p4, p5 = p
    a = np.array([[p1, p2 - p3], [-(p2 + p3), p1]])
    x_star = -np.linalg.solve(a, rho * np.array([p5, -p4]))
    w, v = np.linalg.eig(a)
    return x_star, v[:, np.argmin(w.real)].real, v[:, np.argmax(w.real)].real


A0 = (0.45 + 0.2j, 0.3 - 0.25j)


class TestAgainstDop853:
    def test_seeded_random_uncatalogued(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 12:
            p = rng.uniform(-1.0, 1.0, 5)
            p[[0, 2, 4]] = np.abs(p[[0, 2, 4]])
            params = StandardParams(*p, *rng.uniform(-0.5, 0.5, 3))
            if classify(params).case != 0:
                continue
            rho = rng.uniform(0.05, 1.5)
            a0 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            scale = math.sqrt(rho / (abs(a0[0]) ** 2 + abs(a0[1]) ** 2))
            for t in TIMES:
                assert orbit_and_error(params, (a0[0] * scale, a0[1] * scale), tau_of(t))[1] < 1e-10
            checked += 1

    @pytest.mark.parametrize(
        "p",
        [
            (0.4, 0.5, 0.5, 0.3, 0.2),  # kappa = p3^2 - p2^2 = 0: A defective
            (0.3, 0.4, 0.5, 0.25, 0.15),  # det A = p1^2 - kappa = 0
            (0.0, 0.5, 0.5, 0.3, 0.2),  # A nilpotent
            (0.0, 0.8, 0.3, 0.2, 0.1),  # a centre: p1 = 0, kappa < 0
            (0.5, 0.0, 1.0, 0.0, 0.0),  # a saddle with p1 / p3 = 1/2
            (0.3, 0.5, 0.7, 0.2, 0.1),  # a saddle
            (1.0, 0.2, 0.5, 0.3, 0.2),  # a node with |X*| < rho
            (1.0, 0.6, 0.3, 0.3, 0.2),  # a focus
            (0.0, 0.0, 0.0, 0.0, 1.0),  # A = 0
        ],
        ids=["kappa0", "detA0", "nilpotent", "centre", "saddle-half", "saddle", "node", "focus", "A0"],
    )
    def test_corners(self, p):
        params = StandardParams(*p, *Q)
        for a0 in (A0, (1.0 + 0.3j, 0.4 - 0.6j)):
            for t in TIMES:
                assert orbit_and_error(params, a0, tau_of(t))[1] < 1e-10

    def test_node_holds_x_star_inside(self):
        p, rho = (1.0, 0.2, 0.5, 0.3, 0.2), abs(1.0 + 0.3j) ** 2 + abs(0.4 - 0.6j) ** 2
        assert np.linalg.norm(saddle_geometry(p, rho)[0]) < rho

    @pytest.mark.parametrize("a0", [(0.6, 0.35), (0.2, -0.5)])
    def test_equator_start(self, a0):
        # real amplitudes: I0 = 0, the start is a turning point
        params = StandardParams(0.3, 0.5, 0.7, 0.2, 0.1, *Q)
        assert amplitudes_to_quad(*a0)[1][2] == 0.0
        for t in TIMES:
            assert orbit_and_error(params, a0, tau_of(t))[1] < 1e-10

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_equator_start_back_within_a_step(self, scale):
        # a2 a real multiple of a1: I0 = 0 exactly, and the orbit is back at
        # the equator within the first base step: the zero past the start is
        # bracketed from a point short of it, not from the start (F = 0
        # there), which would leave the interval no width
        params = StandardParams(0.8, 0.4, 0.9, 0.3, 0.35, 0.2, -0.1, 0.15)
        a0 = (scale * (1.0 + 0.1j), scale * (0.5 + 0.05j))
        assert amplitudes_to_quad(*a0)[1][2] == 0.0
        for t in TIMES:
            orbit, err = orbit_and_error(params, a0, tau_of(t))
            assert orbit.half > 0.0 and err < 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [5.0, 30.0, 1e3])
    def test_equator_start_back_within_a_step_large_data(self, scale):
        # the same orbit at moduli where DOP853 cannot follow its turns: a
        # finite pair at every t, and no warning
        a1 = np.full(2, scale * (1.0 + 0.1j))
        fd = FinalData(np.array([-1.0, 1.0]), a1, a1 / 2.0)
        for t in (10.0, 1e4, 1e8):
            assert all(np.isfinite(uapp(StandardParams(0.8, 0.4, 0.9, 0.3, 0.35, 0.2, -0.1, 0.15), fd, t, 0.0)))


class TestPitfalls:
    """The corners a prototype of the reduction got wrong."""

    SADDLE = (0.3, 0.5, 0.7, 0.2, 0.1)

    def test_open_leg(self):
        # (a) no turning point within reach: a leg, not a period
        orbit, err = orbit_and_error(StandardParams(0.4, 0.5, 0.5, 0.3, 0.2, *Q), A0, tau_of(0.5))
        assert orbit.kind == "open" and err < 1e-10

    @pytest.mark.parametrize("past", [1.001, 1.02, 1.2])
    def test_zero_just_past_reach(self, past):
        # (b) the first zero of F a little beyond 2 rho |tau| ends the interval
        params, a0 = StandardParams(*self.SADDLE, *Q), (0.6 + 0.1j, 0.3 - 0.4j)
        rho, s0 = amplitudes_to_quad(*a0)
        far = _SigmaOrbit(params, rho, s0, 9.0)
        tau = abs(far.hi if s0[2] > 0 else far.lo) / (2.0 * rho * past)
        orbit, err = orbit_and_error(params, a0, tau)
        assert orbit.turning[int(s0[2] > 0)] and err < 1e-10

    @pytest.mark.parametrize("t", [1e4, 1e8, 1e-8])
    def test_whole_periods(self, t):
        # (c) past both turning points, time is reduced modulo the period
        orbit, err = orbit_and_error(StandardParams(*self.SADDLE, *Q), (1.5 + 0.4j, 0.9 - 1.0j), tau_of(t))
        assert orbit.kind == "periodic" and abs(orbit.periods) >= 1 and err < 1e-10

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_long_period_near_separatrix(self, eps):
        # (d) an orbit passing eps rho from the saddle's stable manifold
        rho = 1.0
        x_star, stable, unstable = saddle_geometry(self.SADDLE, rho)
        x = x_star + 0.3 * rho * stable + eps * rho * unstable
        a0 = pair_of(rho, (x[0], x[1], math.sqrt(rho * rho - x @ x)))
        for t in (10.0, 1e4):
            assert orbit_and_error(StandardParams(*self.SADDLE, *Q), a0, tau_of(t))[1] < 1e-10

    @pytest.mark.parametrize("gap", [0.1, 0.03])
    def test_near_touch(self, gap):
        # (e) a centre whose ellipse comes within I = gap rho of the equator:
        # the time rule is cut at the near-touches
        p, rho = (0.0, 0.8, 0.3, 0.2, 0.1), 1.0
        x_star, _, _ = saddle_geometry(p, rho)
        a = np.array([[p[0], p[1] - p[2]], [-(p[1] + p[2]), p[0]]])
        w = math.sqrt(p[1] ** 2 - p[2] ** 2)
        rot = np.array([np.cos(w * s) * np.eye(2) + np.sin(w * s) / w * a for s in np.linspace(0, 2 * np.pi / w, 2001)])

        def ellipse(scale):
            return x_star + np.einsum("kij,j->ki", rot, scale * np.array([0.3, 0.0]))

        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.max(np.linalg.norm(ellipse(mid), axis=1)) < math.sqrt(1 - gap**2) else (lo, mid)
        x = ellipse(lo)[666]
        a0 = pair_of(rho, (x[0], x[1], math.sqrt(rho * rho - x @ x)))
        for t in (0.5, 10.0, 1e4):
            orbit, err = orbit_and_error(StandardParams(*p, *Q), a0, tau_of(t))
            assert err < 1e-10
        assert len(orbit.pieces[0]) > 2  # cut at least once

    def test_near_touch_hides_a_zero(self):
        # F dips below 0 between two bases and comes back: the vertex of the
        # parabola through three bases finds the first of the two zeros,
        # which the stepping out from s0 passed over
        params, rho = StandardParams(0.0, 0.8, 0.3, 0.2, 0.1, *Q), 1.0
        s0 = (-0.03648682568338322, -0.9513412663903341, -0.30597141437458797)
        a0, tau = pair_of(rho, s0), 3.1966952541818348
        orbit, err = orbit_and_error(params, a0, tau)
        assert orbit.kind == "periodic" and orbit.k * orbit.step > -orbit.lo
        assert err < 1e-11


class TestCuredDeclines:
    """Orbits that an n-doubling time rule, a parabola-vertex zero scan and a
    bases cap checked against the reach used to decline: the reduction now
    follows them within 1e-10 of DOP853."""

    @staticmethod
    def census(draws):
        """(params, rho, s0, t) of the given draws of test_declines_are_rare's
        generator, with t cycling through 10, 1e2, 1e4, 1e6 and 1e8."""
        rng, out = np.random.default_rng(2024), []
        for k in range(max(draws) + 1):
            while True:
                p = rng.uniform(-1.0, 1.0, 5)
                p[[0, 2, 4]] = np.abs(p[[0, 2, 4]])
                params = StandardParams(*p)
                if classify(params).case == 0:
                    break
            rho = rng.uniform(0.05, 2.0)
            v = rng.standard_normal(3)
            if k in draws:
                out.append((params, rho, rho * v / np.linalg.norm(v), (10.0, 1e2, 1e4, 1e6, 1e8)[k % 5]))
        return out

    def test_census_states(self):
        # a missed zero (F dips below 0 between two bases) and two near-touches
        for params, rho, s0, t in self.census((168, 774, 1318)):
            assert orbit_and_error(params, pair_of(rho, s0), tau_of(t))[1] < 1e-10

    @pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_near_touch(self, gap):
        params, s0 = near_touch(gap)
        for t in (10.0, 1e4, 1e8):
            assert orbit_and_error(params, pair_of(1.0, s0), tau_of(t))[1] < 1e-10

    def test_closest_near_touch_returns_or_declines(self):
        # within 1e-6 rho the rounding of F is 1e-4 of F itself near the
        # touch: each point either returns within 1e-9 or raises a ValueError
        # (all three raise, at the piece cap)
        params, s0 = near_touch(1e-6)
        for t in (10.0, 1e4, 1e8):
            try:
                err = orbit_and_error(params, pair_of(1.0, s0), tau_of(t))[1]
            except ValueError:
                continue
            assert err < 1e-9


class TestFixedKind:
    """A start at a fixed point of the quadratic flow: the orbit is of kind
    fixed, its states are constant, and each amplitude only turns, by
    A_j(tau) = A_j(0) exp(-i lambda_j tau) with lambda_j = F_j(A(0)) / A_j(0).
    RK45 is no reference here: the points are unstable, and integrate_full
    at tol 1e-12 drifts 1e-11 and 9e-11 off them by tau = 9.21."""

    @pytest.mark.parametrize(
        "p, a0",
        [
            ((0.3, 0.5, 0.7, 0.0, 0.0), (math.sqrt(0.5), 1j * math.sqrt(0.5))),  # (D, R, I) = (0, 0, rho)
            ((0.0, 0.5, 0.7, 0.3, 0.0), (0.6 + 0.8j, 0.0)),  # (rho, 0, 0)
        ],
        ids=["pole", "equator"],
    )
    def test_rotation(self, p, a0):
        params = StandardParams(*p, *Q)
        assert classify(params).case == 0
        rho, s0 = amplitudes_to_quad(*a0)
        assert np.count_nonzero(s0) == 1
        lam = [f / a if a else 0.0 for f, a in zip(nonlinearity(params, *a0), a0)]
        for t in TIMES:
            for tau in (tau_of(t), -tau_of(t)):
                orbit = _SigmaOrbit(params, rho, s0, tau)
                assert orbit.kind == "fixed"
                got = orbit_pair(params, a0, rho, s0, orbit, tau)
                ref = np.array([a * np.exp(-1j * l * tau) for a, l in zip(a0, lam)])
                assert np.max(np.abs(got - ref)) < 1e-13


class TestDecline:
    def test_declined_point_raises(self, caplog):
        # a near-touch within 1e-6 rho, where the rounding of F keeps the time
        # rule short of its target at the piece cap: the point raises the
        # typed decline, and no oracle runs
        params, s0 = near_touch(1e-6)
        with caplog.at_level(logging.DEBUG, logger="cubicnls.quadratic_flow"):
            with pytest.raises(qf._Decline, match="^time rule estimate .* above its target at .* pieces$"):
                _flows(params, [pair_of(1.0, s0)], tau_of(1e4))
        lines = [r.getMessage() for r in caplog.records if r.name == "cubicnls.quadratic_flow"]
        assert any(l.startswith("sigma kind=declined reason='time rule estimate") for l in lines)
        assert not any(l.startswith("oracle flow=full") for l in lines)

    @pytest.mark.parametrize(
        "gap, t, reason",
        [
            (0.0, 10.0, "tangent turning point"),
            (None, 1e4, "more than 4096 bases on a side"),
            (1e-6, 10.0, "time rule estimate .* above its target at .* pieces"),
        ],
        ids=["tangent", "bases", "pieces"],
    )
    def test_decline_through_uapp(self, caplog, gap, t, reason):
        # each decline that remains is a ValueError that uapp raises in its
        # point's turn: the point before it is built, the one after it is not.
        # gap None: an ellipse about the centre well inside the disk, at
        # rho = 1000, where sigma runs on for 2 rho |tau| each way
        params, s0 = near_touch(gap or 0.0)
        rho = 1.0 if gap is not None else 1000.0
        if gap is None:
            x = rho * np.array([-0.08, -0.2])
            s0 = np.array([*x, math.sqrt(rho * rho - x @ x)])
        a0 = pair_of(rho, s0)
        fd = FinalData([-1.0, 0.0, 1.0], [A0[0], a0[0], A0[0]], [A0[1], a0[1], A0[1]])
        with caplog.at_level(logging.DEBUG, logger="cubicnls.quadratic_flow"):
            with pytest.raises(ValueError, match=reason):
                uapp(params, fd, t, 2.0 * t * fd.xi_grid)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("sigma")]
        assert len(lines) == 2 and "declined" not in lines[0]
        assert lines[1].startswith("sigma kind=declined reason=") and "oracle flow=" not in caplog.text

    def test_separatrix_declines(self):
        # the curve of X' = A X + b through an equator fixed point touches the
        # circle there (F = F' = 0): an orbit on it takes infinite time to get
        # there, and its time rule cannot converge
        params, rho = StandardParams(0.74, -0.55, 0.79, 0.74, 0.96), 1.0
        p1, p2, p3, p4, p5 = params.p
        aug = np.zeros((3, 3))
        aug[:2, :2] = [[p1, p2 - p3], [-(p2 + p3), p1]]
        aug[:2, 2] = rho * p5, -rho * p4
        inside = [
            x for t in qf._planar(params, rho)[2] for sigma in (-0.3, 0.3)
            if (x := (expm(aug * sigma) @ [rho * math.cos(t), rho * math.sin(t), 1.0])[:2]) @ x < rho * rho
        ]
        assert inside
        for x in inside:
            for tau in (5.0, -5.0):
                with pytest.raises(qf._Decline):
                    _SigmaOrbit(params, rho, np.array([x[0], x[1], math.sqrt(rho * rho - x @ x)]), tau)

    def test_debug_line(self, caplog):
        params = StandardParams(0.3, 0.5, 0.7, 0.2, 0.1)
        rho, s0 = amplitudes_to_quad(0.6 + 0.1j, 0.3 - 0.4j)
        with caplog.at_level(logging.DEBUG, logger="cubicnls.quadratic_flow"):
            orbit = _SigmaOrbit(params, rho, s0, tau_of(1e8))
        (line,) = [r.getMessage() for r in caplog.records if r.name == "cubicnls.quadratic_flow"]
        assert line.startswith(f"sigma kind={orbit.kind} interval=(")
        assert f"nodes={orbit.nodes} estimate=" in line and "period=" in line


PHIS = np.linspace(-7.0, 7.0, 57)  # phi - phi0 where TestGridBuild compares states


def orbit_bits(orbit):
    """An orbit's fields, its time rule's pieces and its states at phi0 + PHIS,
    bit for bit."""
    fields = [getattr(orbit, name, None) for name in
              ("kind", "lo", "hi", "phi0", "span", "periods", "period", "half", "nodes", "estimate")]
    return ([v.hex() if isinstance(v, float) else v for v in fields]
            + [np.asarray(v).tobytes() for v in getattr(orbit, "pieces", ())]
            + [orbit.states(orbit.phi0 + PHIS).tobytes()])


def built_in_turn(params, rho, s0, tau, caplog):
    """The bits of the orbits that quadratic_flow._sigma_orbits builds
    together from the states s0 on the spheres rho, its decline (type and
    message) and its sigma lines; and the same from one ReferenceSigmaOrbit
    a state, up to the first that declines."""
    out = []
    for build in ("grid", "one by one"):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cubicnls.quadratic_flow"):
            if build == "grid":
                orbits, failed = qf._sigma_orbits(params, rho, s0, tau)
            else:
                orbits, failed = [], None
                for r, s in zip(rho, s0):
                    try:
                        orbits.append(ReferenceSigmaOrbit(params, r, s, tau))
                    except qf._Decline as exc:
                        failed = exc
                        break
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("sigma")]
        out.append(([orbit_bits(orbit) for orbit in orbits], failed and (type(failed), str(failed)), lines))
    return out


class TestGridBuild:
    """A grid's orbits built together (quadratic_flow._sigma_orbits, as
    profile._flows builds them) against one-orbit builds of the code they
    replaced: every field, the time rule's pieces and the states, bit for
    bit, the debug lines in order, and a decline in its turn."""

    def test_seeded_grids(self, caplog):
        rng, kinds = np.random.default_rng(32), set()
        for t in (0.5, 10.0, 1e4, -1e8, 0.5, 10.0, 1e4, -1e8):
            while True:
                p = rng.uniform(-1.0, 1.0, 5)
                p[[0, 2, 4]] = np.abs(p[[0, 2, 4]])
                params = StandardParams(*p, *Q)
                if classify(params).case == 0:
                    break
            rho = rng.uniform(0.05, 2.0, 7)
            s0 = rng.standard_normal((7, 3))
            s0[3, 2] = 0.0  # an equator start, a turning point
            s0 *= (rho / np.linalg.norm(s0, axis=1))[:, None]
            grid, one = built_in_turn(params, rho.tolist(), s0, tau_of(t), caplog)
            assert grid == one
            kinds.update(bits[0] for bits in grid[0])
        assert kinds >= {"open", "turning", "periodic"}

    def test_fixed_points_among_others(self, caplog):
        # the fixed orbits of TestFixedKind between moving ones, at both signs of tau
        for p, a0 in [((0.3, 0.5, 0.7, 0.0, 0.0), (math.sqrt(0.5), 1j * math.sqrt(0.5))),
                      ((0.0, 0.5, 0.7, 0.3, 0.0), (0.6 + 0.8j, 0.0))]:
            states = [amplitudes_to_quad(*a) for a in (A0, a0, (1.0 + 0.3j, 0.4 - 0.6j), a0)]
            for tau in (tau_of(1e4), -tau_of(1e4)):
                grid, one = built_in_turn(StandardParams(*p, *Q), [r for r, _ in states], [s for _, s in states], tau,
                                          caplog)
                assert grid == one and [bits[0] for bits in grid[0]].count("fixed") == 2

    @pytest.mark.parametrize("gap, t, reason", [
        (0.0, 10.0, "tangent turning point"),
        (None, 1e4, "more than 4096 bases on a side"),
        (1e-6, 10.0, "time rule estimate"),
    ], ids=["tangent", "bases", "pieces"])
    def test_decline_in_turn(self, caplog, gap, t, reason):
        # a decline in the scan or in the time rule (which the orbits before
        # it share) ends the grid in its turn: the orbits before it are
        # built, the one after it is not, and the lines are the one-by-one ones
        params, s0 = near_touch(gap or 0.0)
        rho = 1.0 if gap is not None else 1000.0
        if gap is None:
            x = rho * np.array([-0.08, -0.2])
            s0 = np.array([*x, math.sqrt(rho * rho - x @ x)])
        good = [amplitudes_to_quad(*a) for a in (A0, (1.0 + 0.3j, 0.4 - 0.6j))]
        rhos = [good[0][0], good[1][0], rho, good[0][0]]
        states = [good[0][1], good[1][1], np.asarray(s0, dtype=float), good[0][1]]
        grid, one = built_in_turn(params, rhos, states, tau_of(t), caplog)
        assert grid == one
        assert len(grid[0]) == 2 and reason in grid[1][1] and "declined" in grid[2][-1] and len(grid[2]) == 3

    @pytest.mark.parametrize("t", [1e4, -1e8])
    def test_one_source_call_a_level(self, caplog, monkeypatch, t):
        # the time rule evaluates all the orbits' pieces in one call a round,
        # the phase integral all the sigma jobs in one call a level, on their
        # panels' nodes and far edges (at level 1 also on 0 and the span)
        xi = np.linspace(-1.6, 1.6, 9)
        fd = FinalData(xi, (1.5 + 0.4j) * (1.0 + 0.1 * xi), (0.9 - 1.0j) * np.exp(0.3j * xi) * (1.0 - 0.05 * xi))
        params, real, calls = StandardParams(0.3, 0.5, 0.7, 0.2, 0.1, *Q), qf._states, []
        a0s = list(zip(*(v.tolist() for v in fd.interp(xi))))
        states = [amplitudes_to_quad(*a0) for a0 in a0s]
        orbits = [_SigmaOrbit(params, rho, s0, tau_of(t)) for rho, s0 in states]
        jobs, _ = _reconstruct_jobs(a0s, orbits, [rho for rho, _ in states], [s0 for _, s0 in states], tau_of(t))
        assert len(jobs) > len(orbits)  # some orbits fold whole periods out: two jobs

        def counted(orbits, phi, at):
            calls.append(("phases" if all("span" in vars(o) for o in orbits) else "rule", len(orbits), len(phi)))
            return real(orbits, phi, at)

        monkeypatch.setattr(qf, "_states", counted)
        with caplog.at_level(logging.DEBUG, logger="cubicnls.reconstruction"):
            uapp(params, fd, t, 2.0 * t * xi)
        levels = [int(r.getMessage().split("levels=")[1].split()[0]) for r in caplog.records
                  if r.getMessage().startswith("reconstruct")]
        rule, phases = [c for c in calls if c[0] == "rule"], [c for c in calls if c[0] == "phases"]
        assert rule[0] == ("rule", 9, 9 * (2 * qf._SIGMA_NODES + 1)) and len(levels) == 9
        assert len(phases) == max(levels) and phases[0][1] == len(jobs)
        assert phases[0][2] == sum(16 * math.ceil(abs(span) / 0.25) + 2 for _, _, span, _, _ in jobs)


def test_declines_are_rare():
    """Fewer than 1% of seeded random uncatalogued states decline."""
    rng = np.random.default_rng(2024)
    declined = 0
    for k in range(400):
        while True:
            p = rng.uniform(-1.0, 1.0, 5)
            p[[0, 2, 4]] = np.abs(p[[0, 2, 4]])
            params = StandardParams(*p)
            if classify(params).case == 0:
                break
        rho = rng.uniform(0.05, 2.0)
        v = rng.standard_normal(3)
        try:
            _SigmaOrbit(params, rho, rho * v / np.linalg.norm(v), tau_of(TIMES[k % 5]))
        except qf._Decline:
            declined += 1
    assert declined < 4

"""The quadratic flow of (D, R, I) on the sphere and the full complex flow.

For an amplitude pair (A1, A2) the quadratic quantities are

    rho = |A1|^2 + |A2|^2      (conserved)
    D   = |A1|^2 - |A2|^2
    R   = 2 Re(conj(A1) A2)
    I   = 2 Im(conj(A1) A2)

with D^2 + R^2 + I^2 = rho^2, so (D, R, I) lives on the sphere of radius
rho.  This module provides the polynomial right-hand sides, adaptive
Runge-Kutta oracles with dense output for both flows, the sigma-reduction
of an orbit (in sigma = int 2 I dtau the plane part X = (D, R) solves the
linear X' = A X + b, so the orbit is explicit and time one quadrature),
fixed points with their stability classification, and a certificate for
the synchronization scenario (a single attracting fixed point).

The oracles share one Dormand-Prince 5(4) controller on Python floats with
scipy RK45's step control, and the pair's quartic continuous extension as
dense output (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
ODEs I, II.4-II.6).  The quadratic flow takes a straight-line trial step,
the full flow the dimension-generic one, with the same bits.  Each oracle
run, sigma-reduction and detect_sync call is logged at debug level on the
``cubicnls.quadratic_flow`` logger.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .standard_form import nonlinearity

__all__ = [
    "Circle",
    "FixedPointSet",
    "StabilityReport",
    "StiffnessError",
    "SyncResult",
    "Trajectory",
    "amplitudes_to_quad",
    "detect_sync",
    "fibonacci_sphere",
    "fixed_points",
    "flow_jacobian",
    "full_ode_rhs",
    "gamma_pair",
    "integrate_full",
    "integrate_quad",
    "qqq_rhs",
    "random_sphere_states",
    "stability",
]

log = logging.getLogger(__name__)

ASYMPTOTICALLY_STABLE = "asymptotically_stable_sufficient"
INCONCLUSIVE = "inconclusive"


class StiffnessError(RuntimeError):
    """The adaptive integrator failed to advance (step underflow)."""


# Above this modulus a square, or a sum of three, may overflow; the squares
# are then taken of the pair or state scaled by its largest modulus (Blue,
# ACM TOMS 4, 1978)
_SQUARE_MAX = 2.0**511


def amplitudes_to_quad(a1, a2):
    """(rho, (D, R, I)) of an amplitude pair; for 1-D arrays a1, a2, the
    array of rho and the (n, 3) array of states, each element bit for bit
    its own call.  Raises ValueError for a nonzero pair whose rho overflows
    or underflows to zero (for arrays, the first such)."""
    if np.ndim(a1) == 0:
        rho, s = _quad(a1, a2)
        return rho, np.array(s)
    pairs = [_quad(x1, x2) for x1, x2 in zip(np.asarray(a1).tolist(), np.asarray(a2).tolist())]
    return np.array([r for r, _ in pairs], dtype=float), np.array([s for _, s in pairs], dtype=float).reshape(-1, 3)


def _quad(a1, a2):
    """amplitudes_to_quad of one pair, on Python floats: (rho, (D, R, I)).
    conj(a1) a2 is CPython's complex product, as numpy's scalar one."""
    x1, x2 = abs(a1), abs(a2)
    if x1 > _SQUARE_MAX or x2 > _SQUARE_MAX:  # the squares of the pair scaled by its larger modulus
        m = max(x1, x2)
        if m < math.inf and ((x1 / m) ** 2 + (x2 / m) ** 2) * m * m == math.inf:
            raise ValueError(f"the amplitudes ({a1}, {a2}) are out of range: |a1|^2 + |a2|^2 overflows")
    cross = a1.conjugate() * a2
    rho = x1**2 + x2**2
    if rho == 0.0 and (x1 > 0.0 or x2 > 0.0):
        raise ValueError(f"the amplitudes ({a1}, {a2}) are too small: rho must be positive, but "
                         "|a1|^2 + |a2|^2 underflows to 0")
    return float(rho), (x1**2 - x2**2, 2.0 * cross.real, 2.0 * cross.imag)


def qqq_rhs(params, rho: float, s) -> np.ndarray:
    """Right-hand side of the quadratic flow at state s = (D, R, I).

    The returned vector is tangent to the sphere of radius rho at s, which
    is the differential form of rho-conservation.
    """
    d, r, i = np.asarray(s, dtype=float)
    return np.array(_qqq(params.p1, params.p2, params.p3, params.p4, params.p5, rho, d, r, i))


def _qqq(p1, p2, p3, p4, p5, rho, d, r, i) -> tuple:
    """The components of qqq_rhs, for floats (the oracle's path) or for
    arrays of one shape (qqq_rhs's path)."""
    return (
        2.0 * i * (p1 * d + (p2 - p3) * r) + 2.0 * rho * p5 * i,
        2.0 * i * (-(p2 + p3) * d + p1 * r) - 2.0 * rho * p4 * i,
        -2.0 * p1 * (d * d + r * r) + 4.0 * p3 * d * r + 2.0 * rho * (-p5 * d + p4 * r),
    )


def flow_jacobian(params, rho: float, s) -> np.ndarray:
    """Jacobian of the quadratic flow at s; its symmetric part restricted to
    the tangent plane decides the sufficient stability condition."""
    d, r, i = np.asarray(s, dtype=float)
    p1, p2, p3, p4, p5 = params.p1, params.p2, params.p3, params.p4, params.p5
    return np.array(
        [
            [2.0 * p1 * i, 2.0 * (p2 - p3) * i, 2.0 * p1 * d + 2.0 * (p2 - p3) * r + 2.0 * p5 * rho],
            [-2.0 * (p2 + p3) * i, 2.0 * p1 * i, -2.0 * (p2 + p3) * d + 2.0 * p1 * r - 2.0 * p4 * rho],
            [-4.0 * p1 * d + 4.0 * p3 * r - 2.0 * p5 * rho, -4.0 * p1 * r + 4.0 * p3 * d + 2.0 * p4 * rho, 0.0],
        ]
    )


def full_ode_rhs(params, a) -> np.ndarray:
    """Derivative of the complex amplitude pair: (-i F1, -i F2)."""
    a1, a2 = complex(a[0]), complex(a[1])
    f1, f2 = nonlinearity(params, a1, a2)
    return np.array([-1j * f1, -1j * f2])


# ---------------------------------------------------------------------------
# trajectories


class Trajectory:
    """Time-stamped states with dense interpolation between the stored nodes.

    ``kind`` is "quad" for real (D, R, I) states and "amplitude" for complex
    (A1, A2) states.  Evaluation at a stored node returns the stored state
    exactly.
    """

    def __init__(self, times, states, kind, dense=None):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states)
        self.kind = kind
        self._dense = dense

    def at(self, tau):
        """State at tau (scalar -> 1-d state, array -> stacked states)."""
        taus = np.atleast_1d(np.asarray(tau, dtype=float))
        if self._dense is None:
            raise ValueError("trajectory carries no dense interpolant")
        raw = np.atleast_2d(self._dense(taus))  # (dim, n)
        if self.kind == "amplitude":
            out = np.stack([raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]], axis=-1)
        else:
            out = raw.T
        # stored nodes reproduce stored states exactly; the stable sort makes
        # the first stored node win among equal times
        order = np.argsort(self.times, kind="stable")
        pos = np.minimum(np.searchsorted(self.times[order], taus), len(order) - 1)
        node = order[pos]
        hit = self.times[node] == taus
        out[hit] = self.states[node[hit]]
        return out[0] if np.ndim(tau) == 0 else out

    def resampled(self, taus) -> "Trajectory":
        taus = np.asarray(taus, dtype=float)
        return Trajectory(taus, self.at(taus), self.kind, self._dense)

    def write_csv(self, path) -> None:
        """CSV with one row per stored node, 17 significant digits, LF endings."""
        if self.kind == "amplitude":
            header = "tau,re_a1,im_a1,re_a2,im_a2"
            rows = (
                (t, s[0].real, s[0].imag, s[1].real, s[1].imag)
                for t, s in zip(self.times, self.states)
            )
        else:
            header = "tau,D,R,I"
            rows = ((t, s[0], s[1], s[2]) for t, s in zip(self.times, self.states))
        with open(path, "w", newline="\n") as fh:
            fh.write(_csv(header, rows))


def _csv(header: str, rows) -> str:
    """CSV text: the header, then one line per row of 17-significant-digit
    values, every line ending in LF.  One %-template, with a field per
    header column, formats each row."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    return "".join([header + "\n"] + [line % tuple(row) for row in rows])


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (1e-13 <= tol <= 1e-4):
        raise ValueError(f"tolerance {tol} outside [1e-13, 1e-4]")
    return tol


def _check_sphere(rho: float, s=None):
    """Require a finite radius rho > 0 and, when s is given, a finite state
    within 1e-9 (relative to max(1, rho^2)) of the sphere of that radius,
    of radius at most 2^511, as the flow squares the state.

    Returns s as a float array (None without s).  Both tests are written so
    that NaN fails them.
    """
    if not (math.isfinite(rho) and rho > 0.0):
        raise ValueError(f"rho must be finite and positive, got {rho}")
    if s is None:
        return None
    s = np.asarray(s, dtype=float)
    if rho > _SQUARE_MAX:  # rho^2 and s @ s may overflow: s / m against rho / m
        m = max(rho, float(np.abs(s).max()))
        err = abs(float((s / m) @ (s / m)) - (rho / m) ** 2) / (rho / m) ** 2
        if not err <= 1e-9:
            raise ValueError(f"state is off the sphere of radius {rho} by {err:.3g} of rho^2")
        raise ValueError(f"rho = {rho} is too large: above 2^511 the squares of the flow's states overflow")
    err = abs(float(s @ s) - rho * rho)
    if not err <= 1e-9 * max(1.0, rho * rho):
        raise ValueError(f"state is off the sphere of radius {rho} by {err:.3g}")
    return s


def _on_sphere(rho, s) -> int:
    """How many leading radii of the list rho and states in the rows of the
    array s pass _check_sphere: s @ s of all states by one stacked matmul,
    which rounds as each state's own, and _check_sphere's tests on floats."""
    with np.errstate(over="ignore"):  # a state whose s @ s overflows fails, as its radius does
        dots = np.matmul(s[:, None], s[:, :, None]).ravel().tolist()
    return next((j for j, (r, d) in enumerate(zip(rho, dots))
                 if not (0.0 < r <= _SQUARE_MAX and abs(d - r * r) <= 1e-9 * max(1.0, r * r))), len(rho))


def _check_span(span) -> None:
    """Require both ends of an integration span to be finite (an infinite or
    NaN end can keep the adaptive integrator stepping forever)."""
    if not all(math.isfinite(float(t)) for t in span):
        raise ValueError(f"span ends must be finite, got {tuple(float(t) for t in span)}")


# Dormand-Prince 5(4) tableau, controller and continuous extension, as in
# scipy's RK45 (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6)
_DP5_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_DP5_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP5_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
# the quartic dense output y(t + x h) = y + h (K^T P) (x, x^2, x^3, x^4) with
# the c6-optimal coefficients (Shampine, Math. Comp. 46, 1986)
_DP5_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# step factor: SAFETY * err^EXPONENT, clipped to [MIN_FACTOR, MAX_FACTOR]
_DP5_SAFETY, _DP5_MIN_FACTOR, _DP5_MAX_FACTOR, _DP5_EXPONENT = 0.9, 0.2, 10.0, -0.2


# the tableau's nonzero entries as floats, read by both trial steps
_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65 = (
    _DP5_A[np.tril_indices(6, -1)].tolist()
)
_B1, _B3, _B4, _B5, _B6 = _DP5_B[_DP5_B != 0].tolist()
_E1, _E3, _E4, _E5, _E6, _E7 = _DP5_E[_DP5_E != 0].tolist()
_ROOT3 = math.sqrt(3)


def _dp5_trial(f, y: list, k1: tuple, h: float, tol: float):
    """One Dormand-Prince 5(4) trial step of y' = f(y) from the state y with
    derivative k1, for any dimension.

    Returns (the new state, the 7 stage derivatives concatenated, the RMS
    error norm with scale tol + max(|y|, |y_new|) tol).
    """
    k2 = f(*[v + (_A21 * p) * h for v, p in zip(y, k1)])
    k3 = f(*[v + (_A31 * p + _A32 * q) * h for v, p, q in zip(y, k1, k2)])
    k4 = f(*[v + (_A41 * p + _A42 * q + _A43 * r) * h for v, p, q, r in zip(y, k1, k2, k3)])
    k5 = f(*[
        v + (_A51 * p + _A52 * q + _A53 * r + _A54 * s) * h
        for v, p, q, r, s in zip(y, k1, k2, k3, k4)
    ])
    k6 = f(*[
        v + (_A61 * p + _A62 * q + _A63 * r + _A64 * s + _A65 * u) * h
        for v, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)
    ])
    y_new = [
        v + h * (_B1 * p + _B3 * r + _B4 * s + _B5 * u + _B6 * w)
        for v, p, r, s, u, w in zip(y, k1, k3, k4, k5, k6)
    ]
    k7 = f(*y_new)
    err = math.hypot(*[
        (_E1 * p + _E3 * r + _E4 * s + _E5 * u + _E6 * w + _E7 * z) * h
        / (tol + max(abs(v), abs(vn)) * tol)
        for p, r, s, u, w, z, v, vn in zip(k1, k3, k4, k5, k6, k7, y, y_new)
    ]) / math.sqrt(len(y))
    return y_new, k1 + k2 + k3 + k4 + k5 + k6 + k7, err


def _dp5_trial3(f, y, k1: tuple, h: float, tol: float):
    """_dp5_trial for the three components (D, R, I), written out: the same
    operations in the same order, so the same bits, without building a list
    per stage."""
    d, r, i = y
    d1, r1, i1 = k1
    d2, r2, i2 = f(d + (_A21 * d1) * h, r + (_A21 * r1) * h, i + (_A21 * i1) * h)
    d3, r3, i3 = f(
        d + (_A31 * d1 + _A32 * d2) * h,
        r + (_A31 * r1 + _A32 * r2) * h,
        i + (_A31 * i1 + _A32 * i2) * h,
    )
    d4, r4, i4 = f(
        d + (_A41 * d1 + _A42 * d2 + _A43 * d3) * h,
        r + (_A41 * r1 + _A42 * r2 + _A43 * r3) * h,
        i + (_A41 * i1 + _A42 * i2 + _A43 * i3) * h,
    )
    d5, r5, i5 = f(
        d + (_A51 * d1 + _A52 * d2 + _A53 * d3 + _A54 * d4) * h,
        r + (_A51 * r1 + _A52 * r2 + _A53 * r3 + _A54 * r4) * h,
        i + (_A51 * i1 + _A52 * i2 + _A53 * i3 + _A54 * i4) * h,
    )
    d6, r6, i6 = f(
        d + (_A61 * d1 + _A62 * d2 + _A63 * d3 + _A64 * d4 + _A65 * d5) * h,
        r + (_A61 * r1 + _A62 * r2 + _A63 * r3 + _A64 * r4 + _A65 * r5) * h,
        i + (_A61 * i1 + _A62 * i2 + _A63 * i3 + _A64 * i4 + _A65 * i5) * h,
    )
    dn = d + h * (_B1 * d1 + _B3 * d3 + _B4 * d4 + _B5 * d5 + _B6 * d6)
    rn = r + h * (_B1 * r1 + _B3 * r3 + _B4 * r4 + _B5 * r5 + _B6 * r6)
    i_n = i + h * (_B1 * i1 + _B3 * i3 + _B4 * i4 + _B5 * i5 + _B6 * i6)
    d7, r7, i7 = f(dn, rn, i_n)
    err = math.hypot(
        (_E1 * d1 + _E3 * d3 + _E4 * d4 + _E5 * d5 + _E6 * d6 + _E7 * d7) * h
        / (tol + max(abs(d), abs(dn)) * tol),
        (_E1 * r1 + _E3 * r3 + _E4 * r4 + _E5 * r5 + _E6 * r6 + _E7 * r7) * h
        / (tol + max(abs(r), abs(rn)) * tol),
        (_E1 * i1 + _E3 * i3 + _E4 * i4 + _E5 * i5 + _E6 * i6 + _E7 * i7) * h
        / (tol + max(abs(i), abs(i_n)) * tol),
    ) / _ROOT3
    k = (d1, r1, i1, d2, r2, i2, d3, r3, i3, d4, r4, i4, d5, r5, i5, d6, r6, i6, d7, r7, i7)
    return (dn, rn, i_n), k, err


def _dp5_path(f, trial, t0: float, t1: float, y: list, tol: float):
    """Dormand-Prince 5(4) run of y' = f(y) from the state y (a list of
    floats) at t0 to t1, on Python floats.

    The controller: f(*y) returns the derivative as a tuple of floats, and
    trial(f, y, k1, h, tol) takes one trial step (_dp5_trial, or
    _dp5_trial3 for the quadratic flow, of the same bits).  The step
    sequence is scipy RK45's at rtol = atol = tol: its initial step, RMS
    error norm with scale tol + max(|y|, |y_new|) tol, step factors, no
    growth right after a rejection and the last step clipped to t1.  Raises
    StiffnessError when a step falls below 10 ulps of its time.  Returns
    (node times, node states, the 7 stage derivatives of each accepted step
    concatenated, rejected steps, right-hand-side evaluations); a
    zero-length span has the nodes t0, t1 and no step.
    """
    if t1 == t0:
        return [t0, t1], [y, y], [], 0, 0
    n = len(y)
    root_n = math.sqrt(n)
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
            y_new, k, err = trial(f, y, fy, h, tol)
            nfev += 6
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
        stages.append(k)
        t, y, fy = t_new, y_new, k[-n:]
        times.append(t)
        states.append(y)
    return times, states, stages, rejected, nfev


class _DenseDP5:
    """The quartic continuous extension of a _dp5_path run, evaluated at an
    array of times in one pass.

    Each time takes the step whose closed interval holds it (the earlier
    step at a node, as scipy's OdeSolution chooses); times outside the span
    extrapolate the first or last step's quartic.
    """

    def __init__(self, times, states, stages):
        self.t = np.asarray(times, dtype=float)
        self.y = np.asarray(states, dtype=float)
        self._stages = stages

    @functools.cached_property
    def q(self) -> np.ndarray:
        """Q = K^T P of every step, (steps, dim, 4); built at the first call,
        which a caller reading only the nodes never makes."""
        k = np.asarray(self._stages, dtype=float).reshape(len(self._stages), 7, self.y.shape[1])
        return np.swapaxes(k, 1, 2) @ _DP5_P

    def __call__(self, taus) -> np.ndarray:
        """(dim, n) states at the n times taus."""
        taus = np.asarray(taus, dtype=float)
        steps = len(self.q)
        if steps == 0:  # zero-length span: the constant initial state
            return np.repeat(self.y[0][:, None], taus.size, axis=1)
        d = 1.0 if self.t[-1] >= self.t[0] else -1.0  # times signed by the direction increase
        seg = np.clip(np.searchsorted(d * self.t, d * taus, side="left") - 1, 0, steps - 1)
        h = self.t[seg + 1] - self.t[seg]
        x = (taus - self.t[seg]) / h
        powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
        y = h[:, None] * (self.q[seg] @ powers[:, :, None])[:, :, 0] + self.y[seg]
        return y.T


def _oracle(flow: str, f, trial, span, y0: list, tol: float):
    """Node times, node states (rows) and dense output of the Dormand-Prince
    run of f with the trial step trial over span from y0, logged at debug
    level as flow."""
    _check_span(span)
    tol = _check_tol(tol)
    t0, t1 = float(span[0]), float(span[1])
    times, states, stages, rejected, nfev = _dp5_path(f, trial, t0, t1, y0, tol)
    log.debug(
        "oracle flow=%s span=(%.17g, %.17g) tol=%.3g accepted=%d rejected=%d rhs_evals=%d",
        flow, t0, t1, tol, len(stages), rejected, nfev,
    )
    times, states = np.array(times), np.array(states)
    return times, states, _DenseDP5(times, states, stages)


def integrate_quad(params, rho: float, s0, span, tol: float = 1e-10) -> Trajectory:
    """Adaptive RK45 oracle of the quadratic flow, with dense output.

    A Dormand-Prince 5(4) run on floats with scipy RK45's step controller at
    rtol = atol = tol, evaluating qqq_rhs's formula in a straight-line trial
    step over (D, R, I) (the generic step's operations in its order, so its
    bits); the dense output is the pair's quartic continuous extension,
    exact at the stored nodes.  The state is not renormalized onto the
    sphere: conservation of rho is an observable of the test suite, not
    enforced by the integrator.  s0 is the state at span[0].  Raises
    StiffnessError when a step underflows.
    """
    s0 = _check_sphere(rho, s0)
    f = functools.partial(_qqq, params.p1, params.p2, params.p3, params.p4, params.p5, float(rho))
    times, states, dense = _oracle("quad", f, _dp5_trial3, span, s0.tolist(), tol)
    return Trajectory(times, states, "quad", dense)


def integrate_full(params, a0, span, tol: float = 1e-10) -> Trajectory:
    """Adaptive RK45 oracle of the full complex flow (same contract as
    :func:`integrate_quad`, over C^2 as four reals, with the
    dimension-generic trial step)."""
    y0 = [float(v) for z in np.asarray(a0, dtype=complex) for v in (z.real, z.imag)]

    def f(x1, y1, x2, y2):
        # (-i F1, -i F2) as real and imaginary parts
        f1, f2 = nonlinearity(params, complex(x1, y1), complex(x2, y2))
        return f1.imag, -f1.real, f2.imag, -f2.real

    times, states, dense = _oracle("full", f, _dp5_trial, span, y0, tol)
    return Trajectory(times, states[:, 0::2] + 1j * states[:, 1::2], "amplitude", dense)


# ---------------------------------------------------------------------------
# fixed points


@dataclass(frozen=True)
class Circle:
    """A circle of fixed points, stored as center, unit axis and radius."""

    center: tuple[float, float, float]
    axis: tuple[float, float, float]
    radius: float

    def samples(self, n: int = 16) -> np.ndarray:
        e1, e2 = _tangent_basis(np.asarray(self.axis))
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.asarray(self.center) + self.radius * (
            np.outer(np.cos(ang), e1) + np.outer(np.sin(ang), e2)
        )


def _tangent_basis(n_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal e1, e2 perpendicular to the unit vector n_hat, with
    e2 = n_hat x e1."""
    seed = np.array([1.0, 0.0, 0.0]) if abs(n_hat[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = seed - (seed @ n_hat) * n_hat
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(n_hat, e1)


@dataclass
class FixedPointSet:
    points: list
    circles: list

    def all_points(self) -> list:
        """The isolated points followed by 16 samples of each circle."""
        out = list(self.points)
        for c in self.circles:
            out.extend(c.samples())
        return out


def _dedup(points, tol):
    out = []
    for p in points:
        if all(np.linalg.norm(p - q) > tol for q in out):
            out.append(p)
    return out


def fibonacci_sphere(n: int, rho: float = 1.0) -> np.ndarray:
    """n nearly uniform points on the sphere of radius rho."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    ang = i * math.pi * (3.0 - math.sqrt(5.0))
    return rho * np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=-1)


def random_sphere_states(rho: float, n: int, seed: int) -> np.ndarray:
    """Seeded uniform states on the sphere of radius rho."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return rho * v / np.linalg.norm(v, axis=1, keepdims=True)


def _planar(params, rho: float):
    """Planar form X' = 2 I (A X + b), I' = -2 X.(A X + b) of the flow, where
    X = (D, R), A = [[p1, p2 - p3], [-(p2 + p3), p1]] and b = rho (p5, -p4).

    With p scaled to max|p| = 1, returns det A, X* = -A^-1 b (None if
    det A = 0) and the equator angles: on X = rho (cos t, sin t),
    I' = 2 rho^2 g(t), g = -p1 + p3 sin 2t + p4 sin t - p5 cos t, and the
    angles are the roots t of _planar_form with |z| = e^(-Im t) within 1e-6
    of 1 (a nearly tangent pair off the circle stays: fixed points need a
    flow check)."""
    _, det, x_star, roots = _planar_form(params, rho)
    return det, x_star, np.array([t.real for t in roots if abs(math.exp(-t.imag) - 1.0) <= 1e-6])


def _planar_form(params, rho: float):
    """(p / max|p| as floats, det A, X* or None, roots t) of _planar: z = e^(it)
    runs over the nonzero roots of 2i z^2 g = p3 z^4 + (p4 - i p5) z^3 -
    2i p1 z^2 - (p4 + i p5) z - p3, terms under 1e-14 of the largest trimmed
    (_quartic, or _quadratic once p3 is trimmed), and each complex t takes 4
    Newton steps on g, fewer where g' or a step is 0 or a step is 1 or more.
    """
    _check_sphere(rho)
    p = (params.p / max(abs(params.p))).tolist()
    p1, p2, p3, p4, p5 = p
    det = p1 * p1 + p2 * p2 - p3 * p3
    f = -rho / det if det else 0.0  # a float: inf for a negligible A, then X* is nan or inf without a warning
    x_star = None if det == 0.0 else np.array([f * (p1 * p5 + (p2 - p3) * p4), f * ((p2 + p3) * p5 - p1 * p4)])
    c = [p3, complex(p4, -p5), complex(0.0, -2.0 * p1), complex(-p4, -p5), -p3]
    big = max(map(abs, c))
    c = [v / big if abs(v) > 1e-14 * big else 0.0 for v in c]  # scaled, so no underflow
    roots = []
    for z in _quartic(*c) if c[0] else _quadratic(*c[1:4]) if c[1] else []:
        angle = cmath.phase(z) + 0.0  # in (-pi, pi], +0 on the positive axis
        t = complex(math.pi if angle == -math.pi else angle, -math.log(abs(z)))
        for _ in range(4):
            slope = 2.0 * p3 * cmath.cos(2.0 * t) + p4 * cmath.cos(t) + p5 * cmath.sin(t)
            new = t - (-p1 + p3 * cmath.sin(2.0 * t) + p4 * cmath.sin(t) - p5 * cmath.cos(t)) / slope if slope else t
            if not 0.0 < abs(new - t) < 1.0:  # converged, or not a local step (nor a finite one)
                break
            t = new
        roots.append(t)
    return p, det, x_star, roots


def _quartic(c0, c1, c2, c3, c4) -> list:
    """The roots of c0 z^4 + c1 z^3 + c2 z^2 + c3 z + c4 (c0, c4 nonzero) by
    Ferrari's method without the shift to a depressed quartic, which loses
    the unit roots when p3 is small: with a = c1 / c0, b, c, d likewise and
    y the resolvent root that makes r largest, (z^2 + a z / 2 + y / 2)^2 =
    (r z + e)^2.  The smaller of a/2 -+ r (of y/2 -+ e) is their product
    b - y (d) over the larger, so none cancels, and exact coefficients give
    a multiple root exactly (the triple root of p1 = p5 = 0, p4 = 2 p3)."""
    a, b, c, d = c1 / c0, c2 / c0, c3 / c0, c4 / c0
    h = 0.5 * a
    y = max(_cubic(-b, a * c - 4.0 * d, d * (4.0 * b - a * a) - c * c), key=lambda y: abs(h * h - b + y))
    r = cmath.sqrt(h * h - b + y)
    e = (h * y - c) / (2.0 * r) if r else cmath.sqrt(0.25 * y * y - d)
    (u_lo, u_hi), (v_lo, v_hi) = (
        (product / hi, hi) if abs(lo) < abs(hi) else (lo, product / lo if lo else hi)
        for lo, hi, product in ((h - r, h + r, b - y), (0.5 * y - e, 0.5 * y + e, d))
    )
    return _quadratic(1.0, u_lo, v_lo) + _quadratic(1.0, u_hi, v_hi)


def _cubic(b, c, d) -> list:
    """The roots of y^3 + b y^2 + c y + d by Cardano's formula, from the
    larger of the two cubes, which does not cancel."""
    s = b / 3.0
    p, q = c - b * s, d - s * (c - 2.0 * s * s)
    root = cmath.sqrt(0.25 * q * q + p * p * p / 27.0)
    u = max(-0.5 * q + root, -0.5 * q - root, key=abs) ** (1.0 / 3.0)
    w = complex(-0.5, 0.5 * math.sqrt(3.0))  # a cube root of unity
    return [u * k - p / (3.0 * u * k) - s for k in (1.0, w, w.conjugate())] if u else [-s] * 3


def _quadratic(a, b, c) -> list:
    """The roots of a z^2 + b z + c (a, c nonzero): the larger without
    cancellation, the smaller from their product."""
    root = cmath.sqrt(b * b - 4.0 * a * c)
    q = -0.5 * (b + root if (b.conjugate() * root).real >= 0.0 else b - root)
    return [q / a, c / q]


# The sigma-reduction (_SigmaOrbit).  In sigma = int 2 I dtau the plane part of
# the flow is X' = A X + b, so from a base (X, W = A X + b),
# X(sigma + d) = X + J0 W + J1 N W with N = A - p1 Id (N^2 = kappa Id,
# kappa = p3^2 - p2^2) and J0 Id + J1 N = int_0^d e^(A s) ds: exprel-type means
# of e^z over the eigenvalues p1 +- sqrt(kappa), the sums of
# d^(n+1) (P_n, Q_n) / (n+1)! with P_n + Q_n nu = (p1 + nu)^n, nu^2 = kappa.
# Bases 1 / |A|_F <= 1 / (|p1| + sqrt|kappa|) apart need 18 terms for 1e-17,
# and a defective (kappa = 0) or singular (p1^2 = kappa) A takes no branch.
_SIGMA_TERMS, _SIGMA_BASES = 18, 4096  # series terms; bases on a side before a decline
_SIGMA_INV_FACTORIALS = [1.0 / math.factorial(n) for n in range(1, _SIGMA_TERMS + 1)]
# 2n + 1 Clenshaw-Curtis nodes a piece, pieces before a decline; the target on
# time, in units of 1 / (rho max|p|)
_SIGMA_NODES, _SIGMA_PIECES, _SIGMA_TOL = 32, 256, 1e-13
_SIGNS = (-1.0) ** np.arange(1, 2 * _SIGMA_NODES + 2)  # -1, 1, -1, ...: a series' value at -1
_SIGMA_BLOCK = 4096  # rows of several orbits evaluated together


class _Decline(ValueError):
    """The sigma-reduction cannot certify an orbit; the message says why."""


@functools.lru_cache(maxsize=None)
def _cheb_nodes(n: int):
    """The points cos(j pi / n), j = 0..n, the matrices from values there
    to the n + 1 coefficients of their interpolant and from n + 2
    coefficients to values there, and 0..n + 1 as floats."""
    theta = math.pi * np.arange(n + 1) / n
    dct = 2.0 / n * np.cos(np.outer(np.arange(n + 1), theta))
    dct[:, [0, n]] *= 0.5
    dct[[0, n]] *= 0.5
    return np.cos(theta), dct, np.cos(np.outer(theta, np.arange(n + 2))), np.arange(n + 2.0)


def _fold(v: float, whole: float):
    """(k, r, mirror): v = k whole + r', r = min(r', whole - r'), mirror = r' > whole / 2."""
    k = math.floor(v / whole)
    return k, min(v - whole * k, whole * (k + 1) - v), v - whole * k > 0.5 * whole


class _SigmaOrbit:
    """The orbit of s0 over the time tau, by the sigma-reduction.

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
    for a fixed point); called with u, the orbit gives its states at
    phi0 + u, the source of its phase-integral jobs.  Raises _Decline, a
    ValueError, at a tangent turning point (a separatrix), a zero missed
    between the ends, over 4096 bases on a side, or a rule short of its
    target at 256 pieces.  Logs one debug line: kind, sigma interval,
    period, nodes and the two-rule estimate.  This is _sigma_orbits on one
    orbit, and states is _states on one orbit.
    """

    def __init__(self, params, rho: float, s0, tau: float):
        failed = _sigma_orbits(params, [rho], [s0], tau, [self])[1]
        if failed is not None:
            raise failed

    def __call__(self, u):
        """The states at phi0 + u, as a phase-integral job's source."""
        return self.states(self.phi0 + u)

    def _scan(self, params, rho: float, s0, tau: float, coef):
        """The orbit up to its time rule, from the series coefficients coef
        (a list and an array of them, see _sigma_orbits): the bases and the
        interval.  Returns the cuts of the rule and its target, or None for
        a fixed point; raises _Decline."""
        p1, p2, p3, p4, p5 = params.p1, params.p2, params.p3, params.p4, params.p5
        pmax = max(abs(p1), abs(p2), abs(p3), abs(p4), abs(p5))
        self.rho, self.a, self.n, self.b = rho, p1, (p2 - p3, -(p2 + p3)), (rho * p5, -rho * p4)
        self.lo = self.hi = self.phi0 = self.estimate = 0.0
        self.period, self.periods, self.nodes, i0 = None, 0, 0, float(s0[2])
        base0 = self._row(float(s0[0]), float(s0[1]), i0 * i0)
        df0 = -2.0 * (base0[0] * base0[2] + base0[1] * base0[3])  # F' = -2 X.W
        if base0[2] == base0[3] == 0.0 or (i0 == 0.0 and df0 == 0.0):
            self.kind, self.span = "fixed", tau
            self.states = lambda t: np.tile(np.asarray(s0, dtype=float), np.shape(t) + (1,))
            return None
        reach = 2.0 * rho * abs(tau)
        self.step = min(1.0 / max(math.hypot(p1, p1, *self.n), 1e-300), 0.375 * reach)  # >= 4 bases a side
        # the terms a step needs: with x = step (|p1| + sqrt|kappa|) the first one
        # left out is below (x^m + m x^(m-1)) / (m+1)!, relative
        x = self.step * (abs(p1) + math.sqrt(abs(p3 * p3 - p2 * p2)))
        m = next((m for m in range(2, _SIGMA_TERMS) if x**m + m * x ** (m - 1) <= 1e-17 * math.factorial(m + 1)),
                 _SIGMA_TERMS)
        self.coef, self.horner = coef[1][:m], coef[0][:m][::-1]
        # bases every step out from s0 to the first F <= 0 or to 1.5 reach (a
        # zero just past reach still ends the interval)
        ends, zeros, grid = {-1.0: -reach, 1.0: reach}, {}, {}
        for side in ends:
            rows = grid[side] = [base0]
            if i0 == 0.0 and side * df0 < 0.0:
                ends[side] = 0.0  # s0 is a turning point on this side
            while ends[side] and (len(rows) - 1) * self.step < 1.5 * reach:
                if len(rows) > _SIGMA_BASES:
                    raise _Decline(f"more than {_SIGMA_BASES} bases on a side")
                x0, x1, f = self._past(rows[-1], side * self.step)
                if not f > 0.0:
                    lo, f_lo = side * self.step * (len(rows) - 1), rows[-1][6]
                    for j in range(1, 60):  # from a turning start (F = 0) the zero past it may lie within this step
                        if f_lo > 0.0:
                            break
                        lo = side * self.step * 0.5**j
                        f_lo = self._past(rows[-1], lo)[2]
                    if not f_lo > 0.0:
                        raise _Decline("tangent turning point (a separatrix)")
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
        self.bases = np.array(self.rows + self.ends).T.copy()  # a row each for X, W, N W and F
        df = [2.0 * abs(r[0] * r[2] + r[1] * r[3]) for r in self.ends]
        if any(t and not d > 1e-9 * rho * rho * pmax for t, d in zip(self.turning, df)):
            raise _Decline("tangent turning point (a separatrix)")
        # dtau/dphi at phi = 0 and pi: sqrt(h / (2 |F'|)) at a turning point, 0 at an open end
        self.g_end = [math.sqrt(self.h / (2.0 * d)) if t else 0.0 for t, d in zip(self.turning, df)]
        self.kind = "periodic" if all(self.turning) else "turning" if any(self.turning) else "open"
        self.phi0 = math.atan2(2.0 * math.sqrt(-self.lo * self.hi), self.hi + self.lo)  # sigma(phi0) = 0
        self.phi0 = 2.0 * math.pi - self.phi0 if i0 < 0.0 else self.phi0
        # what _states takes for each row: 2h, lo, step, the first and last
        # base, h, and at each end half a step if it turns (0 if not) and
        # g_end; and the floor of F
        self.consts = (2.0 * self.h, self.lo, self.step, -self.k, len(self.rows) - 1 - self.k, self.h,
                       *(0.5 * self.step if t else 0.0 for t in self.turning), *self.g_end, -1e-12 * rho * rho)
        cuts = sorted([0.0, math.pi] + [math.acos((self.c - s) / self.h) for s in touches if self.lo < s < self.hi])
        return np.array(cuts), _SIGMA_TOL / (rho * pmax)

    def _finish(self, tau: float):
        """phi at tau: the span and whole periods, once the rule is done."""
        phi = self._phi(self._tau(self.phi0) + tau)
        if self.kind == "periodic":
            # leave a remainder of one whole period, not of none: the phase integral needs a span
            self.period = 2.0 * self.half
            self.periods = int(math.copysign(math.ceil(abs(phi - self.phi0) / (2.0 * math.pi)) - 1, tau))
        self.span = phi - self.phi0 - 2.0 * math.pi * self.periods

    def _log(self, declined=None):
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "sigma kind=%s interval=(%.17g, %.17g) period=%s nodes=%d estimate=%.3g",
                self.kind if declined is None else f"declined reason={declined!r}", self.lo, self.hi,
                "none" if self.period is None else "%.17g" % self.period, self.nodes, self.estimate,
            )

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
        rows, bad = _states([self], phi, [0, len(phi)])
        if bad is not None:
            self._log(_MISSED)
            raise _Decline(_MISSED)
        return rows

    @staticmethod
    def _series(g, width):
        """Chebyshev coefficients of the interpolants of rows of values at
        Clenshaw-Curtis nodes and of their integrals from the pieces' starts
        (the pieces' widths in a column)."""
        _, dct, _, k = _cheb_nodes(g.shape[1] - 1)
        a = g @ dct.T
        c = np.zeros((len(a), a.shape[1] + 2))
        c[:, :a.shape[1]] = a
        c[:, 0] *= 2.0
        t = np.empty((len(a), a.shape[1] + 1))
        t[:, 1:] = (0.25 * width) * (c[:, :-2] - c[:, 2:]) / k[1:]
        t[:, 0] = -(t[:, 1:] @ _SIGNS[:a.shape[1]])
        return a, t

    def _eval(self, p: int, phi: float):
        """(tau from the start of piece p, dtau/dphi) at phi."""
        cuts, a, t = self.pieces[:3]
        lo, hi = cuts[p].item(), cuts[p + 1].item()
        x = (2.0 * phi - lo - hi) / (hi - lo)
        cos = np.cos(math.acos(min(1.0, max(-1.0, x))) * _cheb_nodes(t.shape[1] - 2)[3])
        return (t[p] @ cos).item(), (a[p] @ cos[:-1]).item()

    def _tau(self, phi: float) -> float:
        """tau from phi = 0 to phi, for any real phi."""
        k, r, mirror = _fold(phi, 2.0 * math.pi)
        p = max(int(np.searchsorted(self.pieces[0], r)) - 1, 0)
        val = self.pieces[3][p] + self._eval(p, r)[0]
        return 2.0 * self.half * k + (2.0 * self.half - val if mirror else val)

    def _phi(self, y: float) -> float:
        """phi with tau(phi) = y: Newton steps on the piece holding it, from
        linear interpolation between its nodes."""
        k, r, mirror = _fold(y, 2.0 * self.half)
        cuts, _, _, before, at_nodes = self.pieces
        p = max(int(np.searchsorted(before, r, side="right")) - 1, 0)
        lo, hi, r = cuts[p].item(), cuts[p + 1].item(), r - before[p].item()
        phi = float(np.interp(r, at_nodes[p], 0.5 * (lo + hi) - 0.5 * (hi - lo) * _cheb_nodes(at_nodes.shape[1] - 1)[0]))
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


_MISSED = "F < 0 inside the interval (a missed zero)"


def _sigma_orbits(params, rho, s0, tau: float, orbits=None):
    """The sigma orbits of the states s0 on the spheres rho over tau, built
    together, each bit for bit its own _SigmaOrbit (made here, or the given
    blank orbits filled in): the series coefficients once, each orbit's
    scan on its own, one time rule for all (_rules) and each inversion at
    tau on its own.  Returns the orbits before the first that declines and
    its _Decline (None if none does); each orbit logs its debug line in
    turn, the declined one last."""
    p1, p2, p3 = params.p1, params.p2, params.p3
    pq, coef = (1.0, 0.0), []
    for inv in _SIGMA_INV_FACTORIALS:
        coef.append((pq[0] * inv, pq[1] * inv))
        pq = (p1 * pq[0] + (p3 * p3 - p2 * p2) * pq[1], pq[0] + p1 * pq[1])
    coef = coef, np.array(coef)
    orbits = [_SigmaOrbit.__new__(_SigmaOrbit) for _ in rho] if orbits is None else orbits
    ruled, failed = [], None
    for k, (orbit, r, s) in enumerate(zip(orbits, rho, s0)):
        try:
            rule = orbit._scan(params, r, s, tau, coef)
        except _Decline as exc:
            failed = k, exc
            break
        if rule is not None:
            ruled.append((k, orbit, *rule))
    # a decline in the rules comes before one in the scans, which stopped at theirs
    stop, failed = _rules(ruled, abs(tau)) or failed or (len(orbits), None)
    for orbit in orbits[:stop]:
        if orbit.kind != "fixed":
            orbit._finish(tau)
        orbit._log()
    if failed is not None:
        orbits[stop]._log(str(failed))
    return orbits[:stop], failed


def _rules(ruled, tau: float):
    """The time rules of ruled orbits (index, orbit, cuts, target) in one
    loop: Chebyshev series of dtau/dphi (a) and of tau (t) on each piece
    between cuts from 2n + 1 Clenshaw-Curtis nodes, each checked against
    the series of every other node.  An orbit's rule is done once its
    estimates sum to its target, which shrinks with the half-periods that
    tau spans; otherwise its pieces within their share of it (of the
    tolerance by width, of the rounding allowance by time) are kept and the
    others bisected, as reconstruction._phases bisects its panels.  A round
    evaluates the new pieces of every pending orbit in one _states call;
    the series, sums and checks run on each orbit's own rows.  Returns the
    index and the _Decline of the first orbit that declines, or None."""
    n = _SIGMA_NODES
    x, _, synth, _ = _cheb_nodes(2 * n)
    live, failed = [(k, orbit, cuts[:-1], cuts[1:], [], 0.0, tol) for k, orbit, cuts, tol in ruled], None
    while live:
        mids = [(0.5 * (hi + lo)[:, None], (hi - lo)[:, None]) for _, _, lo, hi, *_ in live]
        at = list(itertools.accumulate((len(mid) * len(x) for mid, _ in mids), initial=0))
        rows, bad = _states([s[1] for s in live], np.concatenate([(mid + 0.5 * width * x).ravel() for mid, width in mids]), at)
        if bad is not None:
            failed, live = (live[bad][0], _Decline(_MISSED)), live[:bad]
        going = []
        for (k, orbit, lo, hi, kept, err, tol), (mid, width), a, b in zip(live, mids, at, at[1:]):
            g = rows[a:b, 3].reshape(len(mid), -1)
            (c, t), coarse = (orbit._series(v, width) for v in (g, g[:, ::2]))
            diff, total = (np.abs(t[:, :n + 2] - coarse[1]), np.abs(t[:, n + 2:])), t.sum(axis=1)
            count = sum(len(kp[0]) for kp in kept) + len(lo)
            orbit.half = float((np.concatenate([kp[4] for kp in kept] + [total]) if kept else total).sum())
            orbit.nodes = count * (2 * n + 1)
            orbit.estimate, share = err + float(diff[0].sum() + diff[1].sum()), tol / (1.0 + tau / orbit.half)
            # the estimate sums the differences of all coefficients, so its rounding grows with them
            done = orbit.estimate <= share + 1e-16 * orbit.nodes * orbit.half
            if not done:
                est = diff[0].sum(axis=1) + diff[1].sum(axis=1)
                ok = est <= share / math.pi * width[:, 0] + 1e-16 * orbit.nodes * total
                done = ok.all()
            if not done:
                if count + np.count_nonzero(~ok) > _SIGMA_PIECES:
                    failed = k, _Decline(f"time rule estimate {orbit.estimate:.3g} above its target at {count} pieces")
                    break
                kept.append(tuple(v[ok] for v in (lo, hi, c, t, total)))
                lo, hi = np.concatenate((lo[~ok], mid[~ok, 0])), np.concatenate((mid[~ok, 0], hi[~ok]))
                going.append((k, orbit, lo, hi, kept, err + float(est[ok].sum()), tol))
                continue
            if kept:  # in increasing phi
                order = np.argsort(np.concatenate([kp[0] for kp in kept] + [lo]), kind="stable")
                lo, hi, c, t, total = (np.concatenate(v)[order] for v in zip(*kept, (lo, hi, c, t, total)))
            # tau at the nodes, in increasing phi, for _phi's first guess
            orbit.pieces = (np.concatenate((lo, hi[-1:])), c, t, np.cumsum(total) - total, (t @ synth.T)[:, ::-1])
        live = going
    return failed


def _states(orbits, phi, at):
    """Rows of D, R, I and dtau/dphi at the 1-D array phi, the rows
    at[k]:at[k + 1] (none empty) on orbits[k], each bit for bit that
    orbit's own call; and the first k whose F is below 0 there beyond
    rounding (a missed zero), or None.  The orbits run in blocks of whole
    orbits of at most _SIGMA_BLOCK rows (or one orbit), whose passes stay
    in the caches."""
    out, first, k = np.empty((len(phi), 4)), None, 0
    while k < len(orbits):
        e = k + 1
        while e < len(orbits) and at[e + 1] - at[k] <= _SIGMA_BLOCK:
            e += 1
        low = _block(orbits[k:e], phi[at[k]:at[e]], [a - at[k] for a in at[k:e + 1]], out[at[k]:at[e]])
        if first is None and low is not None:
            first = k + low
        k = e
    return out, first


def _block(orbits, phi, at, out):
    """_states' rows of a block into out: every pass runs over all its rows
    but the series product, which runs on each orbit's own slice, as over
    stacked rows it rounds otherwise.  Returns the first k whose F is
    below 0 beyond rounding, or None."""
    consts, offset = [], 0
    for orbit in orbits:  # and where its k-th base (base 0) and its first end lie
        consts.append((offset + orbit.k, offset + len(orbit.rows)) + orbit.consts)
        offset += orbit.bases.shape[1]
    consts = np.array(consts).T.copy()  # one orbit's broadcast, several repeated over their rows
    base, end, h2, lo, step, kmin, kmax, h, half0, half1, g0, g1 = \
        consts[:-1] if len(orbits) == 1 else np.repeat(consts[:-1], np.diff(at), axis=1)
    bases = orbits[0].bases if len(orbits) == 1 else np.concatenate([orbit.bases for orbit in orbits], axis=1)
    sin, cos = np.sin(0.5 * phi), np.cos(0.5 * phi)
    to_lo, to_hi = h2 * sin * sin, h2 * cos * cos  # sigma - lo, hi - sigma
    sigma = to_lo + lo
    i = np.minimum(np.maximum(np.rint(sigma / step), kmin), kmax)
    delta, i = sigma - i * step, i + base
    # within half a step of a turning end, from the nearer one: sigma - lo and sigma - hi exactly
    upper = to_hi < to_lo
    near = np.minimum(to_lo, to_hi) < np.where(upper, half1, half0)
    if near.any():
        np.copyto(delta, np.where(upper, -to_hi, to_lo), where=near)
        np.copyto(i, end + upper, where=near)
    b = np.take(bases, i.astype(int), axis=1)
    # J0, J1: the powers of delta (a row each) times the series coefficients
    p, j = np.empty((max(len(orbit.coef) for orbit in orbits), len(delta))), np.empty((len(delta), 2))
    p[0] = delta
    for k in range(1, len(p)):
        np.multiply(p[k - 1], delta, out=p[k])
    for orbit, a, z in zip(orbits, at, at[1:]):
        np.matmul(p[:len(orbit.coef), a:z].T.copy(), orbit.coef, out=j[a:z])
    j0, j1 = j.T.copy()
    dx0, dx1 = j0 * b[2] + j1 * b[4], j0 * b[3] + j1 * b[5]
    out[:, 0], out[:, 1] = x0, x1 = b[0] + dx0, b[1] + dx1
    # F at the base less dx.(2 X_base + dx), the dot summed from +0
    f = b[6] - ((0.0 + dx0 * (x0 + b[0])) + dx1 * (x1 + b[1]))
    low = (np.minimum.reduceat(f, at[:-1]) < consts[-1]).tolist()
    root, sc = np.sqrt(np.maximum(f, 0.0)), sin * cos
    out[:, 2] = np.copysign(root, sc)
    # dtau/dphi = h |sin phi| / (2 sqrt F), its limit at an end where F = 0
    np.divide(h * np.abs(sc), root, out=out[:, 3], where=root > 0.0)
    zero = root == 0.0
    if zero.any():
        np.copyto(out[:, 3], np.where(to_lo < to_hi, g0, g1), where=zero)
    return low.index(True) if True in low else None


def _sigma_stacked(orbits):
    """(index, u) -> the rows of orbits[index[k]] at u[k], each orbit(u)
    bit for bit, for the phase integral's jobs on sigma orbits: one _states
    call, with each job's rows on a slice of their own in the order of its
    own call.  Raises _Decline, unlogged, when one of them misses a zero:
    the caller retries job by job, and the job's own call logs it."""
    phi0 = np.array([orbit.phi0 for orbit in orbits])

    def evaluate(index, u):
        order = np.argsort(index, kind="stable")
        index = index[order]
        at = np.searchsorted(index, np.arange(len(orbits) + 1)).tolist()
        ks = [k for k in range(len(orbits)) if at[k] < at[k + 1]]  # the jobs with rows
        rows, bad = _states([orbits[k] for k in ks], phi0[index] + u[order], [at[k] for k in ks] + [len(index)])
        if bad is not None:
            raise _Decline(_MISSED)
        out = np.empty_like(rows)
        out[order] = rows
        return out

    return evaluate


def fixed_points(params, rho: float) -> FixedPointSet:
    """Fixed points of the quadratic flow on the sphere of radius rho, for
    every family from _planar: the equator roots of g (the equator, a
    Circle, where p1, p3, p4, p5 are within 1e-12 of max|p|: family 2) and
    the set A X + b = 0, shaped by classify's relative 1e-12 rules.  A
    singular A (|det A| <= 1e-12 (p1^2 + p2^2 + p3^2)) gives the circle
    v.X = s, v spanning A's row space, where b is in A's range within
    1e-12 rho (families 11 at ratio 1, 12 to 15); |X*| = rho within
    1e-12 rho the point rho X*/|X*| (family 6 at p1 = p4) where its flow is
    within the 1e-12 rho^2 of that band, else the pair (X*, +-I*) where
    |X*| < rho.  Equator points and the pair need a flow of p / max|p| at
    most 5e-13 rho^2; points on a circle or within 1e-6 rho of an earlier
    one are dropped."""
    p, det, x_star, roots = _planar_form(params, rho)
    p1, p2, p3, p4, p5 = p
    g_vanishes = max(abs(p1), abs(p3), abs(p4), abs(p5)) <= 1e-12
    circles = [Circle((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), rho)] if g_vanishes else []
    t = np.array([r.real for r in sorted(roots, key=lambda r: abs(r.imag))])  # the nearest |z| = 1 first
    pts, tangent = list(rho * np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)), []
    half_norm = p1 * p1 + p2 * p2 + p3 * p3  # |A|_F^2 / 2, 0 once A is negligible
    if abs(det) > 1e-12 * half_norm:
        size = math.hypot(*x_star)
        tangent = [np.append(rho / size * x_star, 0.0)] if abs(size - rho) <= 1e-12 * rho else []
        tangent = [s for s in tangent if math.hypot(*_qqq(*p, rho, *s.tolist())) <= 1e-12 * rho * rho]
        if size < rho and not tangent:
            pts += [np.append(x_star, sgn * math.sqrt(rho * rho - x_star @ x_star)) for sgn in (1.0, -1.0)]
    elif half_norm:
        # the rows of [A | b], the larger first: their aligned sum spans A's row space
        rows = [np.array([p1, p2 - p3, rho * p5]), np.array([-(p2 + p3), p1, -rho * p4])]
        big, small = sorted(rows, key=lambda r: r[:2] @ r[:2], reverse=True)
        row = big + np.sign(big[:2] @ small[:2]) * small
        row = (-1.0 if row[0] < 0.0 or row[0] == 0.0 and row[1] < 0.0 else 1.0) * row / math.hypot(row[0], row[1])
        v, offset = row[:2], -row[2]  # v's first nonzero entry is positive
        if max(abs(r[:2] @ v * offset + r[2]) for r in rows) <= 1e-12 * rho and abs(offset) < rho:
            radius = math.sqrt(rho * rho - offset * offset)
            center, axis = (np.append(x, 0.0) + 0.0 for x in (offset * v, v))  # + 0.0: no -0.0 entries
            circles.append(Circle(tuple(center.tolist()), tuple(axis.tolist()), radius))
    with np.errstate(over="ignore", invalid="ignore"):  # a point of inf (rho^2 overflows) fails, silently
        flow = np.hypot.reduce(_qqq(*p, rho, *np.reshape(pts, (-1, 3)).T), axis=0)  # |flow| without squares
    pts = [s for s, f in zip(pts, flow) if f <= 5e-13 * rho * rho]
    for c in circles:
        pts = [s for s in pts if abs((s - c.center) @ c.axis) > 1e-6 * rho]
    return FixedPointSet(_dedup(tangent + pts, 1e-6 * rho), circles)


# ---------------------------------------------------------------------------
# stability and synchronization


@dataclass(frozen=True)
class StabilityReport:
    point: np.ndarray
    tangent_form_eigenvalues: tuple
    classification: str


def stability(params, rho: float, point) -> StabilityReport:
    """Sufficient-condition stability test at a fixed point.

    The Jacobian's symmetric part is restricted to an orthonormal basis of
    the tangent plane; both eigenvalues below -1e-10 rho max|p| (the scale
    of the Jacobian) is sufficient for asymptotic stability, anything else
    is reported inconclusive.  A bad radius or an off-sphere point raises
    ValueError, like a non-fixed point.
    """
    point = _check_sphere(rho, point)
    pscale = max(float(np.max(np.abs(params.p))), 1e-300)
    if math.hypot(*qqq_rhs(params, rho, point)) >= 1e-8 * rho * rho * pscale:
        raise ValueError("stability requested at a non-fixed point")
    e1, e2 = _tangent_basis(point / np.linalg.norm(point))
    H = flow_jacobian(params, rho, point)
    Hs = 0.5 * (H + H.T)
    E = np.column_stack([e1, e2])
    ev = np.linalg.eigvalsh(E.T @ Hs @ E)
    cls = ASYMPTOTICALLY_STABLE if np.all(ev < -1e-10 * rho * pscale) else INCONCLUSIVE
    return StabilityReport(point, (float(ev[0]), float(ev[1])), cls)


@dataclass(frozen=True)
class SyncResult:
    point: np.ndarray
    gamma: tuple


def gamma_pair(p_inf, rho: float) -> tuple[complex, complex]:
    """The complex pair whose combination of the components decays when the
    quadratic flow collapses onto p_inf."""
    d, r, i = np.asarray(p_inf, dtype=float) / rho
    d = min(1.0, max(-1.0, d))
    s1 = math.sqrt(max(0.0, 1.0 - d * d))
    phi2 = math.atan2(i, r) if s1 > 1e-12 else 0.0
    g1 = math.sqrt(1.0 - d)
    g2 = -math.sqrt(1.0 + d) * complex(math.cos(phi2), -math.sin(phi2))
    return complex(g1), g2


def detect_sync(params, rho: float):
    """Synchronization detector: the planar certificate, exact both ways.

    With A, X* and g as in _planar: if p1 > 1e-12 max|p| (outside
    classify's p1 = 0 band), det A > 0 (so A's eigenvalues have positive
    real parts), |X*| < rho and g < 0 on the equator (g(0) < 0, no root),
    orbits cross I = 0 downward only and, in s = int 2 I dtau, follow
    X' = A X + b away from X* while I > 0 and into it while I < 0: all but
    the repeller (X*, +I*) tend to (X*, -I*), I* = sqrt(rho^2 - |X*|^2),
    which is returned without integration.

    Otherwise None: g < 0 on the equator forces the other conditions, so
    g >= 0 somewhere, up to the p1 band and _planar's 1e-6 root band.  Where
    g > 0 on an arc, each curve of X' = A X + b entering the disk there is
    traced forward while I > 0 and back while I < 0: periodic orbits filling
    an open set.  Each call logs one debug line on the
    ``cubicnls.quadratic_flow`` logger.
    """
    det, x_star, t = _planar(params, rho)
    scale = max(abs(params.p))
    source_inside = params.p1 > 1e-12 * scale and det > 0.0 and x_star @ x_star < rho * rho
    # det A of the unscaled p, for the debug line only; on Python floats a
    # huge max|p| overflows it to inf without a warning
    det_a = det * (float(scale) * float(scale)) if log.isEnabledFor(logging.DEBUG) else None
    if source_inside and -params.p1 - params.p5 < 0.0 and t.size == 0:
        point = np.append(x_star, -math.sqrt(rho * rho - x_star @ x_star))
        log.debug(
            "detect_sync candidate=(%.17g, %.17g, %.17g) certificate trace_A=%.17g det_A=%.17g "
            "x_star_over_rho=%.3g outcome=sync",
            *point, 2.0 * params.p1, det_a, math.sqrt(x_star @ x_star) / rho,
        )
        return SyncResult(point, gamma_pair(point, rho))
    log.debug(
        "detect_sync certificate trace_A=%.17g det_A=%.17g x_star_over_rho=%s equator_roots=[%s] outcome=none",
        2.0 * params.p1, det_a,
        "none" if x_star is None else "%.3g" % (math.sqrt(x_star @ x_star) / rho),
        ", ".join("%.6g" % v for v in np.sort(t)),
    )
    return None

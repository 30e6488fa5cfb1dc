"""The quadratic flow of (D, R, I) on the sphere and the full complex flow.

For an amplitude pair (A1, A2) the quadratic quantities are

    rho = |A1|^2 + |A2|^2      (conserved)
    D   = |A1|^2 - |A2|^2
    R   = 2 Re(conj(A1) A2)
    I   = 2 Im(conj(A1) A2)

with D^2 + R^2 + I^2 = rho^2, so (D, R, I) lives on the sphere of radius
rho.  This module provides the polynomial right-hand sides, adaptive
Runge-Kutta oracles with dense output for both flows, fixed points with
their stability classification, and a certificate for the synchronization
scenario (a single attracting fixed point).

The oracles are one Dormand-Prince 5(4) loop on Python floats under scipy
RK45's step controller, with the pair's quartic continuous extension as
dense output (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
ODEs I, II.4-II.6).  Each oracle run and each detect_sync call is logged at
debug level on the ``cubicnls.quadratic_flow`` logger.
"""

from __future__ import annotations

import functools
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


def amplitudes_to_quad(a1: complex, a2: complex) -> tuple[float, np.ndarray]:
    """(rho, (D, R, I)) of an amplitude pair."""
    cross = np.conj(a1) * a2
    rho = abs(a1) ** 2 + abs(a2) ** 2
    return float(rho), np.array(
        [abs(a1) ** 2 - abs(a2) ** 2, 2.0 * cross.real, 2.0 * cross.imag]
    )


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
    within 1e-9 (relative to max(1, rho^2)) of the sphere of that radius.

    Returns s as a float array (None without s).  Both tests are written so
    that NaN fails them.
    """
    if not (math.isfinite(rho) and rho > 0.0):
        raise ValueError(f"rho must be finite and positive, got {rho}")
    if s is None:
        return None
    s = np.asarray(s, dtype=float)
    err = abs(float(s @ s) - rho * rho)
    if not err <= 1e-9 * max(1.0, rho * rho):
        raise ValueError(f"state is off the sphere of radius {rho} by {err:.3g}")
    return s


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


def _dp5_path(f, t0: float, t1: float, y: list, tol: float):
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
        if self.t[-1] >= self.t[0]:
            seg = np.clip(np.searchsorted(self.t, taus, side="left") - 1, 0, steps - 1)
        else:
            ind = np.searchsorted(self.t[::-1], taus, side="right") - 1
            seg = steps - 1 - np.clip(ind, 0, steps - 1)
        h = self.t[seg + 1] - self.t[seg]
        x = (taus - self.t[seg]) / h
        powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
        y = h[:, None] * (self.q[seg] @ powers[:, :, None])[:, :, 0] + self.y[seg]
        return y.T


def _oracle(flow: str, f, span, y0: list, tol: float):
    """Node times, node states (rows) and dense output of the Dormand-Prince
    run of f over span from y0, logged at debug level as flow."""
    _check_span(span)
    tol = _check_tol(tol)
    t0, t1 = float(span[0]), float(span[1])
    times, states, stages, rejected, nfev = _dp5_path(f, t0, t1, y0, tol)
    log.debug(
        "oracle flow=%s span=(%.17g, %.17g) tol=%.3g accepted=%d rejected=%d rhs_evals=%d",
        flow, t0, t1, tol, len(stages), rejected, nfev,
    )
    times, states = np.array(times), np.array(states)
    return times, states, _DenseDP5(times, states, stages)


def integrate_quad(params, rho: float, s0, span, tol: float = 1e-10) -> Trajectory:
    """Adaptive RK45 oracle of the quadratic flow, with dense output.

    A Dormand-Prince 5(4) run on floats with scipy RK45's step controller at
    rtol = atol = tol, evaluating qqq_rhs's formula; the dense output is the
    pair's quartic continuous extension, exact at the stored nodes.  The
    state is not renormalized onto the sphere: conservation of rho is an
    observable of the test suite, not enforced by the integrator.  s0 is the
    state at span[0].  Raises StiffnessError when a step underflows.
    """
    s0 = _check_sphere(rho, s0)
    f = functools.partial(_qqq, params.p1, params.p2, params.p3, params.p4, params.p5, float(rho))
    times, states, dense = _oracle("quad", f, span, s0.tolist(), tol)
    return Trajectory(times, states, "quad", dense)


def integrate_full(params, a0, span, tol: float = 1e-10) -> Trajectory:
    """Adaptive RK45 oracle of the full complex flow (same contract as
    :func:`integrate_quad`, over C^2 as four reals)."""
    y0 = [float(v) for z in np.asarray(a0, dtype=complex) for v in (z.real, z.imag)]

    def f(x1, y1, x2, y2):
        # (-i F1, -i F2) as real and imaginary parts
        f1, f2 = nonlinearity(params, complex(x1, y1), complex(x2, y2))
        return f1.imag, -f1.real, f2.imag, -f2.real

    times, states, dense = _oracle("full", f, span, y0, tol)
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
    I' = 2 rho^2 g(t), g = -p1 + p3 sin 2t + p4 sin t - p5 cos t, and
    2i z^2 g is p3 z^4 + (p4 - i p5) z^3 - 2i p1 z^2 - (p4 + i p5) z - p3 in
    z = e^(it).  The angles are its roots within 1e-6 of |z| = 1 (terms
    under 1e-14 of the largest trimmed) after 4 Newton steps on g; a nearly
    tangent pair off the circle stays, so fixed points need a flow check.
    """
    _check_sphere(rho)
    p1, p2, p3, p4, p5 = params.p / max(abs(params.p))
    det = p1 * p1 + p2 * p2 - p3 * p3
    x_star = None if det == 0.0 else -rho / det * np.array([p1 * p5 + (p2 - p3) * p4, (p2 + p3) * p5 - p1 * p4])
    c = np.array([p3, p4 - 1j * p5, -2j * p1, -(p4 + 1j * p5), -p3])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.roots(np.where(np.abs(c) > 1e-14 * np.abs(c).max(), c, 0.0))
        t = np.angle(z[np.abs(np.abs(z) - 1.0) <= 1e-6])
        for _ in range(4):
            g = -p1 + p3 * np.sin(2.0 * t) + p4 * np.sin(t) - p5 * np.cos(t)
            t = t - g / (2.0 * p3 * np.cos(2.0 * t) + p4 * np.cos(t) + p5 * np.sin(t))
    return det, x_star, t


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


def fixed_points(params, rho: float) -> FixedPointSet:
    """Fixed points of the quadratic flow on the sphere of radius rho.

    For the catalogued parameter families the analytic sets are returned
    (continua as Circle descriptors).  For families 14 and 15 the circle is
    analytic and the isolated points off it, like every fixed point of
    parameters outside the catalogue, are algebraic: the equator roots of
    the quartic of _planar and the pair (X*, +-I*) where A X* + b = 0.
    """
    from .closed_form import classify  # local import to avoid a cycle

    _check_sphere(rho)
    p1, p2, p3, p4, p5 = (float(x) for x in params.p)
    case_id = classify(params)
    case = case_id.case
    pts = [sgn * rho * np.eye(3)[k] for k in _AXES.get(case, ()) for sgn in (1.0, -1.0)]
    circles = []

    if case == 2:
        circles = [Circle((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), rho)]
    elif case == 6:
        # the branch is the one classify chose, so the p1 = p4 band agrees
        # with the closed form
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
            circles = [Circle((0.0, 0.0, 0.0), tuple(np.array([1.0, -1.0, 0.0]) / math.sqrt(2)), rho)]
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
            circles = [Circle((-p4 / (2 * p3) * rho, 0.0, 0.0), (1.0, 0.0, 0.0), w)]
    elif case == 13:
        if 2.0 * p3 > p5:
            w = rho * math.sqrt(1.0 - (p5 / (2.0 * p3)) ** 2)
            circles = [Circle((0.0, p5 / (2 * p3) * rho, 0.0), (0.0, 1.0, 0.0), w)]
    elif case in (14, 15):
        # p1^2 + p2^2 = p3^2 makes the flow vanish on the whole plane
        # p1 D + (p2 - p3) R + rho p5 = 0; its other fixed points are isolated
        norm = math.hypot(p1, p2 - p3)  # no underflow for tiny p
        axis = np.array([p1 / norm, (p2 - p3) / norm, 0.0])
        offset = -rho * p5 / norm
        if abs(offset) < rho:
            circles = [Circle(tuple(offset * axis), tuple(axis), math.sqrt(rho * rho - offset * offset))]
    if case in (0, 14, 15):
        _, x_star, t = _planar(params, rho)
        pts = list(rho * np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1))
        if x_star is not None and x_star @ x_star <= rho * rho:
            pts += [np.append(x_star, sgn * math.sqrt(rho * rho - x_star @ x_star)) for sgn in (1.0, -1.0)]
        # a flow of p / max|p| above 5e-13 rho^2 drops a near-tangent equator pair and X* of a near-singular A
        flow = np.linalg.norm(_qqq(*params.p / max(abs(params.p)), rho, *np.reshape(pts, (-1, 3)).T), axis=0)
        pts = [s for s, f in zip(pts, flow) if f <= 5e-13 * rho * rho]
        pts = [s for s in pts if case == 0 or abs(s @ axis - offset) > 1e-6 * rho]

    return FixedPointSet(_dedup(pts, 1e-6 * rho), circles)


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
    the tangent plane; both eigenvalues below -1e-10 is sufficient for
    asymptotic stability, anything else is reported inconclusive.  A bad
    radius or an off-sphere point raises ValueError, like a non-fixed point.
    """
    point = _check_sphere(rho, point)
    pscale = max(float(np.max(np.abs(params.p))), 1e-300)
    if np.linalg.norm(qqq_rhs(params, rho, point)) >= 1e-8 * rho * rho * pscale:
        raise ValueError("stability requested at a non-fixed point")
    e1, e2 = _tangent_basis(point / np.linalg.norm(point))
    H = flow_jacobian(params, rho, point)
    Hs = 0.5 * (H + H.T)
    E = np.column_stack([e1, e2])
    ev = np.linalg.eigvalsh(E.T @ Hs @ E)
    cls = ASYMPTOTICALLY_STABLE if np.all(ev < -1e-10) else INCONCLUSIVE
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
    if source_inside and -params.p1 - params.p5 < 0.0 and t.size == 0:
        point = np.append(x_star, -math.sqrt(rho * rho - x_star @ x_star))
        log.debug(
            "detect_sync candidate=(%.17g, %.17g, %.17g) certificate trace_A=%.17g det_A=%.17g "
            "x_star_over_rho=%.3g outcome=sync",
            *point, 2.0 * params.p1, det * scale**2, math.sqrt(x_star @ x_star) / rho,
        )
        return SyncResult(point, gamma_pair(point, rho))
    log.debug(
        "detect_sync certificate trace_A=%.17g det_A=%.17g x_star_over_rho=%s equator_roots=[%s] outcome=none",
        2.0 * params.p1, det * scale**2,
        "none" if x_star is None else "%.3g" % (math.sqrt(x_star @ x_star) / rho),
        ", ".join("%.6g" % v for v in np.sort(t)),
    )
    return None

"""Computations made apart from the program, used to check its outputs.

Nothing here imports ``cubicnls``.  The flows are integrated with scipy's
DOP853 from a transcription of the standard system written for this file;
general systems are built by evaluating cubic maps on probe points and
solving for the twelve monomial coefficients.  The two explicit profile
formulas of the program (``case1_profile``, ``case3_profile``) are the one
exception: they are the reference the pure families are checked against,
and ``checks.py`` calls them directly.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12
ATOL = 1e-14


# ---------------------------------------------------------------------------
# the standard system and general cubic systems


def standard_F(p, q, z1, z2):
    """(F1, F2) of the standard system ``i u' = F(u)``, vectorized over rows.

    ``p`` has shape (..., 5) and ``q`` shape (..., 3), broadcast against the
    complex arrays ``z1`` and ``z2``.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p1, p2, p3, p4, p5 = (p[..., k] for k in range(5))
    q1, q2, q3 = (q[..., k] for k in range(3))
    a1s = (z1 * z1.conj()).real
    a2s = (z2 * z2.conj()).real
    cross = (z1.conj() * z2).real
    pot = q1 * a1s + 2.0 * q2 * cross + q3 * a2s
    mix12 = 2.0 * a1s * z2 + z1 * z1 * z2.conj()
    mix21 = 2.0 * z1 * a2s + z1.conj() * z2 * z2
    f1 = (
        (3.0 * p2 + p3 + 2.0 * p4) * a1s * z1
        + (p1 + p5) * mix12
        + (p2 - p3) * mix21
        - (p1 - p5) * a2s * z2
        - 4.0 * p1 * cross * z1
        + pot * z1
    )
    f2 = (
        (p1 + p5) * a1s * z1
        + (p2 - p3) * mix12
        - (p1 - p5) * mix21
        + (3.0 * p2 + p3 - 2.0 * p4) * a2s * z2
        + 4.0 * p1 * cross * z2
        + pot * z2
    )
    return f1, f2


def _monomials(z1, z2):
    """The six cubic monomials, in the order of the twelve-coefficient format:
    |z1|^2 z1, |z1|^2 z2, z1^2 conj(z2), z1 |z2|^2, z2^2 conj(z1), |z2|^2 z2."""
    a1s = (z1 * z1.conj()).real
    a2s = (z2 * z2.conj()).real
    return np.stack(
        [a1s * z1, a1s * z2, z1 * z1 * z2.conj(), z1 * a2s, z2 * z2 * z1.conj(), a2s * z2],
        axis=-1,
    )


_PROBE = np.random.default_rng(20240101).standard_normal((16, 4))
_PROBE_Z1 = _PROBE[:, 0] + 1j * _PROBE[:, 1]
_PROBE_Z2 = _PROBE[:, 2] + 1j * _PROBE[:, 3]


def lambdas_of(F) -> list[float]:
    """Twelve real coefficients of the cubic map ``F(z1, z2) -> (F1, F2)``.

    Solved by least squares from probe points; raises if F is not a real
    combination of the six monomials.
    """
    basis = _monomials(_PROBE_Z1, _PROBE_Z2)
    A = np.concatenate([basis.real, basis.imag])
    out = []
    for f in F(_PROBE_Z1, _PROBE_Z2):
        b = np.concatenate([f.real, f.imag])
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.max(np.abs(A @ coef - b)) > 1e-11 * max(1.0, np.max(np.abs(b))):
            raise ValueError("map is not cubic in the twelve-monomial basis")
        out += [float(c) for c in coef]
    return out


def disguised_system(p, q, M) -> list[float]:
    """Coefficients of the system met by ``v = M u`` when u solves the
    standard system with parameters (p, q); M is a real invertible 2x2."""
    M = np.asarray(M, dtype=float)
    N = np.linalg.inv(M)

    def G(v1, v2):
        u1 = N[0, 0] * v1 + N[0, 1] * v2
        u2 = N[1, 0] * v1 + N[1, 1] * v2
        f1, f2 = standard_F(p, q, u1, u2)
        return M[0, 0] * f1 + M[0, 1] * f2, M[1, 0] * f1 + M[1, 1] * f2

    return lambdas_of(G)


def quarter_turn(p, q):
    """Parameters after turning the component pair by a quarter: p4 and p5
    change sign, q1 and q3 swap, q2 changes sign.  The reduction may pick
    this representative when p4 = p5 = 0 leaves the rotation undecided."""
    p = np.asarray(p, dtype=float) * np.array([1.0, 1.0, 1.0, -1.0, -1.0])
    q = np.asarray(q, dtype=float)
    return p, np.array([q[2], -q[1], q[0]])


# ---------------------------------------------------------------------------
# flows


def _integrate_rows(p, q, a0, tau_end):
    """Amplitude pairs at ``tau_end`` for every row, by DOP853.

    Rows are integrated together in the normalized time s in [0, 1] with
    tau = tau_end * s, so each row may have its own end time.  Returns a
    dense-output callable s -> (n, 2) complex amplitudes.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a0 = np.asarray(a0, dtype=complex)
    scale = np.asarray(tau_end, dtype=float)
    n = len(a0)

    def rhs(_s, y):
        z = y.reshape(n, 2)
        f1, f2 = standard_F(p, q, z[:, 0], z[:, 1])
        return (-1j * scale[:, None] * np.stack([f1, f2], axis=-1)).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), a0.ravel(), method="DOP853", rtol=RTOL, atol=ATOL, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return lambda s: sol.sol(s).T.reshape(np.shape(s) + (n, 2))


def amplitudes_at(p, q, a0, tau):
    """Complex flow of the standard system: amplitude pairs (n, 2) at tau (n,)."""
    return _integrate_rows(p, q, a0, tau)(1.0)


def quad_of(a):
    """(rho, (D, R, I)) of amplitude pairs with shape (..., 2)."""
    a1, a2 = a[..., 0], a[..., 1]
    cross = a1.conj() * a2
    m1, m2 = np.abs(a1) ** 2, np.abs(a2) ** 2
    return m1 + m2, np.stack([m1 - m2, 2.0 * cross.real, 2.0 * cross.imag], axis=-1)


def amplitudes_of(rho, s):
    """An amplitude pair with quadratic quantities (rho, s), for rows of s."""
    s = np.asarray(s, dtype=float)
    rho = np.asarray(rho, dtype=float)
    d, r, i = s[..., 0], s[..., 1], s[..., 2]
    first = rho + d >= rho - d
    big1 = np.sqrt(np.maximum(rho + d, 0.0) / 2.0)
    big2 = np.sqrt(np.maximum(rho - d, 0.0) / 2.0)
    a1 = np.where(first, big1, (r - 1j * i) / (2.0 * np.where(first, 1.0, big2)))
    a2 = np.where(first, (r + 1j * i) / (2.0 * np.where(first, big1, 1.0)), big2)
    return np.stack([a1, a2], axis=-1)


def quad_trajectories(p, rho, s0, taus):
    """States (n, k, 3) of the quadratic flow through s0 (n, 3) at taus (n, k).

    The quadratic flow is not integrated directly: amplitudes with the given
    quadratic quantities are carried by the complex flow (the potential q
    only turns their common phase) and their quadratic quantities returned.
    Each row's taus are split into the two time directions.
    """
    p = np.asarray(p, dtype=float)
    taus = np.asarray(taus, dtype=float)
    n = len(taus)
    a0 = amplitudes_of(rho, s0)
    q = np.zeros((n, 3))
    out = np.empty(taus.shape + (3,))
    for sgn in (1.0, -1.0):
        end = np.max(np.where(sgn * taus >= 0.0, np.abs(taus), 0.0), axis=1)
        end = np.where(end > 0.0, end, 1.0)
        dense = _integrate_rows(p, q, a0, sgn * end)
        for row in range(n):
            sel = sgn * taus[row] >= 0.0
            a = dense(np.abs(taus[row, sel]) / end[row])[:, row, :]
            out[row, sel] = quad_of(a)[1]
    return out


def prefactor(t, x):
    """(2 i t)^(-1/2) exp(i x^2 / 4t), principal square root."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.exp(1j * x * x / (4.0 * t)) / np.sqrt(2j * t)


def interp_pair(xi_grid, alpha1, alpha2, xi):
    """Complex-linear interpolation of the final data at xi."""
    a1 = np.interp(xi, xi_grid, alpha1.real) + 1j * np.interp(xi, xi_grid, alpha1.imag)
    a2 = np.interp(xi, xi_grid, alpha2.real) + 1j * np.interp(xi, xi_grid, alpha2.imag)
    return a1, a2

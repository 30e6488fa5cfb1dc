"""Jacobi elliptic functions and first-kind elliptic integrals.

Everything here is built on the arithmetic-geometric mean (the descending
Landen transformation), which converges quadratically and gives close to
machine precision uniformly in the parameter.  The parameter convention is
``m = k**2`` with ``0 <= m <= 1``; at ``m = 0`` the functions degenerate to
trigonometric functions and at ``m = 1`` to hyperbolic ones.

The amplitude ``am(u, m)`` is returned *unwrapped*: it is the globally
monotone inverse of the incomplete integral, not a principal value, so
``am(u + 2K, m) = am(u, m) + pi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EllipticDomainError",
    "JacobiValues",
    "arccos_clamped",
    "arcsin_clamped",
    "complete_K",
    "incomplete_F",
    "invert_sn_cn",
    "jacobi",
    "jacobi_am",
    "jacobi_sn_cn_dn",
]

_AGM_TOL = 1e-15
_MAX_ITER = 64
# Above this the co-modulus is below ~1e-5 and the AGM loses accuracy;
# switch to the exact m = 1 hyperbolic forms.
_M_HYPERBOLIC = 1.0 - 1e-10
_CLAMP_TOL = 1e-12


class EllipticDomainError(ValueError):
    """Argument outside the real domain of the requested function."""


@dataclass(frozen=True)
class JacobiValues:
    """Values of sn, cn, dn and the derived ratios cd, sd, nd at one point."""

    sn: float
    cn: float
    dn: float
    cd: float
    sd: float
    nd: float


def _clamped(fn, name: str, x):
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + _CLAMP_TOL):
        raise EllipticDomainError(f"{name} argument {x!r} outside [-1, 1] beyond tolerance")
    out = fn(np.clip(x, -1.0, 1.0))
    return float(out) if out.ndim == 0 else out


def arcsin_clamped(x):
    """arcsin with arguments within 1e-12 of [-1, 1] clamped onto it.

    Arguments farther outside the interval raise EllipticDomainError.
    """
    return _clamped(np.arcsin, "arcsin", x)


def arccos_clamped(x):
    """arccos with the same clamping contract as :func:`arcsin_clamped`."""
    return _clamped(np.arccos, "arccos", x)


def _check_m(m: float, *, allow_one: bool) -> float:
    m = float(m)
    if math.isnan(m) or m < 0.0 or m > 1.0 or (not allow_one and m == 1.0):
        upper = "1" if allow_one else "1)"
        raise EllipticDomainError(f"parameter m={m} outside [0, {upper}")
    return m


def _agm(a: float, b: float) -> float:
    for _ in range(_MAX_ITER):
        if abs(a - b) <= _AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    K(m) = integral of 1/sqrt(1 - m sin^2 t) over t in [0, pi/2].  Strictly
    increasing in m with K(0) = pi/2; the limit m -> 1 diverges, so m = 1 is
    rejected.
    """
    m = _check_m(m, allow_one=False)
    return math.pi / (2.0 * _agm(1.0, math.sqrt(1.0 - m)))


def _agm_levels(m: float):
    """Ascending AGM chain (a_n, c_n) for the phase recursions."""
    a = [1.0]
    b = math.sqrt(1.0 - m)
    c = [math.sqrt(m)]
    while c[-1] > _AGM_TOL and len(a) < _MAX_ITER:
        an = a[-1]
        a.append(0.5 * (an + b))
        c.append(0.5 * (an - b))
        b = math.sqrt(an * b)
    return a, c


def _amplitude(u: np.ndarray, m: float) -> np.ndarray:
    """Unwrapped amplitude am(u, m) for 0 <= m < 1, vectorized in u."""
    a, c = _agm_levels(m)
    n_top = len(a) - 1
    phi = (2.0**n_top) * a[n_top] * u
    for n in range(n_top, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(c[n] / a[n] * np.sin(phi), -1.0, 1.0)))
    return phi


def jacobi_sn_cn_dn(u, m: float):
    """Vectorized (sn, cn, dn) at real u for parameter 0 <= m <= 1.

    The argument is reduced modulo the real period 4K(m) before the AGM
    phase recursion, so accuracy does not degrade for large |u|.
    """
    m = _check_m(m, allow_one=True)
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise EllipticDomainError("argument u must be finite")
    if m >= _M_HYPERBOLIC:
        sn = np.tanh(u)
        cn = 1.0 / np.cosh(u)
        return sn, cn, cn.copy()
    K = complete_K(m)
    ured = u - 4.0 * K * np.round(u / (4.0 * K))
    phi = _amplitude(ured, m)
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(1.0 - m * sn * sn)
    return sn, cn, dn


def jacobi(u: float, m: float) -> JacobiValues:
    """All six Jacobi function values at a single real argument."""
    sn, cn, dn = jacobi_sn_cn_dn(float(u), m)
    sn, cn, dn = float(sn), float(cn), float(dn)
    return JacobiValues(sn, cn, dn, cn / dn, sn / dn, 1.0 / dn)


def jacobi_am(u, m: float):
    """Unwrapped amplitude function am(u, m) = integral of dn from 0 to u."""
    m = _check_m(m, allow_one=True)
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    if not np.all(np.isfinite(u)):
        raise EllipticDomainError("argument u must be finite")
    if m >= _M_HYPERBOLIC:
        out = np.arctan(np.sinh(u))
    else:
        K = complete_K(m)
        n4 = np.round(u / (4.0 * K))
        out = _amplitude(u - 4.0 * K * n4, m) + 2.0 * math.pi * n4
    return float(out) if scalar else out


def incomplete_F(phi, m: float):
    """Incomplete elliptic integral of the first kind, F(phi, m).

    Inverse of the amplitude: am(F(phi, m), m) = phi.  Odd in phi, and for
    m < 1 quasi-periodic: F(phi + pi, m) = F(phi, m) + 2 K(m).  At m = 1 the
    domain is |phi| < pi/2 (the integral diverges at the endpoints).
    """
    m = _check_m(m, allow_one=True)
    phi_arr = np.asarray(phi, dtype=float)
    scalar = phi_arr.ndim == 0
    if m >= _M_HYPERBOLIC:
        if np.any(np.abs(phi_arr) >= 0.5 * math.pi):
            raise EllipticDomainError("incomplete_F at m = 1 requires |phi| < pi/2")
        out = np.arctanh(np.sin(phi_arr))
        return float(out) if scalar else out

    # Half-period reduction, then the ascending Landen phase recursion.
    n = np.floor(phi_arr / math.pi + 0.5)
    r = phi_arr - n * math.pi

    a, b = 1.0, math.sqrt(1.0 - m)
    phi_n = np.array(r, dtype=float, copy=True)
    two_pow = 1.0
    for _ in range(_MAX_ITER):
        phi_n = phi_n + np.round(phi_n / math.pi) * math.pi + np.arctan((b / a) * np.tan(phi_n))
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        two_pow *= 2.0
        if abs(a - b) <= _AGM_TOL * a:
            break
    K = math.pi / (2.0 * _agm(a, b))
    out = phi_n / (two_pow * a) + 2.0 * n * K
    return float(out) if scalar else out


def invert_sn_cn(sn_val: float, cn_val: float, m: float) -> float:
    """Return u with (sn, cn)(u, m) matching the given pair.

    The pair is normalized onto the unit circle first; it must be within
    1e-9 of it.  The result lies in [-2K, 2K) for m < 1.
    """
    r = math.hypot(sn_val, cn_val)
    if abs(r - 1.0) > 1e-9:
        raise EllipticDomainError(f"(sn, cn) = ({sn_val}, {cn_val}) is not on the unit circle")
    phi = math.atan2(sn_val / r, cn_val / r)
    return float(incomplete_F(phi, m))

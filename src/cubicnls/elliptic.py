"""Jacobi elliptic functions and first-kind elliptic integrals.

All of them read one arithmetic-geometric mean chain (the descending Landen
transformation from a_0 = 1, b_0 = sqrt(1 - m)), which converges
quadratically and is close to machine precision uniformly in the parameter
``m = k**2``, for every ``0 <= m < 1`` up to ``1 - m`` of one ulp (dn =
sqrt(1 - m sn**2) loses digits to cancellation as m -> 1).  At ``m = 0``
the functions degenerate to trigonometric ones; only ``m = 1`` itself takes
the exact hyperbolic forms (tanh, sech, the Gudermannian and its inverse).
Every public function raises EllipticDomainError for a parameter outside
its range and for a NaN or infinite argument.

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


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def _check_m(m: float, *, allow_one: bool) -> float:
    m = float(m)
    if not (0.0 <= m < 1.0 or (allow_one and m == 1.0)):
        raise EllipticDomainError(f"parameter m={m} outside [0, {'1]' if allow_one else '1)'}")
    return m


class _AGMChain:
    """The AGM levels a_n, b_n, c_n (c_0 = sqrt(m)) for one 0 <= m < 1.

    K stops at the first level with |a_n - b_n| <= tol a_n, F's Landen
    recursion at the first such level past 0 and the phase recursion at the
    first with c_n <= tol: one shared level would change the last bits.
    """

    def __init__(self, m: float):
        an, bn, cn = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
        self.a, self.b, self.c = [an], [bn], [cn]
        self.k_top = self.phase_top = None
        for n in range(_MAX_ITER):
            if self.k_top is None and abs(an - bn) <= _AGM_TOL * an:
                self.k_top = n
            if self.phase_top is None and cn <= _AGM_TOL:
                self.phase_top = n
            if n > 0 and self.k_top is not None and self.phase_top is not None:
                break
            an, bn, cn = 0.5 * (an + bn), math.sqrt(an * bn), 0.5 * (an - bn)
            self.a.append(an)
            self.b.append(bn)
            self.c.append(cn)
        self.K = math.pi / (2.0 * self.a[self.k_top])

    def amplitude(self, u: np.ndarray):
        """am(u, m) of u reduced modulo 4K, by the descending phase
        recursion, and the number of periods 4K removed."""
        a, c, top = self.a, self.c, self.phase_top
        n4 = np.round(u / (4.0 * self.K))
        phi = (2.0**top) * a[top] * (u - 4.0 * self.K * n4)
        for n in range(top, 0, -1):
            phi = 0.5 * (phi + np.arcsin(np.clip(c[n] / a[n] * np.sin(phi), -1.0, 1.0)))
        return phi, n4

    def incomplete_F(self, phi: np.ndarray) -> np.ndarray:
        """F(phi, m): half-period reduction, then the ascending Landen phase recursion."""
        a, b, top = self.a, self.b, max(self.k_top, 1)
        n = np.floor(phi / math.pi + 0.5)
        phi = phi - n * math.pi
        for j in range(top):
            phi = phi + np.round(phi / math.pi) * math.pi + np.arctan((b[j] / a[j]) * np.tan(phi))
        return phi / ((2.0**top) * a[top]) + 2.0 * n * (math.pi / (2.0 * a[top]))


def _checked(x, m: float, name: str):
    """Input contract of the Jacobi functions and F.

    Returns m, x as an array and the AGM chain of m, or None in place of the
    chain for m = 1, where the hyperbolic forms are used.
    """
    m = _check_m(m, allow_one=True)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise EllipticDomainError(f"argument {name} must be finite")
    return m, x, (None if m == 1.0 else _AGMChain(m))


def _clamped(fn, name: str, x):
    x = np.asarray(x, dtype=float)
    if not (np.abs(x) <= 1.0 + _CLAMP_TOL).all():
        raise EllipticDomainError(f"{name} argument {x!r} outside [-1, 1] beyond tolerance")
    return _scalar_or_array(fn(np.clip(x, -1.0, 1.0)))


def arcsin_clamped(x):
    """arcsin with arguments within 1e-12 of [-1, 1] clamped onto it.

    Arguments farther outside the interval, NaN included, raise
    EllipticDomainError.
    """
    return _clamped(np.arcsin, "arcsin", x)


def arccos_clamped(x):
    """arccos with the same clamping contract as :func:`arcsin_clamped`."""
    return _clamped(np.arccos, "arccos", x)


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    K(m) = integral of 1/sqrt(1 - m sin^2 t) over t in [0, pi/2].  Strictly
    increasing in m with K(0) = pi/2; the limit m -> 1 diverges, so m = 1 is
    rejected.
    """
    return _AGMChain(_check_m(m, allow_one=False)).K


def jacobi_sn_cn_dn(u, m: float):
    """Vectorized (sn, cn, dn) at real u for parameter 0 <= m <= 1.

    The argument is reduced modulo the real period 4K(m) before the AGM
    phase recursion, so accuracy does not degrade for large |u|.
    """
    m, u, chain = _checked(u, m, "u")
    if chain is None:
        cn = 1.0 / np.cosh(u)
        return np.tanh(u), cn, cn.copy()
    phi, _ = chain.amplitude(u)
    sn, cn = np.sin(phi), np.cos(phi)
    return sn, cn, np.sqrt(1.0 - m * sn * sn)


def jacobi(u: float, m: float) -> JacobiValues:
    """All six Jacobi function values at a single real argument."""
    sn, cn, dn = jacobi_sn_cn_dn(float(u), m)
    sn, cn, dn = float(sn), float(cn), float(dn)
    return JacobiValues(sn, cn, dn, cn / dn, sn / dn, 1.0 / dn)


def jacobi_am(u, m: float):
    """Unwrapped amplitude function am(u, m) = integral of dn from 0 to u."""
    _, u, chain = _checked(u, m, "u")
    if chain is None:
        return _scalar_or_array(np.arctan(np.sinh(u)))
    phi, n4 = chain.amplitude(u)
    return _scalar_or_array(phi + 2.0 * math.pi * n4)


def incomplete_F(phi, m: float):
    """Incomplete elliptic integral of the first kind, F(phi, m).

    Inverse of the amplitude: am(F(phi, m), m) = phi.  Odd in phi, and for
    m < 1 quasi-periodic: F(phi + pi, m) = F(phi, m) + 2 K(m).  At m = 1 the
    domain is |phi| < pi/2 (the integral diverges at the endpoints).
    """
    _, phi, chain = _checked(phi, m, "phi")
    if chain is None:
        if np.any(np.abs(phi) >= 0.5 * math.pi):
            raise EllipticDomainError("incomplete_F at m = 1 requires |phi| < pi/2")
        return _scalar_or_array(np.arctanh(np.sin(phi)))
    return _scalar_or_array(chain.incomplete_F(phi))


def invert_sn_cn(sn_val: float, cn_val: float, m: float) -> float:
    """Return u with (sn, cn)(u, m) matching the given pair.

    The pair is normalized onto the unit circle first; it must be within
    1e-9 of it.  The result lies in [-2K, 2K) for m < 1.
    """
    r = math.hypot(sn_val, cn_val)
    if not abs(r - 1.0) <= 1e-9:
        raise EllipticDomainError(f"(sn, cn) = ({sn_val}, {cn_val}) is not on the unit circle")
    phi = math.atan2(sn_val / r, cn_val / r)
    return float(incomplete_F(phi, m))

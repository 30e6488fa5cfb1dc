"""Jacobi elliptic functions and first-kind elliptic integrals.

All of them read one arithmetic-geometric mean chain (the descending Landen
transformation from a_0 = 1, b_0 = sqrt(m1)), close to machine precision
for every ``0 <= m < 1`` up to ``m1 = 1 - m`` of one ulp.  Near m = 1 the
period K ~ log(4 / sqrt(m1)) rests on digits of m1 that m has lost, so
``jacobi_sn_cn_dn``, ``incomplete_F`` and ``invert_sn_cn`` take m1 as a
keyword (1 - m by default), and dn = sqrt(m1 + m cn**2) does not cancel.
``jacobi_sn_cn_dn`` also takes arrays of m and m1, each element reading the
chain of its own pair.
At ``m = 0`` the functions are trigonometric; only ``m1 = 0`` takes the
hyperbolic forms (tanh, sech, the Gudermannian and its inverse).  Within
K/2 of an odd multiple of K, ``jacobi_sn_cn_dn`` and ``invert_sn_cn`` work
at the offset x from it (sn(K + x) = cd x, cn(K + x) = -k' sd x, dn(K + x) =
k' nd x; DLMF 22.4(iii)), so cn and dn keep relative accuracy next to the
zeros of cn.  Every public function raises EllipticDomainError for a
parameter outside its range, an m1 more than a few ulps off 1 - m, and a
non-finite argument.

The amplitude ``am(u, m)`` is returned *unwrapped*: it is the globally
monotone inverse of the incomplete integral, not a principal value, so
``am(u + 2K, m) = am(u, m) + pi``.
"""

from __future__ import annotations

import functools
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
_M1_TOL = 8.0 * 2.0**-52  # how far m1 may stray from the rounded 1 - m


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


def _check_m(m: float, m1=None, *, allow_one: bool = True):
    """m and its complement m1 (1 - m when None), within 8 ulps of 1 - m."""
    m = float(m)
    if not (0.0 <= m < 1.0 or (allow_one and m == 1.0)):
        raise EllipticDomainError(f"parameter m={m} outside [0, {'1]' if allow_one else '1)'}")
    m1 = 1.0 - m if m1 is None else float(m1)
    if not (0.0 <= m1 <= 1.0 and abs(m1 - (1.0 - m)) <= _M1_TOL):
        raise EllipticDomainError(f"complementary parameter m1={m1} is not 1 - m for m={m}")
    return m, m1


class _AGMChain:
    """The AGM levels a_n, b_n, c_n (b_0 = sqrt(m1), c_0 = sqrt(m)) for m1 > 0.

    K stops at the first level with |a_n - b_n| <= tol a_n, F's Landen
    recursion at the first such level past 0 and the phase recursion at the
    first with c_n <= tol: one shared level would change the last bits.
    """

    def __init__(self, m: float, m1: float):
        an, bn, cn = 1.0, math.sqrt(m1), math.sqrt(m)
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
        # the phase recursion's start and ratios, and the elements' top levels
        self.scale = (2.0**self.phase_top) * self.a[self.phase_top]
        self.ratio = [c / a for a, c in zip(self.a, self.c)]
        self.tops = (self.phase_top, self.phase_top)

    def reduced(self, u: np.ndarray):
        """u reduced modulo 4K into [-2K, 2K], and the number of periods removed."""
        n4 = np.round(u / (4.0 * self.K))
        return u - 4.0 * self.K * n4, n4

    def amplitude(self, t: np.ndarray):
        """am(t, m) for t in [-2K, 2K], by the descending phase recursion."""
        phi, (lowest, highest) = self.scale * t, self.tops
        for n in range(highest, 0, -1):  # minimum(maximum()) clips in half np.clip's time
            s = np.minimum(np.maximum(self.ratio[n] * np.sin(phi), -1.0), 1.0)
            step = 0.5 * (phi + np.arcsin(s))
            phi = step if n <= lowest else np.where(n <= self.phase_top, step, phi)
        return phi

    def incomplete_F(self, phi: np.ndarray) -> np.ndarray:
        """F(phi, m): half-period reduction, then the ascending Landen phase recursion."""
        a, b, top = self.a, self.b, max(self.k_top, 1)
        n = np.floor(phi / math.pi + 0.5)
        phi = phi - n * math.pi
        for j in range(top):
            phi = phi + np.round(phi / math.pi) * math.pi + np.arctan((b[j] / a[j]) * np.tan(phi))
        return phi / ((2.0**top) * a[top]) + 2.0 * n * (math.pi / (2.0 * a[top]))


# one chain per parameter pair: a closed form's points meet the same pair in
# the inversion of their start and in every evaluation
_chain = functools.lru_cache(maxsize=4096)(_AGMChain)


class _Chains(_AGMChain):
    """The AGM chains of arrays of (m, m1): K, the phase recursion's start,
    ratios and top level are arrays, each element's from the chain of its
    own pair.  Each run of equal pairs is checked by _check_m and reads one
    chain; pairs with m1 = 0 (``hyperbolic``) read m = 0's as a placeholder."""

    def __init__(self, m: np.ndarray, m1: np.ndarray):
        flat, flat1 = m.ravel(), m1.ravel()
        new = np.flatnonzero(np.concatenate([[True], (flat[1:] != flat[:-1]) | (flat1[1:] != flat1[:-1])]))
        pairs = [_check_m(a, b) for a, b in zip(flat[new].tolist(), flat1[new].tolist())]
        self.hyperbolic = [b == 0.0 for _, b in pairs]
        chains = [_chain(0.0, 1.0) if hyp else _chain(*pair) for pair, hyp in zip(pairs, self.hyperbolic)]
        self.tops = (min(ch.phase_top for ch in chains), max(ch.phase_top for ch in chains))
        # one row per attribute and level, spread over the elements of each run
        table = np.repeat([[ch.K for ch in chains], [ch.scale for ch in chains], [ch.phase_top for ch in chains]]
                          + [[ch.ratio[n] if n < len(ch.ratio) else 0.0 for ch in chains]
                             for n in range(1, self.tops[1] + 1)], np.diff(np.append(new, flat.size)), axis=1)
        self.K, self.scale, self.phase_top, *ratio = table.reshape(-1, *m.shape)
        self.ratio = [None, *ratio]


def _checked(x, m: float, m1, name: str, per_element: bool = False):
    """Input contract of the Jacobi functions and F.

    Returns m, m1, x as an array and the AGM chain, or None in place of the
    chain for m1 = 0, where the hyperbolic forms are used.  With
    per_element, m and m1 may be arrays: they are broadcast against x, the
    first pair that fails raises its own error, and the chain is _Chains.
    """
    x = np.asarray(x, dtype=float)
    if per_element and (np.ndim(m) or np.ndim(m1)):
        m = np.asarray(m, dtype=float)
        x, m, m1 = np.broadcast_arrays(x, m, 1.0 - m if m1 is None else np.asarray(m1, dtype=float))
        chain = _Chains(m, m1)
        chain = None if all(chain.hyperbolic) else chain
    else:
        m, m1 = _check_m(m, m1)
        chain = None if m1 == 0.0 else _chain(m, m1)
    if not np.isfinite(x).all():
        raise EllipticDomainError(f"argument {name} must be finite")
    return m, m1, x, chain


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
    return _chain(*_check_m(m, allow_one=False)).K


def jacobi_sn_cn_dn(u, m: float, *, m1: float | None = None):
    """Vectorized (sn, cn, dn) at real u for parameter 0 <= m <= 1.

    The argument is reduced modulo the real period 4K(m) before the AGM
    phase recursion, so accuracy does not degrade for large |u|.  m1 is
    1 - m without the rounding of m (by default 1 - m).  m and m1 may be
    arrays broadcast against u: each element gets the bits of a call with
    its own (m, m1), hyperbolic forms included, so one call serves many.
    """
    m, m1, u, chain = _checked(u, m, m1, "u", per_element=True)
    if chain is None:
        cn = 1.0 / np.cosh(u)
        return np.tanh(u), cn, cn.copy()
    t, _ = chain.reduced(u)
    x = np.abs(t) - chain.K  # the offset of |t| from K
    near = np.abs(x) <= 0.5 * chain.K
    phi = chain.amplitude(np.where(near, x, t))
    sn, cn = np.sin(phi), np.cos(phi)
    dn = np.sqrt(m1 + m * cn * cn)
    kp = np.sqrt(m1)  # sn(K + x) = cd x, cn(K + x) = -k' sd x, dn(K + x) = k' nd x
    out = np.where(near, (np.copysign(cn / dn, t), -kp * sn / dn, kp / dn), (sn, cn, dn))
    if np.ndim(m1) and any(chain.hyperbolic):  # the elements with m1 = 0
        cn = 1.0 / np.cosh(u)
        out = np.where(m1 == 0.0, (np.tanh(u), cn, cn), out)
    return tuple(out)


def jacobi(u: float, m: float) -> JacobiValues:
    """All six Jacobi function values at a single real argument."""
    sn, cn, dn = jacobi_sn_cn_dn(float(u), m)
    sn, cn, dn = float(sn), float(cn), float(dn)
    return JacobiValues(sn, cn, dn, cn / dn, sn / dn, 1.0 / dn)


def jacobi_am(u, m: float):
    """Unwrapped amplitude function am(u, m) = integral of dn from 0 to u."""
    _, _, u, chain = _checked(u, m, None, "u")
    if chain is None:
        return _scalar_or_array(np.arctan(np.sinh(u)))
    t, n4 = chain.reduced(u)
    return _scalar_or_array(chain.amplitude(t) + 2.0 * math.pi * n4)


def incomplete_F(phi, m: float, *, m1: float | None = None):
    """Incomplete elliptic integral of the first kind, F(phi, m).

    Inverse of the amplitude: am(F(phi, m), m) = phi.  Odd in phi, and for
    m < 1 quasi-periodic: F(phi + pi, m) = F(phi, m) + 2 K(m).  At m = 1 the
    domain is |phi| < pi/2 (the integral diverges at the endpoints), and
    m1 = 0 selects it (m1 is as in :func:`jacobi_sn_cn_dn`).
    """
    _, _, phi, chain = _checked(phi, m, m1, "phi")
    if chain is None:
        if np.any(np.abs(phi) >= 0.5 * math.pi):
            raise EllipticDomainError("incomplete_F at m = 1 requires |phi| < pi/2")
        return _scalar_or_array(np.arcsinh(np.tan(phi)))
    return _scalar_or_array(chain.incomplete_F(phi))


def invert_sn_cn(sn_val: float, cn_val: float, m: float, *, m1: float | None = None) -> float:
    """Return u with (sn, cn)(u, m) matching the given pair.

    The pair is normalized onto the unit circle first; it must be within
    1e-9 of it.  The result lies in [-2K, 2K) for m < 1.  m1 is as in
    :func:`jacobi_sn_cn_dn`.
    """
    r = math.hypot(sn_val, cn_val)
    if not abs(r - 1.0) <= 1e-9:
        raise EllipticDomainError(f"(sn, cn) = ({sn_val}, {cn_val}) is not on the unit circle")
    m, m1 = _check_m(m, m1)
    phi = math.atan2(sn_val / r, cn_val / r)
    if m1 == 0.0:
        return float(incomplete_F(phi, m, m1=m1))
    chain, kp = _chain(m, m1), math.sqrt(m1)
    if abs(cn_val) < math.sqrt(kp) * abs(sn_val):
        # u within K/2 of +-K, where cn / sn = k' sd x / cd x = k' sc x at
        # u = +-(K -+ x): x = F(atan2(|cn|, k' |sn|)) keeps cn's digits
        x = float(chain.incomplete_F(math.atan2(abs(cn_val), kp * abs(sn_val))))
        return math.copysign(chain.K - x if cn_val >= 0.0 else chain.K + x, sn_val)
    return float(chain.incomplete_F(phi))

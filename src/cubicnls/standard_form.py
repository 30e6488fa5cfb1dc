"""Two-component cubic systems and their reduction to standard parameters.

A general system is specified by twelve real coefficients (one per cubic
monomial and component).  It is equivalently encoded by a 3x3 structure
matrix C together with a 3-vector V of potential coefficients; a quadratic
form a|u1|^2 + 2b Re(conj(u1) u2) + c|u2|^2 is conserved exactly when
(a, b, c) lies in the kernel of C, and the system admits a coercive such
form (a c > b^2) for the class reduced here.

``reduce_to_standard`` normalizes a coercive system in three steps: a
quadratic completion turning the conserved form into |v1|^2 + |v2|^2, an
optional sign flip of the second component, and a rotation of the component
pair chosen so the standard sign constraints p1, p3, p5 >= 0 hold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeneralCubic",
    "NonCoerciveError",
    "ReductionTrace",
    "ShapeError",
    "SixTuple",
    "StandardParams",
    "TrivialSystemError",
    "assemble_sixtuple",
    "build_structure",
    "extract_sixtuple",
    "mass_forms",
    "nonlinearity",
    "quadratic_potential",
    "reduce_to_standard",
    "rotate_sixtuple",
    "standard_system",
    "system_from_structure",
    "transform_cubic",
]

_KERNEL_RTOL = 1e-10  # pivot threshold, relative to the largest entry of C


class NonCoerciveError(ValueError):
    """The system has no coercive conserved quadratic form."""


class ShapeError(ValueError):
    """Structure matrix is not in the post-completion shape."""


class TrivialSystemError(ValueError):
    """All five interaction parameters vanish."""


@dataclass(frozen=True)
class GeneralCubic:
    """Coefficients (lambda_1 .. lambda_12) of a general two-component cubic system."""

    lam: tuple[float, ...]

    def __post_init__(self):
        lam = tuple(float(x) for x in self.lam)
        if len(lam) != 12:
            raise ValueError(f"expected 12 coefficients, got {len(lam)}")
        if not all(math.isfinite(x) for x in lam):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "lam", lam)

    @classmethod
    def from_json(cls, text: str) -> "GeneralCubic":
        data = json.loads(text)
        return cls(tuple(data["lambda"]))

    def to_json(self) -> str:
        return json.dumps({"lambda": list(self.lam)})


@dataclass(frozen=True)
class StandardParams:
    """The eight real parameters of the standard system.

    Sign conventions: p1, p3, p5 are nonnegative, and the five interaction
    parameters may not all vanish.  q1, q2, q3 parametrize the conserved
    real quadratic potential.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float
    q1: float = 0.0
    q2: float = 0.0
    q3: float = 0.0

    def __post_init__(self):
        vals = [self.p1, self.p2, self.p3, self.p4, self.p5, self.q1, self.q2, self.q3]
        if not all(math.isfinite(float(v)) for v in vals):
            raise ValueError("parameters must be finite")
        scale = max(abs(self.p1), abs(self.p2), abs(self.p3), abs(self.p4), abs(self.p5))
        if scale == 0.0:
            raise TrivialSystemError("all interaction parameters vanish")
        for name in ("p1", "p3", "p5"):
            v = float(getattr(self, name))
            if v < -1e-12 * scale:
                raise ValueError(f"{name} must be nonnegative, got {v}")
            object.__setattr__(self, name, max(v, 0.0))
        for name in ("p2", "p4", "q1", "q2", "q3"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def p(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3, self.p4, self.p5])

    @property
    def q(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.q3])

    @classmethod
    def from_json(cls, text: str) -> "StandardParams":
        data = json.loads(text)
        p = [float(x) for x in data["p"]]
        q = [float(x) for x in data.get("q", [0.0, 0.0, 0.0])]
        if len(p) != 5 or len(q) != 3:
            raise ValueError("expected 5 interaction and 3 potential parameters")
        return cls(*p, *q)

    def to_json(self) -> str:
        return json.dumps({"p": list(self.p), "q": list(self.q)})


@dataclass(frozen=True)
class SixTuple:
    """Parameters of the post-completion structure matrix (third column = -first)."""

    p1: float
    p2: float
    p3: float
    p3_tilde: float
    p4: float
    p5: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3, self.p3_tilde, self.p4, self.p5])


@dataclass(frozen=True)
class ReductionTrace:
    """Record of the changes of variables applied by ``reduce_to_standard``."""

    mass_form: tuple[float, float, float]
    linear_change: np.ndarray
    rotation_angle: float
    component_sign_flip: bool


# ---------------------------------------------------------------------------
# structure matrix / vector


def build_structure(g: GeneralCubic) -> tuple[np.ndarray, np.ndarray]:
    """Structure matrix C and potential vector V of a general cubic system."""
    l = (0.0,) + g.lam  # 1-based indexing to match the coefficient names
    C = np.array(
        [
            [l[2] - l[3], -l[1] + l[8] - l[9], -l[7]],
            [l[5], -l[3] + l[11], -l[9]],
            [l[6], -l[4] + l[5] + l[12], -l[10] + l[11]],
        ]
    )
    V = np.array(
        [
            l[8] - 2.0 * l[9],
            0.5 * (-l[2] + 2.0 * l[3] - l[10] + 2.0 * l[11]),
            l[4] - 2.0 * l[5],
        ]
    )
    return C, V


def system_from_structure(C: np.ndarray, V: np.ndarray) -> GeneralCubic:
    """Inverse of :func:`build_structure`: coefficients of the (C, V) system."""
    C = np.asarray(C, dtype=float)
    V = np.asarray(V, dtype=float)
    tr = np.trace(C)
    q1, q2, q3 = V
    lam = (
        -(C[0, 1] + C[1, 2]) + q1,
        2.0 * C[0, 0] - 0.5 * tr + q2,
        C[0, 0] - 0.5 * tr + q2,
        2.0 * C[1, 0] + q3,
        C[1, 0],
        C[2, 0],
        -C[0, 2],
        -2.0 * C[1, 2] + q1,
        -C[1, 2],
        -2.0 * C[2, 2] + q2 + 0.5 * tr,
        -C[2, 2] + q2 + 0.5 * tr,
        C[1, 0] + C[2, 1] + q3,
    )
    return GeneralCubic(lam)


# ---------------------------------------------------------------------------
# cubic tensor transform under linear changes of unknowns


def _tensor_from_lambda(lam) -> np.ndarray:
    """Symmetric cubic tensor T with F_c = sum T[c,i,j,k] z_i z_j conj(z_k)."""
    T = np.zeros((2, 2, 2, 2))
    for c in range(2):
        l1, l2, l3, l4, l5, l6 = lam[6 * c : 6 * c + 6]
        T[c, 0, 0, 0] = l1
        T[c, 0, 1, 0] = T[c, 1, 0, 0] = 0.5 * l2
        T[c, 0, 0, 1] = l3
        T[c, 0, 1, 1] = T[c, 1, 0, 1] = 0.5 * l4
        T[c, 1, 1, 0] = l5
        T[c, 1, 1, 1] = l6
    return T


def _lambda_from_tensor(T: np.ndarray) -> tuple[float, ...]:
    out = []
    for c in range(2):
        out += [
            T[c, 0, 0, 0],
            2.0 * T[c, 0, 1, 0],
            T[c, 0, 0, 1],
            2.0 * T[c, 0, 1, 1],
            T[c, 1, 1, 0],
            T[c, 1, 1, 1],
        ]
    return tuple(out)


def transform_cubic(g: GeneralCubic, M: np.ndarray) -> GeneralCubic:
    """Coefficients of the system satisfied by v = M u.

    M must be a real invertible 2x2 matrix; the new right-hand side is
    M F(M^-1 v), re-expanded in the twelve cubic monomials.
    """
    M = np.asarray(M, dtype=float)
    N = np.linalg.inv(M)
    T = _tensor_from_lambda(g.lam)
    Tn = np.einsum("ec,cijk,ia,jb,kd->eabd", M, T, N, N, N)
    Tn = 0.5 * (Tn + np.transpose(Tn, (0, 2, 1, 3)))
    return GeneralCubic(_lambda_from_tensor(Tn))


# ---------------------------------------------------------------------------
# conserved quadratic forms

_COERCIVITY = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])  # (a,b,c) -> ac - b^2


def mass_forms(C: np.ndarray) -> tuple[list[np.ndarray], bool]:
    """Kernel basis of C and whether it contains a coercive form.

    The kernel is computed by SVD with threshold ``1e-10 * max|C_ij|``.  A
    kernel element (a, b, c) is coercive when a c > b^2; existence is decided
    by maximizing the coercivity form over the kernel subspace.
    """
    basis = _kernel_basis(C)
    return basis, select_coercive_form(basis) is not None


def _kernel_basis(C: np.ndarray) -> list[np.ndarray]:
    """Right singular vectors of C with singular value <= 1e-10 max|C_ij|
    (the unit basis when C = 0)."""
    C = np.asarray(C, dtype=float)
    scale = np.max(np.abs(C))
    if scale == 0.0:
        return [np.eye(3)[i] for i in range(3)]
    _, s, Vt = np.linalg.svd(C)
    return [Vt[i] for i in range(3) if s[i] <= _KERNEL_RTOL * scale]


def select_coercive_form(basis: list[np.ndarray]) -> tuple[float, float, float] | None:
    """A coercive kernel element, normalized to a + c = 2, or None.

    The element nearest the standard mass direction (1, 0, 1) is preferred;
    if its coercivity is not clear the discriminant is maximized over the
    subspace instead.
    """
    if not basis:
        return None
    B = np.column_stack(basis)
    candidates = []
    w = B @ (B.T @ np.array([1.0, 0.0, 1.0]))
    if np.dot(w, w) > 1e-20:
        candidates.append(w / np.linalg.norm(w))
    S = B.T @ _COERCIVITY @ B
    S = 0.5 * (S + S.T)
    vals, vecs = np.linalg.eigh(S)
    if vals[-1] > 1e-12:
        candidates.append(B @ vecs[:, -1])
    for v in candidates:
        disc = v[0] * v[2] - v[1] ** 2
        if disc > 1e-12 * np.dot(v, v):
            if v[0] + v[2] < 0.0:
                v = -v
            v = v * (2.0 / (v[0] + v[2]))
            return (float(v[0]), float(v[1]), float(v[2]))
    return None


# ---------------------------------------------------------------------------
# six-tuple parametrization of the post-completion matrix


def extract_sixtuple(C: np.ndarray) -> SixTuple:
    """Extract the six-tuple from a matrix whose third column is minus its first."""
    C = np.asarray(C, dtype=float)
    scale = max(np.max(np.abs(C)), 1.0)
    mismatch = C[:, 2] + C[:, 0]
    for row in range(3):
        if abs(mismatch[row]) > 1e-8 * scale:
            raise ShapeError(
                f"column identity c{row + 1}3 = -c{row + 1}1 fails: "
                f"{C[row, 2]} vs {-C[row, 0]}"
            )
    p1 = 0.25 * (C[0, 0] + C[1, 1] - C[2, 0])
    p4 = -0.25 * (C[0, 1] + C[2, 1])
    p5 = 0.5 * (C[0, 0] + C[2, 0])
    p2 = 0.125 * (C[2, 1] - C[0, 1]) + 0.5 * C[1, 0]
    p3 = 0.125 * (C[2, 1] - C[0, 1]) - 0.5 * C[1, 0]
    p3_tilde = C[0, 0] - p1 - p5
    return SixTuple(p1, p2, p3, p3_tilde, p4, p5)


def assemble_sixtuple(t: SixTuple) -> np.ndarray:
    """The structure matrix parametrized by a six-tuple (bijective inverse of extraction)."""
    p1, p2, p3, pt3, p4, p5 = t.as_array()
    return np.array(
        [
            [p1 + pt3 + p5, -2.0 * (p2 + p3 + p4), -(p1 + pt3 + p5)],
            [p2 - p3, 2.0 * (p1 - pt3), -(p2 - p3)],
            [-p1 - pt3 + p5, 2.0 * (p2 + p3 - p4), p1 + pt3 - p5],
        ]
    )


def rotate_sixtuple(t: SixTuple, theta: float) -> SixTuple:
    """Six-tuple after rotating the component pair by angle theta.

    (p1, p2) are invariant, (p3, p3~) rotate by 4 theta and (p4, p5) by
    2 theta.
    """
    c4, s4 = math.cos(4.0 * theta), math.sin(4.0 * theta)
    c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
    p3 = c4 * t.p3 - s4 * t.p3_tilde
    pt3 = s4 * t.p3 + c4 * t.p3_tilde
    p4 = c2 * t.p4 - s2 * t.p5
    p5 = s2 * t.p4 + c2 * t.p5
    return SixTuple(t.p1, t.p2, p3, pt3, p4, p5)


def _rotation(theta: float) -> np.ndarray:
    # oriented so that the induced six-tuple change equals rotate_sixtuple(theta)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# the reduction pipeline


def reduce_to_standard(g: GeneralCubic) -> tuple[StandardParams, ReductionTrace]:
    """Reduce a general coercive cubic system to standard parameters.

    Raises NonCoerciveError when no coercive conserved quadratic form
    exists.  The returned trace records the mass form used, the quadratic
    completion matrix, whether the second component's sign was flipped, and
    the rotation angle (the smallest admissible candidate, see
    ``_pick_rotation``).  These tie-breaks are not a canonical form: the
    mass form is the kernel element nearest (1, 0, 1) in the given
    coordinates, so equivalent systems with several conserved forms can
    reduce to different parameters.
    """
    form = select_coercive_form(_kernel_basis(build_structure(g)[0]))
    if form is None:
        raise NonCoerciveError("no coercive conserved quadratic form; cannot reduce")
    a, b, c = form

    # Quadratic completion: A = M^T M turns the form into |v1|^2 + |v2|^2.
    A = np.array([[a, b], [b, c]])
    M = np.linalg.cholesky(A).T
    g1 = transform_cubic(g, M)
    t = extract_sixtuple(build_structure(g1)[0])

    flip = bool(t.p1 < 0.0)
    if flip:
        g1 = transform_cubic(g1, np.diag([1.0, -1.0]))
        t = extract_sixtuple(build_structure(g1)[0])

    theta = _pick_rotation(t)
    g2 = transform_cubic(g1, _rotation(theta)) if theta != 0.0 else g1
    C2, V2 = build_structure(g2)
    t2 = extract_sixtuple(C2)
    scale = max(float(np.max(np.abs(t2.as_array()))), 1e-300)
    if abs(t2.p3_tilde) > 1e-9 * scale:
        raise AssertionError(f"rotation failed to cancel p3~: {t2.p3_tilde}")

    def snap(x: float) -> float:
        return 0.0 if abs(x) <= 1e-12 * scale else x

    params = StandardParams(
        snap(t2.p1), snap(t2.p2), snap(t2.p3), snap(t2.p4), snap(t2.p5), *(float(v) for v in V2)
    )
    trace = ReductionTrace((a, b, c), M, theta, flip)
    return params, trace


def _pick_rotation(t: SixTuple) -> float:
    """Smallest angle in [0, 2 pi) that zeroes p3~ with p3 >= 0 and p5 >= 0,
    and p4 >= 0 where p5 vanishes.

    When p3 and p3~ both vanish the angle is chosen to zero p5 instead.  A
    candidate within the tolerance of 2 pi counts as 0, so the identity is
    tried first.
    """
    scale = max(float(np.max(np.abs(t.as_array()))), 1e-300)
    tol = 1e-12 * scale
    if math.hypot(t.p3, t.p3_tilde) > tol:
        phi0, divisor, count = math.atan2(t.p3_tilde, t.p3), 4.0, 8
    elif math.hypot(t.p4, t.p5) > tol:
        phi0, divisor, count = math.atan2(t.p5, t.p4), 2.0, 4
    else:
        return 0.0
    angles = (((-phi0 + k * math.pi) / divisor) % (2.0 * math.pi) for k in range(count))
    for theta in sorted(a if 2.0 * math.pi - a > tol else 0.0 for a in angles):
        r = rotate_sixtuple(t, theta)
        signs_ok = r.p3 >= -tol and r.p5 >= -tol and (r.p5 > tol or r.p4 >= -tol)
        if abs(r.p3_tilde) <= 1e-9 * scale and signs_ok:
            return theta if theta > tol else 0.0
    raise AssertionError("no admissible rotation angle found")  # cannot happen


# ---------------------------------------------------------------------------
# the standard system and its nonlinearity


def standard_system(params: StandardParams) -> GeneralCubic:
    """General-form coefficients of the standard system with the given parameters."""
    t = SixTuple(params.p1, params.p2, params.p3, 0.0, params.p4, params.p5)
    return system_from_structure(assemble_sixtuple(t), params.q)


def quadratic_potential(params, z1: complex, z2: complex) -> float:
    """The conserved real quadratic potential evaluated at (z1, z2)."""
    return (
        params.q1 * abs(z1) ** 2
        + 2.0 * params.q2 * (z1.conjugate() * z2).real
        + params.q3 * abs(z2) ** 2
    )


def nonlinearity(params, z1: complex, z2: complex) -> tuple[complex, complex]:
    """Right-hand side pair (F1, F2) of the standard system at (z1, z2).

    Satisfies the null condition Im(conj(z1) F1 + conj(z2) F2) = 0
    identically, which is what makes |z1|^2 + |z2|^2 a conserved mass.
    """
    p1, p2, p3, p4, p5 = params.p1, params.p2, params.p3, params.p4, params.p5
    a1s, a2s = abs(z1) ** 2, abs(z2) ** 2
    cross = (z1.conjugate() * z2).real
    v = quadratic_potential(params, z1, z2)
    mix12 = 2.0 * a1s * z2 + z1 * z1 * z2.conjugate()
    mix21 = 2.0 * z1 * a2s + z1.conjugate() * z2 * z2
    f1 = (
        (3.0 * p2 + p3 + 2.0 * p4) * a1s * z1
        + (p1 + p5) * mix12
        + (p2 - p3) * mix21
        - (p1 - p5) * a2s * z2
        - 4.0 * p1 * cross * z1
        + v * z1
    )
    f2 = (
        (p1 + p5) * a1s * z1
        + (p2 - p3) * mix12
        - (p1 - p5) * mix21
        + (3.0 * p2 + p3 - 2.0 * p4) * a2s * z2
        + 4.0 * p1 * cross * z2
        + v * z2
    )
    return f1, f2

"""Correctness checks of the CLI outputs, run outside the timed region.

``references`` computes, once per operation, what the output must match;
``judge`` compares one output with it and is cheap, so that ``corruptions``
can show that every check rejects a deliberately broken output.

Tolerances: the program's oracle runs at tol 1e-10 and keeps states and
amplitudes within about 1e-9 of the truth, so closed form vs oracle and
program vs reference must agree within 1e-6 (absolute for states, relative
for profile values); the mass identity holds to rounding in the closed-form
pipeline and to the oracle's drift in the fallback, so 1e-8 relative.
Profile points the program computes with its RK45 fallback (parameters
outside the catalogue) are held to the same 1e-6: over seeds 1-200 of
``pipeline-oracle`` the largest error was 4.0e-9.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

import reference as ref
from workloads import SYNC_FAMILIES, Op

STATE_TOL = 1e-6
SPHERE_TOL = 1e-7
FIXED_SPHERE_TOL = 1e-9
FLOW_TOL = 1e-8
PROFILE_TOL = 1e-6
MASS_TOL = 1e-8
PARAM_TOL = 1e-9


@dataclass
class Verdict:
    ok: bool
    why: str = ""
    dev: float = 0.0  # largest closed-form vs program-oracle deviation column
    ref_err: float = 0.0  # largest error against the reference
    mass_err: float = 0.0  # largest relative error of the mass identity


def _table(out: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)


def _solve_taus(op: Op) -> np.ndarray:
    span = float(op.argv[[a.startswith("--span=") for a in op.argv].index(True)][7:].split(",")[1])
    return np.linspace(-span, span, int(op.argv[op.argv.index("--samples") + 1]))


def _profile_points(op: Op):
    grid = op.argv[[a.startswith("--x-grid=") for a in op.argv].index(True)][9:].split(",")
    xs = np.linspace(float(grid[0]), float(grid[1]), int(grid[2]))
    return op.meta["t"], xs


# ---------------------------------------------------------------------------
# references


def references(ops: list, explicit_profiles) -> list:
    """Per operation, the data its output is judged against (or None).

    ``explicit_profiles`` maps the pure-family tags "p1" and "p3" to the
    program's explicit profile formulas, as ``(p, q, fd, t, x) -> (u1, u2)``.
    """
    refs = [None] * len(ops)

    solves = [k for k, op in enumerate(ops) if op.cmd == "solve"]
    if solves:
        taus = np.array([_solve_taus(ops[k]) for k in solves])
        states = ref.quad_trajectories(
            np.array([ops[k].meta["p"] for k in solves]),
            np.array([ops[k].meta["rho"] for k in solves]),
            np.array([ops[k].meta["s0"] for k in solves]),
            taus,
        )
        for j, k in enumerate(solves):
            refs[k] = (taus[j], states[j])

    # profile points not covered by an explicit formula go through DOP853
    rows, where = [], []
    for k, op in enumerate(ops):
        if op.cmd != "profile":
            continue
        t, xs = _profile_points(op)
        fd = op.meta["fd"]
        a1, a2 = ref.interp_pair(fd.xi, fd.alpha1, fd.alpha2, xs / (2.0 * t))
        pref = ref.prefactor(t, xs)
        if op.meta["tag"] in explicit_profiles:
            fn = explicit_profiles[op.meta["tag"]]
            u = np.array([fn(op.meta["p"], op.meta["q"], fd, t, x) for x in xs])
            refs[k] = (xs, u[:, 0], u[:, 1], a1, a2)
            continue
        refs[k] = [xs, None, None, a1, a2]
        for j in range(len(xs)):
            rows.append((op.meta["p"], op.meta["q"], (a1[j], a2[j]), 0.5 * math.log(t), pref[j]))
            where.append((k, j))
    if rows:
        p, q, a0, tau, pref = (np.array(col) for col in zip(*rows))
        amp = ref.amplitudes_at(p, q, a0, tau) * pref[:, None]
        for (k, j), u in zip(where, amp):
            if refs[k][1] is None:
                n = len(refs[k][0])
                refs[k][1], refs[k][2] = np.empty(n, complex), np.empty(n, complex)
            refs[k][1][j], refs[k][2][j] = u
    return refs


# ---------------------------------------------------------------------------
# judging one output


def judge(op: Op, code: int, out: str, refdata) -> Verdict:
    if code != 0:
        return Verdict(False, f"exit code {code}")
    try:
        return _JUDGES[op.cmd](op, out, refdata)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(False, f"unreadable output: {exc}")


def _judge_solve(op: Op, out: str, refdata) -> Verdict:
    taus_ref, states_ref = refdata
    data = _table(out)
    both = op.meta["mode"] == "both"
    if data.shape != (len(taus_ref), 5 if both else 4):
        return Verdict(False, f"table shape {data.shape}")
    if np.max(np.abs(data[:, 0] - taus_ref)) > 1e-12 * np.max(np.abs(taus_ref)):
        return Verdict(False, "tau column differs from the requested grid")
    rho = op.meta["rho"]
    states = data[:, 1:4]
    sphere = float(np.max(np.abs(np.sum(states * states, axis=1) - rho * rho))) / (rho * rho)
    err = float(np.max(np.abs(states - states_ref)))
    dev = float(np.max(data[:, 4])) if both else 0.0
    v = Verdict(True, dev=dev, ref_err=err)
    if not sphere <= SPHERE_TOL:
        v.ok, v.why = False, f"off the sphere by {sphere:.2e}"
    elif both and not dev <= STATE_TOL:
        v.ok, v.why = False, f"deviation column reaches {dev:.2e}"
    elif not err <= STATE_TOL:
        v.ok, v.why = False, f"differs from the reference by {err:.2e}"
    return v


def _quad_velocity(p, rho, s):
    """Time derivative of (D, R, I) at s, by the chain rule through the
    complex flow of an amplitude pair with these quadratic quantities."""
    a = ref.amplitudes_of(rho, s)
    f1, f2 = ref.standard_F(p, np.zeros(3), a[..., 0], a[..., 1])
    d1, d2 = -1j * f1, -1j * f2
    cross = d1.conj() * a[..., 1] + a[..., 0].conj() * d2
    dd = 2.0 * (a[..., 0].conj() * d1).real - 2.0 * (a[..., 1].conj() * d2).real
    return np.stack([dd, 2.0 * cross.real, 2.0 * cross.imag], axis=-1)


def _sync_expected(case, p, rho):
    """Attracting point and gamma pair of the synchronizing families.

    At the point |A1| = |A2| and conj(A1) A2 = (R + i I)/2, and gamma is
    normalized to gamma1 = 1, so gamma2 = -A1/A2.
    """
    if case == 1:
        c, s = 0.0, 1.0
    else:  # case 6 with p1 > p4
        c = p[3] / p[0]
        s = math.sqrt(1.0 - c * c)
    return np.array([0.0, rho * c, -rho * s]), (1.0 + 0j, -complex(c, s))


def _judge_fixed_points(op: Op, out: str, refdata) -> Verdict:
    doc = json.loads(out)
    p, rho, case = np.array(op.meta["p"]), op.meta["rho"], op.meta["case"]
    if doc["case"] != case:
        return Verdict(False, f"classified as case {doc['case']}, not {case}")
    pts = [e["point"] for e in doc["points"]] + [s for c in doc["circles"] for s in c["samples"]]
    if not pts:
        return Verdict(False, "no fixed points")
    pts = np.array(pts, dtype=float)
    sphere = float(np.max(np.abs(np.sum(pts * pts, axis=1) - rho * rho))) / (rho * rho)
    flow = float(np.max(np.linalg.norm(_quad_velocity(p, rho, pts), axis=1))) / (rho * rho * np.max(np.abs(p)))
    if not sphere <= FIXED_SPHERE_TOL:
        return Verdict(False, f"fixed point off the sphere by {sphere:.2e}")
    if not flow <= FLOW_TOL:
        return Verdict(False, f"flow does not vanish at a fixed point: {flow:.2e}")
    sync = doc["synchronization"]
    err = 0.0
    if case in SYNC_FAMILIES:
        if sync is None:
            return Verdict(False, "synchronization not detected")
        point, gamma = _sync_expected(case, p, rho)
        got = [complex(*g) for g in sync["gamma"]]
        err = max(
            float(np.max(np.abs(np.array(sync["point"]) - point))) / rho,
            abs(got[0] - gamma[0]), abs(got[1] - gamma[1]),
        )
        if not err <= FLOW_TOL:
            return Verdict(False, f"synchronization point or gamma off by {err:.2e}")
    elif p[0] == 0.0 and sync is not None:
        return Verdict(False, "synchronization reported for an area-preserving flow")
    return Verdict(True, ref_err=err)


def _judge_profile(op: Op, out: str, refdata) -> Verdict:
    xs, r1, r2, a1, a2 = refdata
    data = _table(out)
    if data.shape != (len(xs), 6):
        return Verdict(False, f"table shape {data.shape}")
    t = op.meta["t"]
    if np.any(data[:, 0] != t) or np.max(np.abs(data[:, 1] - xs)) > 1e-12 * np.max(np.abs(xs)):
        return Verdict(False, "t or x column differs from the request")
    u1 = data[:, 2] + 1j * data[:, 3]
    u2 = data[:, 4] + 1j * data[:, 5]
    rho_xi = np.abs(a1) ** 2 + np.abs(a2) ** 2
    mass = float(np.max(np.abs(2.0 * abs(t) * (np.abs(u1) ** 2 + np.abs(u2) ** 2) - rho_xi) / rho_xi))
    scale = np.maximum(np.abs(u1), np.abs(u2))
    err = float(np.max(np.maximum(np.abs(u1 - r1), np.abs(u2 - r2)) / scale))
    v = Verdict(True, ref_err=err, mass_err=mass)
    if not mass <= MASS_TOL:
        v.ok, v.why = False, f"mass identity off by {mass:.2e}"
    elif not err <= PROFILE_TOL:
        v.ok, v.why = False, f"differs from the reference by {err:.2e}"
    return v


def _judge_standardize(op: Op, out: str, refdata) -> Verdict:
    doc = json.loads(out)
    p, q = np.array(doc["p"], dtype=float), np.array(doc["q"], dtype=float)
    p0, q0 = np.array(op.meta["p"]), np.array(op.meta["q"])
    scale = float(p @ p0) / float(p0 @ p0)
    if not scale > 0.0:
        return Verdict(False, f"common scale {scale:.3g} is not positive")
    err = min(
        max(float(np.max(np.abs(p - scale * pp))), float(np.max(np.abs(q - scale * qq)))) / scale
        for pp, qq in ((p0, q0), ref.quarter_turn(p0, q0))
    )
    if not err <= PARAM_TOL:
        return Verdict(False, f"reduced parameters differ from the seed by {err:.2e}")
    return Verdict(True, ref_err=err)


_JUDGES = {
    "solve": _judge_solve,
    "fixed-points": _judge_fixed_points,
    "profile": _judge_profile,
    "standardize": _judge_standardize,
}


# ---------------------------------------------------------------------------
# deliberately corrupted outputs


def _rewrite_row(out: str, row: int, fn) -> str:
    lines = out.split("\n")
    vals = [float(v) for v in lines[row + 1].split(",")]
    lines[row + 1] = ",".join(f"{v:.17g}" for v in fn(vals))
    return "\n".join(lines)


def corruptions(op: Op, out: str) -> list:
    """(label, corrupted output) pairs; each must be rejected by ``judge``."""
    if op.cmd == "solve":
        mid = len(out.split("\n")) // 2
        bad = [("state", _rewrite_row(out, mid, lambda v: [v[0], v[1] + 1e-4 * op.meta["rho"]] + v[2:]))]
        if op.meta["mode"] == "both":
            bad.append(("deviation", _rewrite_row(out, mid, lambda v: v[:4] + [1e-3])))
        return bad
    if op.cmd == "fixed-points":
        doc = json.loads(out)
        doc["points"][0]["point"][0] += 1e-4 * op.meta["rho"]
        bad = [("point", json.dumps(doc))]
        if doc["synchronization"] is not None:
            doc = json.loads(out)
            doc["synchronization"]["gamma"][1][1] += 1e-6
            bad.append(("gamma", json.dumps(doc)))
        return bad
    if op.cmd == "profile":
        angle = 10.0 * PROFILE_TOL
        turn = complex(math.cos(angle), math.sin(angle))

        def phase(v):  # a common phase turn leaves the mass unchanged
            u1, u2 = complex(v[2], v[3]) * turn, complex(v[4], v[5]) * turn
            return v[:2] + [u1.real, u1.imag, u2.real, u2.imag]

        def modulus(v):
            return v[:2] + [v[2] * (1 + 1e-6), v[3] * (1 + 1e-6)] + v[4:]

        return [("phase", _rewrite_row(out, 0, phase)), ("modulus", _rewrite_row(out, 0, modulus))]
    doc = json.loads(out)
    doc["p"][2] += 1e-6 * max(abs(v) for v in doc["p"])
    return [("parameters", json.dumps(doc))]

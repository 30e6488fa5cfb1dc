"""Seeded inputs and the operations of each workload.

Every input is made here, the main part's from ``--seed``; the program
receives only the parameter JSON, final-data CSV and general-system JSON
built below.  One round is a fixed list of CLI calls; a run repeats the
round.

Each workload has a main part (the calls its metrics are about) and, for
each CLI subcommand the main part does not run, one small companion call
with fixed inputs, so that every end-to-end metric has a value on every
workload.  Companions are timed only for their own subcommand's metrics:
``workload_s`` and the traced per-layer figures leave them out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import disguised_system

# standard parameters of one member of each catalogued family
FAMILIES = {
    1: (1.0, 0.0, 0.0, 0.0, 0.0),
    2: (0.0, -0.8, 0.0, 0.0, 0.0),
    3: (0.0, 0.0, 1.1, 0.0, 0.0),
    4: (0.0, 0.0, 0.0, 0.9, 0.0),
    5: (1.0, 0.7, 0.0, 0.0, 0.0),
    6: (1.0, 0.0, 0.0, 0.4, 0.0),
    7: (0.0, 0.4, 1.0, 0.0, 0.0),
    8: (0.0, 0.8, 0.0, 0.5, 0.0),
    9: (0.0, 0.0, 1.0, 0.7, 0.0),
    10: (0.0, 0.0, 1.0, 0.0, 0.4),
    11: (1.0, 0.0, 3.0, 0.0, 0.0),
    12: (0.0, 0.7, 0.7, 0.4, 0.0),
    13: (0.0, -0.7, 0.7, 0.0, 0.4),
    14: (0.6, 0.8, 1.0, 0.0, 0.0),
    15: (0.6, 0.8, 1.0, 0.6, 0.2),
}
RHOS = (0.5, 1.0, 2.0)
SAMPLES = 201
# two seeded states per family and radius: with the uncatalogued and slice
# calls, 100 solves a round stand behind solve_p90_ms
STATES_PER_RADIUS = 2
SYNC_FAMILIES = (1, 6)  # one attracting point: detect_sync runs its 64-start lattice
# solve spans are +-SPAN_FACTOR / (rho max|p|), about one orbit period
SPAN_FACTOR = 1.5

PROFILE_FAMILIES = {
    "p1": (1.0, 0.0, 0.0, 0.0, 0.0),
    "p3": (0.0, 0.0, 1.3, 0.0, 0.0),
    "p1/p3=1/3": (1.0, 0.0, 3.0, 0.0, 0.0),
    "case15": (0.6, 0.8, 1.0, 0.6, 0.2),
}
PROFILE_TIMES = (1e1, 1e2, 1e4, 1e6, 1e8)
PIPELINE_TIMES = (1e1, 1e4, 1e8)
N_UNCATALOGUED, N_UNSUPPORTED = 36, 12  # pipeline-oracle systems of each kind
POINTS_PER_CALL = 9  # x points per profile-closed call
XI_GRID = np.linspace(-2.0, 2.0, 41)
XI_SPAN = 1.6  # profile points sample xi in [-XI_SPAN, XI_SPAN]
# Width of the profile-closed final data's envelope.  A point's cost grows
# with rho(xi), the envelope squared: at width 1 the two or three points
# nearest xi = 0 held most of a call's cost, and with them the seeded
# orbits they fell on; at width 2 every point of a call weighs.
PROFILE_WIDTH = 2.0

# Near-separatrix slice: pure-p3 states with |D| exceeding |R| by a relative
# 3e-11, inside the equal-radii band of the lemma-1 solver, over spans of
# more than 10 K(m).  Fixed, not seeded.
SLICE_P3 = 1.1
SLICE_DELTA = 3e-11
SLICE_I = (0.3, 0.6)
COMPANION_SEED = 9
# each companion runs this many times a round, so that its median time rests
# on about a hundred calls, not a dozen
COMPANION_REPEATS = 8
# second component of the final data relative to the first: centre and half
# width.  Pure p3 needs |R| < |D| everywhere, that is a ratio below
# sqrt(2) - 1; the other families take the full range.
RATIO_ORDERED = (0.24, 0.14)
RATIO_FULL = (0.5, 0.2)
# The ratio-1/3 closed form (closed_form._case11_recessive) is wrong for
# states near the plane D = -R: 1.7e-5 off at tau = 0 with |D + R| = 1e-3 rho,
# 0.3 off at 1e-5 rho (see CHANGES.md).  Its profile data are therefore
# ordered, which keeps |D + R| >= 0.08 rho, with the dominant component
# alternating from call to call so that orbits with D > 0 and D < 0 both
# run; its seeded solve states are drawn outside |D + R| < ANTI_BAND rho.
ORDERED_TAGS = ("p3", "p1/p3=1/3")
SWAPPED_TAGS = ("p1/p3=1/3",)
ANTI_BAND = 1e-2


@dataclass
class Op:
    cmd: str
    argv: list
    role: str  # "main", "slice" or "companion"
    meta: dict = field(default_factory=dict)


def _num(x) -> str:
    return repr(float(x))


def _params_json(p, q=(0.0, 0.0, 0.0)) -> str:
    return json.dumps({"p": [float(v) for v in p], "q": [float(v) for v in q]})


def _sphere_state(rng, rho) -> np.ndarray:
    v = rng.standard_normal(3)
    return rho * v / np.linalg.norm(v)


def solve_op(p, rho, s0, span, mode, role, tag) -> Op:
    argv = [
        "solve", "--params", _params_json(p), "--rho", _num(rho),
        "--init=" + ",".join(_num(v) for v in s0), f"--span={_num(-span)},{_num(span)}",
        "--samples", str(SAMPLES), "--mode", mode,
    ]
    meta = {"p": tuple(p), "rho": float(rho), "s0": np.array(s0), "mode": mode, "tag": tag}
    return Op("solve", argv, role, meta)


def fixed_points_op(case, rho, role) -> Op:
    p = FAMILIES[case]
    argv = ["fixed-points", "--params", _params_json(p), "--rho", _num(rho)]
    return Op("fixed-points", argv, role, {"p": p, "rho": float(rho), "case": case})


def _short_span(p, rho) -> float:
    return SPAN_FACTOR / (rho * max(abs(v) for v in p))


def _uncatalogued(rng) -> tuple:
    """Standard parameters with every p nonzero and no special relation,
    scaled to max |p| = 1 (the scale only sets the speed of the flow)."""
    sign = rng.choice([-1.0, 1.0], 2)
    p = np.array([
        rng.uniform(0.5, 1.0), sign[0] * rng.uniform(0.2, 0.6), rng.uniform(0.5, 1.0),
        sign[1] * rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6),
    ])
    return tuple(p / np.max(np.abs(p)))


# ---------------------------------------------------------------------------
# final data


@dataclass
class FinalData:
    path: str
    xi: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray


def final_data(rng, workdir: Path, name: str, ordered: bool, swapped: bool = False,
               width: float = 1.0) -> FinalData:
    """Smooth seeded final data decaying like (1 + (xi/width)^2)^-1.

    The second component is 0.3 to 0.7 of the first; with ``ordered`` it is
    0.1 to 0.38 of it, which keeps |R| < |D| everywhere: the ordering the
    explicit pure-p3 profile requires.  The modulus of the first component,
    the ratio and the relative phase of the two turn at fixed rates over the
    sampled xi in [-XI_SPAN, XI_SPAN], from seeded phases: the ratio over its
    whole range 1.5 times, the relative phase 2.5 times round.  So the
    points of every profile call cover the range of the data, and the cost
    of a call depends little on the seed.  With ``swapped`` the two
    components change places.
    """
    xi = XI_GRID
    env = 1.0 / (1.0 + (xi / width) ** 2)
    c = rng.uniform(0.0, 2.0 * math.pi, 4)
    u = math.pi * xi / XI_SPAN
    mag1 = env * (0.9 + 0.1 * np.cos(0.5 * u + c[0]))
    centre, half = RATIO_ORDERED if ordered else RATIO_FULL
    ratio = centre + half * np.sin(1.5 * u + c[1])
    alpha1 = mag1 * np.exp(1j * c[2])
    alpha2 = ratio * mag1 * np.exp(1j * (c[2] + c[3] + 2.5 * u))
    if swapped:
        alpha1, alpha2 = alpha2, alpha1
    path = workdir / f"{name}.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("xi,re_a1,im_a1,re_a2,im_a2\n")
        for row in zip(xi, alpha1.real, alpha1.imag, alpha2.real, alpha2.imag):
            fh.write(",".join(_num(v) for v in row) + "\n")
    return FinalData(str(path), xi, alpha1, alpha2)


def profile_op(p, q, fd: FinalData, t, n_x, role, tag) -> Op:
    a, b = -2.0 * t * XI_SPAN, 2.0 * t * XI_SPAN
    argv = [
        "profile", "--params", _params_json(p, q), "--finaldata", fd.path,
        "--t-list", _num(t), f"--x-grid={_num(a)},{_num(b)},{n_x}",
    ]
    meta = {"p": tuple(p), "q": tuple(q), "fd": fd, "t": float(t), "tag": tag}
    return Op("profile", argv, role, meta)


# ---------------------------------------------------------------------------
# general systems


def general_system(rng, p, q) -> str:
    """A standard system disguised by a seeded real change of unknowns.

    M is scaled so that |M^-1|_F^2 = 2: the conserved form of the disguised
    system, normalized to trace 2 as the reduction does, is then exactly
    (M^-1)^T M^-1, and the reduced parameters come back at the seeded
    scale, max |p| = 1.  Unscaled, the disguise would multiply them by a
    seeded factor of up to about 4, and with them the flow's speed, the
    length of every orbit to tau = log(t)/2 and so the cost of each profile
    point.
    """
    M = rng.uniform(-1.2, 1.2, (2, 2))
    while abs(np.linalg.det(M)) < 0.4:
        M = rng.uniform(-1.2, 1.2, (2, 2))
    M *= np.linalg.norm(np.linalg.inv(M)) / math.sqrt(2.0)
    return json.dumps({"lambda": disguised_system(p, q, M)})


def standardize_op(rng, p, q, role) -> Op:
    return Op("standardize", ["standardize", general_system(rng, p, q)], role, {"p": tuple(p), "q": tuple(q)})


# ---------------------------------------------------------------------------
# workloads


def _slice_ops() -> list:
    ops = []
    for i0 in SLICE_I:
        r = math.sqrt((1.0 - i0 * i0) / (1.0 + (1.0 + SLICE_DELTA) ** 2))
        s0 = np.array([r * (1.0 + SLICE_DELTA), r, i0])
        s0 /= np.linalg.norm(s0)
        # lemma-1 time runs at r_fh = |(2 p3 I, sqrt8 p3 D)| per unit tau, and
        # K(m) = log(4 / sqrt(1 - m)) to leading order as m -> 1
        r_fh = math.hypot(2.0 * SLICE_P3 * s0[2], math.sqrt(8.0) * SLICE_P3 * s0[0])
        one_minus_m = 8.0 * SLICE_P3**2 * (s0[0] ** 2 - s0[1] ** 2) / r_fh**2
        k_m = math.log(4.0 / math.sqrt(one_minus_m))
        span = math.ceil(10.0 * k_m / r_fh)
        ops.append(solve_op((0.0, 0.0, SLICE_P3, 0.0, 0.0), 1.0, s0, span, "both", "slice", "slice"))
    return ops


def _companions(workdir: Path, cmds) -> list:
    """One small call of each subcommand in ``cmds``, repeated
    COMPANION_REPEATS times, on inputs that are the same for every seed.
    Each stays clear of the main part's layers where it can: the solve is
    closed-form only, the fixed points are those of an area-preserving
    family (detect_sync returns before its lattice), and the profile is one
    pure-p1 point at t = 10."""
    rng = np.random.default_rng(COMPANION_SEED)
    ops = []
    if "solve" in cmds:
        p = FAMILIES[4]
        ops.append(solve_op(p, 1.0, _sphere_state(rng, 1.0), _short_span(p, 1.0), "closed",
                            "companion", "case4"))
    if "fixed-points" in cmds:
        ops.append(fixed_points_op(3, 1.0, "companion"))
    if "profile" in cmds:
        fd = final_data(rng, workdir, "companion", ordered=False)
        ops.append(profile_op(PROFILE_FAMILIES["p1"], (0.0, 0.0, 0.0), fd, 1e1, 1, "companion", "p1"))
    if "standardize" in cmds:
        ops.append(standardize_op(rng, _uncatalogued(rng), (0.1, -0.2, 0.3), "companion"))
    return ops * COMPANION_REPEATS


def solve_sweep(seed: int, workdir: Path, run_cli) -> list:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for case, p in FAMILIES.items():
        for rho in RHOS:
            for _ in range(STATES_PER_RADIUS):
                s0 = _sphere_state(rng, rho)
                while case == 11 and abs(s0[0] + s0[1]) < ANTI_BAND * rho:
                    s0 = _sphere_state(rng, rho)
                ops.append(solve_op(p, rho, s0, _short_span(p, rho), "both", "main", f"case{case}"))
    for _ in range(4 * STATES_PER_RADIUS):
        p = _uncatalogued(rng)
        rho = rng.uniform(0.5, 2.0)
        ops.append(solve_op(p, rho, _sphere_state(rng, rho), _short_span(p, rho), "oracle", "main",
                            "uncatalogued"))
    ops += _slice_ops()
    # Both fixed-points calls run detect_sync's full lattice, so the median
    # never flips to an early return.  Two of them, not one: a single 0.3 s
    # call sees the machine's speed change while it runs, and ten seeds
    # spread by 0.10 in fixed_points_p50_ms with one call, by 0.03 with two.
    ops.append(fixed_points_op(6, rng.uniform(0.5, 0.7), "main"))
    ops.append(fixed_points_op(1, rng.uniform(0.5, 0.7), "main"))
    return ops + _companions(workdir, ("profile", "standardize"))


def profile_closed(seed: int, workdir: Path, run_cli) -> list:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for k, (tag, p) in enumerate(PROFILE_FAMILIES.items()):
        q = rng.uniform(-0.3, 0.3, 3)
        for j, t in enumerate(PROFILE_TIMES):
            fd = final_data(rng, workdir, f"profile-closed-{k}-{j}", ordered=tag in ORDERED_TAGS,
                            swapped=tag in SWAPPED_TAGS and j % 2 == 1, width=PROFILE_WIDTH)
            ops.append(profile_op(p, q, fd, t, POINTS_PER_CALL, "main", tag))
    return ops + _companions(workdir, ("solve", "fixed-points", "standardize"))


def pipeline_oracle(seed: int, workdir: Path, run_cli) -> list:
    """General systems -> standardize -> profile on the reduced parameters.

    The reduced parameters are read from one untimed standardize call per
    system; in the timed rounds the standardize output must repeat it.
    A point's oracle cost depends on its seeded system and final data, so
    the round's work moves with the seed: over seeds 101-110 the RHS
    evaluations of a round spread by 0.13 (quartile distance over median)
    with 24 systems and by 0.09 with the 48 used here.
    """
    rng = np.random.default_rng([seed, 3])
    seeds = [(_uncatalogued(rng), rng.uniform(-0.5, 0.5, 3), "uncatalogued") for _ in range(N_UNCATALOGUED)]
    seeds += [((rng.uniform(0.4, 0.7), 0.0, 1.0, 0.0, 0.0), rng.uniform(-0.5, 0.5, 3), "p1/p3-unsupported")
              for _ in range(N_UNSUPPORTED)]
    std_ops, prof_ops = [], []
    for k, (p, q, tag) in enumerate(seeds):
        op = standardize_op(rng, p, q, "main")
        std_ops.append(op)
        code, out = run_cli(op.argv)
        if code != 0:
            raise RuntimeError(f"standardize exited {code} on a seeded system")
        doc = json.loads(out)
        fd = final_data(rng, workdir, f"pipeline-oracle-{k}", ordered=False)
        prof_ops += [profile_op(doc["p"], doc["q"], fd, t, 2, "main", tag) for t in PIPELINE_TIMES]
    return std_ops + prof_ops + _companions(workdir, ("solve", "fixed-points"))


WORKLOADS = {
    "solve-sweep": solve_sweep,
    "profile-closed": profile_closed,
    "pipeline-oracle": pipeline_oracle,
}

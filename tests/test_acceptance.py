"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
import zlib

import numpy as np
import pytest

from cubicnls import elliptic as el
from cubicnls.closed_form import solve_case
from cubicnls.profile import FinalData, case1_profile, case3_profile, sync_decay, uapp
from cubicnls.quadratic_flow import (
    Trajectory,
    amplitudes_to_quad,
    detect_sync,
    integrate_full,
    integrate_quad,
    random_sphere_states,
)
from cubicnls.reconstruction import reconstruct, residual, zero_times
from cubicnls.standard_form import (
    GeneralCubic,
    SixTuple,
    StandardParams,
    assemble_sixtuple,
    extract_sixtuple,
    nonlinearity,
    reduce_to_standard,
)

from helpers import RHOS, branch_states, case_branch_plan, split_counts, std

STATES_PER_BRANCH = 20


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_elliptic_kernel():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_alg = 0.0
    for _ in range(1000):
        u = rng.uniform(-30.0, 30.0)
        m = rng.uniform(0.0, 1.0 - 1e-6)
        j = el.jacobi(u, m)
        worst_alg = max(
            worst_alg, abs(j.sn**2 + j.cn**2 - 1.0), abs(j.dn**2 + m * j.sn**2 - 1.0)
        )
    worst_deriv = 0.0
    h = 1e-5
    for _ in range(200):
        u = rng.uniform(-8.0, 8.0)
        m = rng.uniform(0.0, 0.999)
        jp, jm, j0 = el.jacobi(u + h, m), el.jacobi(u - h, m), el.jacobi(u, m)
        worst_deriv = max(
            worst_deriv,
            abs((jp.sn - jm.sn) / (2 * h) - j0.cn * j0.dn),
            abs((jp.cn - jm.cn) / (2 * h) + j0.sn * j0.dn),
            abs((jp.dn - jm.dn) / (2 * h) + m * j0.sn * j0.cn),
        )
    k0_err = abs(el.complete_K(0.0) - math.pi / 2)
    worst_m1 = max(
        abs(el.jacobi(u, 1.0).sn - math.tanh(u)) for u in rng.uniform(-10, 10, 50)
    )
    elapsed = time.perf_counter() - start
    ok = worst_alg < 1e-12 and worst_deriv < 1e-6 and k0_err < 1e-14 and worst_m1 < 1e-12 and elapsed < 5.0
    report(
        "1 elliptic kernel",
        ok,
        f"identities {worst_alg:.2e}, derivatives {worst_deriv:.2e}, "
        f"K(0) err {k0_err:.2e}, m=1 {worst_m1:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_closed_forms_vs_oracle():
    start = time.perf_counter()
    plan = case_branch_plan()
    worst = 0.0
    worst_label = ""
    for label, params, key, family in plan:
        big_p = max(abs(x) for x in params.p)
        for rho, count in zip(RHOS, split_counts(STATES_PER_BRANCH, len(RHOS))):
            states = branch_states(params, rho, key, family, count, seed=zlib.crc32(label.encode()))
            span = 5.0 / (rho * big_p)
            taus = np.linspace(0.0, span, 17)
            for s0 in states:
                sol = solve_case(params, rho, s0)
                for sgn in (1.0, -1.0):
                    tr = integrate_quad(params, rho, s0, (0.0, sgn * span), tol=1e-10)
                    dev = float(np.max(np.abs(sol(sgn * taus) - tr.at(sgn * taus))))
                    if dev > worst:
                        worst, worst_label = dev, f"{label} rho={rho}"
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 120.0
    report(
        "2 closed forms vs oracle",
        ok,
        f"{len(plan)} branches x {STATES_PER_BRANCH} states, sup dev {worst:.2e} "
        f"(worst at {worst_label}), runtime {elapsed:.1f}s",
    )


def test_criterion_3_conservation():
    rng = np.random.default_rng(3003)
    # rho drift along oracle runs
    drift = 0.0
    for params in (std(p1=1.0), std(p2=0.6, p3=1.0), std(p3=1.0, p4=0.7), std(p1=0.6, p2=0.8, p3=1.0)):
        for rho in RHOS:
            s0 = random_sphere_states(rho, 1, rng.integers(2**31))[0]
            tr = integrate_quad(params, rho, s0, (0.0, 5.0 / rho), tol=1e-10)
            drift = max(drift, float(np.max(np.abs(np.sum(tr.states**2, axis=1) - rho * rho))))
    # sphere identity along closed forms
    sphere = 0.0
    for params in (std(p1=1.0, p2=-0.5), std(p2=-0.8, p4=0.5), std(p3=1.0, p5=1.3), std(p1=1.0, p3=3.0)):
        for rho in RHOS:
            s0 = random_sphere_states(rho, 1, rng.integers(2**31))[0]
            v = solve_case(params, rho, s0)(np.linspace(-4.0 / rho, 4.0 / rho, 161))
            sphere = max(sphere, float(np.max(np.abs(np.sum(v * v, axis=1) - rho * rho))))
    # case-specific invariants
    inv = 0.0
    taus = np.linspace(-4.0, 4.0, 161)
    v = solve_case(std(p3=1.2), 1.0, random_sphere_states(1.0, 1, 33)[0])(taus)
    d, r, i = v[:, 0], v[:, 1], v[:, 2]
    for qty in (2 * d**2 + i**2, 2 * r**2 + i**2, d**2 - r**2):
        inv = max(inv, float(np.max(np.abs(qty - qty[0]))))
    p2v, p4v = 0.8, 0.5
    v = solve_case(std(p2=p2v, p4=p4v), 1.0, random_sphere_states(1.0, 1, 34)[0])(taus)
    d, r, i = v[:, 0], v[:, 1], v[:, 2]
    for qty in ((d + p4v / p2v) ** 2 + r**2, p2v * i**2 - 2 * p4v * d):
        inv = max(inv, float(np.max(np.abs(qty - qty[0]))))
    for params in (std(p1=0.6, p2=0.8, p3=1.0), std(p1=0.6, p2=0.8, p3=1.0, p4=0.5, p5=0.5 * 0.6 / 1.8)):
        theta = math.atan2(0.6, 1.8)
        v = solve_case(params, 1.0, random_sphere_states(1.0, 1, 35)[0])(taus)
        x = v[:, 0] / (2 * math.sin(theta)) + v[:, 1] / (2 * math.cos(theta))
        inv = max(inv, float(np.max(np.abs(x - x[0]))))
    ok = drift < 1e-8 and sphere < 1e-9 and inv < 1e-8
    report(
        "3 conservation",
        ok,
        f"rho drift {drift:.2e}, sphere identity {sphere:.2e}, case invariants {inv:.2e}",
    )


def test_criterion_4_reconstruction():
    rng = np.random.default_rng(4004)
    case_params = [
        std(p1=1.0),
        std(p2=-0.8),
        std(p3=1.1),
        std(p4=0.9),
        std(p1=1.0, p2=0.7),
        std(p1=1.0, p4=0.4),
        std(p2=0.4, p3=1.0, q=(0.2, -0.1, 0.3)),
        std(p2=-0.8, p4=0.5, q=(0.1, 0.3, -0.2)),
    ]
    taus = np.linspace(-3.0, 3.0, 13)
    worst_sup = 0.0
    runs = 0
    while runs < 50:
        params = case_params[runs % len(case_params)]
        v = rng.standard_normal(4) * 0.55
        a0 = (complex(v[0], v[1]), complex(v[2], v[3]))
        rho, s0 = amplitudes_to_quad(*a0)
        if rho < 0.05:
            continue
        runs += 1
        sol = solve_case(params, rho, s0)
        for sgn in (1.0, -1.0):
            tr = integrate_full(params, a0, (0.0, sgn * 3.0), tol=1e-10)
            for tau in taus[sgn * taus > 0]:
                got = reconstruct(params, a0, sol.eval, rho, float(tau))
                ref = tr.at(float(tau))
                worst_sup = max(worst_sup, abs(got[0] - ref[0]), abs(got[1] - ref[1]))

    # flow residual of a reconstructed path
    params = std(p1=1.0, q=(0.2, 0.1, -0.3))
    a0 = (0.7 + 0.2j, 0.1 - 0.5j)
    rho, s0 = amplitudes_to_quad(*a0)
    sol = solve_case(params, rho, s0)
    grid = np.arange(0.0, 0.2 + 1e-12, 1e-2)
    path = Trajectory(
        grid, np.array([reconstruct(params, a0, sol.eval, rho, float(t)) for t in grid]), "amplitude"
    )
    res = residual(params, path)

    # anchored-formula agreement where both anchors are valid
    agree = 0.0
    params = std(p2=0.7, p3=1.1, q=(0.1, 0.2, -0.3))
    checked = 0
    for _ in range(30):
        v = rng.standard_normal(4) * 0.6
        a0 = (complex(v[0], v[1]), complex(v[2], v[3]))
        rho, s0 = amplitudes_to_quad(*a0)
        if rho < 0.05 or min(rho + s0[0], rho - s0[0]) < 0.12 * rho:
            continue
        sol = solve_case(params, rho, s0)
        for tau in (-1.2, 0.8, 2.1):
            s_tau = sol(tau)
            if min(rho + s_tau[0], rho - s_tau[0]) < 0.1 * rho:
                continue
            one = reconstruct(params, a0, sol.eval, rho, tau, anchor=1)
            two = reconstruct(params, a0, sol.eval, rho, tau, anchor=2)
            agree = max(agree, abs(one[0] - two[0]), abs(one[1] - two[1]))
            checked += 1
    assert checked >= 20

    # reconstruction across an anchored-amplitude zero (p1 != p5 coupling)
    params = std(p2=-0.7, p3=0.7, p5=0.4, q=(0.1, 0.0, -0.2))
    a0 = (0.8 + 0j, 0.35j)
    rho, s0 = amplitudes_to_quad(*a0)
    sol = solve_case(params, rho, s0)
    assert len(zero_times(params, rho, sol.eval, 12.0, +1.0)) >= 1
    splice = 0.0
    for sgn in (1.0, -1.0):
        tr = integrate_full(params, a0, (0.0, sgn * 12.0), tol=1e-10)
        for tau in sgn * np.linspace(0.5, 12.0, 12):
            got = reconstruct(params, a0, sol.eval, rho, float(tau))
            ref = tr.at(float(tau))
            splice = max(splice, abs(got[0] - ref[0]), abs(got[1] - ref[1]))

    ok = worst_sup < 1e-6 and res < 1e-5 and agree < 1e-7 and splice < 1e-6
    report(
        "4 reconstruction",
        ok,
        f"50-run sup {worst_sup:.2e}, residual {res:.2e}, anchor agreement {agree:.2e}, "
        f"zero splice {splice:.2e}",
    )


def test_criterion_5_standardization():
    v_system = GeneralCubic((0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0))
    params, _ = reduce_to_standard(v_system)
    red_err = max(
        float(np.max(np.abs(params.p - np.array([0, 0.75, 0.25, 0, 0])))),
        float(np.max(np.abs(params.q - np.array([-2.0, 0.0, -2.0])))),
    )

    rng = np.random.default_rng(5005)
    round_trip = 0.0
    for _ in range(200):
        t = SixTuple(*rng.uniform(-3, 3, 6))
        back = extract_sixtuple(assemble_sixtuple(t))
        round_trip = max(round_trip, float(np.max(np.abs(back.as_array() - t.as_array()))))

    null = 0.0
    for _ in range(1000):
        p = StandardParams(
            rng.uniform(0, 1), rng.uniform(-1, 1), rng.uniform(0, 1),
            rng.uniform(-1, 1), rng.uniform(0, 1), *rng.uniform(-1, 1, 3),
        )
        v = rng.standard_normal(4)
        z1, z2 = complex(v[0], v[1]), complex(v[2], v[3])
        f1, f2 = nonlinearity(p, z1, z2)
        scale = max(1.0, abs(z1) + abs(z2)) ** 4 * max(1.0, *np.abs(p.p), *np.abs(p.q))
        null = max(null, abs((z1.conjugate() * f1 + z2.conjugate() * f2).imag) / scale)

    ok = red_err < 1e-12 and round_trip < 1e-14 and null < 1e-12
    report(
        "5 standardization",
        ok,
        f"reference reduction {red_err:.2e}, six-tuple round trip {round_trip:.2e}, "
        f"null condition {null:.2e}",
    )


def _strong_fd():
    xi = np.linspace(-2.0, 2.0, 41)
    env = 1.3 / (1.0 + 0.3 * xi**2)
    a1 = env * np.exp(1j * 0.1 * xi)
    a2 = env * 0.45 * np.exp(-0.25j)
    return FinalData(xi, a1, a2)


def test_criterion_6_synchronization():
    res1 = detect_sync(std(p1=1.0), 1.0)
    ok_case1 = (
        res1 is not None
        and np.allclose(res1.point, [0, 0, -1], atol=1e-12)
        and abs(res1.gamma[0] - 1.0) < 1e-12
        and abs(res1.gamma[1] + 1j) < 1e-12
    )
    res6 = detect_sync(std(p1=1.0, p4=0.5), 1.0)
    ok_case6 = res6 is not None and np.allclose(
        res6.point, [0, 0.5, -math.sqrt(0.75)], atol=1e-12
    )
    ok_none = detect_sync(std(p2=1.0), 1.0) is None and detect_sync(std(p4=1.0), 1.0) is None

    fd = _strong_fd()
    # the data keeps I0 well away from rho, so no exceptional directions inside
    vals = []
    for xi in fd.xi_grid:
        rho, (d0, r0, i0) = amplitudes_to_quad(*fd.interp(float(xi)))
        vals.append(abs(i0) / rho)
    assert max(vals) < 0.9
    decay = sync_decay(std(p1=1.0), fd, res1.gamma, math.e**20, (-2.0, 2.0))
    ladder = [
        sync_decay(std(p1=1.0), fd, res1.gamma, t, (-2.0, 2.0))
        for t in (math.e**4, math.e**8, math.e**12, math.e**16, math.e**20)
    ]
    monotone = all(b <= a * 1.1 for a, b in zip(ladder[:-1], ladder[1:]))

    ok = ok_case1 and ok_case6 and ok_none and decay < 1e-3 and monotone
    report(
        "6 synchronization",
        ok,
        f"case1 {ok_case1}, case6 {ok_case6}, none-cases {ok_none}, "
        f"decay at e^20 = {decay:.2e}, ladder monotone {monotone}",
    )


def test_criterion_7_profiles():
    rng = np.random.default_rng(7007)
    xi = np.linspace(-2.0, 2.0, 41)

    def draw_fd(kind, seed):
        r = np.random.default_rng(seed)
        env = 1.0 / (1.0 + xi**2)
        if kind == 1:
            a1 = env * (0.8 + 0.3 * r.uniform()) * np.exp(1j * r.uniform(-0.5, 0.5) * xi)
            a2 = env * (0.45 + 0.1 * r.uniform()) * np.exp(1j * r.uniform(-0.5, 0.5) * xi + 1j * r.uniform(0, 1))
        else:
            a1 = (env * (1.0 + 0.1 * np.cos(xi) * r.uniform())).astype(complex)
            a2 = env * (0.2 + 0.1 * r.uniform() + 0.05 * np.sin(xi)) * np.exp(1j * r.uniform(0.2, 0.5))
        return FinalData(xi, a1, a2)

    # 32-point lattices: 4 times x 8 positions
    ts = (2.0, 5.0, 17.0, 50.0)
    xis = np.linspace(-1.4, 1.4, 8)
    worst1 = worst3 = 0.0
    for draw in range(3):
        fd = draw_fd(1, 100 + draw)
        q = tuple(rng.uniform(-0.4, 0.4, 3))
        p = std(p1=1.0, q=q)
        for t in ts:
            for x in 2 * t * xis:
                ug = uapp(p, fd, t, x)
                us = case1_profile(1.0, q, fd, t, x)
                scale = max(abs(ug[0]), abs(ug[1]))
                worst1 = max(worst1, max(abs(ug[0] - us[0]), abs(ug[1] - us[1])) / scale)
        fd3 = draw_fd(3, 200 + draw)
        q3 = tuple(rng.uniform(-0.3, 0.3, 3))
        p3v = 1.3
        p3p = std(p3=p3v, q=q3)
        for t in ts:
            for x in 2 * t * xis:
                ug = uapp(p3p, fd3, t, x)
                us = case3_profile(p3v, q3, fd3, t, x)
                scale = max(abs(ug[0]), abs(ug[1]))
                worst3 = max(worst3, max(abs(ug[0] - us[0]), abs(ug[1] - us[1])) / scale)

    # t = 1 identity at round-off
    fd = draw_fd(1, 300)
    ident = 0.0
    p = std(p1=1.0, q=(0.2, -0.1, 0.3))
    for x in (-1.9, -0.3, 0.8, 1.6):
        u1, u2 = uapp(p, fd, 1.0, x)
        a1, a2 = fd.interp(x / 2)
        pref = np.exp(1j * x * x / 4.0) / np.sqrt(2j)
        ident = max(ident, abs(u1 - pref * a1), abs(u2 - pref * a2))

    # profile mass independent of t to 1%
    mass_dev = 0.0
    ref = np.trapezoid([sum(abs(a) ** 2 for a in fd.interp(v)) for v in xi], xi)
    for t in (2.0, 10.0, 40.0):
        xs = 2 * t * xi
        dens = [sum(abs(u) ** 2 for u in uapp(p, fd, t, x)) for x in xs]
        mass_dev = max(mass_dev, abs(np.trapezoid(dens, xs) - ref) / ref)

    ok = worst1 < 1e-6 and worst3 < 1e-5 and ident < 1e-13 and mass_dev < 0.01
    report(
        "7 profiles",
        ok,
        f"explicit-vs-pipeline rel {worst1:.2e} / {worst3:.2e}, t=1 identity {ident:.2e}, "
        f"mass deviation {mass_dev:.2%}",
    )


def test_criterion_8_scaling():
    rng = np.random.default_rng(8008)
    worst = 0.0
    for _ in range(20):
        p = StandardParams(
            rng.uniform(0, 1), rng.uniform(-1, 1), rng.uniform(0, 1),
            rng.uniform(-1, 1), rng.uniform(0, 1),
        )
        rho1 = rng.uniform(0.4, 1.6)
        lam = rng.uniform(0.4, 2.5)
        rho2 = lam * rho1
        s0 = random_sphere_states(rho1, 1, rng.integers(2**31))[0]
        t_end = 3.0 / (rho1 * max(1e-6, *np.abs(p.p)))
        tr1 = integrate_quad(p, rho1, s0, (0.0, t_end), tol=1e-11)
        tr2 = integrate_quad(p, rho2, lam * s0, (0.0, t_end / lam), tol=1e-11)
        taus = np.linspace(0.0, t_end / lam, 17)
        worst = max(worst, float(np.max(np.abs(lam * tr1.at(lam * taus) - tr2.at(taus)))))
    ok = worst < 1e-7
    report("8 scaling property", ok, f"20 rescaled trajectories, sup dev {worst:.2e}")

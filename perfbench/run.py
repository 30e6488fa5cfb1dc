"""Benchmark of the cubicnls CLI pipeline, run in-process through cubicnls.cli.main.

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, makes one untimed call of each
subcommand, then repeats whole rounds of CLI calls until --seconds have
passed, each call between two short fixed probes of the machine's speed.
Outputs of the first round are checked against computations made
apart from the program (checks.py); every later round must repeat them
byte for byte.  The last line of standard output is one JSON object with
the counts of operations attempted and failed and, with --trace 0, the
end-to-end metrics or, with --trace 1, the per-layer metrics (see README.md).
"""

from __future__ import annotations

import os

# one thread, also inside numpy's linear algebra; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from speed import at_reference_speed, probe_s
from tracing import SpanSummary, Tracer
from workloads import WORKLOADS, final_data

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
# a first timed round this many times slower than the typical round means
# that later rounds reuse work of earlier ones, which one CLI call per
# process never can: the figures would not describe the CLI
MAX_FIRST_OVER_TYPICAL = 4.0


def run_cli(cli, argv):
    """One CLI call with its output captured: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        dt = time.perf_counter() - t0
    return code, out.getvalue(), dt


def measure_setup(workdir: Path) -> float:
    """Set-up time of SETUP_REPEATS fresh processes, one after the other,
    each against the probe it times right after its set-up."""
    fd = final_data(np.random.default_rng(0), workdir, "setup", ordered=True)
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), fd.path],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        setup, probe = proc.stdout.strip().splitlines()[-1].split()
        times.append(float(setup))
        probes.append(float(probe))
    return float(at_reference_speed(times, probes))


def metric_source(ops, cmd, distinct):
    """Indices of the operations a subcommand's metrics are taken from:
    the main part when it runs the subcommand, else the companion."""
    main = [k for k in distinct if ops[k].cmd == cmd and ops[k].role != "companion"]
    return main or [k for k in distinct if ops[k].cmd == cmd]


def pool_repeats(ops, times, probes):
    """Every distinct call's time (speed.py), a repeated call's over all its
    repeats, and the indices of the distinct calls."""
    groups = {}
    for k, op in enumerate(ops):
        groups.setdefault(tuple(op.argv), []).append(k)
    call_s = np.zeros(len(ops))
    for ks in groups.values():
        call_s[ks[0]] = at_reference_speed(times[:, ks].ravel(), probes[:, ks].ravel())
    return call_s, sorted(ks[0] for ks in groups.values())


def main_part(ops):
    return [k for k, op in enumerate(ops) if op.role != "companion"]


def end_to_end(ops, times, probes, setup_s, rss_mb):
    """Medians and sums over the distinct calls of one round of their times."""
    call_s, distinct = pool_repeats(ops, times, probes)
    solve = metric_source(ops, "solve", distinct)
    fixed = metric_source(ops, "fixed-points", distinct)
    prof = metric_source(ops, "profile", distinct)
    std = metric_source(ops, "standardize", distinct)
    rows = sum(int(ops[k].argv[ops[k].argv.index("--samples") + 1]) for k in solve)
    points = sum(int(ops[k].argv[-1].split(",")[-1]) for k in prof)
    return {
        "setup_s": (setup_s, "s"),
        "workload_s": (float(np.sum(call_s[main_part(ops)])), "s"),
        "solve_p50_ms": (1e3 * float(np.median(call_s[solve])), "ms"),
        "solve_p90_ms": (1e3 * float(np.percentile(call_s[solve], 90)), "ms"),
        "solve_rows_per_s": (rows / float(np.sum(call_s[solve])), "rows/s"),
        "fixed_points_p50_ms": (1e3 * float(np.median(call_s[fixed])), "ms"),
        "profile_points_per_s": (points / float(np.sum(call_s[prof])), "points/s"),
        "standardize_p50_ms": (1e3 * float(np.median(call_s[std])), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(summary, times, call_s, verdicts, ops):
    """Per-layer figures of the traced run; the companions ran untraced."""
    s = summary
    r = float(len(times))
    entries = s.layer_entries("elliptic")
    uapp = s.mask("profile.uapp")

    def p50_ms(t):
        sel = uapp & (s.aux == t)
        return 1e3 * float(np.median(s.dur[sel])) if np.any(sel) else 0.0

    n_reconstruct = s.calls("reconstruction.reconstruct")
    ok = [v for v in verdicts if v.ok]
    prof = [v for v, op in zip(verdicts, ops) if op.cmd == "profile" and v.ok]
    values = {
        "elliptic.calls": (np.count_nonzero(entries) / r, "calls/round"),
        "elliptic.args_per_call": (float(np.mean(s.aux[entries])) if np.any(entries) else 0.0, "args/call"),
        "elliptic.self_s": (s.layer_self_s("elliptic") / r, "s/round"),
        "closed_form.solve_case.calls": (s.calls("closed_form.solve_case") / r, "calls/round"),
        "closed_form.solve_case.self_s": (s.self_s("closed_form.solve_case") / r, "s/round"),
        "closed_form.eval.calls": (s.calls("closed_form.eval") / r, "calls/round"),
        "closed_form.eval.taus_per_call": (
            float(np.mean(s.aux[s.mask("closed_form.eval")])) if s.calls("closed_form.eval") else 0.0,
            "taus/call",
        ),
        "closed_form.eval.self_s": (s.self_s("closed_form.eval") / r, "s/round"),
        "closed_form.self_s": (s.layer_self_s("closed_form") / r, "s/round"),
        "quadratic_flow.integrate_quad.calls": (s.calls("quadratic_flow.integrate_quad") / r, "calls/round"),
        "quadratic_flow.integrate_quad.self_s": (s.self_s("quadratic_flow.integrate_quad") / r, "s/round"),
        "quadratic_flow.trajectory_at.self_s": (s.self_s("quadratic_flow.trajectory_at") / r, "s/round"),
        "quadratic_flow.rhs_evals": (
            s.calls("quadratic_flow.qqq_rhs", "quadratic_flow.full_ode_rhs") / r, "evals/round"
        ),
        "quadratic_flow.detect_sync.self_s": (s.self_s("quadratic_flow.detect_sync") / r, "s/round"),
        "quadratic_flow.fixed_points.self_s": (s.self_s("quadratic_flow.fixed_points") / r, "s/round"),
        "quadratic_flow.integrate_full.calls": (s.calls("quadratic_flow.integrate_full") / r, "calls/round"),
        "quadratic_flow.integrate_full.self_s": (s.self_s("quadratic_flow.integrate_full") / r, "s/round"),
        "quadratic_flow.self_s": (s.layer_self_s("quadratic_flow") / r, "s/round"),
        "reconstruction.reconstruct.calls": (n_reconstruct / r, "calls/round"),
        "reconstruction.reconstruct.self_s": (s.self_s("reconstruction.reconstruct") / r, "s/round"),
        "reconstruction.zero_times.self_s": (s.self_s("reconstruction.zero_times") / r, "s/round"),
        # closed-form calls made by the phase quadrature: every evaluation
        # directly under reconstruct except its two at tau = 0 and at tau
        "reconstruction.integrand_evals": (
            (s.children_of("reconstruction.reconstruct", "closed_form.eval") - 2 * n_reconstruct) / r,
            "evals/round",
        ),
        "reconstruction.self_s": (s.layer_self_s("reconstruction") / r, "s/round"),
        "profile.uapp.calls": (s.calls("profile.uapp") / r, "calls/round"),
        "profile.uapp.self_s": (s.self_s("profile.uapp") / r, "s/round"),
        "profile.uapp.p50_ms.t1e1": (p50_ms(1e1), "ms"),
        "profile.uapp.p50_ms.t1e8": (p50_ms(1e8), "ms"),
        "profile.self_s": (s.layer_self_s("profile") / r, "s/round"),
        "standard_form.reduce.self_s": (s.self_s("standard_form.reduce_to_standard") / r, "s/round"),
        "standard_form.nonlinearity.calls": (s.calls("standard_form.nonlinearity") / r, "calls/round"),
        "standard_form.nonlinearity.self_s": (s.self_s("standard_form.nonlinearity") / r, "s/round"),
        "standard_form.self_s": (s.layer_self_s("standard_form") / r, "s/round"),
        "cli.self_s": (s.layer_self_s("cli") / r, "s/round"),
        "closed_form.max_dev_vs_oracle": (max(v.dev for v in ok), "1"),
        "profile.max_rel_err_vs_reference": (max(v.ref_err for v in prof), "1"),
        "profile.max_mass_rel_err": (max(v.mass_err for v in prof), "1"),
        "traced_workload_s": (float(np.sum(call_s[main_part(ops)])), "s"),
        "traced_workload_p50_s": (float(np.sum(np.median(times, axis=0)[main_part(ops)])), "s"),
    }
    return values


def run(args) -> dict:
    if not (SRC / "cubicnls" / "cli.py").is_file():
        raise FileNotFoundError(f"no cubicnls sources under {SRC}")
    sys.path.insert(0, str(SRC))
    workdir = HERE / "out" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None if args.trace else measure_setup(workdir)
        from cubicnls import cli
        from cubicnls.profile import FinalData as ProgramFinalData
        from cubicnls.profile import case1_profile, case3_profile

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"cubicnls imported from {cli.__file__}, not from {SRC}")

        ops = WORKLOADS[args.workload](args.seed, workdir, lambda argv: run_cli(cli, argv)[:2])
        for op in {op.cmd: op for op in ops}.values():  # first call of each subcommand, untimed
            run_cli(cli, op.argv)

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        first, times, probes, mismatched = None, [], [], 0
        deadline = time.perf_counter() + args.seconds
        try:
            while not times or time.perf_counter() < deadline:
                results, probe = [], []
                for op in ops:
                    if tracer is not None:
                        tracer.active = op.role != "companion"
                    probe.append(probe_s())
                    results.append(run_cli(cli, op.argv))
                probe.append(probe_s())
                times.append([dt for _, _, dt in results])
                # each call against the mean of the probes just before and after it
                probes.append([(a + b) / 2.0 for a, b in zip(probe, probe[1:])])
                if first is None:
                    first = results
                else:
                    mismatched += sum((c, o) != (c0, o0) for (c, o, _), (c0, o0, _) in zip(results, first))
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # checks, outside the timed region
        fds = {}

        def program_fd(fd):
            if fd.path not in fds:
                fds[fd.path] = ProgramFinalData(fd.xi, fd.alpha1, fd.alpha2)
            return fds[fd.path]

        explicit = {
            "p1": lambda p, q, fd, t, x: case1_profile(p[0], q, program_fd(fd), t, x),
            "p3": lambda p, q, fd, t, x: case3_profile(p[2], q, program_fd(fd), t, x),
        }
        refs = checks.references(ops, explicit)
        verdicts = [checks.judge(op, code, out, rd) for op, (code, out, _), rd in zip(ops, first, refs)]
        problems = []
        for op, v in zip(ops, verdicts):
            if not v.ok and op.role != "slice":
                problems.append(f"{op.cmd} {op.meta.get('tag', op.meta.get('case', ''))}: {v.why}")
        if mismatched:
            problems.append(f"{mismatched} outputs differ from the first round")
        times, probes = np.array(times), np.array(probes)
        call_s = at_reference_speed(times, probes)
        main = main_part(ops)
        first_over_typical = float(np.sum(at_reference_speed(times[:1], probes[:1])[main]) / np.sum(call_s[main]))
        if len(times) > 2 and first_over_typical > MAX_FIRST_OVER_TYPICAL:
            problems.append(f"the first round took {first_over_typical:.1f} times the typical round: "
                            "later rounds reuse work of earlier ones")
        # every check must reject a broken output
        tried = set()
        for op, (code, out, _), rd, v in zip(ops, first, refs, verdicts):
            if not v.ok or (op.cmd, op.meta.get("mode")) in tried:
                continue
            tried.add((op.cmd, op.meta.get("mode")))
            for label, bad in checks.corruptions(op, out):
                if checks.judge(op, code, bad, rd).ok:
                    problems.append(f"{op.cmd} check accepts a corrupted {label}")
        for msg in problems:
            sys.stderr.write(f"check failed: {msg}\n")

        n_rounds = len(times)
        failed_per_round = sum(not v.ok for v in verdicts)
        if args.trace:
            metrics = per_layer(SpanSummary(tracer), times, call_s, verdicts, ops)
            trace_dir = HERE / "out" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.save(trace_dir / f"{args.workload}-s{args.seed}.npz")
        else:
            metrics = end_to_end(ops, times, probes, setup_s, rss_mb)
        return {
            "correct": not problems,
            "attempted": n_rounds * len(ops),
            "failed": n_rounds * failed_per_round,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except (OSError, ImportError, RuntimeError) as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

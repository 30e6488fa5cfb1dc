"""CLI contract: subcommands, exit codes, deterministic output."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cubicnls.quadratic_flow as qf
from cubicnls.cli import build_parser, main
from cubicnls.standard_form import StandardParams

V_SYSTEM_JSON = '{"lambda": [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]}'
CASE1_PARAMS = '{"p": [1, 0, 0, 0, 0], "q": [0, 0, 0]}'
UNCATALOGUED_PARAMS = '{"p": [0.3, 0.5, 0.7, 0.2, 0.1], "q": [0, 0, 0]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env(log_level=None):
    """Environment of a fresh process importing cubicnls from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("NLS_ASY_LOG", None)
    if log_level:
        env["NLS_ASY_LOG"] = log_level
    return env


def write_finaldata(path) -> None:
    """A smooth final-data CSV on xi in [-1.5, 1.5]."""
    xi = np.linspace(-1.5, 1.5, 25)
    env = 1.0 / (1.0 + xi**2)
    a1 = env * (0.9 + 0.1 * np.cos(xi))
    a2 = env * 0.4 * np.sin(xi + 0.3)
    lines = ["xi,re_a1,im_a1,re_a2,im_a2"]
    for row in zip(xi, a1, 0.1 * a1, a2, -0.2 * a2):
        lines.append(",".join(f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


class TestStandardize:
    def test_v_system(self, capsys):
        code, out, _ = run(capsys, "standardize", V_SYSTEM_JSON)
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["p"], [0, 0.75, 0.25, 0, 0], atol=1e-12)
        assert np.allclose(doc["q"], [-2, 0, -2], atol=1e-12)

    def test_identity_on_standard(self, capsys, tmp_path):
        from cubicnls.standard_form import StandardParams, standard_system

        g = standard_system(StandardParams(1, 0, 0, 0, 0))
        path = tmp_path / "sys.json"
        path.write_text(g.to_json())
        code, out, _ = run(capsys, "standardize", str(path))
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["p"], [1, 0, 0, 0, 0], atol=1e-12)
        assert not doc["trace"]["component_sign_flip"]

    def test_non_coercive_exit_2(self, capsys):
        code, _, err = run(capsys, "standardize", '{"lambda": [0,1,0,0,0,0,0,0,0,0,0,0]}')
        assert code == 2
        assert "coercive" in err

    def test_malformed_exit_1(self, capsys):
        code, _, _ = run(capsys, "standardize", '{"lambda": [1, 2, 3]}')
        assert code == 1

    def test_error_reported_once(self):
        # a subprocess, because under pytest the log capture handler would
        # hide a second copy of the message written through logging
        proc = subprocess.run(
            [sys.executable, "-m", "cubicnls.cli", "standardize", '{"lambda": [0,1,0,0,0,0,0,0,0,0,0,0]}'],
            capture_output=True, text=True, env=fresh_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: no coercive conserved quadratic form; cannot reduce"]


class TestSolve:
    def test_both_mode_deviation(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--params", CASE1_PARAMS, "--rho", "1",
            "--init", "0.6,0.0,0.8", "--span=-1,1", "--samples", "9", "--mode", "both",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "tau,D,R,I,deviation"
        assert len(lines) == 10
        devs = [float(l.split(",")[-1]) for l in lines[1:]]
        assert max(devs) < 1e-6

    def test_fixed_point_constant_rows(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--params", CASE1_PARAMS, "--rho", "1",
            "--init", "0,0,1", "--span", "0,2", "--samples", "5", "--mode", "closed",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            _, d, r, i = (float(v) for v in line.split(","))
            assert (d, r, i) == (0.0, 0.0, 1.0)

    def test_unsupported_ratio_exit_3(self, capsys):
        code, _, err = run(
            capsys, "solve", "--params", '{"p": [2, 0, 1, 0, 0], "q": [0, 0, 0]}',
            "--rho", "1", "--init", "0.6,0.0,0.8", "--span", "0,1", "--mode", "closed",
        )
        assert code == 3
        assert "oracle" in err

    def test_outside_catalogue_message_plain_floats(self, capsys):
        code, _, err = run(
            capsys, "solve", "--params", UNCATALOGUED_PARAMS, "--rho", "1",
            "--init", "0.6,0.0,0.8", "--span", "0,1", "--mode", "closed",
        )
        assert code == 3
        assert "(0.3, 0.5, 0.7, 0.2, 0.1)" in err
        assert "np.float64" not in err

    def test_deterministic_output(self, capsys, tmp_path):
        args = [
            "solve", "--params", CASE1_PARAMS, "--rho", "1",
            "--init", "0.6,0.0,0.8", "--span=-2,2", "--samples", "33",
            "--mode", "both",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("mode", ["closed", "oracle", "both"])
    def test_nan_rho_exit_1(self, capsys, mode):
        code, out, _ = run(
            capsys, "solve", "--params", CASE1_PARAMS, "--rho", "nan",
            "--init", "0.6,0.0,0.8", "--span", "0,1", "--mode", mode,
        )
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("rho", ["nan", "inf", "0", "-1"])
    def test_bad_rho_outside_catalogue_exit_1(self, capsys, rho):
        # the radius is checked before the parameters are classified
        code, _, _ = run(
            capsys, "solve", "--params", UNCATALOGUED_PARAMS, f"--rho={rho}",
            "--init", "0.6,0.0,0.8", "--span", "0,1", "--mode", "closed",
        )
        assert code == 1

    def test_bad_init_exit_1(self, capsys):
        code, _, _ = run(
            capsys, "solve", "--params", CASE1_PARAMS, "--rho", "1",
            "--init", "0.6,0.0", "--span", "0,1",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "span,mode", [("0,inf", "closed"), ("0,inf", "oracle"), ("0,nan", "oracle"), ("-inf,0", "both")]
    )
    def test_nonfinite_span_exit_1(self, capsys, span, mode):
        code, out, err = run(
            capsys, "solve", "--params", CASE1_PARAMS, "--rho", "1", "--init=1,0,0",
            f"--span={span}", "--samples", "3", "--mode", mode,
        )
        assert (code, out) == (1, "")
        assert "finite" in err


    def test_usage_error_exit_1(self, capsys):
        # argparse's own exit 2 would read as "no coercive conserved form"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--params", CASE1_PARAMS, "--rho", "1", "--init", "1,0,0", "--span", "-1,1"])
        assert exc.value.code == 1
        assert "expected one argument" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-h"])
        assert exc.value.code == 0

    def test_zero_samples_exit_1(self, capsys):
        code, out, err = run(
            capsys, "solve", "--params", CASE1_PARAMS, "--rho", "1", "--init=1,0,0",
            "--span=0,1", "--samples", "0",
        )
        assert (code, out) == (1, "")
        assert "cannot parse --samples" in err

    def test_step_underflow_exit_4(self, capsys, monkeypatch):
        # a right-hand side that turns NaN drives the oracle's step below
        # 10 ulps of its time
        monkeypatch.setattr(qf, "_qqq", lambda *args: (math.nan, math.nan, math.nan))
        code, out, err = run(
            capsys, "solve", "--params", CASE1_PARAMS, "--rho", "1", "--init", "0.6,0,0.8",
            "--span", "0,1", "--samples", "5", "--mode", "oracle",
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: the numerical integrator could not advance")
        assert "Traceback" not in err

    def test_debug_log_leaves_csv_unchanged(self):
        # subprocesses, because logging is configured once per process
        argv = [
            sys.executable, "-m", "cubicnls.cli", "solve", "--params", CASE1_PARAMS, "--rho", "1",
            "--init", "0.6,0,0.8", "--span=-1,2", "--samples", "17", "--mode", "both",
        ]
        runs = {}
        for level in (None, "debug"):
            runs[level] = subprocess.run(argv, capture_output=True, env=fresh_env(level), timeout=120)
            assert runs[level].returncode == 0
        assert runs[None].stdout == runs["debug"].stdout
        assert runs[None].stderr == b""
        # one oracle run forward to tau = 2 and one backward to tau = -1
        lines = [l for l in runs["debug"].stderr.decode().splitlines() if "oracle flow=quad" in l]
        assert [l.split("span=")[1].split(" tol=")[0] for l in lines] == ["(0, 2)", "(0, -1)"]
        assert all("accepted=" in l and "rejected=" in l and "rhs_evals=" in l for l in lines)

    @pytest.mark.parametrize("span,end", [("0,2", 2.0), ("-2,0", -2.0)])
    def test_span_from_or_to_zero_runs_one_oracle(self, span, end):
        # tau = 0 is the initial state itself, so only the direction reaching
        # beyond it is integrated; a subprocess, because logging is
        # configured once per process
        argv = [
            sys.executable, "-m", "cubicnls.cli", "solve", "--params", UNCATALOGUED_PARAMS, "--rho", "1",
            "--init", "0.6,0,0.8", f"--span={span}", "--samples", "41", "--mode", "oracle",
        ]
        proc = subprocess.run(argv, capture_output=True, env=fresh_env("debug"), timeout=120)
        assert proc.returncode == 0
        lines = [l for l in proc.stderr.decode().splitlines() if "oracle flow=" in l]
        assert len(lines) == 1 and f"oracle flow=quad span=(0, {end:g}) " in lines[0]
        tr = qf.integrate_quad(StandardParams(0.3, 0.5, 0.7, 0.2, 0.1), 1.0, (0.6, 0.0, 0.8), (0.0, end))
        taus = np.linspace(min(0.0, end), max(0.0, end), 41)
        expected = "tau,D,R,I\n" + "".join(
            ",".join(f"{x:.17g}" for x in (t, *st)) + "\n" for t, st in zip(taus, tr.at(taus))
        )
        assert proc.stdout.decode() == expected


class TestFixedPoints:
    def test_case1(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--params", CASE1_PARAMS, "--rho", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 2
        stable = [e for e in doc["points"] if e["classification"].startswith("asymptotically")]
        assert len(stable) == 1
        assert doc["synchronization"]["gamma"][0] == [1.0, 0.0]
        g2 = doc["synchronization"]["gamma"][1]
        assert abs(g2[0]) < 1e-12 and g2[1] == pytest.approx(-1.0)

    def test_case2_circle(self, capsys):
        code, out, _ = run(
            capsys, "fixed-points", "--params", '{"p": [0, 1, 0, 0, 0], "q": [0, 0, 0]}',
            "--rho", "2",
        )
        doc = json.loads(out)
        assert code == 0
        assert len(doc["circles"]) == 1
        assert len(doc["circles"][0]["samples"]) == 16
        assert doc["synchronization"] is None

    def test_debug_log_leaves_json_unchanged(self):
        # subprocesses, because logging is configured once per process
        argv = [
            sys.executable, "-m", "cubicnls.cli", "fixed-points", "--params",
            '{"p": [1, 0, 0, 0.4, 0], "q": [0, 0, 0]}', "--rho", "0.6",
        ]
        runs = {}
        for level in (None, "debug"):
            runs[level] = subprocess.run(argv, capture_output=True, env=fresh_env(level), timeout=120)
            assert runs[level].returncode == 0
        assert runs[None].stdout == runs["debug"].stdout
        assert runs[None].stderr == b""
        lines = [l for l in runs["debug"].stderr.decode().splitlines() if "detect_sync candidate=" in l]
        assert len(lines) == 1 and lines[0].endswith("outcome=sync")
        assert json.loads(runs["debug"].stdout)["synchronization"] is not None

    def test_bad_rho_exit_1(self, capsys):
        code, _, _ = run(capsys, "fixed-points", "--params", CASE1_PARAMS, "--rho", "-1")
        assert code == 1

    @pytest.mark.parametrize("rho", ["inf", "nan"])
    def test_nonfinite_rho_exit_1(self, capsys, rho):
        code, out, _ = run(capsys, "fixed-points", "--params", CASE1_PARAMS, "--rho", rho)
        assert (code, out) == (1, "")


class TestProfile:
    @pytest.fixture()
    def finaldata_csv(self, tmp_path):
        path = tmp_path / "fd.csv"
        write_finaldata(path)
        return path

    def test_t_one_rows_reproduce_data(self, capsys, finaldata_csv):
        code, out, _ = run(
            capsys, "profile", "--params", CASE1_PARAMS,
            "--finaldata", str(finaldata_csv), "--t-list", "1", "--x-grid=-2,2,9",
        )
        assert code == 0
        raw = np.genfromtxt(finaldata_csv, delimiter=",", names=True)
        for line in out.strip().split("\n")[1:]:
            t, x, re1, im1, re2, im2 = (float(v) for v in line.split(","))
            a1 = np.interp(x / 2, raw["xi"], raw["re_a1"]) + 1j * np.interp(
                x / 2, raw["xi"], raw["im_a1"]
            )
            pref = np.exp(1j * x * x / 4) / np.sqrt(2j)
            assert abs(complex(re1, im1) - pref * a1) < 1e-12

    def test_debug_log_leaves_csv_unchanged(self, finaldata_csv):
        # subprocesses, because logging is configured once per process
        argv = [
            sys.executable, "-m", "cubicnls.cli", "profile", "--params",
            '{"p": [1, 0, 3, 0, 0], "q": [0.1, -0.2, 0.05]}', "--finaldata", str(finaldata_csv),
            "--t-list", "10,1e8", "--x-grid=-2,2,3",
        ]
        runs = {}
        for level in (None, "debug"):
            runs[level] = subprocess.run(argv, capture_output=True, env=fresh_env(level), timeout=120)
            assert runs[level].returncode == 0
        assert runs[None].stdout == runs["debug"].stdout
        assert runs[None].stderr == b""
        lines = [l for l in runs["debug"].stderr.decode().splitlines() if "reconstruct tau=" in l]
        assert len(lines) == 6
        assert all("error_estimate=" in l and "levels=" in l for l in lines)

    @pytest.mark.parametrize(
        "flag,what",
        [
            ("--x-grid=-2,2,inf", "--x-grid"),
            ("--x-grid=-2,2,nan", "--x-grid"),
            ("--x-grid=-2,2,2.7", "--x-grid"),
            ("--x-grid=-2,2,0", "--x-grid"),
            ("--t-list=2,x", "--t-list"),
        ],
    )
    def test_bad_count_or_time_exit_1(self, capsys, finaldata_csv, flag, what):
        argv = ["profile", "--params", CASE1_PARAMS, "--finaldata", str(finaldata_csv)]
        argv += [flag, "--t-list=2"] if flag.startswith("--x-grid") else [flag, "--x-grid=-2,2,3"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"cannot parse {what}" in err

    def test_special_cross_check(self, capsys, finaldata_csv):
        code, _, err = run(
            capsys, "profile", "--params", CASE1_PARAMS,
            "--finaldata", str(finaldata_csv), "--t-list", "2,5", "--x-grid=-2,2,5",
            "--special",
        )
        assert code == 0
        assert "max relative deviation" in err
        val = float(err.strip().rsplit(" ", 1)[-1])
        assert val < 1e-6

    @pytest.mark.parametrize("p", ["[0, 0, 1, 0, 0]", "[1, 0, 1, 0, 0]"])
    def test_special_outside_family1_exit_3(self, capsys, finaldata_csv, p):
        code, out, err = run(
            capsys, "profile", "--params", f'{{"p": {p}, "q": [0, 0, 0]}}',
            "--finaldata", str(finaldata_csv), "--t-list", "2,5", "--x-grid=-2,2,5",
            "--special",
        )
        assert (code, out) == (3, "")
        assert "pure-p1" in err

    @pytest.mark.parametrize(
        "params,t_list",
        [(CASE1_PARAMS, "inf"), (CASE1_PARAMS, "2,nan"), (UNCATALOGUED_PARAMS, "inf")],
    )
    def test_nonfinite_time_exit_1(self, capsys, finaldata_csv, params, t_list):
        code, out, err = run(
            capsys, "profile", "--params", params, "--finaldata", str(finaldata_csv),
            f"--t-list={t_list}", "--x-grid=-1,1,3",
        )
        assert (code, out) == (1, "")
        assert "finite t" in err

    def test_nan_x_grid_exit_1(self, capsys, finaldata_csv):
        code, out, err = run(
            capsys, "profile", "--params", CASE1_PARAMS, "--finaldata", str(finaldata_csv),
            "--t-list", "2", "--x-grid=nan,1,3",
        )
        assert (code, out) == (1, "")
        assert "xi = nan" in err

    def test_sync_check(self, capsys, finaldata_csv):
        code, _, err = run(
            capsys, "profile", "--params", CASE1_PARAMS,
            "--finaldata", str(finaldata_csv), "--t-list", str(math.e**4), "--x-grid=-1,1,3",
            "--sync-check",
        )
        assert code == 0
        assert "sync observable" in err


class TestParser:
    """main builds only the subparser its first word names; nothing it
    prints or returns may tell."""

    @staticmethod
    def exit_of(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"], ["solve", "--help"], ["profile", "-h"], ["standardize", "--help"],
            [], ["bogus"], ["solve"], ["fixed-points", "--rho", "x"],
            ["solve", "--params", "{}", "--rho", "1", "--init", "1,0,0", "--span", "0,1", "extra"],
        ],
    )
    def test_same_text_as_full_parser(self, capsys, argv):
        full = self.exit_of(capsys, build_parser().parse_args, argv)
        assert self.exit_of(capsys, main, argv) == full

    def test_unknown_subcommand_exit_1(self, capsys):
        code, out, err = self.exit_of(capsys, main, ["bogus"])
        assert (code, out) == (1, "")
        assert "invalid choice: 'bogus'" in err


COLD_START_CHILD = """
import contextlib, io, json, sys
from cubicnls import cli

def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

setup_calls, fixed_points_call = json.loads(sys.argv[1])
for argv in setup_calls:
    call(argv)
after_setup = scipy_modules()
fixed_points = call(fixed_points_call)
print(json.dumps({"after_setup": after_setup, "fixed_points": fixed_points, "after": scipy_modules()}))
"""


def test_cold_start_leaves_scipy_unloaded(tmp_path, capsys):
    # the benchmark's fresh-process set-up calls (perfbench/setup_child.py)
    # need no scipy, and neither do fixed points outside the analytic sets
    finaldata = tmp_path / "fd.csv"
    write_finaldata(finaldata)
    setup_calls = [
        ["solve", "--params", '{"p": [0, 0, 1.1, 0, 0]}', "--rho", "1", "--init=0.6,0.0,0.8",
         "--span=-1,1", "--samples", "11", "--mode", "both"],
        ["fixed-points", "--params", '{"p": [0, 0, 1.1, 0, 0]}', "--rho", "1"],
        ["profile", "--params", '{"p": [0, 0, 1.3, 0, 0]}', "--finaldata", str(finaldata),
         "--t-list", "10", "--x-grid=-20,20,2"],
        ["standardize", V_SYSTEM_JSON],
    ]
    fixed_points_call = ["fixed-points", "--params", UNCATALOGUED_PARAMS, "--rho", "1"]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_CHILD, json.dumps([setup_calls, fixed_points_call])],
        capture_output=True, env=fresh_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    assert doc["after_setup"] == []
    assert doc["after"] == []
    assert run(capsys, *fixed_points_call)[:2] == (0, doc["fixed_points"])

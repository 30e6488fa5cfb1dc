"""CLI contract: subcommands, exit codes, deterministic output."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicnls.quadratic_flow as qf
from cubicnls import cli
from cubicnls.cli import main
from cubicnls.standard_form import StandardParams
from helpers import near_touch, reference_parser

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

    def test_closed_form_debug_line_leaves_csv_unchanged(self):
        # solve_case reports its case, subcase, branch and constants; a
        # subprocess, because logging is configured once per process
        argv = [
            sys.executable, "-m", "cubicnls.cli", "solve", "--params", '{"p": [1, 0, 0, 0.5, 0], "q": [0, 0, 0]}',
            "--rho", "1", "--init", "0.6,0,0.8", "--span=-3,3", "--samples", "13", "--mode", "closed",
        ]
        runs = {level: subprocess.run(argv, capture_output=True, env=fresh_env(level), timeout=120)
                for level in (None, "debug")}
        assert runs[None].returncode == runs["debug"].returncode == 0
        assert runs[None].stdout == runs["debug"].stdout
        assert runs[None].stderr == b""
        lines = [l for l in runs["debug"].stderr.decode().splitlines() if "solve_case" in l]
        assert lines == ["DEBUG solve_case case=6 subcase=p1>p4 branch=p1>p4 "
                         "constants={C1=0.60999999999999999, C2=0.5, C3=0.75}"]

    @pytest.mark.parametrize("case,p", [(3, "[0, 0, 1.1, 0, 0]"), (7, "[0, 0.4, 1, 0, 0]"), (8, "[0, 1, 0, 0.5, 0]")])
    def test_lemma_debug_line_leaves_csv_unchanged(self, case, p):
        # families 3, 7 and 8 report lemma 1's or 2's m, m1 and start u0; a
        # subprocess, because logging is configured once per process
        argv = [
            sys.executable, "-m", "cubicnls.cli", "solve", "--params", f'{{"p": {p}, "q": [0, 0, 0]}}',
            "--rho", "1", "--init", "0.6,0,0.8", "--span=-3,3", "--samples", "13", "--mode", "closed",
        ]
        runs = {level: subprocess.run(argv, capture_output=True, env=fresh_env(level), timeout=120)
                for level in (None, "debug")}
        assert runs[None].returncode == runs["debug"].returncode == 0
        assert runs[None].stdout == runs["debug"].stdout
        (line,) = [l for l in runs["debug"].stderr.decode().splitlines() if "solve_case" in l]
        assert line.startswith(f"DEBUG solve_case case={case} ")
        assert "branch=lemma" in line and " constants={m=" in line and ", m1=" in line and ", u0=" in line

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

    def test_huge_p_without_a_warning(self, capsys):
        # max|p| = 1e200: det A overflows a float, which must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(
                capsys, "fixed-points", "--params", '{"p": [1e200, 0.3, 0.2, 0.1, 0.4]}', "--rho", "1",
            )
        assert code == 0
        assert json.loads(out)["synchronization"] is not None

    def test_bad_rho_exit_1(self, capsys):
        code, _, _ = run(capsys, "fixed-points", "--params", CASE1_PARAMS, "--rho", "-1")
        assert code == 1

    @pytest.mark.parametrize("rho", ["inf", "nan"])
    def test_nonfinite_rho_exit_1(self, capsys, rho):
        code, out, _ = run(capsys, "fixed-points", "--params", CASE1_PARAMS, "--rho", rho)
        assert (code, out) == (1, "")

    @pytest.mark.filterwarnings("error")
    def test_huge_radius_warns_nothing(self, capsys):
        # rho^2 overflows: the flow check of the points drops them silently,
        # with the JSON as before
        code, out, err = run(capsys, "fixed-points", "--params", '{"p": [1, 0, 0, 0, 0]}', "--rho", "1e200")
        assert code == 0 and err == "" and json.loads(out)["points"] == []


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

    def test_uncatalogued_debug_line(self, finaldata_csv):
        # one sigma line per point on stderr; the CSV stays byte for byte the same
        argv = [
            sys.executable, "-m", "cubicnls.cli", "profile", "--params", UNCATALOGUED_PARAMS,
            "--finaldata", str(finaldata_csv), "--t-list", "10,1e8", "--x-grid=-2,2,3",
        ]
        runs = {level: subprocess.run(argv, capture_output=True, env=fresh_env(level), timeout=120)
                for level in (None, "debug")}
        assert runs[None].returncode == runs["debug"].returncode == 0
        assert runs[None].stdout == runs["debug"].stdout
        lines = [l for l in runs["debug"].stderr.decode().splitlines() if "sigma kind=" in l]
        assert len(lines) == 6
        assert all("interval=(" in l and "period=" in l and "nodes=" in l and "estimate=" in l for l in lines)
        assert "oracle flow=" not in runs["debug"].stderr.decode()

    def test_finaldata_columns_by_name(self, capsys, tmp_path, finaldata_csv):
        # reordered columns, an extra column, comments and blank lines: the same CSV
        argv = ["profile", "--params", UNCATALOGUED_PARAMS, "--t-list", "2,1e4", "--x-grid=-2,2,5"]
        code, ref, _ = run(capsys, *argv, "--finaldata", str(finaldata_csv))
        assert code == 0
        header, *rows = finaldata_csv.read_text().splitlines()
        order = [3, 0, 4, 2, 1]
        names = header.split(",")
        lines = ["# final data, columns reordered", ",".join([names[k] for k in order] + ["note"]), ""]
        for row in rows:
            vals = row.split(",")
            lines.append(",".join([vals[k] for k in order] + ["7"]) + "  # a row")
            lines.append("   ")
        moved = tmp_path / "moved.csv"
        moved.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, *argv, "--finaldata", str(moved))
        assert (code, out) == (0, ref)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h, rows: (h.replace("im_a2", "im_b2"), rows),  # a missing column
            lambda h, rows: (h, [rows[0].replace(rows[0].split(",")[2], "")] + rows[1:]),  # an empty field
            lambda h, rows: (h, [rows[0].rsplit(",", 1)[0]] + rows[1:]),  # a short row
            lambda h, rows: (h, [rows[0].replace(rows[0].split(",")[1], "1.2.3")] + rows[1:]),  # a bad number
            lambda h, rows: (h, [rows[0].replace(rows[0].split(",")[1], "nan")] + rows[1:]),  # not finite
            lambda h, rows: (h, [rows[0].replace(rows[0].split(",")[0], "inf")] + rows[1:]),  # not finite
            lambda h, rows: ("", []),  # no header
        ],
        ids=["missing-column", "empty-field", "short-row", "bad-number", "nan", "inf", "empty"],
    )
    def test_malformed_finaldata_exit_1(self, capsys, tmp_path, finaldata_csv, edit):
        header, *rows = finaldata_csv.read_text().splitlines()
        header, rows = edit(header, rows)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        code, out, err = run(
            capsys, "profile", "--params", CASE1_PARAMS, "--finaldata", str(bad), "--t-list", "2", "--x-grid=-1,1,3",
        )
        assert (code, out) == (1, "")
        assert "error:" in err

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

    @pytest.mark.parametrize("special,message", [
        (False, "error: xi = 2.0 outside grid [-1.5, 1.5]\n"),
        (True, "error: the explicit formula is stated for t > 1\n"),
    ])
    def test_first_failing_point_reports(self, capsys, finaldata_csv, special, message):
        # t = 2 passes; at t = 1 the point x = 4 lies outside the data (xi = 2),
        # and --special rejects x = 0 there already: the first failing (t, x)
        # reports, as with one call per point
        code, out, err = run(
            capsys, "profile", "--params", CASE1_PARAMS, "--finaldata", str(finaldata_csv),
            "--t-list", "2,1", "--x-grid=0,4,3", *(["--special"] if special else []),
        )
        assert (code, out, err) == (1, "", message)

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

    @pytest.mark.parametrize("p", ["[1, 0, 0, 0, 0]", "[0, 0, 1.3, 0, 0]", "[1, 0, 3, 0, 0]",
                                   "[0.6, 0.8, 1, 0.6, 0.2]", "[0, 0.4, 1, 0, 0]", "[0, 0, 1, 0.7, 0]"])
    def test_largest_t_rows_finite(self, capsys, finaldata_csv, p):
        # at t = 1e300 the prefactor's phase x^2 / 4t no longer squares x (which
        # overflows past 1.3e154), and the periodic closed forms fold whole
        # periods out of their phase integrals: every row is finite, with no
        # warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "profile", "--params", f'{{"p": {p}, "q": [0.1, -0.2, 0.3]}}', "--finaldata",
                str(finaldata_csv), "--t-list", "1e300", "--x-grid=-3e300,3e300,21",
            )
        rows = np.array([[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]])
        assert (code, err, rows.shape) == (0, "", (21, 6))
        assert np.isfinite(rows).all()

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

    def test_sync_check_without_synchronization(self, capsys, finaldata_csv):
        # pure p3 has no synchronizing point: the check says so and the rows stay
        code, out, err = run(
            capsys, "profile", "--params", '{"p": [0, 0, 1.1, 0, 0], "q": [0, 0, 0]}',
            "--finaldata", str(finaldata_csv), "--t-list", str(math.e**4), "--x-grid=-1,1,3",
            "--sync-check",
        )
        assert (code, err) == (0, "no synchronization detected\n")
        assert len(out.splitlines()) == 4

    def test_decline_exit_1(self, capsys, tmp_path):
        # final data on an orbit within 1e-6 rho of the equator, where the
        # sigma-reduction declines: a typed error, reported as malformed input
        params, s0 = near_touch(1e-6)
        a1 = math.sqrt((1.0 + s0[0]) / 2.0)
        a2 = complex(s0[1], s0[2]) / (2.0 * a1)
        fd = tmp_path / "fd.csv"
        fd.write_text("xi,re_a1,im_a1,re_a2,im_a2\n" + "".join(
            f"{xi!r},{a1!r},0,{a2.real!r},{a2.imag!r}\n" for xi in (-1.0, 1.0)))
        code, out, err = run(
            capsys, "profile", "--params", params.to_json(), "--finaldata", str(fd), "--t-list", "10",
            "--x-grid=0,0,1",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: time rule estimate ") and " above its target at " in err


def setup_calls(finaldata) -> list:
    """The fresh-process set-up calls of the benchmark (perfbench/setup_child.py)."""
    return [
        ["solve", "--params", '{"p": [0, 0, 1.1, 0, 0]}', "--rho", "1", "--init=0.6,0.0,0.8",
         "--span=-1,1", "--samples", "11", "--mode", "both"],
        ["fixed-points", "--params", '{"p": [0, 0, 1.1, 0, 0]}', "--rho", "1"],
        ["profile", "--params", '{"p": [0, 0, 1.3, 0, 0]}', "--finaldata", str(finaldata),
         "--t-list", "10", "--x-grid=-20,20,2"],
        ["standardize", V_SYSTEM_JSON],
    ]


# each subcommand's options, as the parser before the grammar table named them
OPTIONS = {
    "standardize": ["--out"],
    "solve": ["--params", "--rho", "--init", "--span", "--samples", "--mode", "--tol", "--out"],
    "fixed-points": ["--params", "--rho", "--out"],
    "profile": ["--params", "--finaldata", "--t-list", "--x-grid", "--special", "--sync-check", "--out"],
}
VALUES = ["-1", "-1,1", "", "nan", "1.5", "x", "-", "--", "3", "both"]
FLAGS = {"--special", "--sync-check"}
WELL_FORMED = {"--samples": "3", "--mode": "both"}  # the others take "1.5"


@st.composite
def cli_argv(draw):
    """A subcommand's argv: most of its options in any order, each written
    --opt v or --opt=v, and sometimes a form the direct reader declines."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    names = OPTIONS[command]
    value = st.sampled_from(VALUES)
    mostly = st.sampled_from([True] * 7 + [False])

    def option(name, exact=True):
        short = name if exact else name[: draw(st.integers(3, len(name) - 1))]
        if name in FLAGS:
            return [short]
        v = draw(st.one_of(value, st.just(WELL_FORMED.get(name, "1.5"))))
        return [f"{short}={v}"] if draw(st.booleans()) else [short, v]

    parts = [option(name) for name in names if draw(mostly)]
    if command == "standardize" and draw(mostly):
        parts.append([draw(value)])
    if not draw(st.sampled_from([True] * 3 + [False])):
        parts.append(draw(st.one_of(
            st.sampled_from(names).map(option),  # repeated
            st.sampled_from(names).map(lambda name: option(name, exact=False)),  # abbreviated
            st.sampled_from(names).map(lambda name: [name]),  # missing its value
            value.map(lambda v: [v]),  # a stray positional
            st.sampled_from([["-h"], ["--help"], ["--"]]),
        )))
    return [command] + [word for part in draw(st.permutations(parts)) for word in part]


def parsed(argv):
    """reference_parser's Namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return reference_parser().parse_args(argv)
        except SystemExit:
            return None


class TestParser:
    """main reads a well-formed call straight from the grammar table and
    builds argparse, for only the subparser its first word names, to print
    help and usage errors; nothing it prints, returns or runs may tell
    either from the parser the CLI had before the table (tests/helpers.py
    reference_parser)."""

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
            ["fixed-points", "--help"], ["solve", "--rho", "1"], ["fixed-points", "--params", "{}", "--rho", "-"],
            ["fixed-points", "--params", "{}", "--rho=1", "--rh", "1", "--out"],
            ["profile", "--params", "{}", "--finaldata", "f", "--t-list", "1", "--x-grid=0,1,2", "--special=1"],
            ["solve", "--params", "{}", "--rho", "1", "--init", "1,0,0", "--span", "0,1", "--mode", "all"],
            ["solve", "--params", "{}", "--rho", "1", "--init", "1,0,0", "--span", "0,1", "--samples", "1.5"],
            ["standardize"], ["standardize", "{}", "{}"], ["standardize", "--", "a", "b"],
            ["fixed-points", "--params", "{}", "--rho", "1", "--bogus"],
        ],
    )
    def test_same_text_as_full_parser(self, capsys, argv):
        full = self.exit_of(capsys, reference_parser().parse_args, argv)
        assert self.exit_of(capsys, main, argv) == full

    @pytest.mark.parametrize("command,given,named", [
        (command, option, option) for command, names in OPTIONS.items() for option in names if option not in FLAGS
    ] + [("solve", "--ini", "--init"), ("profile", "--x-g", "--x-grid")])
    def test_option_equals_double_dash_exit_1(self, capsys, command, given, named):
        # argparse alone stores [] for --opt=--, which the command then
        # fails on; both paths give the usage error of --opt with no value
        base = {
            "standardize": ["{}"],
            "solve": ["--params", "{}", "--rho", "1", "--init", "1,0,0", "--span", "0,1"],
            "fixed-points": ["--params", "{}", "--rho", "1"],
            "profile": ["--params", "{}", "--finaldata", "f", "--t-list", "1", "--x-grid", "0,1,2"],
        }[command]
        code, out, err = self.exit_of(capsys, main, [command, *base, f"{given}=--"])
        assert (code, out) == (1, "") and err.endswith(f"error: argument {named}: expected one argument\n")
        assert self.exit_of(capsys, reference_parser().parse_args, [command, *base, given]) == (code, out, err)

    def test_unknown_subcommand_exit_1(self, capsys):
        code, out, err = self.exit_of(capsys, main, ["bogus"])
        assert (code, out) == (1, "")
        assert "invalid choice: 'bogus'" in err

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(argv=cli_argv())
    def test_reader_declines_or_agrees(self, argv):
        # repr: the same attributes in the same order, nan equal to nan
        read = cli._read(argv)
        if read is not None:
            ref = parsed(argv)
            assert ref is not None, argv
            assert repr(vars(read)) == repr(vars(ref)), argv

    def test_benchmark_calls_skip_argparse(self, monkeypatch, tmp_path):
        # every argv the benchmark builds is read straight from the table,
        # and runs the cmd_* function on the module when the call is made,
        # which is where the benchmark's tracer wraps it
        def no_parser(*_):
            raise AssertionError("argparse built for a well-formed call")

        monkeypatch.setattr(cli, "build_parser", no_parser)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import WORKLOADS

        def call(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                return main(argv), out.getvalue()

        argvs = setup_calls(tmp_path / "fd.csv")
        for build in WORKLOADS.values():
            # the pipeline's profile calls take the parameters its standardize calls print
            argvs += [op.argv for op in build(1, tmp_path, call)]
        seen = []
        for command in OPTIONS:
            attr = "cmd_" + command.replace("-", "_")
            monkeypatch.setattr(cli, attr, lambda args, attr=attr: seen.append((attr, args)) or 0)
        for argv in argvs:
            assert main(argv) == 0
            attr, args = seen.pop()
            assert attr == "cmd_" + argv[0].replace("-", "_")
            got, ref = vars(args), vars(parsed(argv))
            assert (got.pop("func"), ref.pop("func").__name__) == (getattr(cli, attr), attr)
            assert repr(got) == repr(ref), argv


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
    fixed_points_call = ["fixed-points", "--params", UNCATALOGUED_PARAMS, "--rho", "1"]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_CHILD, json.dumps([setup_calls(finaldata), fixed_points_call])],
        capture_output=True, env=fresh_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    assert doc["after_setup"] == []
    assert doc["after"] == []
    assert run(capsys, *fixed_points_call)[:2] == (0, doc["fixed_points"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [0.5, 1.0, 1e3])
def test_equator_start_profile(capsys, tmp_path, scale):
    # an uncatalogued point with I = 0 exactly whose orbit is back at the
    # equator within one base step of the sigma-reduction: rows, no traceback
    a1, a2 = scale * (1.0 + 0.1j), scale * (0.5 + 0.05j)
    path = tmp_path / "fd.csv"
    path.write_text("xi,re_a1,im_a1,re_a2,im_a2\n" + "".join(
        f"{xi},{a1.real!r},{a1.imag!r},{a2.real!r},{a2.imag!r}\n" for xi in (-1.0, 1.0)))
    code, out, err = run(capsys, "profile", "--params", '{"p": [0.8, 0.4, 0.9, 0.3, 0.35], "q": [0.2, -0.1, 0.15]}',
                         "--finaldata", str(path), "--t-list", "10,1e4,1e8", "--x-grid=0,0,1")
    assert code == 0 and err == "" and len(out.splitlines()) == 4

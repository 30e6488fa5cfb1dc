"""Command-line interface.

Subcommands
-----------
standardize    reduce a general cubic system (JSON) to standard parameters
solve          sample a trajectory of the quadratic flow to CSV
fixed-points   fixed points with stability reports, as JSON
profile        sample the space-time profile to CSV

Exit codes: 0 success, 1 malformed input (usage errors included), 2 no
coercive conserved form, 3 parameters outside the closed-form catalogue in
closed mode, or outside the pure-p1 family for profile --special, 4 the
numerical integrator could not advance (an oracle whose step underflowed).

All CSV output uses 17 significant digits, '.' decimals and LF endings, so
identical inputs give byte-identical files.  The environment
variable NLS_ASY_LOG in {error, debug} controls logging verbosity.

Each call is a fresh process, so start-up is kept short: importing this
module loads numpy but not scipy, which no subcommand loads.  main reads a
well-formed call straight from the grammar table, _GRAMMAR, and builds
argparse from it, with only the subparser its first argument names (all
four for --help, an unknown word or none), only for a call it declines.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .closed_form import UnsupportedCaseError, classify, solve_case
from .profile import FinalData, case1_profile, sync_decay, uapp
from .quadratic_flow import (
    StiffnessError,
    _check_span,
    _csv,
    detect_sync,
    fixed_points,
    integrate_quad,
    stability,
)
from .standard_form import GeneralCubic, NonCoerciveError, StandardParams, reduce_to_standard

log = logging.getLogger("cubicnls")

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NON_COERCIVE = 2
EXIT_UNSUPPORTED = 3
EXIT_NO_PROGRESS = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _setup_logging() -> None:
    level = os.environ.get("NLS_ASY_LOG", "error").lower()
    levels = {"error": logging.ERROR, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(levelname)s %(message)s")


def _parse(what: str, fn, *args):
    """fn(*args), with any failure reported as malformed input (exit 1)."""
    try:
        return fn(*args)
    except Exception as exc:
        raise _CliError(EXIT_BAD_INPUT, f"cannot parse {what}: {exc}") from exc


def _from_json(cls, source: str):
    """cls.from_json of the file at path source, or of source itself."""
    if os.path.exists(source):
        with open(source) as fh:
            source = fh.read()
    return cls.from_json(source)


def _load_params(source: str) -> StandardParams:
    return _parse("standard parameters", _from_json, StandardParams, source)


def _write(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_standardize(args) -> int:
    g = _parse("general system", _from_json, GeneralCubic, args.input)
    try:
        params, trace = reduce_to_standard(g)
    except NonCoerciveError as exc:
        raise _CliError(EXIT_NON_COERCIVE, str(exc)) from exc
    doc = {
        "p": list(params.p),
        "q": list(params.q),
        "trace": {
            "mass_form": list(trace.mass_form),
            "linear_change": [list(row) for row in np.asarray(trace.linear_change)],
            "rotation_angle": trace.rotation_angle,
            "component_sign_flip": trace.component_sign_flip,
        },
    }
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _parse_floats(text: str, n: int | None, what: str) -> list[float]:
    """The comma-separated floats of text, exactly n of them unless n is None."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise _CliError(EXIT_BAD_INPUT, f"cannot parse {what}: {text!r}") from exc
    if n is not None and len(vals) != n:
        raise _CliError(EXIT_BAD_INPUT, f"{what} needs {n} comma-separated values")
    return vals


def cmd_solve(args) -> int:
    params = _load_params(args.params)
    s0 = np.array(_parse_floats(args.init, 3, "--init"))
    a, b = _parse_floats(args.span, 2, "--span")
    _check_span((a, b))
    if args.samples < 1:
        raise _CliError(EXIT_BAD_INPUT, f"cannot parse --samples: needs at least 1, got {args.samples}")
    taus = np.linspace(a, b, args.samples)

    closed = oracle = None
    if args.mode in ("closed", "both"):
        try:
            sol = solve_case(params, args.rho, s0)
        except UnsupportedCaseError as exc:
            raise _CliError(
                EXIT_UNSUPPORTED, f"{exc}; rerun with --mode oracle"
            ) from exc
        closed = sol(taus)
    if args.mode in ("oracle", "both"):
        # the initial state is anchored at tau = 0 (matching the closed
        # forms), where the oracle's node is s0 itself, so integrate outward
        # only in the directions whose samples reach beyond tau = 0
        oracle = np.empty((len(taus), 3))
        oracle[taus == 0.0] = s0
        for sgn in (1.0, -1.0):
            sel = taus * sgn > 0.0
            if np.any(sel):
                lim = float(np.max(sgn * taus[sel]))
                tr = integrate_quad(params, args.rho, s0, (0.0, sgn * lim), tol=args.tol)
                oracle[sel] = tr.at(taus[sel])

    main_states = closed if closed is not None else oracle
    if args.mode == "both":
        dev = np.max(np.abs(closed - oracle), axis=1)
        text = _csv("tau,D,R,I,deviation", np.column_stack((taus, main_states, dev)).tolist())
    else:
        text = _csv("tau,D,R,I", np.column_stack((taus, main_states)).tolist())
    _write(args.out, text)
    return EXIT_OK


def cmd_fixed_points(args) -> int:
    params = _load_params(args.params)
    fps = fixed_points(params, args.rho)
    entries = []
    for pt in fps.points:
        rep = stability(params, args.rho, pt)
        entries.append(
            {
                "point": [float(v) for v in pt],
                "tangent_form_eigenvalues": list(rep.tangent_form_eigenvalues),
                "classification": rep.classification,
            }
        )
    circles = [
        {
            "center": list(c.center),
            "axis": list(c.axis),
            "radius": c.radius,
            "samples": [[float(v) for v in s] for s in c.samples()],
        }
        for c in fps.circles
    ]
    doc = {"case": classify(params).case, "points": entries, "circles": circles}
    sync = detect_sync(params, args.rho)
    doc["synchronization"] = (
        None
        if sync is None
        else {
            "point": [float(v) for v in sync.point],
            "gamma": [[sync.gamma[0].real, sync.gamma[0].imag], [sync.gamma[1].real, sync.gamma[1].imag]],
        }
    )
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _finaldata(path: str) -> FinalData:
    """Final data from a CSV whose header names the columns xi, re_a1, im_a1,
    re_a2 and im_a2, in any order; '#' starts a comment and blank lines are
    skipped.  A missing column or a bad field raises ValueError."""
    with open(path) as fh:
        lines = [line.split("#", 1)[0] for line in fh]
    header, *body = [line.split(",") for line in lines if line.strip()]
    header = [name.strip() for name in header]
    cols = [header.index(name) for name in ("xi", "re_a1", "im_a1", "re_a2", "im_a2")]
    # float() takes the blanks around a field
    xi, re1, im1, re2, im2 = np.array([[float(row[c]) for c in cols] for row in body]).reshape(-1, 5).T
    return FinalData(xi, re1 + 1j * im1, re2 + 1j * im2)


def cmd_profile(args) -> int:
    params = _load_params(args.params)
    if args.special and (case := classify(params).case) != 1:
        raise _CliError(
            EXIT_UNSUPPORTED,
            "--special checks the explicit profile of the pure-p1 family (case 1, "
            f"p = (p1, 0, 0, 0, 0)); these parameters are case {case}",
        )
    fd = _parse("final data CSV", _finaldata, args.finaldata)
    t_list = _parse_floats(args.t_list, None, "--t-list")
    xa, xb, xn = _parse_floats(args.x_grid, 3, "--x-grid")
    if not (xn.is_integer() and xn >= 1):
        raise _CliError(EXIT_BAD_INPUT, f"cannot parse --x-grid: n must be a whole number >= 1, got {xn!r}")
    xs = np.linspace(xa, xb, int(xn))

    rows = []
    worst_rel = 0.0
    for t in t_list:
        # --special checks the explicit profile point by point, so a failure keeps its turn
        us = (uapp(params, fd, t, x) for x in xs) if args.special else zip(*uapp(params, fd, t, xs))
        for x, (u1, u2) in zip(xs, us):
            rows.append((t, x, u1.real, u1.imag, u2.real, u2.imag))
            if args.special:
                s1, s2 = case1_profile(params.p1, params.q, fd, t, x)
                scale = max(abs(u1), abs(u2))
                worst_rel = max(worst_rel, max(abs(u1 - s1), abs(u2 - s2)) / scale)
    _write(args.out, _csv("t,x,re_u1,im_u1,re_u2,im_u2", rows))
    if args.special:
        sys.stderr.write(f"max relative deviation from the explicit profile: {worst_rel:.3e}\n")
    if args.sync_check:
        sync = detect_sync(params, 1.0)
        if sync is None:
            sys.stderr.write("no synchronization detected\n")
        else:
            xi_lo, xi_hi = fd.xi_grid[0], fd.xi_grid[-1]
            for t in t_list:
                if t > 1.0:
                    val = sync_decay(params, fd, sync.gamma, t, (xi_lo, xi_hi))
                    sys.stderr.write(f"sync observable at t={t:.17g}: {val:.17g}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 (malformed input)
    instead of argparse's 2, which this CLI reserves for a non-coercive
    system."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:  # --opt=--, else stored as []
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


# The CLI's grammar: each subcommand's help and its arguments in order, each
# as the name and the keyword arguments add_argument takes.  build_parser
# makes argparse from it; _read reads a well-formed call straight from it.
_GRAMMAR = {
    "standardize": ("reduce a general system to standard parameters", (
        ("input", {"help": "path to, or inline, JSON {\"lambda\": [12 numbers]}"}),
        ("--out", {"default": None}),
    )),
    "solve": ("sample a quadratic-flow trajectory to CSV", (
        ("--params", {"required": True, "help": "path or inline JSON {\"p\": [...], \"q\": [...]}"}),
        ("--rho", {"type": float, "required": True}),
        ("--init", {"required": True, "help": "state D,R,I on the sphere at tau = 0"}),
        ("--span", {"required": True, "help": "time span a,b (use --span=-1,1 for negative a)"}),
        ("--samples", {"type": int, "default": 201}),
        ("--mode", {"choices": ["closed", "oracle", "both"], "default": "both"}),
        ("--tol", {"type": float, "default": 1e-10}),
        ("--out", {"default": None}),
    )),
    "fixed-points": ("fixed points and stability as JSON", (
        ("--params", {"required": True}),
        ("--rho", {"type": float, "required": True}),
        ("--out", {"default": None}),
    )),
    "profile": ("sample the space-time profile to CSV", (
        ("--params", {"required": True}),
        ("--finaldata", {"required": True, "help": "CSV xi,re_a1,im_a1,re_a2,im_a2"}),
        ("--t-list", {"required": True, "help": "comma-separated times"}),
        ("--x-grid", {"required": True, "help": "a,b,n for a uniform x grid"}),
        ("--special", {"action": "store_true", "help": "cross-check the explicit p1-family profile"}),
        ("--sync-check", {"action": "store_true", "help": "report the synchronization observable"}),
        ("--out", {"default": None}),
    )),
}


def _func(command: str):
    # looked up per call: a wrapper put on the module attribute is the one run
    return globals()["cmd_" + command.replace("-", "_")]


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand, or only command's when it names
    one.  The lone subcommand keeps the full usage line, so its help and
    error messages read the same either way."""
    parser = _Parser(
        prog="cubicnls",
        description="Standard-form reduction, quadratic-flow solutions and "
        "large-time profiles of two-component cubic systems.",
    )
    # a lone subparser lists all four in its usage line; all four keep no
    # metavar, which prints "required: command" when no subcommand is given
    lone = command in _GRAMMAR
    sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(_GRAMMAR) if lone else None)
    for name in [command] if lone else _GRAMMAR:
        help_text, arguments = _GRAMMAR[name]
        p_sub = sub.add_parser(name, help=help_text)
        for arg, kwargs in arguments:
            p_sub.add_argument(arg, **kwargs)
        p_sub.set_defaults(func=_func(name))
    return parser


def _read(argv: list) -> argparse.Namespace | None:
    """The Namespace argparse gives for argv, read straight from _GRAMMAR;
    None for help, a malformed call or a form left to argparse: an
    abbreviated or repeated option, a value after a space that starts with
    '-', or '--'."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    command, (_, arguments) = argv[0], _GRAMMAR[argv[0]]
    options = {arg: kwargs for arg, kwargs in arguments if arg[0] == "-"}
    given, positionals = {}, []
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            positionals.append(word)
            continue
        arg, eq, value = word.partition("=")
        kwargs = options.get(arg)
        if kwargs is None or arg in given or value == "--":  # --opt=--: _Parser rejects it
            return None
        if "action" in kwargs:  # a store_true flag
            if eq:
                return None
            given[arg] = True
            continue
        value = value if eq else next(words, "-")  # no word left reads as '-'
        if not eq and value[:1] == "-":
            return None
        try:
            value = kwargs["type"](value) if "type" in kwargs else value
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[arg] = value
    names = [arg for arg, _ in arguments if arg[0] != "-"]
    if len(positionals) != len(names) or any(kw.get("required") and arg not in given for arg, kw in options.items()):
        return None
    given.update(zip(names, positionals))
    values = {"command": command}
    for arg, kwargs in arguments:
        default = kwargs.get("default", False if "action" in kwargs else None)
        values[arg.lstrip("-").replace("-", "_")] = given.get(arg, default)
    return argparse.Namespace(**values, func=_func(command))


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        # help, a usage error or a form the reader leaves to argparse
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        # the error line is the report; logging it at error level would repeat it
        log.debug("exit %d: %s", exc.code, exc)
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except StiffnessError as exc:
        sys.stderr.write(f"error: the numerical integrator could not advance: {exc}\n")
        return EXIT_NO_PROGRESS


if __name__ == "__main__":
    sys.exit(main())

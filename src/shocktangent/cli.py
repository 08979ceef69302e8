"""Command-line entry point.

`_COMMANDS` wires each subcommand once: its help text, the CaseConfig fields
it reads and its handler. The single-case commands print the shock trajectory
summary and may write field snapshots; the studies (a perturbation-size sweep
from one shock-mode run, and a grid refinement at the largest perturbation)
write CSV; the last command self-checks the analytic references.

Exit codes: 0 success, 2 bad configuration, 3 numerical failure, 4 I/O error.
"""

import argparse
import dataclasses
import os
import sys
import typing

from .calculus import BurgersRampOracle, xi_ode_oracle
from .cases import (
    LAWS,
    CaseConfig,
    emit_csv,
    emit_snapshot_csv,
    epsilon_sweep,
    grid_convergence,
    run_case,
)
from .errors import ConfigError, NumericalError
from .tracker import MODES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

#: Config-file keys and their parsers: the CaseConfig fields but record_times,
#: each parsed by its annotated type (`float | None` parses as float).
_CONFIG_FIELDS = {
    f.name: next((t for t in typing.get_args(f.type) if t is not type(None)), f.type)
    for f in dataclasses.fields(CaseConfig)
    if f.name != "record_times"
}

#: The fields that have a flag, in help order, with the flag's choices; the
#: other fields are file keys only. A flag parses as its file key does.
_FLAGS = {
    "problem": sorted(LAWS), "mode": MODES, "grid_no": sorted(LAWS["burgers"].grids),
    **dict.fromkeys(("dx", "dt", "cfl", "t_final", "c_coeff", "alpha",
                     "eps_min", "eps_max", "n_eps", "jobs")),
}


def _keys_read(command, law):
    """The CaseConfig fields that `command` reads on `law`."""
    keys = {*_COMMANDS[command][1], *law.keys}
    if command == "gridconv":
        keys.discard("grid_no")  # the study runs the law's own grid family
    return keys


def _read_config_file(path):
    """Flat key=value file; '#' starts a comment, blank lines skipped."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _CONFIG_FIELDS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="shocktangent",
        description="Finite-volume solver with shock-aware forward sensitivities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, reads, handler) in _COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        p.set_defaults(handler=handler)
        if reads is None:
            continue
        p.add_argument("--config", metavar="FILE", help="key=value defaults file")
        laws = [LAWS[command]] if command in LAWS else LAWS.values()
        keys = set().union(*(_keys_read(command, law) for law in laws))
        for key, choices in _FLAGS.items():
            if key in keys:
                p.add_argument("--" + key.replace("_", "-"), type=_CONFIG_FIELDS[key],
                               choices=choices)
        if "record_times" in keys:
            p.add_argument("--record", type=float, action="append", default=None,
                           metavar="T", help="extra snapshot time (repeatable)")
        p.add_argument("--out", metavar="PATH", help="output CSV path")
    return parser


def _case_config(args):
    """Flags over the --config file over the defaults; only keys the command reads."""
    command = args.command
    values = _read_config_file(args.config) if args.config else {}
    for field in _CONFIG_FIELDS:  # flags override the file; absent flags read None
        val = getattr(args, field, None)
        if val is not None:
            values[field] = val
    if getattr(args, "record", None):
        values["record_times"] = tuple(sorted(args.record))
    problem = command if command in LAWS else values.get("problem", CaseConfig.problem)
    if problem not in LAWS:
        raise ConfigError(f"unknown problem {problem!r}")
    reads = _keys_read(command, LAWS[problem])
    for key in values:
        if key not in reads:
            where = command if command == problem else f"{command} on {problem}"
            raise ConfigError(
                f"{where} does not read {key}; it reads {', '.join(sorted(reads))}"
            )
    values["problem"] = problem
    return CaseConfig(**values)


def _print_case_summary(result):
    position = result.tracker.state
    print(f"problem: {result.config.problem}")
    print(f"grid: dx={result.grid.dx!r} cells={result.grid.n_cells}")
    print(f"t_final: {result.final_time!r}")
    print(f"shock position: {position.value!r}")
    print(f"shock tangent: {position.tangent!r}")


def _cmd_case(args):
    cfg = _case_config(args)
    result = run_case(cfg)
    _print_case_summary(result)
    if args.out:
        base, ext = os.path.splitext(args.out)  # a dot in a directory name stays put
        for t, field in result.snapshots:
            path = args.out if len(result.snapshots) == 1 else f"{base}_t{t:g}{ext}"
            emit_snapshot_csv(field, result.law, path)
            print(f"wrote {path}")
    return EXIT_OK


def _write_report(report, out):
    if out:
        emit_csv(report, out)
        print(f"wrote {out}")
    else:
        print(",".join(report.header))
        for row in report.rows:
            print(",".join(repr(float(v)) for v in row))


def _cmd_sweep(args):
    report = epsilon_sweep(_case_config(args))
    _write_report(report, args.out)
    meta = report.metadata
    print(f"delta: {meta['delta']!r}")
    print(f"eps_dagger: {meta['eps_dagger']!r}")
    return EXIT_OK


def _cmd_gridconv(args):
    _write_report(grid_convergence(_case_config(args)), args.out)
    return EXIT_OK


def _cmd_validate_oracles(_args):
    oracle = BurgersRampOracle()
    checks = []

    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for eps in (0.0, 0.05, 0.2):
            pos = oracle.shock_position(t, eps)
            u_minus = oracle.solution(t, pos - 1e-12, eps)
            speed = 0.5 * u_minus
            worst = max(worst, abs(speed - oracle.shock_speed(t, eps)))
    checks.append(("jump-speed closure", worst, 1e-9))

    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        worst = max(worst, abs(xi_ode_oracle(t) - oracle.xi(t)))
    checks.append(("shock-sensitivity ODE vs closed form", worst, 1e-8))

    worst = 0.0
    h = 1e-6
    for t in (0.5, 1.0, 2.0):
        fd = (oracle.shock_position(t, h) - oracle.shock_position(t, -h)) / (2 * h)
        worst = max(worst, abs(fd - oracle.xi(t)))
    checks.append(("position sensitivity vs finite difference", worst, 1e-6))

    failed = False
    for name, err, tol in checks:
        ok = err <= tol
        failed = failed or not ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} (err={err:.3e}, tol={tol:.0e})")
    return EXIT_NUMERICAL if failed else EXIT_OK


#: Each command in help order: its help text, the CaseConfig fields it reads
#: besides its law's `keys` (None: it reads no case), and its handler. A flag or
#: file key outside a command's fields exits 2; record_times is set by --record.
_GRID_AND_STEP = ("dx", "cfl", "t_final", "c_coeff", "alpha", "domain_length")
_COMMANDS = {
    "burgers": ("run one decaying-ramp case",
                ("mode", "record_times", "dt", *_GRID_AND_STEP), _cmd_case),
    "euler": ("run one moving-shock case",
              ("mode", "record_times", "dt", *_GRID_AND_STEP), _cmd_case),
    "sweep": ("perturbation-size error study",
              ("problem", "eps_min", "eps_max", "n_eps", "dt", *_GRID_AND_STEP), _cmd_sweep),
    # Each grid of the study takes its step from its grid row or from cfl.
    "gridconv": ("grid-refinement error study",
                 ("problem", "eps_max", "jobs", *_GRID_AND_STEP), _cmd_gridconv),
    "validate-oracles": ("self-check the analytic references", None, _cmd_validate_oracles),
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

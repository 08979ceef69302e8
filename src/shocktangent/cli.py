"""Command-line entry point.

Subcommands:

* ``burgers`` / ``euler``: run one case, print the shock trajectory summary,
  optionally write field snapshots.
* ``sweep``: perturbation-size study (one run per tracking mode), CSV out.
* ``gridconv``: grid-refinement study at the largest perturbation, CSV out.
* ``validate-oracles``: self-check of the analytic references.

Exit codes: 0 success, 2 bad configuration, 3 numerical failure, 4 I/O error.
"""

import argparse
import dataclasses
import math
import sys
import typing

from .calculus import BurgersRampOracle, xi_ode_oracle
from .cases import (
    BURGERS_GRIDS,
    LAWS,
    MODES,
    CaseConfig,
    emit_csv,
    emit_snapshot_csv,
    epsilon_sweep,
    grid_convergence,
    run_case,
)
from .errors import ConfigError, NumericalError

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


def _read_config_file(path):
    """Flat key=value file; '#' starts a comment, blank lines skipped."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
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


def _add_case_flags(sub, problem=None):
    """Case flags; without a problem, a --problem flag and the study's --eps-max."""
    sub.add_argument("--config", metavar="FILE", help="key=value defaults file")
    if problem is None:
        sub.add_argument("--problem", choices=sorted(LAWS), default="burgers")
        sub.add_argument("--eps-max", type=float)
    sub.add_argument("--mode", choices=MODES)
    if problem is None or LAWS[problem].family:
        sub.add_argument("--grid-no", type=int, choices=sorted(BURGERS_GRIDS))
    sub.add_argument("--dx", type=float)
    sub.add_argument("--dt", type=float)
    sub.add_argument("--cfl", type=float)
    sub.add_argument("--t-final", type=float)
    sub.add_argument("--c-coeff", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--out", metavar="PATH", help="output CSV path")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="shocktangent",
        description="Finite-volume solver with shock-aware forward sensitivities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for problem, case in (("burgers", "decaying-ramp"), ("euler", "moving-shock")):
        p = subs.add_parser(problem, help=f"run one {case} case")
        _add_case_flags(p, problem)
        p.add_argument("--record", type=float, action="append", default=None,
                       metavar="T", help="extra snapshot time (repeatable)")

    p = subs.add_parser("sweep", help="perturbation-size error study")
    _add_case_flags(p)
    p.add_argument("--eps-min", type=float)
    p.add_argument("--n-eps", type=int)

    p = subs.add_parser("gridconv", help="grid-refinement error study")
    _add_case_flags(p)
    p.add_argument("--jobs", type=int)

    subs.add_parser("validate-oracles", help="self-check the analytic references")
    return parser


def _case_config(args, problem):
    values = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    values["problem"] = problem
    for field in _CONFIG_FIELDS:  # flags override the file; absent flags read None
        val = getattr(args, field, None)
        if val is not None:
            values[field] = val
    if getattr(args, "record", None):
        values["record_times"] = tuple(sorted(args.record))
    try:
        cfg = CaseConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    # A given cfl would be ignored where a dt, given or the grid row's, fixes the step.
    if "cfl" in values:
        dt = cfg.resolved().dt
        if dt is not None:
            raise ConfigError(
                f"cfl = {cfg.cfl!r} has no effect with the fixed step dt = {dt!r} "
                "(given, or from the grid row); drop cfl, or give dx without dt"
            )
    return cfg


def _print_case_summary(result):
    state = result.shock_state()
    print(f"problem: {result.config.problem}")
    print(f"grid: dx={result.grid.dx!r} cells={result.grid.n_cells}")
    print(f"t_final: {result.final_time!r}")
    print(f"shock position: {state.position.value!r}")
    print(f"shock tangent: {state.position.tangent!r}")


def _cmd_case(args, problem):
    cfg = _case_config(args, problem)
    result = run_case(cfg)
    _print_case_summary(result)
    if args.out:
        base, dot, ext = args.out.rpartition(".")
        if not base:
            base, ext = args.out, ""
        for t, field in result.snapshots:
            path = args.out if len(result.snapshots) == 1 else f"{base}_t{t:g}{dot}{ext}"
            emit_snapshot_csv(field, path)
            print(f"wrote {path}")
    return EXIT_OK


def _write_report(report, out):
    if out:
        emit_csv(report, out)
        print(f"wrote {out}")
    else:
        print(",".join(report.header()))
        for row in report.rows:
            print(",".join(repr(float(v)) for v in row))


def _cmd_sweep(args):
    report = epsilon_sweep(_case_config(args, args.problem))
    _write_report(report, args.out)
    meta = report.metadata
    print(f"delta: {meta['delta']!r}")
    print(f"eps_dagger: {meta['eps_dagger']!r}")
    return EXIT_OK


def _cmd_gridconv(args):
    cfg = _case_config(args, args.problem)
    _write_report(grid_convergence(cfg, jobs=cfg.jobs), args.out)
    return EXIT_OK


def _cmd_validate_oracles():
    oracle = BurgersRampOracle()
    checks = []

    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for eps in (0.0, 0.05, 0.2):
            pos = oracle.shock_position(t, eps)
            u_minus = oracle.solution(t, pos - 1e-12, eps)
            speed = 0.5 * u_minus
            a = 1.0 + eps
            exact = 0.5 * a / math.sqrt(1.0 + a * t)
            worst = max(worst, abs(speed - exact))
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


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command in ("burgers", "euler"):
            return _cmd_case(args, args.command)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "gridconv":
            return _cmd_gridconv(args)
        if args.command == "validate-oracles":
            return _cmd_validate_oracles()
        raise ConfigError(f"unknown command {args.command!r}")
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

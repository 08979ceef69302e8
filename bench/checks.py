"""Output checks for the benchmark workloads.

Each check reads only what the CLI printed and the files it wrote, plus the
closed-form references: x0 + S t and xi = t for the moving Euler shock (the
tangent seed is the shock speed S), and BurgersRampOracle for the ramp. A
failed check raises CheckError. On success a check returns the accuracy of
the run (informational, never a gate beyond the tolerances below) and the
output files it read, which the caller hashes.
"""

import re

import numpy as np

POS_TOL_DX = 2.0
XI_REL_TOL = 0.05


class CheckError(Exception):
    """An output failed its check."""


def _summary(stdout):
    """Parse the case summary that `shocktangent burgers|euler` prints."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    try:
        m = re.fullmatch(r"dx=(\S+) cells=(\d+)", out["grid"])
        return {
            "dx": float(m.group(1)),
            "cells": int(m.group(2)),
            "t_final": float(out["t_final"]),
            "position": float(out["shock position"]),
            "tangent": float(out["shock tangent"]),
        }
    except (KeyError, AttributeError, ValueError) as exc:
        raise CheckError(f"unreadable case summary: {exc!r}") from exc


def _shock_accuracy(s, pos_exact, xi_exact):
    pos_err_dx = abs(s["position"] - pos_exact) / s["dx"]
    xi_rel_err = abs(s["tangent"] / xi_exact - 1.0)
    if not pos_err_dx <= POS_TOL_DX:
        raise CheckError(f"shock position off by {pos_err_dx:.3f} dx > {POS_TOL_DX} dx")
    if not xi_rel_err <= XI_REL_TOL:
        raise CheckError(f"shock tangent off by {xi_rel_err:.4%} > {XI_REL_TOL:.0%}")
    return {"pos_err_dx": pos_err_dx, "xi_rel_err": xi_rel_err}


def _expect(name, got, want):
    if got != want:
        raise CheckError(f"{name} is {got}, expected {want}")


def _finite_table(path, rows, cols):
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc
    _expect(f"shape of {path.name}", table.shape, (rows, cols))
    if not np.all(np.isfinite(table)):
        raise CheckError(f"{path.name} has non-finite entries")
    return table


def check_euler_desk(params, stdout, workdir, t_final):
    s = _summary(stdout)
    _expect("cells", s["cells"], 3000)
    _expect("t_final", s["t_final"], t_final)
    pos_exact = params["x_shock0"] + params["shock_speed"] * t_final
    return _shock_accuracy(s, pos_exact, t_final), []


def check_burgers_fine(params, stdout, workdir, record_times):
    from shocktangent.calculus import BurgersRampOracle

    oracle = BurgersRampOracle(params["shift"])
    s = _summary(stdout)
    _expect("cells", s["cells"], 16522)
    _expect("t_final", s["t_final"], 2.0)
    acc = _shock_accuracy(s, oracle.shock_position(2.0), oracle.xi(2.0))
    files = [workdir / f"u_t{t:g}.csv" for t in (*record_times, 2.0)]
    for path in files:
        _finite_table(path, 16522, 3)
    return acc, files


def check_burgers_sweep(params, stdout, workdir):
    from shocktangent.calculus import BurgersRampOracle

    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("delta", "eps_dagger"):
            values[key] = float(value)
    if set(values) != {"delta", "eps_dagger"}:
        raise CheckError("sweep did not print delta and eps_dagger")
    path = workdir / "s.csv"
    rows = _finite_table(path, 25, 5)
    above = rows[rows[:, 0] >= values["eps_dagger"]]
    if len(above) < 3:
        raise CheckError(f"only {len(above)} rows at or above eps_dagger")
    # Acceptance criterion 4(a): err_shock <= 2 err_base on the first three.
    for eps, _, _, err_shock, err_base in above[:3]:
        if not err_shock <= 2.0 * err_base:
            raise CheckError(f"eps={eps:.4g}: err_shock {err_shock} > 2 * err_base {err_base}")
    xi = values["delta"] / values["eps_dagger"]
    xi_rel_err = abs(xi / BurgersRampOracle(params["shift"]).xi(2.0) - 1.0)
    if not xi_rel_err <= XI_REL_TOL:
        raise CheckError(f"shock tangent off by {xi_rel_err:.4%} > {XI_REL_TOL:.0%}")
    return {"xi_rel_err": xi_rel_err}, [path]

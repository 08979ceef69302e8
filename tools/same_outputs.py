"""Run a fixed list of CLI commands and keep everything they print and write.

    python3 tools/same_outputs.py OUTDIR

Run from the root of a source checkout; the package is imported from
`./src`. Each command runs in a fresh process with its own directory
OUTDIR/NAME as the working directory, which receives the command line
(`argv.txt`), `stdout.txt`, `stderr.txt`, the exit code (`exit.txt`), any
`--config` file, and every CSV the command writes. The checkout's path is
replaced by `<checkout>` in stdout and stderr, so that two checkouts can be
compared. Each child runs with COLUMNS=80, so that argparse wraps its help
pages the same way on every terminal. A change keeps the outputs of two
checkouts the same when

    diff -r OLD_OUTDIR NEW_OUTDIR

prints nothing. The list covers every command, both problems, all three
tracker modes, snapshot and report CSVs, the benchmark's three workloads
with fixed `--config` inputs, a few inputs that stop with an error, and the
parser's help pages.
"""

import os
import subprocess
import sys
from pathlib import Path

#: (name, argv, --config file contents (str, or bytes that need not be UTF-8)
#: or None, subdirectories to make first).
COMMANDS = [
    ("euler_t3", ["euler", "--t-final", "3", "--out", "euler.csv"], None, ()),
    ("burgers_g7_record", ["burgers", "--grid-no", "7", "--record", "1", "--out", "u.csv"],
     None, ()),
    ("sweep_g5", ["sweep", "--grid-no", "5", "--out", "s.csv"], None, ()),
    ("sweep_euler", ["sweep", "--problem", "euler", "--t-final", "1", "--out", "s.csv"], None, ()),
    ("gridconv", ["gridconv", "--out", "g.csv"], None, ()),
    ("gridconv_euler", ["gridconv", "--problem", "euler", "--dx", "0.0125", "--t-final", "1"],
     None, ()),
    ("burgers_blackbox", ["burgers", "--mode", "blackbox"], None, ()),
    ("burgers_cfl", ["burgers", "--dx", "0.01", "--t-final", "0.5"], None, ()),
    *((f"euler_t20_{m}", ["euler", "--t-final", "20", "--mode", m], None, ())
      for m in ("none", "blackbox", "shock")),
    ("validate_oracles", ["validate-oracles"], None, ()),
    # The benchmark's workloads, on inputs inside its drawn ranges.
    ("bench_euler_desk", ["euler", "--t-final", "20.0"],
     "shock_speed = 0.10536\nx_shock0 = 4.8472\n", ()),
    ("bench_burgers_sweep", ["sweep", "--grid-no", "5", "--out", "s.csv"], "shift = 0.0325\n", ()),
    ("bench_burgers_fine",
     ["burgers", "--grid-no", "2", "--record", "0.5", "--record", "1.0", "--record", "1.5",
      "--out", "u.csv"],
     "shift = 0.0475\n", ()),
    # Inputs that stop: a probe reading a negative density, snapshot paths
    # with a dot outside the file name, a shock leaving the grid at eps_max,
    # a probe offset c_coeff * dx**alpha past the largest float, and a first
    # probe outside the grid on a study's coarsest grid.
    ("euler_negative_probe", ["euler", "--dx", "0.05", "--t-final", "5", "--c-coeff", "1"],
     None, ()),
    ("burgers_out_dot_slash", ["burgers", "--grid-no", "9", "--record", "1", "--out", "./u"],
     None, ()),
    ("burgers_out_dotted_dir",
     ["burgers", "--grid-no", "9", "--record", "1", "--out", "run.v2/u"], None, ("run.v2",)),
    ("sweep_shock_leaves_grid", ["sweep", "--grid-no", "9"], "shift = 0.1\n", ()),
    ("gridconv_shock_leaves_grid", ["gridconv"], "shift = 0.1\n", ()),
    ("burgers_delta_overflow", ["burgers", "--alpha", "-400"], None, ()),
    ("gridconv_euler_probe_outside",
     ["gridconv", "--problem", "euler", "--dx", "0.1", "--t-final", "1"], None, ()),
    # Inputs that a case's own parts reject: a subsonic upstream state and gamma = 1
    # (the gas setup), a fixed dt past the step ceiling (the step control), and a
    # cfl so small that the march would pass the ceiling at its initial wave speed.
    ("euler_subsonic_mach", ["euler"], "mach = 0.8\n", ()),
    ("euler_gamma_one", ["euler"], "gamma = 1.0\n", ()),
    ("burgers_dt_past_step_ceiling", ["burgers", "--dx", "0.01", "--dt", "1e-7"], None, ()),
    ("burgers_cfl_past_step_ceiling",
     ["burgers", "--dx", "0.01", "--cfl", "1e-6", "--mode", "none"], None, ()),
    ("euler_cfl_past_step_ceiling",
     ["euler", "--dx", "0.05", "--t-final", "1", "--cfl", "1e-300"], None, ()),
    # A probe offset so small that x -/+ delta rounds to the tracked x.
    ("euler_probe_offset_rounds_away",
     ["euler", "--dx", "0.1", "--t-final", "2", "--alpha", "100"], None, ()),
    ("burgers_probe_offset_rounds_away", ["burgers", "--grid-no", "9", "--alpha", "30"], None, ()),
    # More perturbation sizes than a sweep takes, a config file that is not
    # UTF-8, and gas inputs whose upstream state cannot exist.
    ("sweep_n_eps_past_ceiling",
     ["sweep", "--grid-no", "9", "--n-eps", "99999999999999999999999"], None, ()),
    ("burgers_config_not_utf8", ["burgers"], b"\xff\xfe shift = 0.03\n", ()),
    ("euler_gas_state_cannot_exist", ["euler", "--dx", "0.05", "--t-final", "1"],
     "mach = 1e150\n", ()),
    # A probe that reaches the grid's last cell while the shock runs out (on
    # each law), a study whose first-order shock x_s + eps_max * xi lies past
    # the grid's end, and a study whose shock-mode march loses its probe at the
    # grid's end.
    ("euler_probe_leaves_grid", ["euler", "--t-final", "5"], "x_shock0 = 29.5\n", ()),
    ("burgers_probe_leaves_grid", ["burgers", "--grid-no", "9"], "shift = 0.12\n", ()),
    ("sweep_first_order_shock_leaves_grid", ["sweep", "--grid-no", "5", "--out", "s.csv"],
     "shift = 0.056\n", ()),
    ("sweep_euler_probe_leaves_grid",
     ["sweep", "--problem", "euler", "--t-final", "9", "--eps-max", "0.001"],
     "x_shock0 = 29.0\n", ()),
    # The tracker's own exits in a march: a probe jump under its floor, and a
    # tracked position that leaves the grid interior.
    ("burgers_probe_jump_below_floor", ["burgers", "--grid-no", "9", "--c-coeff", "0.3"],
     None, ()),
    ("burgers_position_leaves_interior",
     ["burgers", "--dx", "0.01", "--t-final", "3", "--c-coeff", "0.2"], None, ()),
    # The help pages, which pin every command's flags and help text.
    ("help", ["--help"], None, ()),
    *((f"help_{c}", [c, "--help"], None, ())
      for c in ("burgers", "euler", "sweep", "gridconv", "validate-oracles")),
]


def run_command(checkout, outdir, name, argv, config, subdirs):
    workdir = outdir / name
    workdir.mkdir()
    for sub in subdirs:
        (workdir / sub).mkdir()
    if config is not None:
        (workdir / "case.cfg").write_bytes(config if isinstance(config, bytes)
                                           else config.encode("utf-8"))
        argv = [argv[0], "--config", "case.cfg", *argv[1:]]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "shocktangent.cli", *argv], cwd=workdir,
                          env=env, capture_output=True, text=True)
    (workdir / "argv.txt").write_text(" ".join(argv) + "\n", encoding="utf-8")
    for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        text = text.replace(str(checkout), "<checkout>")
        (workdir / f"{stream}.txt").write_text(text, encoding="utf-8")
    (workdir / "exit.txt").write_text(f"{proc.returncode}\n", encoding="utf-8")
    return proc.returncode


def main():
    args = sys.argv[1:]
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = Path.cwd().resolve()
    if not (checkout / "src" / "shocktangent").is_dir():
        print("run from the root of a source checkout", file=sys.stderr)
        return 2
    outdir = Path(args[0]).resolve()
    if outdir.exists() and any(outdir.iterdir()):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    outdir.mkdir(parents=True, exist_ok=True)
    for name, cmd, config, subdirs in COMMANDS:
        code = run_command(checkout, outdir, name, cmd, config, subdirs)
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

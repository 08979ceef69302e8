"""Command-line surface: parsing, config files, outputs, exit codes."""

import math
import subprocess
import sys
from time import perf_counter

import pytest

from shocktangent import cases, cli, solver
from shocktangent.cases import SweepReport
from shocktangent.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from shocktangent.errors import ConfigError


def test_requires_a_command(capsys):
    assert main([]) == EXIT_CONFIG
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "burgers" in out and "sweep" in out


def test_rejected_flag_value(capsys):
    assert main(["burgers", "--grid-no", "77"]) == EXIT_CONFIG
    capsys.readouterr()


def test_burgers_case_summary(capsys):
    assert main(["burgers", "--grid-no", "9"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "problem: burgers" in out
    assert "cells=130" in out
    assert "t_final: 2.0" in out
    assert "shock position: 1.76" in out
    assert "shock tangent: 0.56" in out


def test_burgers_single_snapshot(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code = main(["burgers", "--grid-no", "9", "--out", str(out_path)])
    assert code == EXIT_OK
    assert f"wrote {out_path}" in capsys.readouterr().out
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x,u,v"
    assert len(lines) == 131


def test_burgers_record_times_write_suffixed_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    # The suffix goes before the last component's extension; a dot in a
    # directory name, or a leading "./", is not an extension.
    for out, base, ext in ((str(tmp_path / "field.csv"), str(tmp_path / "field"), ".csv"),
                           ("./u", "./u", ""), ("run.v2/u", "run.v2/u", "")):
        code = main([
            "burgers", "--grid-no", "9",
            "--record", "1.0", "--record", "0.5",
            "--out", out,
        ])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        for tag in ("t0.5", "t1", "t2"):
            path = f"{base}_{tag}{ext}"
            assert f"wrote {path}\n" in printed
            assert (tmp_path / path).exists()


def test_euler_case_runs_on_a_coarse_grid(capsys):
    code = main(["euler", "--dx", "0.05", "--t-final", "0.5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "problem: euler" in out
    assert "cells=600" in out


def test_sweep_prints_csv_and_thresholds(capsys):
    code = main(["sweep", "--grid-no", "9", "--n-eps", "3"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epsilon,err_no_ad,err_blackbox,err_shock,err_base"
    assert len([l for l in lines if l[:1].isdigit()]) == 3
    assert lines[-2].startswith("delta: ")
    assert lines[-1].startswith("eps_dagger: ")


def test_sweep_writes_csv_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--grid-no", "9", "--n-eps", "3", "--out", str(out_path)])
    assert code == EXIT_OK
    assert out_path.exists()
    out = capsys.readouterr().out
    assert f"wrote {out_path}" in out


def test_config_file_sets_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        "# coarse reference case\n"
        "grid_no = 9\n"
        "n_eps = 3  # trailing comment\n",
        encoding="utf-8",
    )
    code = main(["sweep", "--config", str(cfg), "--n-eps", "4"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len([l for l in lines if l[:1].isdigit()]) == 4


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text("viscosity = 0.01\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}:1" in err
    assert "unknown key" in err


def test_config_file_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text("grid_no\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    assert "expected key=value" in capsys.readouterr().err


def test_config_file_bad_value(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text("dx = tiny\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    assert "bad value for dx" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "none.cfg")]) == EXIT_IO
    capsys.readouterr()


def test_unwritable_output_is_io_error(tmp_path, capsys):
    code = main([
        "burgers", "--grid-no", "9",
        "--out", str(tmp_path / "missing" / "field.csv"),
    ])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_contradictory_config_is_config_error(capsys):
    assert main(["burgers", "--dx", "0.01", "--t-final", "-1"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_gridconv_reference_rows(capsys):
    code = main(["gridconv"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dx,err_shock,err_base"
    assert len(lines) == 6
    dxs = [float(l.split(",")[0]) for l in lines[1:]]
    assert dxs == sorted(dxs, reverse=True)


def test_validate_oracles(capsys):
    assert main(["validate-oracles"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all("PASS" in l for l in lines)
    assert all("err=" in l and "tol=" in l for l in lines)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shocktangent.cli", "validate-oracles"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert "PASS" in proc.stdout


def test_importing_the_cli_loads_no_process_pool_or_polynomial_module():
    # A serial run uses none of them; loaded, they hold about 4 MB of resident memory.
    code = (
        "import sys, shocktangent.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', "
        "'numpy.polynomial') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["burgers", "--c-coeff", "-1"], "error:"),
        (["burgers", "--dx", "10"], "error:"),
        (["burgers", "--alpha", "nan"], "error:"),
        (["euler", "--config", "{dir}/subsonic.cfg"], "error:"),
        (["burgers", "--config", "{dir}/dt_mode.cfg"], "unknown key 'dt_mode'"),
        (["gridconv", "--jobs", "0"], "jobs"),
        (["gridconv", "--jobs", "-4"], "jobs"),
        (["burgers", "--grid-no", "7", "--dx", "0.01", "--t-final", "0.5"], "grid_no = 7 and dx"),
        (["euler", "--config", "{dir}/no_shock.cfg"], "shock_speed = 3.0"),
        (["euler", "--config", "{dir}/far_shock.cfg"], "x_shock0 = 40.0"),
        (["burgers", "--config", "{dir}/far_shift.cfg"], "shift = 5.0"),
        # delta = c_coeff * dx**alpha past the largest float, or rounded to 0.
        (["burgers", "--alpha", "-400"], "alpha = -400.0"),
        (["euler", "--dx", "0.1", "--t-final", "1", "--alpha", "-400"], "alpha = -400.0"),
        (["sweep", "--grid-no", "9", "--alpha", "-400"], "alpha = -400.0"),
        (["euler", "--dx", "0.1", "--t-final", "2", "--alpha", "1e300"], "alpha = 1e+300"),
        # A first shock-mode probe outside the cells a linear probe reads.
        (["sweep", "--grid-no", "9", "--c-coeff", "100"], "at x = -0.42"),
        (["gridconv", "--problem", "euler", "--dx", "0.1", "--t-final", "1"], "at x = -27.0"),
        # A probe offset below the float spacing: x -/+ delta rounds to the tracked x.
        (["euler", "--dx", "0.1", "--t-final", "2", "--alpha", "100"], "alpha = 100.0"),
        (["burgers", "--grid-no", "9", "--alpha", "30"], "alpha = 30.0"),
        # A study whose first-order shock x_s + eps_max * xi leaves the grid.
        (["sweep", "--grid-no", "5", "--config", "{dir}/near_shift.cfg"], "first-order shock"),
        (["gridconv", "--config", "{dir}/near_shift.cfg"], "first-order shock"),
        # More perturbation sizes than a sweep takes, before numpy sizes the array.
        (["sweep", "--grid-no", "9", "--n-eps", "100000000000000"],
         f"n_eps must be at least 2 and at most {cases.MAX_EPS}, got 100000000000000"),
        (["sweep", "--grid-no", "9", "--n-eps", "99999999999999999999999"],
         f"at most {cases.MAX_EPS}, got 99999999999999999999999"),
        (["burgers", "--config", "{dir}/not_utf8.cfg"],
         "config file {dir}/not_utf8.cfg is not UTF-8"),
        # Gas inputs whose upstream state cannot exist; a scalar state names no cell.
        *((["euler", "--dx", "0.05", "--t-final", "1", "--config", f"{{dir}}/{name}.cfg"], msg)
          for name, msg in (
              ("huge_mach", "mach = 1e+150, shock_speed = 0.1 and gamma = 1.4 give no gas "
               "state: non-positive rho\n"),
              ("huge_backward_shock", "mach = 5.3452, shock_speed = -1e+300 and gamma = 1.4 "
               "give no gas state: non-positive rho\n"),
              ("huge_gamma", "mach = 5.3452, shock_speed = 0.1 and gamma = 1e+300 give no gas "
               "state: non-positive p\n"))),
    ],
    ids=["negative-c-coeff", "fewer-than-3-cells", "nan-alpha", "subsonic-mach",
         "removed-dt-mode-key", "zero-jobs", "negative-jobs", "grid-no-with-dx",
         "inadmissible-shock-speed", "shock-outside-grid", "shift-outside-grid",
         "burgers-delta-overflow", "euler-delta-overflow", "sweep-delta-overflow",
         "euler-delta-underflow", "sweep-initial-probe-outside",
         "gridconv-initial-probe-outside", "euler-probe-offset-rounds-away",
         "burgers-probe-offset-rounds-away", "sweep-first-order-shock-outside",
         "gridconv-first-order-shock-outside", "n-eps-past-ceiling", "n-eps-past-numpy",
         "config-not-utf8", "gas-huge-mach", "gas-huge-backward-shock", "gas-huge-gamma"],
)
def test_bad_inputs_exit_with_config_code(argv, message, tmp_path, capsys):
    (tmp_path / "subsonic.cfg").write_text("mach = 0.9\n", encoding="utf-8")
    (tmp_path / "dt_mode.cfg").write_text("dt_mode = fixed\n", encoding="utf-8")
    # Each of the next three cannot start a case: no shock, or none inside the grid.
    (tmp_path / "no_shock.cfg").write_text("shock_speed = 3.0\n", encoding="utf-8")
    (tmp_path / "far_shock.cfg").write_text("x_shock0 = 40\n", encoding="utf-8")
    (tmp_path / "far_shift.cfg").write_text("shift = 5\n", encoding="utf-8")
    (tmp_path / "near_shift.cfg").write_text("shift = 0.056\n", encoding="utf-8")
    (tmp_path / "not_utf8.cfg").write_bytes(b"\xff\xfe shift = 0.03\n")
    for name, line in (("huge_mach", "mach = 1e150"), ("huge_gamma", "gamma = 1e300"),
                       ("huge_backward_shock", "shock_speed = -1e300")):
        (tmp_path / f"{name}.cfg").write_text(line + "\n", encoding="utf-8")
    argv = [a.format(dir=tmp_path) for a in argv]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message.format(dir=tmp_path) in err
    assert "Traceback" not in err


def test_config_file_jobs_reaches_grid_convergence(tmp_path, monkeypatch, capsys):
    seen = {}

    def fake_grid_convergence(config):
        seen["jobs"] = config.jobs
        return SweepReport(("dx", "err_shock", "err_base"), [], {})

    monkeypatch.setattr(cli, "grid_convergence", fake_grid_convergence)
    cfg = tmp_path / "study.cfg"
    cfg.write_text("jobs = 2\n", encoding="utf-8")
    assert main(["gridconv", "--config", str(cfg)]) == EXIT_OK
    assert seen["jobs"] == 2
    assert main(["gridconv", "--config", str(cfg), "--jobs", "3"]) == EXIT_OK
    assert seen["jobs"] == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, cfg_text",
    [
        (["gridconv", "--dx", "0.001", "--dt", "0.0004"], None),
        (["gridconv", "--problem", "euler", "--dt", "0.001"], None),
        (["gridconv"], "dt = 0.0004\n"),
    ],
    ids=["flag-burgers", "flag-euler", "file-key"],
)
def test_gridconv_with_a_given_dt_exits_with_config_code(argv, cfg_text, tmp_path, monkeypatch,
                                                         capsys):
    def fake_grid_convergence(config):
        # Unchecked, the study replaces dt on every grid and prints as if none were given.
        pytest.fail("gridconv ran with a given dt")

    monkeypatch.setattr(cli, "grid_convergence", fake_grid_convergence)
    if cfg_text is not None:
        cfg = tmp_path / "study.cfg"
        cfg.write_text(cfg_text, encoding="utf-8")
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    # gridconv has no --dt flag, and its config file takes no dt key.
    err = capsys.readouterr().err
    assert "unrecognized arguments: --dt" in err or "gridconv" in err and "does not read dt" in err


# What each command reads, written out here so the CLI's own table is checked
# against it. Every command also reads its law's keys, except that gridconv
# runs the law's fixed grid family and reads no grid_no.
_GRID_AND_STEP = {"dx", "cfl", "t_final", "c_coeff", "alpha", "domain_length"}
READS = {
    "burgers": {"mode", "record_times", "dt", *_GRID_AND_STEP},
    "euler": {"mode", "record_times", "dt", *_GRID_AND_STEP},
    "sweep": {"problem", "eps_min", "eps_max", "n_eps", "dt", *_GRID_AND_STEP},
    "gridconv": {"problem", "eps_max", "jobs", *_GRID_AND_STEP},
}
LAW_KEYS = {"burgers": {"grid_no", "shift"}, "euler": {"mach", "shock_speed", "x_shock0", "gamma"}}
# A value off the default for every CaseConfig field; problem takes the context's.
VALUES = {
    "mode": "blackbox", "grid_no": 7, "dx": 0.02, "dt": 0.001, "cfl": 0.5, "t_final": 0.5,
    "c_coeff": 4.0, "alpha": 0.9, "record_times": (0.25,), "eps_min": 0.001, "eps_max": 0.05,
    "n_eps": 3, "domain_length": 1.5, "shift": 0.03, "mach": 3.0, "shock_speed": 0.09,
    "x_shock0": 4.0, "gamma": 1.3, "jobs": 2,
}
FLAGS = {
    **{k: "--" + k.replace("_", "-") for k in (
        "problem", "mode", "grid_no", "dx", "dt", "cfl", "t_final", "c_coeff", "alpha",
        "eps_min", "eps_max", "n_eps", "jobs")},
    "record_times": "--record",
}
CONTEXTS = [("burgers", "burgers"), ("euler", "euler"), ("sweep", "burgers"),
            ("sweep", "euler"), ("gridconv", "burgers"), ("gridconv", "euler")]
TARGETS = {"burgers": "run_case", "euler": "run_case", "sweep": "epsilon_sweep",
           "gridconv": "grid_convergence"}


@pytest.mark.parametrize("key", ["problem", *VALUES])
@pytest.mark.parametrize("command, problem", CONTEXTS, ids=[f"{c}-{p}" for c, p in CONTEXTS])
def test_each_command_reads_only_its_keys(command, problem, key, tmp_path, monkeypatch, capsys):
    reads = READS[command] | LAW_KEYS[problem]
    if command == "gridconv":
        reads.discard("grid_no")
    value = problem if key == "problem" else VALUES[key]
    seen = []

    def fake(config):
        seen.append(config)
        raise ConfigError("stop before the run")

    monkeypatch.setattr(cli, TARGETS[command], fake)
    # cfl applies only where no dt fixes the step, so it comes with a dx.
    given = {key: value, **({"dx": 0.02} if key == "cfl" else {})}
    # sweep and gridconv learn the problem from --problem, unless that is the key.
    context = ["--problem", problem] if command in ("sweep", "gridconv") and key != "problem" else []
    forms = []
    if key != "record_times":  # set by --record only
        cfg = tmp_path / "case.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in given.items()), encoding="utf-8")
        forms.append(("file", [command, *context, "--config", str(cfg)]))
    if key in FLAGS:
        flags = [FLAGS[key], str(value[0] if key == "record_times" else value)]
        if key == "cfl":
            flags += ["--dx", "0.02"]
        forms.append(("flag", [command, *context, *flags]))
    for form, argv in forms:
        assert main(argv) == EXIT_CONFIG, form
        err = capsys.readouterr().err
        if key in reads:
            assert "stop before the run" in err, (form, err)
            assert getattr(seen.pop(), key) == value, form
        else:
            assert not seen, form
            # A flag the command's parser lacks fails in argparse, which names the flag.
            named = command in err and f"does not read {key}" in err
            assert named or (form == "flag" and f"unrecognized arguments: {FLAGS[key]}" in err), err


def test_problem_flag_over_file_over_default(tmp_path, monkeypatch, capsys):
    seen = []

    def fake(config):
        seen.append(config.problem)
        raise ConfigError("stop before the run")

    monkeypatch.setattr(cli, "epsilon_sweep", fake)
    cfg = tmp_path / "case.cfg"
    cfg.write_text("problem = euler\ndx = 0.05\nt_final = 0.5\n", encoding="utf-8")
    # --problem has no default of its own, so it overrides the file only when given.
    for argv in (["sweep", "--config", str(cfg)],
                 ["sweep", "--config", str(cfg), "--problem", "burgers"],
                 ["sweep", "--dx", "0.05"]):
        assert main(argv) == EXIT_CONFIG
    assert seen == ["euler", "burgers", "burgers"]
    capsys.readouterr()


def test_gridconv_reads_no_eps_min(capsys):
    # Below the default eps_min of 1e-4, which only sweep reads.
    assert main(["gridconv", "--eps-max", "5e-5", "--t-final", "0.2"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("dx,err_shock,err_base\n")


def test_a_probe_leaving_the_grid_during_the_march_is_a_numerical_failure(tmp_path, capsys):
    # The probes at 29.5 -/+ 0.2 start inside; the shock moves right at 0.1 and
    # its right probe reaches the last cell of [0, 30] before t = 5.
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("x_shock0 = 29.5\n", encoding="utf-8")
    argv = ["euler", "--config", str(cfg), "--t-final", "5"]
    assert main(argv) == EXIT_NUMERICAL
    assert "numerical failure: probe point left the grid" in capsys.readouterr().err


def test_a_cfl_march_past_the_step_ceiling_is_a_numerical_failure(monkeypatch, capsys):
    monkeypatch.setattr(solver, "MAX_STEPS", 10)
    assert main(["burgers", "--dx", "0.05", "--t-final", "0.5"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: CFL march took 10 steps")


@pytest.mark.parametrize(
    "argv, cfl",
    [(["burgers", "--dx", "0.01", "--cfl", "1e-6", "--mode", "none"], 1e-6),
     (["euler", "--dx", "0.05", "--t-final", "1", "--cfl", "1e-300"], 1e-300)],
    ids=["burgers", "euler"],
)
def test_a_cfl_too_small_for_the_step_ceiling_stops_before_the_march(argv, cfl, monkeypatch,
                                                                      capsys):
    # At the initial wave speed these take 2e8 and 5e301 steps; marching would
    # take minutes (Burgers) or never end (Euler).
    def no_march(*args, **kwargs):
        raise AssertionError("the march started")

    monkeypatch.setattr(cases, "run", no_march)
    start = perf_counter()
    assert main(argv) == EXIT_CONFIG
    assert perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: cfl = {cfl!r} on dx")
    assert err.count("\n") == 1 and "steps to t_final" in err


def test_a_cfl_march_is_checked_against_the_ceiling_at_its_initial_wave_speed(monkeypatch, capsys):
    # dx 0.05, cfl 0.63 (the default) and the ramp's initial speed 0.995 give
    # 0.5 * 0.995 / (0.63 * 0.05) = 15.8 steps to t_final = 0.5.
    argv = ["burgers", "--dx", "0.05", "--t-final", "0.5"]
    steps = 0.5 * 0.995 / (0.63 * 0.05)
    monkeypatch.setattr(cases, "MAX_STEPS", math.ceil(steps))
    assert main(argv) == EXIT_OK
    monkeypatch.setattr(cases, "MAX_STEPS", math.floor(steps))
    assert main(argv) == EXIT_CONFIG
    assert "error: cfl = 0.63 on dx = 0.05 at the initial wave speed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--grid-no", "9", "--eps-min", "1e-320", "--eps-max", "1e-310", "--n-eps", "3"],
     ["gridconv", "--eps-max", "1e-320"]],
    ids=["sweep", "gridconv"],
)
def test_a_study_at_a_tiny_eps_is_a_numerical_failure(argv, tmp_path):
    # An L1 error divided by eps = 1e-320 overflows. In a fresh process, so
    # that stderr shows whatever numpy would warn.
    out = tmp_path / "s.csv"
    proc = subprocess.run([sys.executable, "-m", "shocktangent.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr == ("numerical failure: an L1 error divided by eps = 1e-320 "
                           "is not finite\n")
    assert not out.exists()


def test_a_non_physical_euler_probe_is_a_numerical_failure(capsys):
    # With delta = dx the upstream probe at x = 4.95 reads a negative density
    # and pressure; the jump-speed inversion must not take their root (an
    # uncaught ValueError and its traceback).
    argv = ["euler", "--dx", "0.05", "--t-final", "5", "--c-coeff", "1"]
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: probed rho = -")
    assert err.endswith(" at x = 4.95 is not positive\n")


def test_euler_gridconv_refines_to_the_given_dx(capsys):
    code = main(["gridconv", "--problem", "euler", "--dx", "0.0125", "--t-final", "1"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dx,err_shock,err_base"
    dxs = [float(line.split(",")[0]) for line in lines[1:]]
    assert dxs == [0.2, 0.1, 0.05, 0.025, 0.0125]


def test_grid_above_the_cell_ceiling_exits_with_config_code(capsys):
    assert main(["burgers", "--dx", "1e-9"]) == EXIT_CONFIG
    assert "exceeds" in capsys.readouterr().err


def test_config_file_dt_sets_fixed_euler_steps(tmp_path, monkeypatch, capsys):
    seen = {}

    def fake_run_case(config):
        seen["config"] = config.resolved()
        raise ConfigError("stop before the march")

    monkeypatch.setattr(cli, "run_case", fake_run_case)
    cfg = tmp_path / "euler.cfg"
    cfg.write_text("dt = 0.001\n", encoding="utf-8")
    assert main(["euler", "--config", str(cfg)]) == EXIT_CONFIG
    assert seen["config"].dt == 0.001
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, cfg_text",
    [
        (["burgers", "--grid-no", "9", "--cfl", "0.1"], None),
        (["burgers", "--cfl", "0.63"], None),
        (["euler", "--dt", "0.001", "--cfl", "0.5"], None),
        (["sweep", "--grid-no", "9", "--cfl", "0.1"], None),
        (["burgers", "--grid-no", "9"], "cfl = 0.1\n"),
        (["burgers", "--dx", "0.01"], "dt = 0.005\ncfl = 0.5\n"),
    ],
    ids=["flag-grid-row", "flag-default-row", "flag-euler-dt", "flag-sweep",
         "file-grid-row", "file-given-dt"],
)
def test_cfl_with_a_dt_in_force_exits_with_config_code(argv, cfg_text, tmp_path, capsys):
    if cfg_text is not None:
        cfg = tmp_path / "case.cfg"
        cfg.write_text(cfg_text, encoding="utf-8")
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cfl = " in err and "dt = " in err


def test_cfl_applies_without_a_dt(tmp_path, monkeypatch, capsys):
    seen = []

    def fake_run_case(config):
        seen.append(config.resolved())
        raise ConfigError("stop before the march")

    monkeypatch.setattr(cli, "run_case", fake_run_case)
    cfg = tmp_path / "case.cfg"
    cfg.write_text("cfl = 0.3\n", encoding="utf-8")
    for argv in (["burgers", "--dx", "0.01", "--cfl", "0.4"],
                 ["burgers", "--dx", "0.01", "--config", str(cfg)],
                 ["euler", "--cfl", "0.4"]):
        assert main(argv) == EXIT_CONFIG
    assert [(c.dt, c.cfl) for c in seen] == [(None, 0.4), (None, 0.3), (None, 0.4)]
    capsys.readouterr()

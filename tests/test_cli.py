"""Command-line surface: parsing, config files, outputs, exit codes."""

import subprocess
import sys

import pytest

from shocktangent import cli
from shocktangent.cases import SweepReport
from shocktangent.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
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


def test_burgers_record_times_write_suffixed_files(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code = main([
        "burgers", "--grid-no", "9",
        "--record", "1.0", "--record", "0.5",
        "--out", str(out_path),
    ])
    assert code == EXIT_OK
    capsys.readouterr()
    for tag in ("t0.5", "t1", "t2"):
        assert (tmp_path / f"field_{tag}.csv").exists()


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["burgers", "--c-coeff", "-1"], "error:"),
        (["burgers", "--dx", "10"], "error:"),
        (["burgers", "--alpha", "nan"], "error:"),
        (["euler", "--config", "{dir}/subsonic.cfg"], "error:"),
        (["burgers", "--config", "{dir}/dt_mode.cfg"], "unknown key 'dt_mode'"),
    ],
    ids=["negative-c-coeff", "fewer-than-3-cells", "nan-alpha", "subsonic-mach",
         "removed-dt-mode-key"],
)
def test_bad_inputs_exit_with_config_code(argv, message, tmp_path, capsys):
    (tmp_path / "subsonic.cfg").write_text("mach = 0.9\n", encoding="utf-8")
    (tmp_path / "dt_mode.cfg").write_text("dt_mode = fixed\n", encoding="utf-8")
    argv = [a.format(dir=tmp_path) for a in argv]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_config_file_jobs_reaches_grid_convergence(tmp_path, monkeypatch, capsys):
    seen = {}

    def fake_grid_convergence(config, jobs=1):
        seen["jobs"] = jobs
        return SweepReport("grid", [], {})

    monkeypatch.setattr(cli, "grid_convergence", fake_grid_convergence)
    cfg = tmp_path / "study.cfg"
    cfg.write_text("jobs = 2\n", encoding="utf-8")
    assert main(["gridconv", "--config", str(cfg)]) == EXIT_OK
    assert seen["jobs"] == 2
    assert main(["gridconv", "--config", str(cfg), "--jobs", "3"]) == EXIT_OK
    assert seen["jobs"] == 3
    capsys.readouterr()


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

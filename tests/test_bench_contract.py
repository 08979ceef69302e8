"""What the benchmark in bench/ relies on: traced names and the counted solver call.

bench/tracing.py wraps every callable it lists by rebinding module-level names,
and bench/worker.py swaps `cases.run` to count cell-steps. A refactor that
renames one of those callables, or calls it through a name bound elsewhere,
silently drops spans or steps from the benchmark; these tests catch that.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from shocktangent import cases, cli, models, solver
from shocktangent.cases import CaseConfig, epsilon_sweep, grid_convergence, run_case
from shocktangent.cli import EXIT_NUMERICAL, EXIT_OK
from shocktangent.dual import trace

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for layer, names in _tracing().TRACED.items():
        module = importlib.import_module(f"shocktangent.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}.{name}"


def test_traced_names_record_spans(tmp_path, capsys):
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install("shocktangent")
    try:  # through cli.main, the name the tracer rebinds
        for argv, code in (
            (["sweep", "--grid-no", "9", "--n-eps", "3", "--out", str(tmp_path / "sweep.csv")],
             EXIT_OK),
            (["sweep", "--problem", "euler", "--dx", "0.05", "--t-final", "0.5", "--n-eps", "3"],
             EXIT_OK),
            (["euler", "--dx", "0.05", "--t-final", "0.5", "--out", str(tmp_path / "euler.csv")],
             EXIT_OK),
            # The sweep marches in shock mode only; these record the other modes' spans.
            (["burgers", "--grid-no", "9", "--mode", "none"], EXIT_OK),
            (["burgers", "--grid-no", "9", "--mode", "blackbox"], EXIT_OK),
            # A compiled shock-mode step calls rh_probe_speed only where it fails, and
            # then runs the step again by the pieces: here a probe jump below its floor.
            (["burgers", "--grid-no", "9", "--c-coeff", "0.3"], EXIT_NUMERICAL),
        ):
            assert cli.main(argv) == code, argv
        # The steps and the tracker run the kernels traced from their dual formulas
        # at import; the formulas' own calls record spans when they are traced again.
        trace(solver._lxf_payloads, arrays=2)
        trace(solver._rusanov_payloads, arrays=6)
        trace(models._dual_shock_speed)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = tracing.summarize(tracer.names, **tracer.arrays())["spans"]
    recorded = {name for name, span in spans.items() if span["calls"] > 0}
    expected = {
        f"{layer}.{name}" for layer, names in tracing.TRACED.items() for name in names
    }
    # step_shock spans carry the tracker mode; no mode calls the flat-probe reference.
    expected -= {"tracker.step_shock", "tracker.naive_probe_speed", "mesh.eval_constant"}
    expected |= {f"tracker.step_shock.{m}" for m in ("none", "blackbox", "shock")}
    assert expected <= recorded, sorted(expected - recorded)


@pytest.mark.parametrize(
    "call, runs",
    [
        (lambda: run_case(CaseConfig(grid_no=9)), 1),
        (lambda: epsilon_sweep(CaseConfig(grid_no=9, n_eps=3)), 1),
        (lambda: grid_convergence(CaseConfig()), 5),
    ],
    ids=["run_case", "epsilon_sweep", "grid_convergence"],
)
def test_cases_run_the_solver_through_cases_run(monkeypatch, call, runs):
    calls = []
    inner = cases.run

    def counting_run(ic, config, model=None, observers=()):
        calls.append(ic.grid.n_cells)
        return inner(ic, config, model, observers=observers)

    monkeypatch.setattr(cases, "run", counting_run)
    call()
    assert len(calls) == runs


def test_euler_step_computes_wave_speed_and_conserved_variables_once(capsys):
    # A CFL run of either law reduces the wave speed once per step, in cfl_dt.
    runs = [
        (["euler", "--dx", "0.05", "--t-final", "0.5"],
         ("models.EulerCellField.max_char_speed", "models.EulerState.__post_init__")),
        (["burgers", "--dx", "0.01", "--t-final", "0.5"], ("models.BurgersModel.max_char_speed",)),
    ]
    tracing = _tracing()
    for argv, names in runs:
        tracer = tracing.Tracer()
        tracer.install("shocktangent")
        try:
            assert cli.main(argv) == EXIT_OK
        finally:
            tracer.uninstall()
        capsys.readouterr()
        summary = tracing.summarize(tracer.names, **tracer.arrays())
        steps = summary["steps"]
        assert steps > 0
        for name in names:
            assert summary["spans"][name]["calls_in_run"] == steps, (argv[0], name)
    # The conserved variables are computed once in the Euler step's formula, which
    # runs once, when it is traced.
    tracer = tracing.Tracer()
    tracer.install("shocktangent")
    try:
        trace(solver._rusanov_payloads, arrays=6)
    finally:
        tracer.uninstall()
    spans = tracing.summarize(tracer.names, **tracer.arrays())["spans"]
    assert spans["models.EulerState.conservative"]["calls"] == 1

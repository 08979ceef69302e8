"""Canonical cases, perturbation sweeps, grid studies, CSV emission."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shocktangent import cases, cli
from shocktangent.calculus import l1_error
from shocktangent.cases import (
    BURGERS_GRIDS,
    LAWS,
    MAX_CELLS,
    CaseConfig,
    emit_csv,
    emit_snapshot_csv,
    epsilon_sweep,
    grid_convergence,
    run_case,
)
from shocktangent.errors import ConfigError
from shocktangent.dual import seed
from shocktangent.mesh import CellField, Grid1D, cell_average
from shocktangent.solver import MAX_STEPS
from shocktangent.tracker import MODES, TrackerConfig

ROOT3 = math.sqrt(3.0)


def test_burgers_defaults_resolve_to_reference_row_five():
    cfg = CaseConfig().resolved()
    # The row becomes its dx and dt; under that fixed dt no cfl takes effect.
    assert cfg.grid_no is None
    assert cfg.dx == BURGERS_GRIDS[5][0]
    assert cfg.dt == BURGERS_GRIDS[5][1]
    assert cfg.cfl is None
    assert cfg.t_final == 2.0
    assert cfg.c_coeff == 5.0
    assert (cfg.eps_min, cfg.eps_max) == (1e-4, 0.2)


def test_euler_defaults():
    cfg = CaseConfig(problem="euler").resolved()
    assert cfg.dx == 0.01
    assert cfg.dt is None
    assert cfg.cfl == 0.82
    assert cfg.t_final == 100.0
    assert cfg.c_coeff == 20.0
    assert cfg.domain_length == 30.0
    assert (cfg.eps_min, cfg.eps_max) == (1e-5, 0.1)


def test_explicit_dx_switches_to_cfl_stepping():
    cfg = CaseConfig(dx=0.01).resolved()
    assert cfg.dt is None
    cfg = CaseConfig(dx=0.01, dt=0.005).resolved()
    assert cfg.dt == 0.005


def test_config_rejections():
    with pytest.raises(ConfigError):
        CaseConfig(problem="kdv").resolved()
    with pytest.raises(ConfigError):
        CaseConfig(mode="reverse").resolved()
    with pytest.raises(ConfigError):
        CaseConfig(grid_no=12).resolved()
    with pytest.raises(ConfigError):
        CaseConfig(n_eps=1).resolved().eps_list()
    with pytest.raises(ConfigError):
        CaseConfig(eps_min=0.5, eps_max=0.1).resolved().eps_list()
    with pytest.raises(ConfigError):
        CaseConfig(t_final=-2.0).resolved()


def test_eps_list_is_geometric():
    cfg = CaseConfig(eps_min=1e-4, eps_max=0.2, n_eps=25).resolved()
    eps = cfg.eps_list()
    assert len(eps) == 25
    assert eps[0] == pytest.approx(1e-4)
    assert eps[-1] == pytest.approx(0.2)
    ratios = eps[1:] / eps[:-1]
    assert np.allclose(ratios, ratios[0])


def test_eps_list_takes_n_eps_up_to_its_ceiling():
    cfg = CaseConfig().resolved()
    assert len(replace(cfg, n_eps=cases.MAX_EPS).eps_list()) == cases.MAX_EPS
    with pytest.raises(ConfigError, match=f"at most {cases.MAX_EPS}, got {cases.MAX_EPS + 1}$"):
        replace(cfg, n_eps=cases.MAX_EPS + 1).eps_list()


def test_grid_covers_minimum_extent():
    cfg = CaseConfig(grid_no=9).resolved()
    grid = cfg.build_grid()
    assert grid.n_cells == 130
    assert grid.x_right >= 1.9
    # one fewer cell would fall short
    assert (grid.n_cells - 1) * grid.dx < 1.9
    euler_grid = CaseConfig(problem="euler").resolved().build_grid()
    assert euler_grid.n_cells == 3000


def test_run_case_burgers_tracks_the_shock():
    res = run_case(CaseConfig(grid_no=9, record_times=(1.0,)))
    assert [t for t, _ in res.snapshots] == [1.0, 2.0]
    assert res.final_time == 2.0
    assert res.delta == pytest.approx(5.0 * res.grid.dx)
    # tracked path stays within a couple of cells of the reference root
    assert res.tracker.positions[-1] == pytest.approx(0.05 + ROOT3, abs=2 * res.grid.dx)
    mid = res.tracker.positions[res.tracker.times.index(1.0)]
    assert mid == pytest.approx(0.05 + math.sqrt(2.0), abs=2 * res.grid.dx)
    assert res.tracker.state.value == res.tracker.positions[-1]


def test_run_case_is_deterministic():
    a = run_case(CaseConfig(grid_no=9))
    b = run_case(CaseConfig(grid_no=9))
    assert np.array_equal(a.final_field.values, b.final_field.values)
    assert np.array_equal(a.final_field.tangents, b.final_field.tangents)
    assert a.tracker.positions == b.tracker.positions
    assert a.tracker.tangents == b.tracker.tangents


def test_modes_share_the_primal_trajectory():
    runs = {m: run_case(CaseConfig(grid_no=9, mode=m)) for m in ("none", "blackbox", "shock")}
    vals = {m: r.final_field.values for m, r in runs.items()}
    assert np.array_equal(vals["none"], vals["shock"])
    assert np.array_equal(vals["blackbox"], vals["shock"])
    pos = {m: r.tracker.positions for m, r in runs.items()}
    assert pos["none"] == pos["shock"] == pos["blackbox"]
    # frozen mode never accumulates a position tangent
    assert runs["none"].tracker.state.tangent == 0.0


def test_euler_profile_matches_initial_projection():
    # Each law's initial field holds its exact t = 0 profile as values.
    fields = {}
    for problem, grid in (("burgers", Grid1D(0.1, 19)), ("euler", Grid1D(0.3, 100))):
        law = LAWS[problem]
        exact = law.setup(CaseConfig(problem=problem))
        comps = law.split(law.initial_field(exact, grid))
        for f, ref in zip(comps, law.reference(exact, grid, 0.0, 0.0).values(), strict=True):
            assert np.array_equal(f.values, ref.values)
        fields[problem] = exact, grid, comps
    # Burgers' seed scales the ramp, so its tangents are its values.
    (u,) = fields["burgers"][2]
    assert np.array_equal(u.tangents, u.values)
    # Euler's are the cell averages of d/dS of the right state: 0 left of the
    # shock at x = 5.0, which leaves the right third of cell 16 [4.8, 5.1).
    setup, grid, comps = fields["euler"]
    right = setup.right_state(seed(setup.shock_speed, 1.0))
    for name, f in zip(LAWS["euler"].components, comps, strict=True):
        r = getattr(right, name).tangent
        step = cell_average(lambda x, r=r: np.where(x < 5.0, 0.0, r), grid, (5.0,))
        assert np.array_equal(f.tangents, step.values)
        assert np.all(f.tangents[:16] == 0.0)
        assert np.allclose(f.tangents[16:], [r / 3, *[r] * 83], rtol=1e-12, atol=0.0)


def test_epsilon_sweep_report_shape_and_regimes():
    rep = epsilon_sweep(CaseConfig(grid_no=9, n_eps=3))
    assert rep.header == ("epsilon", "err_no_ad", "err_blackbox", "err_shock", "err_base")
    assert len(rep.rows) == 3
    eps = [r[0] for r in rep.rows]
    assert eps == pytest.approx([1e-4, math.sqrt(1e-4 * 0.2), 0.2])
    for row in rep.rows:
        assert all(v > 0.0 for v in row)
    for key in ("delta", "eps_dagger", "xi", "shock_position", "jump", "problem", "t_final", "dx"):
        assert key in rep.metadata
    assert rep.metadata["delta"] == pytest.approx(5.0 * 1.472e-2)
    assert rep.metadata["eps_dagger"] == pytest.approx(
        rep.metadata["delta"] / rep.metadata["xi"]
    )
    # above eps_dagger the shifted reconstruction beats both alternatives
    last = rep.rows[-1]
    assert last[0] > rep.metadata["eps_dagger"]
    assert last[3] < last[2] < last[1]


def test_epsilon_sweep_is_deterministic():
    a = epsilon_sweep(CaseConfig(grid_no=9, n_eps=3))
    b = epsilon_sweep(CaseConfig(grid_no=9, n_eps=3))
    assert a.rows == b.rows
    assert a.metadata == b.metadata


def test_grid_convergence_over_reference_rows():
    rep = grid_convergence(CaseConfig())
    assert rep.header == ("dx", "err_shock", "err_base")
    (dx9, sh9, base9), (dx8, sh8, base8) = rep.rows[:2]
    assert dx9 == pytest.approx(1.472e-2)
    assert dx8 == pytest.approx(7.36e-3)
    # halving dx roughly halves the baseline error
    assert base9 / base8 == pytest.approx(2.0, abs=0.3)
    assert sh8 < sh9


def test_grid_convergence_parallel_matches_serial():
    serial = grid_convergence(CaseConfig(jobs=1))
    parallel = grid_convergence(CaseConfig(jobs=2))
    assert serial.rows == parallel.rows


def test_emit_csv_round_trips(tmp_path):
    rep = epsilon_sweep(CaseConfig(grid_no=9, n_eps=3))
    path = tmp_path / "sweep.csv"
    emit_csv(rep, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "epsilon,err_no_ad,err_blackbox,err_shock,err_base"
    assert len(lines) == 4
    parsed = [float(v) for v in lines[-1].split(",")]
    assert parsed == pytest.approx(list(rep.rows[-1]), rel=0.0, abs=0.0)
    # identical configuration must yield byte-identical output
    again = tmp_path / "sweep2.csv"
    emit_csv(epsilon_sweep(CaseConfig(grid_no=9, n_eps=3)), again)
    assert path.read_bytes() == again.read_bytes()


def test_emit_snapshot_csv(tmp_path):
    res = run_case(CaseConfig(grid_no=9))
    path = tmp_path / "field.csv"
    emit_snapshot_csv(res.final_field, res.law, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x,u,v"
    assert len(lines) == res.grid.n_cells + 1
    x0, u0, v0 = (float(v) for v in lines[1].split(","))
    assert x0 == pytest.approx(res.grid.centers()[0])
    assert u0 == res.final_field.values[0]
    assert v0 == res.final_field.tangents[0]


def test_emit_csv_wraps_write_failures(tmp_path):
    rep = grid_convergence(CaseConfig())
    with pytest.raises(OSError, match="cannot write"):
        emit_csv(rep, tmp_path / "missing" / "out.csv")
    res = run_case(CaseConfig(grid_no=9))
    with pytest.raises(OSError, match="cannot write"):
        emit_snapshot_csv(res.final_field, res.law, tmp_path / "missing" / "snap.csv")


def test_grid_row_equals_the_sweep_row_at_eps_max():
    # Burgers grid 9: one error assembly serves both tables.
    sweep = epsilon_sweep(CaseConfig(grid_no=9, n_eps=3))
    grid = grid_convergence(CaseConfig())
    _, _, _, err_shock, err_base = sweep.rows[-1]
    assert grid.rows[0] == (sweep.metadata["dx"], err_shock, err_base)
    assert list(sweep.metadata["jump"]) == ["u"]
    # Euler: the default family ends on the configured dx, which the sweep runs.
    cfg = CaseConfig(problem="euler", dx=0.0125, t_final=1.0, n_eps=3)
    sweep = epsilon_sweep(cfg)
    grid = grid_convergence(cfg)
    _, _, _, err_shock, err_base = sweep.rows[-1]
    assert grid.rows[-1] == (0.0125, err_shock, err_base)
    assert list(sweep.metadata["jump"]) == ["rho", "u", "p"]


@pytest.mark.parametrize(
    "config",
    [CaseConfig(grid_no=9, n_eps=3),
     CaseConfig(problem="euler", dx=0.05, t_final=0.5, n_eps=3)],
    ids=["burgers", "euler"],
)
def test_the_sweep_reads_every_mode_from_its_one_shock_mode_run(config):
    # The tracker only observes the march: values and tangents agree bit for bit.
    runs = {m: run_case(replace(config, mode=m)) for m in MODES}
    law = runs["shock"].law
    shock = law.split(runs["shock"].final_field)
    for m in ("none", "blackbox"):
        for f, g in zip(law.split(runs[m].final_field), shock):
            assert np.array_equal(f.values, g.values), m
            assert np.array_equal(f.tangents, g.tangents), m
    # So the sweep's columns equal the errors of a none run and a blackbox run.
    none, bb = runs["none"], runs["blackbox"]

    def error(res, fields, eps):
        ref = law.reference(res.oracle, res.grid, res.final_time, eps).values()
        return sum(l1_error(f, r) for f, r in zip(fields, ref)) / eps

    for eps, err_no_ad, err_blackbox, *_ in epsilon_sweep(config).rows:
        assert err_no_ad == error(none, law.split(none.final_field), eps)
        moved = [CellField(bb.grid, f.values + eps * f.tangents) for f in law.split(bb.final_field)]
        assert err_blackbox == error(bb, moved, eps)


def test_grid_family_comes_from_the_law():
    # Burgers without a dx keeps the reference rows; with one it halves to dx.
    rows = grid_convergence(CaseConfig(t_final=0.5)).rows
    assert [r[0] for r in rows] == [BURGERS_GRIDS[no][0] for no in (9, 8, 7, 6, 5)]
    rows = grid_convergence(CaseConfig(dx=3e-3, t_final=0.5)).rows
    assert [r[0] for r in rows] == [3e-3 * 2.0**k for k in (4, 3, 2, 1, 0)]


def test_grid_convergence_starts_no_more_workers_than_grids(monkeypatch):
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # grid_convergence imports the pool from concurrent.futures when jobs > 1.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    rep = grid_convergence(CaseConfig(jobs=8))
    assert seen == [5]
    assert len(rep.rows) == 5


@pytest.mark.parametrize(
    "overrides",
    [
        # Unchecked, the first and last end in a traceback and the second never ends.
        {"shift": float("nan")},
        {"t_final": float("inf")},
        {"problem": "euler", "gamma": 1.0},
        {"jobs": 0},
        {"jobs": 1.5},
        # A cfl under a fixed dt, or a grid row next to a dx, would be ignored.
        {"grid_no": 9, "cfl": 0.1},
        {"grid_no": 7, "dx": 0.01},
        {"dx": 0.01, "dt": 0.005, "cfl": 0.5},
        # delta = c_coeff * dx**alpha overflows, or rounds to 0.
        {"alpha": -400.0},
        {"problem": "euler", "dx": 0.1, "alpha": -400.0},
        {"alpha": 1e300},
        # A first shock-mode probe at 1.05 - 1.472 < 0, or at 5 - 32 < 0.
        {"grid_no": 9, "c_coeff": 100.0},
        {"problem": "euler", "dx": 1.6, "t_final": 1.0},
    ],
    ids=["nan-shift", "infinite-t-final", "euler-gamma-one", "zero-jobs", "fractional-jobs",
         "grid-no-with-cfl", "grid-no-with-dx", "dt-with-cfl", "delta-overflow",
         "euler-delta-overflow", "delta-underflow", "initial-probe-outside",
         "euler-initial-probe-outside"],
)
def test_resolved_rejects_out_of_range_inputs(overrides):
    with pytest.raises(ConfigError):
        CaseConfig(**overrides).resolved()


@pytest.mark.parametrize("problem", ["burgers", "euler"])
def test_explicit_dt_selects_fixed_stepping(problem):
    cfg = CaseConfig(problem=problem, dx=0.01, dt=0.001).resolved()
    assert cfg.dt == 0.001


def test_resolved_rejects_grids_above_the_cell_ceiling():
    with pytest.raises(ConfigError, match="exceeds"):
        CaseConfig(dx=1e-9).resolved()
    with pytest.raises(ConfigError, match="exceeds"):
        CaseConfig(problem="euler", dx=5e-324).resolved()
    # Resolving builds no arrays, so the largest allowed grid resolves at once.
    # The shock sits at 6 so that the probes at 6 -/+ 5 lie in interior cells.
    cfg = CaseConfig(dx=1.0, domain_length=float(MAX_CELLS), shift=5.0).resolved()
    assert cfg.build_grid().n_cells == MAX_CELLS
    with pytest.raises(ConfigError, match="exceeds"):
        CaseConfig(dx=1.0, domain_length=float(MAX_CELLS + 1), shift=5.0).resolved()


def test_resolved_rejects_a_fixed_dt_past_the_step_ceiling():
    # Unchecked, dt = 1e-300 marches for ever: t + dt rounds back to t.
    with pytest.raises(ConfigError, match=r"t_final / dt = 2\.0 / 1e-300 exceeds"):
        CaseConfig(problem="euler", dx=0.1, t_final=2.0, dt=1e-300).resolved()
    with pytest.raises(ConfigError, match="t_final / dt"):
        CaseConfig(grid_no=1, t_final=2.0 * MAX_STEPS * 3.64e-5).resolved()
    # Every reference row fits with room to spare; grid 1 takes about 55k steps.
    for no, (_, dt) in BURGERS_GRIDS.items():
        cfg = CaseConfig(grid_no=no).resolved()
        assert cfg.t_final / dt < MAX_STEPS / 100, no
    cfg = CaseConfig(dx=0.01, dt=2.0 / MAX_STEPS).resolved()
    assert cfg.t_final / cfg.dt == MAX_STEPS


@pytest.mark.parametrize("mode", MODES)
def test_initial_probes_bind_only_a_shock_mode_case(mode):
    # delta = 14.72 puts both probes off grid 9; only the shock mode reads them.
    if mode != "shock":
        assert CaseConfig(grid_no=9, c_coeff=1000.0, mode=mode).resolved().c_coeff == 1000.0
    # A delta below dx is allowed: both probes still read interior cells.
    assert CaseConfig(grid_no=9, c_coeff=0.5, mode=mode).resolved().c_coeff == 0.5


#: Edge values for the numeric inputs of the property below: unset, zero,
#: signs, non-finite, extreme magnitudes, and both sides of the bounds on dx
#: (3 cells, MAX_CELLS), dt (MAX_STEPS), c_coeff (probes inside the default
#: grids) and alpha (dx**alpha overflowing or rounding to 0 on dx = 0.01).
_EDGES = (None, 0.0, -0.0, -1.0, 1.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300,
          -1e-300, 400.0, -400.0, 5e-324)
_NEAR = {
    "dx": (1.9 / 3, 10.0, 1.9 / MAX_CELLS, 30.0 / MAX_CELLS, 0.01, 9.2e-4),
    "dt": (2.0 / MAX_STEPS, 100.0 / MAX_STEPS, 5.88e-4, 1e-3),
    "t_final": (2.0, 100.0, 0.5),
    "c_coeff": (0.5, 5.0, 499.0, (1.05 - 9.2e-4) / 9.2e-4, 20.0),
    "alpha": (-154.0, -154.3, 161.0, 163.0, 1.0, 0.5),
}


#: The keys that place the shock or build the gas states, drawn from _EDGES alone.
_CASE_KEYS = ("mach", "shock_speed", "gamma", "x_shock0", "shift")


def _draws(name):
    near = _NEAR[name]
    near = (*near, *(v * (1.0 - 1e-9) for v in near), *(v * (1.0 + 1e-9) for v in near))
    # One draw in three keeps the default, so that many drawn configs resolve.
    return st.one_of(st.none(), st.sampled_from(near), st.sampled_from(_EDGES))


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(problem=st.sampled_from(sorted(LAWS)), mode=st.sampled_from(MODES),
       dx=_draws("dx"), dt=_draws("dt"), t_final=_draws("t_final"),
       c_coeff=_draws("c_coeff"), alpha=_draws("alpha"),
       case=st.tuples(*[st.sampled_from(_EDGES)] * len(_CASE_KEYS)))
def test_resolved_admits_only_configs_that_can_start(problem, mode, dx, dt, t_final,
                                                     c_coeff, alpha, case):
    raw = {"dx": dx, "dt": dt, "t_final": t_final, "c_coeff": c_coeff, "alpha": alpha,
           **dict(zip(_CASE_KEYS, case))}
    given = {k: v for k, v in raw.items() if v is not None}
    try:
        cfg = CaseConfig(problem=problem, mode=mode, **given).resolved()
    except ConfigError:
        return
    delta = TrackerConfig(cfg.c_coeff, cfg.alpha, cfg.mode).delta(cfg.dx)
    assert math.isfinite(delta) and delta > 0.0
    if cfg.dt is not None:
        assert cfg.t_final / cfg.dt <= MAX_STEPS
    if mode == "shock":
        grid, x0 = cfg.build_grid(), LAWS[problem].setup(cfg).shock_position(0.0)
        for x in (x0 - delta, x0 + delta):
            assert 0.0 <= x < grid.x_right
            assert 1 <= grid.cell_containing(x) <= grid.n_cells - 2
        # No point the tracker can reach is its own probe: the largest has the
        # widest float spacing, and every point below the grid's end a finer one.
        for x in (x0, 2 * grid.dx, grid.x_right - 2 * grid.dx, grid.x_right):
            assert x - delta < x < x + delta, x
        assert delta >= math.ulp(grid.x_right)


@pytest.mark.parametrize(
    "config",
    [
        *(
            cli._case_config(cli._build_parser().parse_args(argv))
            for argv in (["burgers"], ["euler"], ["sweep"], ["sweep", "--problem", "euler"],
                         ["gridconv"], ["gridconv", "--problem", "euler"])
        ),
        CaseConfig(grid_no=7),
        CaseConfig(dx=0.01),
        CaseConfig(dx=0.01, dt=0.005),
    ],
    ids=["burgers", "euler", "sweep-burgers", "sweep-euler", "gridconv-burgers",
         "gridconv-euler", "grid-row", "dx", "dt"],
)
def test_resolving_a_resolved_config_changes_nothing(config):
    # epsilon_sweep and grid_convergence resolve again through run_case.
    cfg = config.resolved()
    assert cfg.resolved() == cfg


@pytest.mark.parametrize("given", [{"dt": 0.001}, {"grid_no": 3}], ids=["dt", "grid-no"])
def test_grid_convergence_rejects_a_dt_or_a_grid_no(given, monkeypatch):
    def no_run(*args, **kwargs):
        pytest.fail("grid_convergence ran a grid")

    monkeypatch.setattr(cases, "run", no_run)
    # Each grid of the study takes its own dx and step, so either would be ignored.
    with pytest.raises(ConfigError, match=next(iter(given))):
        grid_convergence(CaseConfig(**given))


@pytest.mark.parametrize(
    "study, config",
    [(epsilon_sweep, CaseConfig(grid_no=9, shift=0.1)), (grid_convergence, CaseConfig(shift=0.1)),
     (epsilon_sweep, CaseConfig(problem="euler", dx=0.05, t_final=250.0)),
     (epsilon_sweep, CaseConfig(grid_no=5, shift=0.056)),
     (grid_convergence, CaseConfig(shift=0.056))],
    ids=["sweep", "gridconv", "euler-sweep", "sweep-first-order", "gridconv-first-order"],
)
def test_a_study_whose_exact_shock_leaves_a_grid_runs_nothing(study, config, monkeypatch):
    def no_run(*args, **kwargs):
        pytest.fail("the study ran a grid")

    monkeypatch.setattr(cases, "run", no_run)
    # The exact shock at eps_max lies past the grid's end at t_final; with shift =
    # 0.056 only the first-order shock x_s + eps_max * xi does (on the 1.90072 rows).
    with pytest.raises(ConfigError, match="domain_length"):
        study(config)


@pytest.mark.parametrize(
    "study, config",
    [(epsilon_sweep, CaseConfig(grid_no=9, c_coeff=100.0, mode="none")),
     (grid_convergence, CaseConfig(problem="euler", dx=0.1, t_final=1.0))],
    ids=["sweep-from-mode-none", "euler-gridconv"],
)
def test_a_study_checks_its_first_probes_before_it_marches(study, config, monkeypatch):
    def no_run(*args, **kwargs):
        pytest.fail("the study ran a grid")

    monkeypatch.setattr(cases, "run", no_run)
    # The study reads a shock-mode run, whatever mode it is given; a first
    # probe lies left of the grid (at 1.05 - 1.472, or at 5 - 32 on the 1.6 row).
    with pytest.raises(ConfigError, match="put a probe of the initial shock"):
        study(config)

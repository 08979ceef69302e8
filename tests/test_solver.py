"""Time stepping: update formulas, step control, conservation, tangents."""

import numpy as np
import pytest

from shocktangent import solver
from shocktangent.cases import CaseConfig, run_case
from shocktangent.dual import Dual, lift, maximum
from shocktangent.errors import CFLViolationError, ConfigError, NonPhysicalStateError, NumericalError
from shocktangent.mesh import CellField, Grid1D
from shocktangent.models import BurgersModel, EulerCellField, EulerModel, EulerState, euler_flux
from shocktangent.solver import (
    DT_MAX,
    MAX_STEPS,
    SchemeConfig,
    cfl_dt,
    euler_boundary_fluxes,
    lxf_boundary_fluxes,
    lxf_step,
    run,
    rusanov_step_euler,
)

MODEL = BurgersModel()
GAS = EulerModel()


def small_field(values, tangents=None, dx=1.0):
    grid = Grid1D(dx=dx, n_cells=len(values))
    data = Dual(np.asarray(values, dtype=float), np.zeros(len(values)))
    if tangents is not None:
        data = Dual(data.value, np.asarray(tangents, dtype=float))
    return CellField(grid, data)


def test_lxf_step_hand_values():
    # single bump, dt/(2 dx) = 0.25
    f = small_field([0.0, 1.0, 0.0])
    out = lxf_step(f, 0.5, MODEL)
    assert np.allclose(out.values, [0.375, 0.0, 0.625], atol=1e-15)


def test_lxf_step_tangent_follows_same_stencil():
    f = small_field([0.0, 1.0, 0.0], tangents=[0.0, 1.0, 0.0])
    out = lxf_step(f, 0.5, MODEL)
    # flux tangent u * udot peaks at the bump; ghosts copy the edge cells
    assert np.allclose(out.tangents, [0.25, 0.0, 0.75], atol=1e-15)


def test_lxf_preserves_mass_with_flat_edges():
    f = small_field([0.0, 1.0, 0.0])
    out = lxf_step(f, 0.5, MODEL)
    assert np.sum(out.values) == pytest.approx(np.sum(f.values), abs=1e-15)
    assert lxf_boundary_fluxes(f, MODEL) == (0.0, 0.0)


def test_cfl_violation_is_rejected():
    f = small_field([0.0, 1.0, 0.0])
    with pytest.raises(CFLViolationError):
        run(f, SchemeConfig(t_final=3.0, dt=3.0), MODEL)


def test_cfl_dt_tracks_wave_speed_and_caps_quiescent_fields():
    f = small_field([0.0, -2.0, 0.0])
    assert cfl_dt(f, 1.0, 0.5, MODEL) == pytest.approx(0.25)
    flat = small_field([0.0, 0.0, 0.0])
    assert cfl_dt(flat, 1.0, 0.5, MODEL) == DT_MAX


def test_scheme_config_validation():
    with pytest.raises(ConfigError):
        SchemeConfig(t_final=1.0, dt=0.0)
    with pytest.raises(ConfigError):
        SchemeConfig(t_final=1.0, dt=-0.1)
    with pytest.raises(ConfigError):
        SchemeConfig(t_final=1.0, cfl_number=1.5)
    with pytest.raises(ConfigError):
        SchemeConfig(t_final=-1.0, dt=0.1)
    with pytest.raises(ConfigError):
        SchemeConfig(t_final=1.0, dt=0.1, record_times=(0.5, 0.25))
    with pytest.raises(ConfigError):
        SchemeConfig(t_final=1.0, dt=0.1, record_times=(0.5, 2.0))


def test_scheme_config_bounds_the_steps_of_a_fixed_dt():
    with pytest.raises(ConfigError, match=r"^t_final / dt = 2\.0 / 1e-07 exceeds 8388608 steps$"):
        SchemeConfig(t_final=2.0, dt=1e-7)
    assert SchemeConfig(t_final=2.0, dt=2.0 / MAX_STEPS).dt == 2.0 / MAX_STEPS


def test_a_cfl_march_stops_past_the_step_ceiling(monkeypatch):
    cfg = SchemeConfig(t_final=0.2, cfl_number=0.5)
    steps = []
    run(_burgers_ramp(), cfg, MODEL, observers=(lambda t, dt, field: steps.append(t),))
    n = len(steps)
    monkeypatch.setattr(solver, "MAX_STEPS", n)
    run(_burgers_ramp(), cfg, MODEL)  # exactly at the ceiling: the march ends
    monkeypatch.setattr(solver, "MAX_STEPS", n - 1)
    with pytest.raises(NumericalError, match=rf"took {n - 1} steps, .* at t = {steps[-1]!r} of"):
        run(_burgers_ramp(), cfg, MODEL)


def test_a_fixed_dt_march_never_meets_the_step_ceiling(monkeypatch):
    # t_final / dt = 10 is at the ceiling; the record stops add clipped steps.
    monkeypatch.setattr(solver, "MAX_STEPS", 10)
    cfg = SchemeConfig(t_final=10 * 2.0**-7, dt=2.0**-7, record_times=(0.004, 0.05))
    steps = []
    run(_burgers_ramp(), cfg, MODEL, observers=(lambda t, dt, field: steps.append(t),))
    assert len(steps) > 10


def test_run_hits_record_times_by_clipping():
    f = small_field([0.0, 0.5, 0.0])
    seen = []
    cfg = SchemeConfig(t_final=1.0, dt=0.3, record_times=(0.3, 0.6))
    out = run(f, cfg, MODEL, observers=(lambda t, dt, field: seen.append((t, dt)),))
    assert [t for t, _ in out] == [0.3, 0.6, 1.0]
    assert [t for t, _ in seen] == pytest.approx([0.0, 0.3, 0.6, 0.9])
    # the last step is clipped from 0.3 to the remaining 0.1
    assert [dt for _, dt in seen] == pytest.approx([0.3, 0.3, 0.3, 0.1])


def test_run_step_count_with_exact_multiple():
    f = small_field([0.0, 0.5, 0.0])
    calls = []
    cfg = SchemeConfig(t_final=0.9, dt=0.3)
    out = run(f, cfg, MODEL, observers=(lambda t, dt, field: calls.append(t),))
    assert len(calls) == 3
    assert out[-1][0] == 0.9


def test_observers_see_the_prestep_field():
    f = small_field([0.0, 1.0, 0.0])
    first = {}

    def grab(t, dt, field):
        if t == 0.0:
            first["values"] = field.values.copy()

    run(f, SchemeConfig(t_final=0.5, dt=0.5), MODEL, observers=(grab,))
    assert np.array_equal(first["values"], f.values)


def wavy_euler_field(n=24):
    grid = Grid1D(dx=1.0 / n, n_cells=n)
    x = grid.centers()
    state = EulerState(
        lift(1.0 + 0.1 * np.sin(2.0 * np.pi * x)),
        lift(0.1 * np.cos(2.0 * np.pi * x)),
        lift(1.0 / 1.4 + 0.05 * np.sin(4.0 * np.pi * x)),
    )
    return EulerCellField(grid, state)


def test_rusanov_step_balances_boundary_fluxes():
    field = wavy_euler_field()
    dx = field.grid.dx
    dt = cfl_dt(field, dx, 0.4)
    fl, fr = euler_boundary_fluxes(field)
    out = rusanov_step_euler(field, dt)
    before = [c.value for c in field.state.conservative()]
    after = [c.value for c in out.state.conservative()]
    for k in range(3):
        change = dx * (np.sum(after[k]) - np.sum(before[k]))
        expected = dt * (fl[k] - fr[k])
        scale = max(abs(float(np.sum(before[k]))) * dx, 1e-30)
        assert change == pytest.approx(expected, abs=1e-12 * scale + 1e-15)


def test_dual_tangent_matches_finite_differences_for_smooth_data():
    # perturb a smooth profile along a fixed direction and compare the
    # propagated tangent with a central difference of two primal runs
    n = 64
    grid = Grid1D(dx=1.0 / n, n_cells=n)
    x = grid.centers()
    base = 1.0 + 0.3 * np.sin(2.0 * np.pi * x)
    direction = np.cos(2.0 * np.pi * x)

    def final_values(eps):
        f = CellField(grid, lift(base + eps * direction))
        cfg = SchemeConfig(t_final=0.05, dt=0.05 / 16)
        return run(f, cfg, MODEL)[-1][1].values

    f0 = CellField(grid, Dual(base.copy(), direction.copy()))
    cfg = SchemeConfig(t_final=0.05, dt=0.05 / 16)
    ad = run(f0, cfg, MODEL)[-1][1].tangents

    h = 1e-6
    fd = (final_values(h) - final_values(-h)) / (2.0 * h)
    assert np.max(np.abs(ad - fd)) < 1e-7 * max(1.0, np.max(np.abs(ad)))


def _reference_rusanov_step(field, dt):
    """The Euler step as first written: np.pad ghosts, a checked state on them."""
    s = field.state

    def pad(d):
        return Dual(np.pad(d.value, 2, mode="edge"), np.pad(d.tangent, 2, mode="edge"))

    padded = EulerState(pad(s.rho), pad(s.u), pad(s.p), s.gamma)
    q_all = padded.conservative()
    h_all = euler_flux(padded)
    lam = abs(padded.u) + padded.sound_speed()
    lam_face = maximum(lam[:-1], lam[1:])
    dx = field.grid.dx
    new = []
    for q, h in zip(q_all, h_all):
        f = 0.5 * (h[:-1] + h[1:]) - 0.5 * lam_face * (q[1:] - q[:-1])
        new.append((q[1:-1] - (dt / dx) * (f[1:] - f[:-1]))[1:-1])
    return EulerState.from_conservative(*new, gamma=s.gamma)


def _desk_state_at_one():
    cfg = CaseConfig(problem="euler", t_final=1.0).resolved()
    return run_case(cfg).final_field


@pytest.mark.parametrize("make_field", [wavy_euler_field, _desk_state_at_one],
                         ids=["wavy", "desk-t1"])
def test_rusanov_step_equals_the_padded_state_reference_bit_for_bit(make_field):
    field = make_field()
    dt = cfl_dt(field, field.grid.dx, 0.82)
    got = rusanov_step_euler(field, dt).state
    want = _reference_rusanov_step(field, dt)
    for name in ("rho", "u", "p"):
        g, w = getattr(got, name), getattr(want, name)
        assert np.array_equal(g.value, w.value), name
        assert np.array_equal(g.tangent, w.tangent), name


def test_rusanov_step_rejects_a_step_past_the_cfl_bound():
    field = wavy_euler_field()
    dx = field.grid.dx
    c_max = field.max_char_speed()
    dt = 0.99 * dx / c_max
    run(field, SchemeConfig(t_final=dt, dt=dt), GAS)
    dt = 1.01 * dx / c_max
    with pytest.raises(CFLViolationError):
        run(field, SchemeConfig(t_final=dt, dt=dt), GAS)


def test_rusanov_step_rejects_a_negative_pressure():
    # Rusanov keeps pressure positive up to CFL 1, so step backward in time:
    # the anti-diffusive update undershoots the low side of a pressure jump.
    grid = Grid1D(dx=1.0, n_cells=4)
    state = EulerState(lift(np.ones(4)), lift(np.zeros(4)), lift(np.array([1.0, 1.0, 1e-3, 1e-3])))
    field = EulerCellField(grid, state)
    with pytest.raises(NonPhysicalStateError, match="non-positive p"):
        rusanov_step_euler(field, -0.5 / field.max_char_speed())


def _burgers_ramp(bad_value=None, bad_tangent=None):
    grid = Grid1D(dx=1.0 / 64, n_cells=64)
    values = 0.5 + 0.4 * np.sin(2.0 * np.pi * grid.centers())
    tangents = np.ones(64)
    if bad_value is not None:
        values[20] = bad_value
    if bad_tangent is not None:
        tangents[20] = bad_tangent
    return CellField(grid, Dual(values, tangents))


@pytest.mark.parametrize(
    "cfg",
    [SchemeConfig(t_final=0.1, dt=0.005),
     SchemeConfig(t_final=0.1, cfl_number=0.5)],
    ids=["fixed", "cfl"],
)
def test_run_rejects_a_nan_value(cfg):
    with pytest.raises(NumericalError, match="non-finite"):
        run(_burgers_ramp(bad_value=np.nan), cfg, MODEL)


def test_run_names_the_stop_and_cell_of_an_infinite_tangent():
    cfg = SchemeConfig(t_final=0.1, dt=0.005, record_times=(0.05,))
    with pytest.raises(NumericalError, match=r"u tangent .* in cell \d+ at t = 0\.05"):
        run(_burgers_ramp(bad_tangent=np.inf), cfg, MODEL)


def test_run_rejects_a_nan_euler_tangent():
    field = wavy_euler_field()
    rho = field.state.rho
    tangent = rho.tangent.copy()
    tangent[5] = np.nan
    state = EulerState(Dual(rho.value, tangent), field.state.u, field.state.p)
    cfg = SchemeConfig(t_final=0.01, cfl_number=0.4)
    with pytest.raises(NumericalError, match=r"rho tangent nan in cell \d+ at t = 0\.01"):
        run(EulerCellField(field.grid, state), cfg, GAS)

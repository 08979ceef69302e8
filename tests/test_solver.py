"""Time stepping: update formulas, step control, conservation, tangents."""

import ctypes
import math
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from shocktangent import native, solver
from shocktangent.cases import CaseConfig, run_case
from shocktangent.dual import Dual, lift, maximum, trace
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


def test_a_quiescent_step_gives_the_longest_step():
    # Both zeros step to zeros: the carried speed is 0.0 or -0.0, either way no limit.
    for values in ([0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]):
        new = lxf_step(small_field(values), 0.5, MODEL)
        assert new.speed == 0.0 and cfl_dt(new, 1.0, 0.5, MODEL) == DT_MAX


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


# -- the traced step kernels --------------------------------------------------------


def _bits(dual):
    return dual.value.view(np.int64), dual.tangent.view(np.int64)


def _assert_same_bits(got, want):
    for g, w in zip(_bits(got), _bits(want)):
        assert np.array_equal(g, w)


def _cells(data, n, values):
    return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))


_tangent = st.floats(-1e3, 1e3)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), lengths=st.lists(st.integers(3, 64), min_size=2, max_size=2),
       dt=st.floats(1e-3, 0.2), dx=st.floats(0.01, 1.0))
def test_each_step_kernel_equals_its_dual_formula_bit_for_bit(data, lengths, dt, dx):
    # Two lengths in turn, each twice, so that the compiled kernels' scratch is
    # reallocated and reused. Euler cells come from a few states: u of either sign
    # takes both branches of abs, and equal wave speeds tie in maximum, whose first
    # tangent wins.
    n, m = lengths
    for k in (n, m, m, n):
        grid = Grid1D(dx=dx, n_cells=k)
        u = Dual(_cells(data, k, st.floats(-2.0, 2.0)), _cells(data, k, _tangent))
        field = CellField(grid, u)
        _assert_same_bits(lxf_step(field, dt, MODEL).data, solver._lxf_update(u, dt, dx, MODEL))

        state = EulerState(*(Dual(_cells(data, k, st.sampled_from(pool)), _cells(data, k, _tangent))
                             for pool in ((0.5, 1.0, 2.0), (-1.0, -0.5, 0.5, 1.0), (0.4, 1.0))))
        field = EulerCellField(grid, state)
        step = dt * dx / field.max_char_speed()
        try:
            want = solver._rusanov_update(state, step, dx)
        except NonPhysicalStateError as exc:
            with pytest.raises(NonPhysicalStateError, match=re.escape(str(exc))):
                rusanov_step_euler(field, step)
            continue
        got = rusanov_step_euler(field, step).state
        for name in ("rho", "u", "p"):
            _assert_same_bits(getattr(got, name), getattr(want, name))


def _arrays(field):
    parts = [field.data] if isinstance(field, CellField) else [
        getattr(field.state, c) for c in ("rho", "u", "p")]
    return [a for d in parts for a in (d.value, d.tangent)]


@pytest.mark.parametrize("make_field, name, kernel", [
    (lambda: _burgers_ramp(), "_LXF", solver._LXF),
    (lambda: wavy_euler_field(), "_RUSANOV", solver._RUSANOV),
    (lambda: _burgers_ramp(), "_LXF", trace(solver._lxf_payloads, arrays=2)),
    (lambda: wavy_euler_field(), "_RUSANOV", trace(solver._rusanov_payloads, arrays=6))],
    ids=["lxf", "rusanov", "numpy-lxf", "numpy-rusanov"])
def test_a_step_returns_arrays_that_nothing_else_holds(make_field, name, kernel, monkeypatch):
    # A numpy kernel holds no scratch; a compiled one holds its `buffers`, and passes the
    # rows it returned last without converting them again (a call on exactly those rows,
    # as `second` and `fourth` are). Right after such a call come a call on other arrays
    # (`third`) and one on the rows of an older block (`fifth`).
    monkeypatch.setattr(solver, name, kernel)
    field = make_field()
    law = MODEL if isinstance(field, CellField) else GAS
    dt = cfl_dt(field, field.grid.dx, 0.5, law)

    def step(f):
        return lxf_step(f, dt, MODEL) if law is MODEL else rusanov_step_euler(f, dt)

    first = step(field)
    second = step(first)
    third = step(field)
    fourth = step(third)
    fifth = step(first)
    for got, want in ((third, first), (fourth, second), (fifth, second)):
        assert all(np.array_equal(g, w) for g, w in zip(_arrays(got), _arrays(want)))
    fields = (first, second, third, fourth, fifth)
    for k, f in enumerate(fields[1:], 1):
        new = _arrays(f)
        for i, a in enumerate(new):
            for b in (*new[:i], *(x for g in fields[:k] for x in _arrays(g)), *_arrays(field),
                      *getattr(kernel, "buffers", ())):
                assert not np.shares_memory(a, b)


@pytest.mark.skipif(not isinstance(solver._LXF, native._Compiled), reason="kernels not compiled")
@pytest.mark.parametrize("make_field", [_burgers_ramp, wavy_euler_field], ids=["lxf", "rusanov"])
def test_a_compiled_step_writes_into_a_block_of_which_no_row_is_held(make_field, monkeypatch):
    # A march that drops each field writes into two blocks by turns; a field that is
    # held keeps its values, and its block is not written again.
    made, make = [], native._Compiled._block
    monkeypatch.setattr(native._Compiled, "_block", lambda self: made.append(1) or make(self))
    field = make_field()
    law = MODEL if isinstance(field, CellField) else GAS
    dt = cfl_dt(field, field.grid.dx, 0.5, law)
    held = []
    for k in range(16):
        field = lxf_step(field, dt, MODEL) if law is MODEL else rusanov_step_euler(field, dt)
        if k % 5 == 2:
            held.append((field, [a.copy() for a in _arrays(field)]))
    for f, copies in held:
        assert all(a.tobytes() == c.tobytes() for a, c in zip(_arrays(f), copies))
    assert 2 <= len(made) <= 2 + len(held)


def _recording(kernel, calls):
    def call(*args):
        calls.append(kernel(*args))
        return calls[-1]

    return call


def _speed(field):
    # The CFL wave speeds, written out as max_char_speed first wrote them.
    if isinstance(field, CellField):
        return float(np.max(np.abs(field.values)))
    s = field.state
    return float(np.max(np.sqrt(s.gamma * s.p.value / s.rho.value) + np.abs(s.u.value)))


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
@pytest.mark.parametrize("make_field, name, cfg", [
    (lambda: _burgers_ramp(), "_LXF", SchemeConfig(t_final=0.3, cfl_number=0.5)),
    (lambda: _burgers_ramp(), "_LXF", SchemeConfig(t_final=0.3, dt=0.004)),
    (wavy_euler_field, "_RUSANOV", SchemeConfig(t_final=0.2, cfl_number=0.8)),
    (wavy_euler_field, "_RUSANOV", SchemeConfig(t_final=0.2, dt=0.01)),
    (_desk_state_at_one, "_RUSANOV", SchemeConfig(t_final=0.5, cfl_number=0.82))],
    ids=["burgers-cfl", "burgers-fixed", "euler-cfl", "euler-fixed", "desk-cfl"])
def test_each_step_carries_the_wave_speed_and_minima_of_its_new_field(make_field, name, cfg,
                                                                       backend, monkeypatch):
    # The numpy kernels are the ones a process without `cc` runs.
    kernel = getattr(solver, name) if backend == "compiled" else {
        "_LXF": _NUMPY_LXF, "_RUSANOV": _NUMPY_RUSANOV}[name]
    field = make_field()
    calls, fields = [], []
    monkeypatch.setattr(solver, name, _recording(kernel, calls))
    law = MODEL if isinstance(field, CellField) else GAS
    last = run(field, cfg, law, observers=(lambda t, dt, f: fields.append(f),))[-1][1]
    fields = [*fields[1:], last]
    assert len(calls) == len(fields) > 5
    for out, f in zip(calls, fields):
        assert type(f.speed) is float and f.speed == _speed(f) == out[2 if law is MODEL else 6]
        assert law.max_char_speed(f) is f.speed
        if law is GAS:
            s = f.state
            assert out[-2:] == (np.min(s.rho.value), np.min(s.p.value))


@pytest.mark.parametrize(
    "cfg",
    [CaseConfig(grid_no=9, record_times=(0.5, 1.0, 1.5)),
     CaseConfig(problem="euler", dx=0.05, t_final=2.0, record_times=(0.5, 1.0, 1.5))],
    ids=["burgers-grid9", "euler-dx0.05"],
)
def test_run_snapshots_equal_those_of_the_dual_formula_byte_for_byte(cfg, monkeypatch):
    # A kernel that handed out a buffer would see its snapshots overwritten by later steps.
    traced = run_case(cfg).snapshots

    def dual_lxf_step(field, dt, model):
        return CellField(field.grid, solver._lxf_update(field.data, dt, field.grid.dx, model))

    def dual_rusanov_step(field, dt):
        return EulerCellField(field.grid, solver._rusanov_update(field.state, dt, field.grid.dx))

    monkeypatch.setattr(solver, "lxf_step", dual_lxf_step)
    monkeypatch.setattr(solver, "rusanov_step_euler", dual_rusanov_step)
    reference = run_case(cfg).snapshots
    assert [t for t, _ in traced] == [t for t, _ in reference] == [0.5, 1.0, 1.5, 2.0]
    for (_, got), (_, want) in zip(traced, reference):
        for g, w in zip(_arrays(got), _arrays(want)):
            assert g.tobytes() == w.tobytes()


# -- the compiled step kernels -------------------------------------------------------

#: The numpy kernels, the reference of the compiled ones (and the kernels without `cc`).
_NUMPY_LXF = trace(solver._lxf_payloads, arrays=2)
_NUMPY_RUSANOV = trace(solver._rusanov_payloads, arrays=6)

#: Both zeros, subnormals, both infinities, nan, and values of both signs.
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 1e-300, math.inf, -math.inf, math.nan,
            1.0, -1.0, 0.5, -2.0, 3.0, 1e300)


def _same(got, want):
    # Bit for bit, except which NaN a result holds: IEEE 754 leaves open which NaN
    # operand an operation passes on, and numpy's loops and C pass on different ones.
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


def _same_number(got, want):
    # A reduction returns a float: the same number, or a NaN for a NaN. IEEE 754 leaves
    # open which NaN comes out, and the largest of 0.0 and -0.0 may be either; each
    # reader of a reduction (== 0.0, > 0.0, isfinite) decides alike for both.
    return type(got) is float and (got == want or math.isnan(got) and math.isnan(want))


def _step_draws(test):
    # n from 1 to 40 runs the vector body, any peeled head and the scalar tail of
    # each loop on the special values; one seed gives every build the same draws.
    strategies = given(
        data=st.data(), n=st.integers(1, 40),
        floats=st.tuples(*[st.sampled_from((1.4, 1.0, 0.0, 5.0 / 3.0, 1e300))]
                         + [st.sampled_from((0.0, -0.0, 1e-300, 0.01, 1.0, 1e300, math.inf))] * 2))
    return seed(0)(settings(derandomize=True, deadline=None, max_examples=300)(strategies(test)))


def _assert_step_kernels_match(kernels, data, n, floats):
    # u of both signs selects both branches of abs and of maximum; a zero dx fails on
    # the float lines, which must fail alike. Bytes pick the special values: one draw,
    # not 6 n of them.
    picks = np.frombuffer(data.draw(st.binary(min_size=6 * n, max_size=6 * n)), np.uint8)
    cells = list(np.array(_SPECIAL)[picks % len(_SPECIAL)].reshape(6, n))
    gamma, dt, dx = floats
    for fast, reference, formula, args in (
            (kernels[0], _NUMPY_LXF, solver._lxf_payloads, (*cells[:2], dt, dx)),
            (kernels[1], _NUMPY_RUSANOV, solver._rusanov_payloads, (*cells, gamma, dt, dx))):
        with np.errstate(all="ignore"):
            try:
                duals = formula(*args)
            except ZeroDivisionError as exc:
                for kernel in (reference, fast):
                    with pytest.raises(ZeroDivisionError, match=f"^{re.escape(str(exc))}$"):
                        kernel(*args)
                continue
            arrays = [x for d in duals if isinstance(d, Dual) for x in (d.value, d.tangent)]
            reductions = [d for d in duals if not isinstance(d, Dual)]
            assert len(reductions) == (1 if formula is solver._lxf_payloads else 3)
            for kernel in (reference, fast):
                got = kernel(*args)
                assert len(got) == len(arrays) + len(reductions)
                assert all(_same(g, w) for g, w in zip(got, arrays))
                assert all(_same_number(g, w) for g, w in zip(got[len(arrays):], reductions))


@_step_draws
def test_the_compiled_step_kernels_equal_the_numpy_kernels_and_the_dual_formulas(data, n, floats):
    _assert_step_kernels_match((solver._LXF, solver._RUSANOV), data, n, floats)


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_the_step_kernels_refuse_arrays_too_short_to_pad(backend):
    # One message on both backends (without `cc` the "compiled" kernels are numpy's).
    lxf, rusanov = ((solver._LXF, solver._RUSANOV) if backend == "compiled"
                    else (_NUMPY_LXF, _NUMPY_RUSANOV))
    for kernel, args in ((lxf, (*[np.ones(0)] * 2, 0.1, 0.5)),
                         (rusanov, (*[np.ones(0)] * 6, 1.4, 0.1, 0.5))):
        with pytest.raises(ValueError, match="^arrays of length 0 would pad an empty array$"):
            kernel(*args)


def _cfl_dt_as_first_written(field):
    c_n = _speed(field)
    return DT_MAX if c_n == 0.0 else min(0.5 * field.grid.dx / c_n, DT_MAX)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), n=st.integers(3, 20), dt=st.sampled_from([0.01, 0.5, -0.5, 1e300]))
def test_a_step_on_edge_values_carries_what_the_formulas_give(data, n, dt):
    # NaN, infinities, zeros of both signs and subnormals, in steps of either sign, on
    # both backends. A non-positive rho or p is refused with the dual formula's message;
    # else the carried speed is the formula's, and cfl_dt decides as it did on that.
    def cells(pool):
        picks = np.frombuffer(data.draw(st.binary(min_size=n, max_size=n)), np.uint8)
        return np.array(pool)[picks % len(pool)]

    positive = [x for x in _SPECIAL if x > 0.0]
    grid = Grid1D(dx=0.1, n_cells=n)
    burgers = CellField(grid, Dual(cells(_SPECIAL), cells(_SPECIAL)))
    gas = EulerCellField(grid, EulerState(*(Dual(cells(pool), cells(_SPECIAL))
                                            for pool in (positive, _SPECIAL, positive))))
    for lxf, rusanov in ((solver._LXF, solver._RUSANOV), (_NUMPY_LXF, _NUMPY_RUSANOV)):
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(solver, "_LXF", lxf)
            patch.setattr(solver, "_RUSANOV", rusanov)
            for law, new in ((MODEL, lxf_step(burgers, dt, MODEL)), (GAS, None)):
                if new is None:
                    try:
                        want = solver._rusanov_update(gas.state, dt, grid.dx)
                    except NonPhysicalStateError as exc:
                        with pytest.raises(NonPhysicalStateError,
                                           match=f"^{re.escape(str(exc))}$"):
                            rusanov_step_euler(gas, dt)
                        continue
                    new = rusanov_step_euler(gas, dt)
                    assert all(_same(getattr(new.state, c).value, getattr(want, c).value)
                               for c in ("rho", "u", "p"))
                assert _same_number(new.speed, _speed(new))
                got, first = cfl_dt(new, grid.dx, 0.5, law), _cfl_dt_as_first_written(new)
                assert got == first or math.isnan(got) and math.isnan(first)


#: The line of the emitted library that builds each kernel twice, for AVX2 and the baseline.
_CLONES = '#define CLONES __attribute__((target_clones("avx2", "default")))\n'


@pytest.fixture(scope="module")
def default_clone(tmp_path_factory):
    # The step kernels built without their AVX2 clone, which an AVX2 host runs alone.
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    path = str(tmp_path_factory.mktemp("default-clone") / "kernels.so")

    def load(source, names):
        assert source.count(_CLONES) == 1
        native._build(cc, source.replace(_CLONES, ""), path)
        return ctypes.CDLL(path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_load", load)
        kernels = native.compiled(_NUMPY_LXF, _NUMPY_RUSANOV)
    assert all(isinstance(k, native._Compiled) for k in kernels)
    return kernels


@_step_draws
def test_the_default_clone_gives_the_same_bits_as_the_numpy_kernels(default_clone, data, n, floats):
    _assert_step_kernels_match(default_clone, data, n, floats)


#: The GCC on which the wording of -fopt-info and the vectorizer's choices below were
#: checked; another version may word its report or weigh its costs differently.
_CHECKED_GCC = "12"


def test_every_loop_of_the_step_kernels_is_vectorized_in_the_avx2_clone(tmp_path):
    # A 32-byte vector exists in the AVX2 clone alone. A loop that only copies an
    # array into a pad may instead become one memcpy, which is as good.
    cc = shutil.which("cc")
    if cc is None or platform.machine() != "x86_64":
        pytest.skip("needs a C compiler targeting x86-64")
    macros = subprocess.run([cc, "-dM", "-E", "-x", "c", "-"], input="", capture_output=True,
                            text=True, timeout=60).stdout
    defined = dict(line.split(" ", 2)[1:] for line in macros.splitlines() if line.count(" ") >= 2)
    # clang defines __GNUC__ too, and __clang__ besides.
    if "__clang__" in defined or defined.get("__GNUC__") != _CHECKED_GCC:
        pytest.skip(f"the report checked is that of GCC {_CHECKED_GCC}")
    source = "".join([native._PRELUDE, *(native._emit(k, f"kernel{i}")[0]
                                      for i, k in enumerate((_NUMPY_LXF, _NUMPY_RUSANOV)))])
    report = subprocess.run(
        [cc, *native._CFLAGS, "-fopt-info-vec-loop-optimized",
         "-o", str(tmp_path / "kernels.so"), "-x", "c", "-", "-lm"],
        input=source, capture_output=True, text=True, check=True, timeout=120).stderr
    loops = [k for k, line in enumerate(source.splitlines(), 1) if line.lstrip().startswith("for (")]
    assert loops
    for k in loops:
        said = re.findall(rf"^<stdin>:{k}:\d+: optimized: (.*)$", report, re.M)
        assert ("loop vectorized using 32 byte vectors" in said
                or any(s.endswith("split to 0 loops and 1 library calls.") for s in said)), k


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_with_a_c_compiler_the_step_kernels_are_compiled():
    # A kernel the C emitter got wrong would fail to build and fall back unseen.
    assert isinstance(solver._LXF, native._Compiled)
    assert isinstance(solver._RUSANOV, native._Compiled)


_SNAPSHOT_DIGEST = """
import hashlib
from shocktangent import solver
from shocktangent.cases import CaseConfig, run_case
digest = hashlib.sha256()
for cfg in (CaseConfig(grid_no=9, t_final=1.0, record_times=(0.5,)),
            CaseConfig(problem="euler", dx=0.05, t_final=1.0, record_times=(0.5,))):
    for _, field in run_case(cfg).snapshots:
        parts = [field.data] if hasattr(field, "data") else [
            getattr(field.state, c) for c in ("rho", "u", "p")]
        for d in parts:
            digest.update(d.value.tobytes() + d.tangent.tobytes())
print(type(solver._LXF).__name__, type(solver._RUSANOV).__name__, digest.hexdigest())
"""


def _python(code, path):
    src = Path(solver.__file__).resolve().parents[1]
    env = dict(os.environ, PATH=str(path), PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120).stdout.split()


def test_without_a_c_compiler_the_numpy_kernels_give_the_same_snapshots(tmp_path):
    here = _python(_SNAPSHOT_DIGEST, os.environ.get("PATH", ""))
    assert _python(_SNAPSHOT_DIGEST, tmp_path) == ["_Kernel", "_Kernel", here[-1]]


@pytest.mark.skipif(not isinstance(solver._LXF, native._Compiled), reason="kernels not compiled")
def test_a_later_process_loads_the_cached_library_without_compiling(tmp_path):
    # This process built or loaded the library at import; a `cc` that only leaves a
    # mark stands in for the compiler, so a second build would leave the mark.
    cc = tmp_path / "cc"
    cc.write_text(f"#!/bin/sh\necho ran >> {tmp_path / 'ran'}\nexit 1\n", encoding="utf-8")
    cc.chmod(0o755)
    assert _python(_SNAPSHOT_DIGEST, tmp_path)[:2] == ["_Compiled", "_Compiled"]
    assert not (tmp_path / "ran").exists()


class _LinearFlux(BurgersModel):
    def flux(self, u):
        return 2.0 * u


@pytest.mark.parametrize("law", [_LinearFlux(), SimpleNamespace(scalar=True, flux=lambda u: u * u)],
                         ids=["subclass", "function"])
def test_lxf_step_refuses_a_law_with_another_flux(law):
    with pytest.raises(TypeError, match="Burgers' flux"):
        lxf_step(small_field([0.0, 1.0, 0.0]), 0.5, law)

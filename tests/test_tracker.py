"""Tracked-discontinuity stepping and its three tangent-propagation modes."""

from array import array

import numpy as np
import pytest

from shocktangent import tracker
from shocktangent.cases import CaseConfig, run_case
from shocktangent.dual import Dual, lift, seed, sqrt
from shocktangent.errors import ProbeDegenerateError, TrackingLostError
from shocktangent.mesh import CellField, Grid1D
from shocktangent.models import (
    BurgersModel,
    EulerCellField,
    EulerModel,
    EulerState,
    euler_left_state,
    moving_shock_right_state,
    shock_speed_from_states,
)
from shocktangent.solver import SchemeConfig, run
from shocktangent.tracker import (
    MODES,
    ShockTracker,
    TrackerConfig,
    advance_position,
    char_speed,
    naive_probe_speed,
    rh_probe_speed,
    step_shock,
)

MODEL = BurgersModel()
GAS = EulerModel()


def linear_field():
    """u = 2 - x/2 on [0, 4] with per-cell tangent equal to the cell center."""
    grid = Grid1D(dx=0.1, n_cells=40)
    x = grid.centers()
    return CellField(grid, Dual(2.0 - 0.5 * x, x.copy()))


def test_tracker_config_validation_and_delta():
    cfg = TrackerConfig(c_coeff=5.0, alpha=1.0, mode="shock")
    assert cfg.delta(0.1) == pytest.approx(0.5)
    assert TrackerConfig(c_coeff=2.0, alpha=0.5).delta(0.04) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        TrackerConfig(mode="adjoint")
    with pytest.raises(ValueError):
        TrackerConfig(c_coeff=0.0)


def test_linear_probe_speed_hand_values():
    f = linear_field()
    state = Dual(2.03, 0.7)
    speed = rh_probe_speed(state, f, 0.5, MODEL)
    # probes: u(2.53) = 0.735, u(1.53) = 1.235; quotient = their mean
    assert speed.value == pytest.approx(0.985, abs=1e-13)
    # probed tangents u_i' + x' s + (x - X_i) s' = 2.18 and 1.18
    assert speed.tangent == pytest.approx(1.68, abs=1e-12)


def test_constant_probe_speed_hand_values():
    f = linear_field()
    state = Dual(2.03, 0.7)
    speed = naive_probe_speed(state, f, 0.5, MODEL)
    # flat probes read the cell means and drop the position feedback
    assert speed.value == pytest.approx(0.975, abs=1e-13)
    assert speed.tangent == pytest.approx(2.05, abs=1e-12)


def test_step_shock_mode_split():
    f = linear_field()
    state = Dual(2.03, 0.7)
    dt = 0.04
    # value update is shared: x + dt * u(cell of x) = 2.03 + 0.04 * 0.975
    for mode, expected_tangent in (
        ("shock", 0.7 + dt * 1.68),
        ("blackbox", 0.7 + dt * 2.05),
        ("none", 0.0),
    ):
        cfg = TrackerConfig(c_coeff=5.0, alpha=1.0, mode=mode)
        out = step_shock(state, f, dt, cfg, MODEL)
        assert out.value == pytest.approx(2.069, abs=1e-13)
        assert out.tangent == pytest.approx(expected_tangent, abs=1e-12)


def test_advance_position_rejects_leaving_the_interior():
    f = linear_field()
    state = Dual(3.5, 0.0)
    with pytest.raises(TrackingLostError):
        advance_position(state, f, 10.0, MODEL)


def test_probe_exit_is_reported_as_tracking_loss():
    f = linear_field()
    # position fine, but the minus probe at 0.55 - 0.5 lands in a boundary cell
    state = Dual(0.55, 0.0)
    cfg = TrackerConfig(c_coeff=5.0, alpha=1.0, mode="shock")
    with pytest.raises(TrackingLostError):
        step_shock(state, f, 0.04, cfg, MODEL)


def test_degenerate_probe_jump_is_rejected():
    grid = Grid1D(dx=0.1, n_cells=40)
    flat = CellField(grid, lift(np.full(40, 1.0)))
    state = Dual(2.0, 0.0)
    with pytest.raises(ProbeDegenerateError):
        rh_probe_speed(state, flat, 0.5, MODEL)


def two_state_gas_field():
    grid = Grid1D(dx=0.1, n_cells=100)
    left = euler_left_state(5.3452)
    right = moving_shock_right_state(left, seed(0.1))
    x = grid.centers()
    mask = x < 5.0

    def mix(l, r):
        v = np.where(mask, l.value, r.value)
        t = np.where(mask, l.tangent, r.tangent)
        return Dual(v, t)

    state = EulerState(mix(left.rho, right.rho), mix(left.u, right.u), mix(left.p, right.p))
    return EulerCellField(grid, state)


def test_gas_probe_speed_recovers_the_shock_speed():
    field = two_state_gas_field()
    state = Dual(5.0, 0.0)
    speed = rh_probe_speed(state, field, 0.5, GAS)
    assert speed.value == pytest.approx(0.1, abs=1e-12)
    # downstream pressure was seeded by the speed, so the recovered
    # sensitivity is exactly one
    assert speed.tangent == pytest.approx(1.0, rel=1e-12)


def test_gas_probes_agree_across_reconstructions_on_constant_states():
    # with constant probe neighborhoods the linear and flat reconstructions
    # read the same numbers, so both modes see the identical speed
    field = two_state_gas_field()
    state = Dual(5.0, 0.3)
    a = rh_probe_speed(state, field, 0.5, GAS)
    b = naive_probe_speed(state, field, 0.5, GAS)
    assert a.value == pytest.approx(b.value, abs=1e-15)
    assert a.tangent == pytest.approx(b.tangent, abs=1e-14)


@pytest.mark.parametrize("probe, reader", [(rh_probe_speed, "_linear_eval"),
                                           (naive_probe_speed, "eval_constant")])
@pytest.mark.parametrize("law", [MODEL, GAS], ids=["burgers", "euler"])
def test_probe_speed_finds_each_probe_cell_once_and_passes_it(law, probe, reader, monkeypatch):
    field = linear_field() if law is MODEL else two_state_gas_field()
    state = Dual(2.03 if law is MODEL else 5.0, 0.3)
    lookups, cells = [], []
    find = Grid1D.probe_cell

    def counting(grid, x):
        lookups.append(x)
        return find(grid, x)

    inner = getattr(tracker, reader)

    def spy(f, x, i):
        assert type(i) is int and i == find(f.grid, x.value)
        cells.append(i)
        return inner(f, x, i)

    monkeypatch.setattr(Grid1D, "probe_cell", counting)
    monkeypatch.setattr(tracker, reader, spy)
    probe(state, field, 0.5, law)
    assert sorted(lookups) == [state.value - 0.5, state.value + 0.5]
    # one read per probe on Burgers; rho, u, p at the minus probe and p at the plus one on Euler
    assert len(cells) == (2 if law is MODEL else 4)


@pytest.mark.parametrize("law, x", [(GAS, 0.55), (GAS, 9.45), (MODEL, 0.55), (MODEL, 3.45)],
                         ids=["euler-cell-0", "euler-cell-n-1", "burgers-cell-0", "burgers-cell-n-1"])
def test_flat_probe_in_an_edge_cell_is_a_tracking_loss(law, x):
    # the flat reader obeys the linear one's rule: cells 1 to n - 2 only
    field = linear_field() if law is MODEL else two_state_gas_field()
    with pytest.raises(TrackingLostError, match="needs an interior cell"):
        naive_probe_speed(Dual(x, 0.0), field, 0.5, law)


def right_char_speed(shock_speed):
    """u - a behind a shock moving at shock_speed, on plain floats."""
    right = moving_shock_right_state(euler_left_state(5.3452), shock_speed)
    return right.u.value - right.sound_speed().value


def test_blackbox_differentiates_the_position_update_on_gas_states():
    field = two_state_gas_field()
    dt = 0.5
    blackbox = TrackerConfig(c_coeff=5.0, alpha=1.0, mode="blackbox")
    shock = TrackerConfig(c_coeff=5.0, alpha=1.0, mode="shock")
    h = 1e-6
    dc_ds = (right_char_speed(0.1 + h) - right_char_speed(0.1 - h)) / (2.0 * h)
    # x = 5.0 sits in the first post-shock cell, x = 4.95 in the last
    # pre-shock one, whose state does not depend on the shock speed.
    for x, c_tangent in ((5.0, dc_ds), (4.95, 0.0)):
        state = Dual(x, 0.3)
        assert char_speed(state, field, GAS).tangent == pytest.approx(c_tangent, rel=1e-6)
        bb = step_shock(state, field, dt, blackbox, GAS)
        sh = step_shock(state, field, dt, shock, GAS)
        assert bb.value == sh.value == advance_position(state, field, dt, GAS)
        assert bb.tangent == pytest.approx(0.3 + dt * c_tangent, rel=1e-6)
        # the custom rule reads the exact jump-speed sensitivity of one
        assert sh.tangent == pytest.approx(0.3 + dt * 1.0, rel=1e-12)
    # distinct from the flat-probe jump speed, which is exact on this field
    assert abs(dc_ds - 1.0) > 0.2


def test_blackbox_sensitivity_grows_like_one_over_dx():
    xi = {}
    for no in (9, 8, 7):
        res = run_case(CaseConfig(grid_no=no, mode="blackbox"))
        xi[no] = res.tracker.state.tangent
    true_xi = res.oracle.xi(res.final_time)
    assert xi[9] > 5.0 * true_xi
    for coarse, fine in ((9, 8), (8, 7)):
        assert 1.7 < xi[fine] / xi[coarse] < 2.3


def test_tracker_observer_keeps_history():
    f = linear_field()
    cfg = TrackerConfig(c_coeff=5.0, alpha=1.0, mode="shock")
    tracker = ShockTracker(2.03, cfg, MODEL)
    scheme = SchemeConfig(t_final=0.12, dt=0.04)
    run(f, scheme, MODEL, observers=(tracker,))
    assert tracker.times == pytest.approx([0.0, 0.04, 0.08, 0.12])
    assert len(tracker.positions) == 4
    assert tracker.positions[0] == 2.03
    assert tracker.tangents[0] == 0.0
    # first step matches the hand-computed update exactly: with x' = 0 the
    # speed's tangent is the mean of the probed tangents, x = 2.03
    assert tracker.positions[1] == pytest.approx(2.069, abs=1e-13)
    assert tracker.tangents[1] == pytest.approx(0.04 * 2.03, abs=1e-12)


class ListTracker:
    """The tracker as it was before packing: history in lists of Python floats."""

    def __init__(self, x0, config, law):
        self.state = Dual(float(x0), 0.0)
        self.config = config
        self.law = law
        self.times, self.positions, self.tangents = [0.0], [float(x0)], [0.0]

    def __call__(self, t, dt, field):
        self.state = step_shock(self.state, field, dt, self.config, self.law)
        self.times.append(t + dt)
        self.positions.append(self.state.value)
        self.tangents.append(self.state.tangent)


@pytest.mark.parametrize("mode", MODES)
def test_packed_history_equals_a_list_built_one_bit_for_bit(mode, monkeypatch):
    cfg = CaseConfig(grid_no=7, mode=mode)
    packed = run_case(cfg).tracker
    monkeypatch.setattr("shocktangent.cases.ShockTracker", ListTracker)
    listed = run_case(cfg).tracker
    assert isinstance(listed.times, list)
    for name in ("times", "positions", "tangents"):
        got, ref = getattr(packed, name), getattr(listed, name)
        assert isinstance(got, array) and got.typecode == "d"
        assert [x.hex() for x in got] == [x.hex() for x in ref]


def _five_read_linear(field, x):
    """Central-slope linear probe with one field.at read per use of a cell (five reads)."""
    grid = field.grid
    i = grid.cell_containing(x.value)
    s_plus = (field.at(i + 1) - field.at(i)) / grid.dx
    s_minus = (field.at(i) - field.at(i - 1)) / grid.dx
    s = 0.5 * (s_plus + s_minus)
    return field.at(i) + (x - (i + 0.5) * grid.dx) * s


def _reference_step(state, field, dt, config, law):
    """step_shock's new position value and speed dual, one field.at read per use of a cell."""
    x = state
    parts = law.split(field)

    def c(cells):  # the tracked characteristic speed on one cell's (rho, u, p) or u
        if law.scalar:
            return cells[0]
        rho, u, p = cells
        return u - (field.gamma * p / rho) ** 0.5

    i = field.grid.cell_containing(x.value)
    new_x = x.value + dt * c([f.at(i).value for f in parts])
    speed = c([f.at(i) for f in parts])
    if config.mode == "shock":
        delta = config.delta(field.grid.dx)
        if law.scalar:
            v_plus = _five_read_linear(field, x + delta)
            v_minus = _five_read_linear(field, x - delta)
            speed = (law.flux(v_plus) - law.flux(v_minus)) / (v_plus - v_minus)
        else:
            rho_m, u_m, p_m = (_five_read_linear(f, x - delta) for f in parts)
            p_p = _five_read_linear(parts[2], x + delta)
            a_m = sqrt(field.gamma * p_m / rho_m)
            speed = shock_speed_from_states(u_m, a_m, p_m, p_p, field.gamma)
    return new_x, speed


@pytest.fixture(scope="module")
def tracked_fields():
    """(field, tracker state, law, config) of Burgers grid 7 and the Euler desk case at t = 1."""
    out = []
    for cfg in (CaseConfig(grid_no=7, t_final=1.0), CaseConfig(problem="euler", t_final=1.0)):
        res = run_case(cfg)
        out.append((res.final_field, res.tracker.state, res.law, res.config))
    return out


@pytest.mark.parametrize("mode", ["shock", "blackbox"])
@pytest.mark.parametrize("case", [0, 1], ids=["burgers-grid7", "euler-desk"])
def test_step_shock_equals_the_five_read_formulation_bit_for_bit(tracked_fields, case, mode):
    field, state, law, cfg = tracked_fields[case]
    config = TrackerConfig(cfg.c_coeff, cfg.alpha, mode)
    dt = 0.5 * field.grid.dx / law.max_char_speed(field)
    new_x, speed = _reference_step(state, field, dt, config, law)
    if mode == "shock":
        got = rh_probe_speed(state, field, config.delta(field.grid.dx), law)
    else:
        got = char_speed(state, field, law)
    # the speed itself: dt * speed is too small to show its last bits in x'
    assert (got.value, got.tangent) == (speed.value, speed.tangent)
    out = step_shock(state, field, dt, config, law)
    assert (out.value, out.tangent) == (
        new_x, state.tangent + dt * speed.tangent
    )


@pytest.mark.parametrize("case", [0, 1], ids=["burgers-grid7", "euler-desk"])
def test_shock_step_locates_three_points(tracked_fields, case, monkeypatch):
    field, state, law, cfg = tracked_fields[case]
    calls = []
    inner = Grid1D.cell_containing

    def counting(grid, x):
        calls.append(x)
        return inner(grid, x)

    monkeypatch.setattr(Grid1D, "cell_containing", counting)
    config = TrackerConfig(cfg.c_coeff, cfg.alpha, "shock")
    step_shock(state, field, 1e-4, config, law)
    # the position update, then one lookup per probe point
    assert len(calls) == 3

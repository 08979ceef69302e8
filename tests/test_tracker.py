"""Tracked-discontinuity stepping and its three tangent-propagation modes."""

import re
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shocktangent import models, tracker
from shocktangent.cases import CaseConfig, run_case
from shocktangent.dual import Dual, lift, seed, sqrt
from shocktangent.errors import (
    NonPhysicalStateError,
    OutOfDomainError,
    ProbeDegenerateError,
    TrackingLostError,
)
from shocktangent.mesh import CellField, Grid1D, eval_linear
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
        out = step_shock(state, f, dt, cfg, MODEL, cfg.delta(f.grid.dx))
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
        step_shock(state, f, 0.04, cfg, MODEL, cfg.delta(f.grid.dx))


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


def _dual_rh_probe_speed(position, field, delta, law, reads=None):
    """rh_probe_speed's rule with the probes read on duals by eval_linear's central slope.

    The cell of each read is appended to `reads`.
    """

    def linear(f, x, i):
        if reads is not None:
            reads.append(i)
        return eval_linear(f, x, "center", i)

    x_minus, x_plus = position - delta, position + delta
    try:
        cells = [field.grid.probe_cell(x.value) for x in (x_minus, x_plus)]
    except OutOfDomainError as exc:
        raise TrackingLostError(f"probe point left the grid: {exc}") from exc
    return Dual(*law.probe_speed(field, x_minus, x_plus, *cells, linear))


def _dual_kernel(fn):
    """fn, a function of payloads that returns a Dual, as a kernel run on duals."""

    def kernel(*payloads):
        out = fn(*payloads)
        return out.value, out.tangent

    return kernel


#: The probe kernel of each law, by its name in `models`.
_PROBE_KERNELS = {BurgersModel: "_BURGERS_PROBES", EulerModel: "_GAS_PROBES"}


@pytest.mark.parametrize("probe, reader", [(rh_probe_speed, "_PROBES"),
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

    if reader == "eval_constant":
        module, inner = tracker, tracker.eval_constant

        def spy(f, x, i):
            assert type(i) is int and i == find(f.grid, x.value)
            cells.append(i)
            return inner(f, x, i)
    else:  # one traced call takes both probe cells, then the three cells of each read
        reader = _PROBE_KERNELS[type(law)]
        module, inner = models, getattr(models, reader)

        def spy(x_minus, x_plus, x_dot, dx, i_minus, i_plus, *stencils):
            assert (x_minus, x_plus, x_dot) == (state.value - 0.5, state.value + 0.5, 0.3)
            for i, point in ((i_minus, x_minus), (i_plus, x_plus)):
                assert type(i) is int and i == find(field.grid, point)
            reads = len(stencils) // 6
            cells.extend([i_minus] * (reads - 1) + [i_plus])
            return inner(x_minus, x_plus, x_dot, dx, i_minus, i_plus, *stencils)

    monkeypatch.setattr(Grid1D, "probe_cell", counting)
    monkeypatch.setattr(module, reader, spy)
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
        bb = step_shock(state, field, dt, blackbox, GAS, blackbox.delta(field.grid.dx))
        sh = step_shock(state, field, dt, shock, GAS, shock.delta(field.grid.dx))
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
    tracker = ShockTracker(2.03, cfg, MODEL, f.grid.dx)
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

    def __init__(self, x0, config, law, dx):
        self.state = Dual(float(x0), 0.0)
        self.config = config
        self.law = law
        self.delta = config.delta(dx)
        self.times, self.positions, self.tangents = [0.0], [float(x0)], [0.0]

    def __call__(self, t, dt, field):
        self.state = step_shock(self.state, field, dt, self.config, self.law, self.delta)
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
    out = step_shock(state, field, dt, config, law, config.delta(field.grid.dx))
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
    step_shock(state, field, 1e-4, config, law, config.delta(field.grid.dx))
    # the position update, then one lookup per probe point
    assert len(calls) == 3


@pytest.mark.parametrize(
    "cfg",
    [CaseConfig(grid_no=9), CaseConfig(problem="euler", dx=0.05, t_final=2.0)],
    ids=["burgers-grid9", "euler-dx0.05"],
)
def test_traced_probes_track_as_dual_probes_bit_for_bit(cfg, monkeypatch):
    traced = run_case(cfg).tracker
    reads = []

    def linear(f, x, i):
        reads.append(i)
        return eval_linear(f, x, "center", i)

    def dual_probe_speed(law, field, x_minus, x_plus, x_dot, i_minus, i_plus):
        # The probes as eval_linear reads them on duals, then each speed on duals.
        probes = Dual(x_minus, x_dot), Dual(x_plus, x_dot)
        return law.probe_speed(field, *probes, i_minus, i_plus, linear)

    for law in (BurgersModel, EulerModel):
        monkeypatch.setattr(law, "traced_probe_speed", dual_probe_speed)
    monkeypatch.setattr(models, "_JUMP_SPEED", _dual_kernel(models._dual_jump_speed))
    monkeypatch.setattr(models, "_GAS_SPEED", _dual_kernel(models._dual_shock_speed))
    reference = run_case(cfg).tracker
    assert len(reads) == (2 if cfg.problem == "burgers" else 4) * (len(reference.times) - 1)
    for name in ("times", "positions", "tangents"):
        assert getattr(traced, name).tobytes() == getattr(reference, name).tobytes(), name


@pytest.mark.parametrize("case", [0, 1], ids=["burgers-grid7", "euler-desk"])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(offset=st.floats(-3.0, 3.0), tangent=st.floats(-10.0, 10.0), cfl=st.floats(1e-6, 0.9))
def test_the_traced_shock_step_equals_the_five_read_formulation_near_the_shock(
        tracked_fields, case, offset, tangent, cfl):
    # Positions within three cells of the tracked shock, any position tangent and dt.
    field, state, law, cfg = tracked_fields[case]
    config = TrackerConfig(cfg.c_coeff, cfg.alpha, "shock")
    position = Dual(state.value + offset * field.grid.dx, tangent)
    dt = cfl * field.grid.dx / law.max_char_speed(field)
    new_x, speed = _reference_step(position, field, dt, config, law)
    out = step_shock(position, field, dt, config, law, config.delta(field.grid.dx))
    want = (new_x, position.tangent + dt * speed.tangent)
    assert [x.hex() for x in (out.value, out.tangent)] == [x.hex() for x in want]


def _steep_gas_field(i):
    """An Euler field at rest on 100 cells of 0.1: rho = 1, and p = 1 but on cells i - 1 to i + 1.

    Those read 10, 0.1 and 0.05, so past the middle of cell i its central
    slope reads a pressure below zero.
    """
    p = np.ones(100)
    p[i - 1 : i + 2] = (10.0, 0.1, 0.05)
    ones = np.ones(100)
    return EulerCellField(Grid1D(0.1, 100),
                          EulerState(lift(ones), lift(0.0 * ones), Dual(p, 0.5 * ones)))


def _error_of(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "make, law, x, error, match",
    [
        (lambda: CellField(Grid1D(0.1, 40), lift(np.full(40, 1.0))), MODEL, 2.0,
         ProbeDegenerateError, "^probe jump 0.0 below floor"),
        (lambda: _steep_gas_field(56), GAS, 5.19,
         NonPhysicalStateError, r"^probed p = -1\.8\d* at x = 5\.69"),
        (lambda: _steep_gas_field(46), GAS, 5.19,
         NonPhysicalStateError, r"^probed p = -1\.8\d* at x = 4\.69"),
        (linear_field, MODEL, 0.55, TrackingLostError, "needs an interior cell, got 0$"),
        (linear_field, MODEL, 3.45, TrackingLostError, "needs an interior cell, got 39$"),
        (two_state_gas_field, GAS, 0.55, TrackingLostError, "needs an interior cell, got 0$"),
        (two_state_gas_field, GAS, 9.45, TrackingLostError, "needs an interior cell, got 99$"),
    ],
    ids=["burgers-flat", "euler-negative-p-plus", "euler-negative-p-minus",
         "burgers-cell-0", "burgers-cell-n-1", "euler-cell-0", "euler-cell-n-1"],
)
def test_the_traced_rule_fails_as_the_dual_rule_does(make, law, x, error, match):
    field, position = make(), Dual(x, 0.3)
    want = _error_of(lambda: _dual_rh_probe_speed(position, field, 0.5, law))
    assert want is not None and want[0] is error and re.search(match, want[1]), want
    assert _error_of(lambda: rh_probe_speed(position, field, 0.5, law)) == want
    config = TrackerConfig(5.0, 1.0, "shock")
    assert _error_of(lambda: step_shock(position, field, 1e-3, config, law, 0.5)) == want

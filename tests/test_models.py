"""Flux models: scalar conservation law and compressible gas states."""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shocktangent import models
from shocktangent.dual import Dual, lift, seed
from shocktangent.errors import NonPhysicalStateError, NoShockError
from shocktangent.mesh import CellField, Grid1D
from shocktangent.models import (
    BurgersModel,
    EulerState,
    MovingShockSetup,
    euler_flux,
    euler_left_state,
    moving_shock_right_state,
    shock_speed_from_states,
)

GAMMA = 1.4

# Frozen reference values for the mach 5.3452 inflow with shock speed 0.1,
# computed once at full float precision from the closed-form relations in
# the models module and pinned so regressions show up as digit changes.
MACH = 5.3452
SPEED = 0.1
REF = {
    "T_l": 0.1489373482247996,
    "a_l": 0.38592401871974696,
    "u_l": 2.062841064860791,
    "p_l": 0.0009107194761206095,
    "rho_l": 0.00856069536463354,
    "mach_rel": 5.086081636930146,
    "p_ratio": 30.012930820437706,
    "rho_ratio": 5.028126864361256,
    "u_r": 0.4903722236551282,
    "rho_r": 0.04304426234052678,
    "p_r": 0.027333360633633123,
}


def test_burgers_flux_and_speed():
    m = BurgersModel()
    u = Dual(3.0, 1.0)
    f = m.flux(u)
    assert f.value == pytest.approx(4.5)
    assert f.tangent == pytest.approx(3.0)  # d(u^2/2)/du = u
    assert m.char_speed(u).value == 3.0
    grid = Grid1D(dx=1.0, n_cells=3)
    field = CellField(grid, lift(np.array([-4.0, 2.0, 1.0])))
    assert m.max_char_speed(field) == 4.0


def test_rest_state_normalization():
    # M = 0 gives the nondimensional rest state (rho, u, p, T) = (1, 0, 1/gamma, 1)
    rest = euler_left_state(0.0)
    assert rest.rho.value == pytest.approx(1.0)
    assert rest.u.value == pytest.approx(0.0)
    assert rest.p.value == pytest.approx(1.0 / GAMMA)
    assert (GAMMA * rest.p / rest.rho).value == pytest.approx(1.0)
    assert rest.sound_speed().value == pytest.approx(1.0)


def test_state_derived_quantities():
    s = EulerState(rho=lift(2.0), u=lift(3.0), p=lift(5.0))
    assert (GAMMA * s.p / s.rho).value == pytest.approx(GAMMA * 5.0 / 2.0)
    assert s.sound_speed().value == pytest.approx(np.sqrt(GAMMA * 5.0 / 2.0))
    assert s.specific_energy().value == pytest.approx(5.0 / (2.0 * (GAMMA - 1.0)))
    assert s.total_energy().value == pytest.approx(5.0 / (2.0 * 0.4) + 4.5)
    rho, mom, en = s.conservative()
    assert rho.value == 2.0 and mom.value == 6.0
    assert en.value == pytest.approx(2.0 * (5.0 / (2.0 * 0.4) + 4.5))


def test_state_rejects_nonphysical_inputs():
    with pytest.raises(NonPhysicalStateError):
        EulerState(rho=lift(-1.0), u=lift(0.0), p=lift(1.0))
    with pytest.raises(NonPhysicalStateError):
        EulerState(rho=lift(1.0), u=lift(0.0), p=lift(0.0))
    vals = np.array([1.0, -2.0, 1.0])
    with pytest.raises(NonPhysicalStateError, match="cell 1"):
        EulerState(rho=lift(vals), u=lift(np.zeros(3)), p=lift(np.ones(3)))


def test_conservative_round_trip():
    s = EulerState(rho=lift(0.7), u=lift(-1.3), p=lift(2.1))
    back = EulerState.from_conservative(*s.conservative())
    assert back.rho.value == pytest.approx(0.7, rel=1e-15)
    assert back.u.value == pytest.approx(-1.3, rel=1e-15)
    assert back.p.value == pytest.approx(2.1, rel=1e-15)


def test_euler_flux_matches_hand_values():
    s = EulerState(rho=lift(2.0), u=lift(3.0), p=lift(5.0))
    f_rho, f_mom, f_en = euler_flux(s)
    assert f_rho.value == pytest.approx(6.0)
    assert f_mom.value == pytest.approx(2.0 * 9.0 + 5.0)
    total = 2.0 * (5.0 / (2.0 * 0.4) + 4.5)
    assert f_en.value == pytest.approx(3.0 * (total + 5.0))


def test_inflow_state_from_mach_number():
    left = euler_left_state(MACH)
    assert left.rho.value == pytest.approx(REF["rho_l"], rel=1e-14)
    assert left.u.value == pytest.approx(REF["u_l"], rel=1e-14)
    assert left.p.value == pytest.approx(REF["p_l"], rel=1e-14)
    assert (GAMMA * left.p / left.rho).value == pytest.approx(REF["T_l"], rel=1e-14)
    assert left.sound_speed().value == pytest.approx(REF["a_l"], rel=1e-14)
    assert left.u.value / left.sound_speed().value == pytest.approx(MACH, rel=1e-14)


def test_downstream_state_matches_frozen_reference():
    left = euler_left_state(MACH)
    right = moving_shock_right_state(left, seed(SPEED))
    assert right.rho.value == pytest.approx(REF["rho_r"], rel=1e-12)
    assert right.u.value == pytest.approx(REF["u_r"], rel=1e-12)
    assert right.p.value == pytest.approx(REF["p_r"], rel=1e-12)
    assert right.p.value / left.p.value == pytest.approx(REF["p_ratio"], rel=1e-12)
    assert right.rho.value / left.rho.value == pytest.approx(REF["rho_ratio"], rel=1e-12)
    rel_mach = (left.u.value - SPEED) / left.sound_speed().value
    assert rel_mach == pytest.approx(REF["mach_rel"], rel=1e-12)


def test_downstream_state_needs_supersonic_relative_flow():
    left = euler_left_state(1.2)
    # shock speed nearly equal to u_l kills the relative mach number
    with pytest.raises(NoShockError):
        moving_shock_right_state(left, lift(left.u.value - 1e-6))


def test_jump_conditions_close_across_the_shock():
    left = euler_left_state(MACH)
    right = moving_shock_right_state(left, lift(SPEED))
    s = SPEED
    # mass and momentum balances in the shock frame
    m_l = left.rho.value * (left.u.value - s)
    m_r = right.rho.value * (right.u.value - s)
    assert m_l == pytest.approx(m_r, rel=1e-12)
    pi_l = m_l * (left.u.value - s) + left.p.value
    pi_r = m_r * (right.u.value - s) + right.p.value
    assert pi_l == pytest.approx(pi_r, rel=1e-12)


def test_speed_recovery_inverts_the_jump():
    left = euler_left_state(MACH)
    for s in (0.05, 0.1, 0.3):
        right = moving_shock_right_state(left, lift(s))
        back = shock_speed_from_states(
            left.u, left.sound_speed(), left.p, right.p, GAMMA
        )
        assert back.value == pytest.approx(s, abs=1e-13)


def test_speed_recovery_has_unit_sensitivity():
    # seeding the speed and inverting through the pressure ratio must give
    # d(recovered)/d(seeded) = 1 exactly, whatever the probe values are
    left = euler_left_state(MACH)
    right = moving_shock_right_state(left, seed(SPEED))
    back = shock_speed_from_states(left.u, left.sound_speed(), left.p, right.p, GAMMA)
    assert back.tangent == pytest.approx(1.0, rel=1e-12)


def test_moving_shock_setup_bundles_both_states():
    setup = MovingShockSetup(mach=MACH, shock_speed=SPEED, x_shock0=5.0)
    left = setup.left_state()
    right = setup.right_state()
    assert left.u.value == pytest.approx(REF["u_l"], rel=1e-12)
    assert right.u.value == pytest.approx(REF["u_r"], rel=1e-12)
    seeded = setup.right_state(seed(SPEED))
    assert seeded.u.tangent != 0.0  # downstream state carries the speed seed
    with pytest.raises(ValueError, match=r"^mach must exceed 1\.0, got 0\.8$"):
        MovingShockSetup(mach=0.8, shock_speed=SPEED, x_shock0=5.0)
    with pytest.raises(NoShockError):
        MovingShockSetup(mach=1.05, shock_speed=1.0, x_shock0=5.0)


@pytest.mark.parametrize("gamma", [1.0, 0.5, -1.4])
def test_moving_shock_setup_rejects_gamma_at_most_one(gamma):
    # The isentropic relations divide by gamma - 1; below 1 they take a negative root.
    with pytest.raises(ValueError, match=rf"^gamma must exceed 1\.0, got {gamma}$"):
        MovingShockSetup(MACH, SPEED, 5.0, gamma)
    # mach is checked first.
    with pytest.raises(ValueError, match="^mach must exceed"):
        MovingShockSetup(0.8, SPEED, 5.0, gamma)


_finite = st.floats(-1e6, 1e6)


@settings(derandomize=True, deadline=None)
@given(u_minus=_finite, t_minus=_finite, u_plus=_finite, t_plus=_finite)
def test_the_traced_jump_speed_equals_the_dual_one_bit_for_bit(u_minus, t_minus, u_plus, t_plus):
    assume(u_plus != u_minus)
    ref = BurgersModel().jump_speed(Dual(u_minus, t_minus), Dual(u_plus, t_plus))
    got = models._JUMP_SPEED(u_minus, t_minus, u_plus, t_plus)
    assert struct.pack("<2d", *got) == struct.pack("<2d", ref.value, ref.tangent)

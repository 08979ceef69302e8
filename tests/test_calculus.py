"""Reference solutions, jump estimates, and shifted reconstructions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shocktangent.calculus import (
    BurgersRampOracle,
    jump_estimate,
    l1_error,
    tangential_shift,
    xi_ode_oracle,
)
from shocktangent.dual import Dual, lift
from shocktangent.errors import GridMismatchError, OutOfDomainError, ProbeDegenerateError
from shocktangent.mesh import CellField, Grid1D

ORACLE = BurgersRampOracle()


def u_left(t):
    """The ramp's value at the shock's left side."""
    return 1.0 / math.sqrt(1.0 + t)


def test_reference_solution_shape():
    t = 2.0
    xs = np.array([0.0, 0.05, 1.0, ORACLE.shock_position(t) - 1e-9, 2.0, 2.5])
    u = ORACLE.solution(t, xs)
    assert u[0] == 0.0
    assert u[1] == pytest.approx(0.0)
    assert u[2] == pytest.approx((1.0 - 0.05) / 3.0)
    assert u[3] == pytest.approx(u_left(t), rel=1e-8)
    assert u[4] == 0.0 and u[5] == 0.0


def test_shock_path_consistency():
    # position derivative in time equals the jump speed
    for t in (0.5, 1.0, 2.0):
        h = 1e-6
        fd = (ORACLE.shock_position(t + h) - ORACLE.shock_position(t - h)) / (2.0 * h)
        assert ORACLE.shock_speed(t) == pytest.approx(fd, rel=1e-9)
        # scalar jump speed is the mean of the two limits, here u_left / 2
        assert ORACLE.shock_speed(t) == pytest.approx(0.5 * u_left(t), rel=1e-14)


def test_displacement_sensitivity_matches_eps_derivative():
    for t in (0.5, 1.0, 2.0):
        h = 1e-5
        fd = (ORACLE.shock_position(t, h) - ORACLE.shock_position(t, -h)) / (2.0 * h)
        assert ORACLE.xi(t) == pytest.approx(fd, rel=1e-7)


def test_left_limit_chain_rule():
    # total eps-derivative of the left limit = v at the shock + xi * u_x
    t = 2.0
    h = 1e-6

    def left_limit(eps):
        stretch = 1.0 + (1.0 + eps) * t
        return (1.0 + eps) / math.sqrt(stretch)

    total = (left_limit(h) - left_limit(-h)) / (2.0 * h)
    assert total == pytest.approx(
        ORACLE.v_left(t) + ORACLE.xi(t) * ORACLE.ux_left(t), rel=1e-8
    )


def test_ode_cross_check_agrees_with_closed_form():
    assert xi_ode_oracle(1.0) == pytest.approx(ORACLE.xi(1.0), abs=1e-10)


def test_cell_average_projection_conserves_mass():
    grid = Grid1D(dx=0.01, n_cells=260)
    for eps in (0.0, 0.2):
        f = ORACLE.avg_solution(grid, 2.0, eps)
        mass = grid.dx * float(np.sum(f.values))
        # triangle area (1 + eps) / 2, captured exactly by split averaging
        assert mass == pytest.approx((1.0 + eps) / 2.0, abs=1e-12)


def test_l1_error():
    grid = Grid1D(dx=0.5, n_cells=4)
    a = CellField(grid, lift(np.array([1.0, 2.0, 3.0, 4.0])))
    b = CellField(grid, lift(np.array([0.0, 4.0, 3.0, 2.0])))
    assert l1_error(a, b) == pytest.approx(0.5 * (1.0 + 2.0 + 0.0 + 2.0))
    other = Grid1D(dx=0.5, n_cells=5)
    c = CellField(other, lift(np.zeros(5)))
    with pytest.raises(GridMismatchError):
        l1_error(a, c)


def test_jump_estimate_on_projected_reference():
    t = 2.0
    grid = Grid1D(dx=0.01, n_cells=260)
    f = ORACLE.avg_solution(grid, t)
    shock = Dual(ORACLE.shock_position(t), 0.0)
    delta = 0.05
    est = jump_estimate(f, shock, delta)
    # probes sit delta inside each side, so the ramp side reads u_left
    # minus delta * u_x; the far side is exactly zero
    expected = -(u_left(t) - delta * ORACLE.ux_left(t))
    assert est == pytest.approx(expected, abs=2e-3)


def test_jump_estimate_rejects_smooth_data():
    grid = Grid1D(dx=0.1, n_cells=40)
    flat = CellField(grid, lift(np.full(40, 2.0)))
    with pytest.raises(ProbeDegenerateError):
        jump_estimate(flat, Dual(2.0, 0.0), 0.5)


def step_field(tangent=0.0):
    """A unit step down at x = 2 whose tangent is `tangent` in every cell."""
    grid = Grid1D(dx=0.1, n_cells=40)
    vals = np.where(grid.centers() < 2.0, 1.0, 0.0)
    return CellField(grid, Dual(vals, np.full(40, tangent)))


def test_tangential_shift_eps_zero_is_identity():
    u = step_field(1.0)
    out = tangential_shift(u, Dual(2.0, 1.0), -1.0, 0.0, 0.3)
    assert np.array_equal(out.values, u.values)


def test_tangential_shift_moves_the_front_forward():
    u = step_field()
    shock = Dual(2.0, 1.0)
    out = tangential_shift(u, shock, -1.0, 0.25, 0.3)
    # displacement 0.25 fills cells 20, 21 and half of cell 22
    assert out.values[20] == pytest.approx(1.0)
    assert out.values[21] == pytest.approx(1.0)
    assert out.values[22] == pytest.approx(0.5)
    assert out.values[23] == pytest.approx(0.0)
    # displaced mass is |jump| * eps * xdot
    gained = u.grid.dx * float(np.sum(out.values - u.values))
    assert gained == pytest.approx(0.25, abs=1e-14)


def test_tangential_shift_moves_the_front_backward():
    u = step_field()
    shock = Dual(2.0, 1.0)
    out = tangential_shift(u, shock, -1.0, -0.25, 0.3)
    # interval [1.75, 2.0]: cells 18, 19 empty out, cell 17 loses half
    assert out.values[17] == pytest.approx(0.5)
    assert out.values[18] == pytest.approx(0.0)
    assert out.values[19] == pytest.approx(0.0)
    assert out.values[16] == pytest.approx(1.0)


def test_tangential_shift_omits_field_update_in_the_band():
    u = step_field(1.0)
    shock = Dual(2.0, 0.0)  # no displacement
    eps, delta = 0.1, 0.3
    out = tangential_shift(u, shock, -1.0, eps, delta)
    centers = u.grid.centers()
    inside = np.abs(centers - 2.0) <= delta
    assert np.allclose(out.values[~inside], u.values[~inside] + eps)
    assert np.allclose(out.values[inside], u.values[inside])


@given(dx=st.floats(1e-4, 0.1), n=st.integers(3, 1000), data=st.data())
def test_tangential_shift_conserves_the_displaced_mass(dx, n, data):
    # With a zero field tangent and delta = 0 only the jump block changes the field. A shift
    # of at least one cell keeps the rounding of u in the two partly covered
    # cells far below 1e-12 of the displaced mass.
    grid = Grid1D(dx=dx, n_cells=n)
    u = data.draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
    x_s = data.draw(st.floats(0.0, grid.x_right))
    shift = data.draw(st.floats(-x_s, grid.x_right - x_s).filter(lambda d: abs(d) >= dx))
    eps = data.draw(st.floats(1e-4, 0.2))
    xi = shift / eps
    jump = data.draw(st.floats(-10.0, 10.0).filter(lambda j: abs(j) >= 1e-2))
    assume(0.0 <= x_s + eps * xi <= grid.x_right)
    field = CellField(grid, lift(u))
    out = tangential_shift(field, Dual(x_s, xi), jump, eps, 0.0)
    moved = dx * float(np.sum(out.values - u))
    assert moved == pytest.approx(-jump * eps * xi, rel=1e-12)


def test_tangential_shift_rejects_displacement_outside_domain():
    u = step_field()
    shock = Dual(3.9, 1.0)
    with pytest.raises(OutOfDomainError):
        tangential_shift(u, shock, -1.0, 0.5, 0.3)

"""Grid geometry, cell fields, averaging, and sub-cell linear evaluation."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from shocktangent import mesh
from shocktangent.cases import MAX_CELLS
from shocktangent.dual import Dual, lift
from shocktangent.errors import GridMismatchError, OutOfDomainError
from shocktangent.mesh import (
    CellField,
    Grid1D,
    cell_average,
    eval_constant,
    eval_linear,
    one_sided_slopes,
    require_same_grid,
)


@pytest.fixture
def grid():
    return Grid1D(dx=0.1, n_cells=10)


def test_grid_geometry(grid):
    assert grid.x_right == pytest.approx(1.0)
    assert grid.face(0) == 0.0
    assert grid.face(10) == pytest.approx(1.0)
    centers = grid.centers()
    assert centers.shape == (10,)
    assert centers[0] == pytest.approx(0.05)
    assert centers[-1] == pytest.approx(0.95)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(dx=-0.1, n_cells=10)
    with pytest.raises(ValueError):
        Grid1D(dx=0.1, n_cells=0)


def test_cell_containing(grid):
    assert grid.cell_containing(0.05) == 0
    assert grid.cell_containing(0.999) == 9
    # a point exactly on an interior face belongs to the right cell
    assert grid.cell_containing(grid.face(3)) == 3
    with pytest.raises(OutOfDomainError):
        grid.cell_containing(-0.01)
    with pytest.raises(OutOfDomainError):
        grid.cell_containing(1.0)


@given(dx=st.floats(1e-5, 0.2), n=st.integers(3, MAX_CELLS), data=st.data())
def test_cell_containing_resolves_faces_and_brackets_every_point(dx, n, data):
    grid = Grid1D(dx=dx, n_cells=n)  # builds no arrays at any size
    i = data.draw(st.integers(0, n - 1))
    assert grid.cell_containing(grid.face(i)) == i
    near_face = [np.nextafter(grid.face(i), -np.inf), np.nextafter(grid.face(i), np.inf)]
    x = data.draw(st.floats(0.0, grid.x_right, exclude_max=True) | st.sampled_from(near_face))
    assume(x >= 0.0)
    j = grid.cell_containing(x)
    assert grid.face(j) <= x < grid.face(j + 1)


def test_probe_cell_admits_only_cells_with_both_neighbors(grid):
    # A linear probe reads cells i - 1, i and i + 1: i runs from 1 to n - 2.
    for x in (0.1, 0.15, 0.55, 0.8999, grid.face(5)):
        assert grid.probe_cell(x) == grid.cell_containing(x)
    assert [grid.probe_cell(0.1 * i + 0.05) for i in range(1, 9)] == list(range(1, 9))
    for x, cell in ((0.0, 0), (0.05, 0), (0.95, 9), (0.999, 9)):
        with pytest.raises(OutOfDomainError) as err:
            grid.probe_cell(x)
        assert str(err.value) == (
            f"linear reconstruction at x = {x} needs an interior cell, got {cell}"
        )
    for x in (-0.01, 1.0, 1.5):
        with pytest.raises(OutOfDomainError) as err:
            grid.probe_cell(x)
        assert str(err.value) == f"x = {x} outside grid extent [0.0, {grid.x_right})"


def test_grid_needs_enough_cells_for_reconstruction():
    with pytest.raises(ValueError):
        Grid1D(dx=0.1, n_cells=2)


def test_cell_average_integrates_smooth_functions(grid):
    f = cell_average(lambda x: x * x, grid)
    centers = grid.centers()
    # exact cell mean of x^2 over [a, b] is (a^2 + ab + b^2) / 3
    faces = np.array([grid.face(i) for i in range(11)])
    exact = (faces[:-1] ** 2 + faces[:-1] * faces[1:] + faces[1:] ** 2) / 3.0
    assert np.allclose(f.values, exact, atol=1e-14)
    assert np.allclose(f.tangents, 0.0)


def test_gauss_legendre_table_is_numpys_rule():
    nodes, weights = leggauss(5)
    assert np.array_equal(mesh._GL_NODES, nodes)
    assert np.array_equal(mesh._GL_WEIGHTS, weights)


def test_cell_average_splits_at_breakpoints(grid):
    # step at x = 0.23, inside cell 2
    def fn(x):
        return np.where(np.asarray(x) < 0.23, 1.0, 0.0)

    f = cell_average(fn, grid, breakpoints=(0.23,))
    assert f.values[1] == pytest.approx(1.0)
    assert f.values[2] == pytest.approx((0.23 - 0.2) / 0.1, abs=1e-14)
    assert f.values[3] == pytest.approx(0.0, abs=1e-14)


def test_cell_field_api(grid):
    x = np.linspace(0.0, 0.9, 10)
    data = Dual(x, np.full_like(x, 2.0))
    f = CellField(grid, data)
    assert f.values.shape == (10,)
    assert np.allclose(f.tangents, 2.0)
    assert f.at(3).value == pytest.approx(0.3)


def test_require_same_grid(grid):
    other = Grid1D(dx=0.1, n_cells=11)
    a = CellField(grid, lift(np.zeros(10)))
    b = CellField(other, lift(np.zeros(11)))
    with pytest.raises(GridMismatchError):
        require_same_grid(a, b)


def test_eval_constant_ignores_position_tangent(grid):
    x = np.arange(10.0)
    f = CellField(grid, Dual(x, np.full_like(x, 3.0)))
    v = eval_constant(f, Dual(0.55, 99.0), 5)
    assert v.value == 5.0
    assert v.tangent == 3.0


def test_one_sided_slopes(grid):
    vals = np.arange(10.0) ** 2
    f = CellField(grid, lift(vals))
    cell, plus, minus = one_sided_slopes(f, 4)
    assert cell.value == vals[4]
    assert plus.value == pytest.approx((vals[5] - vals[4]) / 0.1)
    assert minus.value == pytest.approx((vals[4] - vals[3]) / 0.1)


def test_eval_linear_hand_case():
    # three cells of width 1 centered at 0.5, 1.5, 2.5 with values 0, 1, 4
    g = Grid1D(dx=1.0, n_cells=3)
    f = CellField(g, lift(np.array([0.0, 1.0, 4.0])))
    x = 1.7
    # slopes at cell 1: minus = 1, plus = 3, center = 2
    assert eval_linear(f, x, "minus", 1).value == pytest.approx(1.0 + 0.2 * 1.0)
    assert eval_linear(f, x, "plus", 1).value == pytest.approx(1.0 + 0.2 * 3.0)
    assert eval_linear(f, x, "center", 1).value == pytest.approx(1.0 + 0.2 * 2.0)
    with pytest.raises(ValueError):
        eval_linear(f, x, "upwind", 1)


def test_eval_linear_position_tangent_feeds_through_slope():
    g = Grid1D(dx=1.0, n_cells=3)
    f = CellField(g, lift(np.array([0.0, 1.0, 4.0])))
    xdot = 0.25
    v = eval_linear(f, Dual(1.7, xdot), "center", 1)
    # d/de [u_i + (x - X_i) s] = xdot * s with frozen values and slopes
    assert v.tangent == pytest.approx(xdot * 2.0)


def test_eval_linear_value_tangents_feed_through():
    g = Grid1D(dx=1.0, n_cells=3)
    data = Dual(np.array([0.0, 1.0, 4.0]), np.array([1.0, 2.0, 3.0]))
    f = CellField(g, data)
    v = eval_linear(f, 1.7, "center", 1)
    # tangent = udot_i + (x - X_i) * sdot, center slope tangent = (3 - 1) / 2
    assert v.tangent == pytest.approx(2.0 + 0.2 * 1.0)

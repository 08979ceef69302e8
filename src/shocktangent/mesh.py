"""Uniform 1D cell-centered grids and piecewise reconstructions.

Cells are half-open intervals [x_left + i dx, x_left + (i+1) dx); a query
landing exactly on an interior face therefore resolves to the cell on the
right. Fields store one dual per cell (array-backed), so both the solution
and its tangent move through every operation together.

The tracker's linear probe reads cells i - 1, i and i + 1 once each
(`one_sided_slopes`); the components of a system share one lookup of the
probe point (`eval_linear`'s i).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dual import Dual, lift
from .errors import GridMismatchError, OutOfDomainError


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid: n_cells cells of width dx starting at x_left."""

    x_left: float
    dx: float
    n_cells: int

    def __post_init__(self):
        if not self.dx > 0.0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if self.n_cells < 3:
            raise ValueError(f"need at least 3 cells, got {self.n_cells}")

    @property
    def x_right(self):
        return self.x_left + self.n_cells * self.dx

    def centers(self):
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx

    def face(self, i):
        return self.x_left + i * self.dx

    def cell_containing(self, x):
        """Index of the cell holding x; exact face hits go to the right cell."""
        if x < self.x_left or x >= self.x_right:
            raise OutOfDomainError(
                f"x = {x} outside grid extent [{self.x_left}, {self.x_right})"
            )
        i = math.floor((x - self.x_left) / self.dx)
        # Rounding in the division can misplace an exact face hit by one.
        if i + 1 < self.n_cells and x >= self.face(i + 1):
            i += 1
        elif x < self.face(i):
            i -= 1
        return i


class CellField:
    """Scalar field of per-cell duals on a Grid1D."""

    __slots__ = ("grid", "data")

    def __init__(self, grid, data):
        if not isinstance(data, Dual):
            data = lift(np.asarray(data, dtype=float))
        if len(data.value) != grid.n_cells:
            raise ValueError(
                f"field length {len(data.value)} does not match grid ({grid.n_cells} cells)"
            )
        self.grid = grid
        self.data = data

    @property
    def values(self):
        return self.data.value

    @property
    def tangents(self):
        return self.data.tangent

    def at(self, i):
        """Cell i as a scalar dual."""
        return Dual(float(self.data.value[i]), float(self.data.tangent[i]))

    def with_tangent(self, tangent):
        """Same values, new tangent array (or another field's values)."""
        if isinstance(tangent, CellField):
            tangent = tangent.values
        tangent = np.asarray(tangent, dtype=float)
        if tangent.shape != self.values.shape:
            raise ValueError("tangent shape does not match field")
        return CellField(self.grid, Dual(self.values.copy(), tangent.copy()))


def require_same_grid(a, b):
    ga, gb = a.grid, b.grid
    if (ga.x_left, ga.dx, ga.n_cells) != (gb.x_left, gb.dx, gb.n_cells):
        raise GridMismatchError(f"grids differ: {ga} vs {gb}")


_GL_NODES, _GL_WEIGHTS = leggauss(5)


def cell_average(fn, grid, breakpoints=()):
    """Project a pointwise function onto cell averages.

    5-point Gauss-Legendre per cell (exact through degree 9). Cells containing
    a listed breakpoint are split there first, so piecewise-polynomial data
    with kinks or jumps at known locations is averaged exactly.

    fn must accept numpy arrays.
    """
    centers = grid.centers()
    half = 0.5 * grid.dx
    nodes = centers[:, None] + half * _GL_NODES[None, :]
    avgs = 0.5 * (np.asarray(fn(nodes)) @ _GL_WEIGHTS)

    interior = [b for b in breakpoints if grid.x_left < b < grid.x_right]
    touched = sorted({grid.cell_containing(b) for b in interior})
    for i in touched:
        lo, hi = grid.face(i), grid.face(i + 1)
        cuts = sorted(b for b in interior if lo < b < hi)
        edges = [lo, *cuts, hi]
        acc = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            if b <= a:
                continue
            mid, h = 0.5 * (a + b), 0.5 * (b - a)
            acc += h * float(np.asarray(fn(mid + h * _GL_NODES)) @ _GL_WEIGHTS)
        avgs[i] = acc / grid.dx
    return CellField(grid, lift(avgs))


def eval_constant(field, x, i=None):
    """Piecewise-constant reconstruction at x (float or dual position).

    Flat in x, so a dual position contributes nothing: the result carries only
    the cell's own tangent. i is the cell holding x, if the caller has
    located it already.
    """
    if i is None:
        i = field.grid.cell_containing(x.value if isinstance(x, Dual) else x)
    return field.at(i)


def one_sided_slopes(field, i):
    """Cell i and its (forward, backward) difference slopes, as duals.

    Cells i - 1, i and i + 1 are read once each, from one slice per payload.
    """
    n = field.grid.n_cells
    if not 1 <= i <= n - 2:
        raise IndexError(f"one-sided slopes need both neighbors; cell {i} of {n}")
    dx = field.grid.dx
    d = field.data
    v_minus, v_i, v_plus = d.value[i - 1 : i + 2].tolist()
    t_minus, t_i, t_plus = d.tangent[i - 1 : i + 2].tolist()
    u_minus, u_i, u_plus = Dual(v_minus, t_minus), Dual(v_i, t_i), Dual(v_plus, t_plus)
    return u_i, (u_plus - u_i) / dx, (u_i - u_minus) / dx


def eval_linear(field, x, side, i=None):
    """Linear reconstruction u_i + (x - X_i) * slope at x.

    side selects the slope of the containing cell i: forward difference
    ("plus"), backward difference ("minus"), or their average ("center",
    the central difference). With a dual position the slope term carries the
    position tangent into the result:
    tangent = u_i' + x' * s + (x - X_i) * s'.
    i is the cell holding x, if the caller has located it already (one lookup
    serves every component of a system at one probe point).
    """
    if side not in ("plus", "minus", "center"):
        raise ValueError(f"side must be 'plus', 'minus' or 'center', got {side!r}")
    x = lift(x)
    grid = field.grid
    if i is None:
        i = grid.cell_containing(x.value)
    if not 1 <= i <= grid.n_cells - 2:
        raise OutOfDomainError(
            f"linear reconstruction at x = {x.value} needs an interior cell, got {i}"
        )
    u_i, s_plus, s_minus = one_sided_slopes(field, i)
    if side == "plus":
        s = s_plus
    elif side == "minus":
        s = s_minus
    else:
        s = 0.5 * (s_plus + s_minus)
    center = grid.x_left + (i + 0.5) * grid.dx
    return u_i + (x - center) * s

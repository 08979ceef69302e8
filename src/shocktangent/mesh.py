"""Uniform 1D cell-centered grids and piecewise reconstructions.

Grids start at x = 0. Cells are half-open intervals [i dx, (i+1) dx); a query
landing exactly on an interior face therefore resolves to the cell on the
right. Fields store one dual per cell (array-backed), so both the solution
and its tangent move through every operation together.

The probe readers `eval_linear` and `eval_constant` look nothing up: the
caller finds the probe point's cell once with `Grid1D.probe_cell` and passes it
as i, so the components of a system share one lookup. A linear probe reads
cells i - 1, i and i + 1 once each (`one_sided_slopes`).

`eval_linear` reads a one-sided slope ("plus" or "minus"): a stencil read,
then dual arithmetic on its cells (`_slopes`, `_linear_value`). The central
slope, their mean, is stated once, in `linear_probes`, the probes of a
shock-mode step as dual code: `trace_linear_probes` records them into one
float kernel (`dual.trace`), and the compiled tracker step records them with
the rest of the step. The cell lookup itself is `dual.cell`, which a traced
step records too.
"""

from dataclasses import dataclass

import numpy as np

from .dual import Dual, cell, lift, trace
from .errors import GridMismatchError, OutOfDomainError


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid: n_cells cells of width dx starting at 0."""

    dx: float
    n_cells: int

    def __post_init__(self):
        if not self.dx > 0.0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if self.n_cells < 3:
            raise ValueError(f"need at least 3 cells, got {self.n_cells}")

    @property
    def x_right(self):
        return self.n_cells * self.dx

    def centers(self):
        return (np.arange(self.n_cells) + 0.5) * self.dx

    def face(self, i):
        return i * self.dx

    def cell_containing(self, x):
        """Index of the cell holding x; exact face hits go to the right cell (`dual.cell`)."""
        dx, n = self.dx, self.n_cells
        if not 0.0 <= x < n * dx:
            raise OutOfDomainError(f"x = {x} outside grid extent [0.0, {self.x_right})")
        return cell(x, dx, n)

    def probe_cell(self, x):
        """Index of the cell holding x, which a linear probe reads: cells 1 to n - 2."""
        i = self.cell_containing(x)
        if not 1 <= i <= self.n_cells - 2:
            raise OutOfDomainError(f"linear reconstruction at x = {x} needs an interior cell, got {i}")
        return i


class CellField:
    """Scalar field of per-cell duals on a Grid1D.

    `speed` is the largest |f'(u)| of the scalar law that stepped it, where the
    step computed it (`solver.lxf_step`), else None.
    """

    __slots__ = ("grid", "data", "speed")

    def __init__(self, grid, data, speed=None):
        if not isinstance(data, Dual):
            data = lift(np.asarray(data, dtype=float))
        if len(data.value) != grid.n_cells:
            raise ValueError(
                f"field length {len(data.value)} does not match grid ({grid.n_cells} cells)"
            )
        self.grid = grid
        self.data = data
        self.speed = speed

    @property
    def values(self):
        return self.data.value

    @property
    def tangents(self):
        return self.data.tangent

    def at(self, i):
        """Cell i as a scalar dual."""
        return Dual(float(self.data.value[i]), float(self.data.tangent[i]))


def require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


#: 5-point Gauss-Legendre rule on [-1, 1]: the doubles numpy's leggauss(5)
#: returns, written out so that importing the package computes nothing.
_GL_NODES = np.array(
    [-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664]
)
_GL_WEIGHTS = np.array(
    [0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
     0.4786286704993663, 0.23692688505618928]
)


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

    interior = [b for b in breakpoints if 0.0 < b < grid.x_right]
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


def eval_constant(field, x, i):
    """Piecewise-constant reconstruction at x (float or dual position) on cell i.

    Flat in x, so a dual position contributes nothing: the result carries only
    the cell's own tangent.
    """
    return field.at(i)


def _slopes(u_minus, u_i, u_plus, dx):
    """(forward, backward) difference slopes of the middle of three cells, from duals."""
    return (u_plus - u_i) / dx, (u_i - u_minus) / dx


def one_sided_slopes(field, i):
    """Cell i and its (forward, backward) difference slopes, as duals.

    Cells i - 1, i and i + 1 are read once each, from one slice per payload.
    """
    d, cells = field.data, slice(i - 1, i + 2)
    u_minus, u_i, u_plus = map(Dual, d.value[cells].tolist(), d.tangent[cells].tolist())
    return u_i, *_slopes(u_minus, u_i, u_plus, field.grid.dx)


def _linear_value(x, i, dx, u_i, slope):
    """u_i + (x - X_i) * slope at the dual x, on cell i."""
    return u_i + (x - (i + 0.5) * dx) * slope


def eval_linear(field, x, side, i):
    """Linear reconstruction u_i + (x - X_i) * slope of cell i, at x.

    i is a cell that `Grid1D.probe_cell` admits; side selects the forward
    ("plus") or the backward ("minus") difference slope s. A dual position's
    tangent enters through the slope term: tangent = u_i' + x' * s + (x - X_i) * s'.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    u_i, s_plus, s_minus = one_sided_slopes(field, i)
    return _linear_value(lift(x), i, field.grid.dx, u_i, s_plus if side == "plus" else s_minus)


def trace_linear_probes(sides):
    """`linear_probes(sides)` as one float kernel."""
    return trace(linear_probes(sides), args=6 + 6 * len(sides))


def linear_probes(sides):
    """The linear probe at the central slope, at each probe of a shock-mode step, as dual code.

    sides[k] is -1 for a probe at x- = x - delta, +1 for one at x+ = x + delta.
    The function takes (x-, x+, x', dx, i-, i+), x' the tangent of x and i-/+
    the cells of x-/+, then the three values and three tangents each probe's
    `one_sided_slopes` reads. At each dual probe point (x-/+, x'), in order,
    it returns the Dual of `_linear_value` at the central slope 0.5 * (s+ +
    s-), the mean of `_slopes`.
    """

    def probes(x_minus, x_plus, x_dot, dx, i_minus, i_plus, *cells):
        points = {-1: (Dual(x_minus, x_dot), i_minus), 1: (Dual(x_plus, x_dot), i_plus)}
        out = []
        for k, side in enumerate(sides):
            c = cells[6 * k : 6 * k + 6]
            u = [Dual(v, t) for v, t in zip(c[:3], c[3:])]
            point, i = points[side]
            s_plus, s_minus = _slopes(*u, dx)
            out.append(_linear_value(point, i, dx, u[1], 0.5 * (s_plus + s_minus)))
        return tuple(out)

    return probes

"""Generalized tangent vectors and analytic reference solutions.

A tangent vector to a piecewise-smooth solution is a pair (v, xi): a field
perturbation v plus one displacement rate xi per discontinuity. A first-order
variation of the solution then reads

    u_eps = u + eps v - jump * chi_[x_s, x_s + eps xi]   (forward displacement)
    u_eps = u + eps v + jump * chi_[x_s + eps xi, x_s]   (backward),

with jump = u(x_s+) - u(x_s-): the gap opened by moving the shock keeps the
value of the side it uncovered. `tangential_shift` realizes this variation on
cell averages, with the characteristic function replaced by exact overlap
fractions and the eps*v term suppressed inside the smeared shock band.

The Burgers reference is the decaying ramp family

    U(t, x) = (1+eps) y / (1 + (1+eps) t) on 0 <= y <= sqrt(1 + (1+eps) t),
    y = x - shift,

whose shock sits at y = sqrt(1 + (1+eps) t); differentiating at eps = 0 gives
v = y/(1+t)^2 on the ramp and xi = t / (2 sqrt(1+t)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError, probe_jump
from .mesh import CellField, cell_average, eval_linear, require_same_grid


@dataclass(frozen=True)
class BurgersRampOracle:
    """Closed-form decaying-ramp solutions, shifted so the ramp starts at `shift`."""

    shift: float = 0.05

    # -- pointwise fields ----------------------------------------------------

    def solution(self, t, x, eps=0.0):
        y = np.asarray(x) - self.shift
        stretch = 1.0 + (1.0 + eps) * t
        ramp = (1.0 + eps) * y / stretch
        return np.where((y >= 0.0) & (y <= np.sqrt(stretch)), ramp, 0.0)

    # -- shock path ------------------------------------------------------------

    def shock_position(self, t, eps=0.0):
        return self.shift + math.sqrt(1.0 + (1.0 + eps) * t)

    def shock_speed(self, t, eps=0.0):
        return (1.0 + eps) / (2.0 * math.sqrt(1.0 + (1.0 + eps) * t))

    def xi(self, t):
        """Shock-displacement sensitivity d/deps x_s(t)."""
        return t / (2.0 * math.sqrt(1.0 + t))

    def v_left(self, t):
        return (1.0 + t) ** -1.5

    def ux_left(self, t):
        return 1.0 / (1.0 + t)

    # -- exact cell-average projections ---------------------------------------

    def avg_solution(self, grid, t, eps=0.0):
        bps = (self.shift, self.shock_position(t, eps))
        return cell_average(lambda x: self.solution(t, x, eps), grid, bps)


def xi_ode_oracle(t_final):
    """Integrate the jump-speed sensitivity ODE for the ramp family.

    d xi / dt = (v^- + xi u_x^-) / 2 with xi(0) = 0, classic RK4 at the fixed
    step 1e-4. Independent of the closed form xi(t); used to cross-check it.
    """
    oracle = BurgersRampOracle()

    def rhs(t, xi):
        return 0.5 * (oracle.v_left(t) + xi * oracle.ux_left(t))

    xi, t = 0.0, 0.0
    while t < t_final - 1e-15:
        h = min(1e-4, t_final - t)
        k1 = rhs(t, xi)
        k2 = rhs(t + 0.5 * h, xi + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, xi + 0.5 * h * k2)
        k4 = rhs(t + h, xi + h * k3)
        xi += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return xi


def l1_error(a, b):
    """dx * sum |a_i - b_i| over cell values; grids must match."""
    require_same_grid(a, b)
    return a.grid.dx * float(np.sum(np.abs(a.values - b.values)))


def jump_estimate(field, position, delta):
    """Jump across a tracked shock from one-sided linear probes at x +/- delta.

    position is the tracked dual position. Returns v(x_s + delta) -
    v(x_s - delta) (right minus left). A jump below the degeneracy floor means
    there is no discontinuity to displace.
    """
    locate = field.grid.probe_cell
    x_plus, x_minus = position.value + delta, position.value - delta
    v_plus = eval_linear(field, x_plus, "plus", locate(x_plus)).value
    v_minus = eval_linear(field, x_minus, "minus", locate(x_minus)).value
    return probe_jump(v_plus, v_minus, "estimated jump")


def tangential_shift(field, position, jump, eps, delta):
    """First-order reconstruction of the eps-perturbed solution on cell averages.

    The generalized tangent is the dual field (u, v) plus the tracked dual position
    (x_s, xi). The result is u_i + eps v_i outside the shock band |X_i - x_s| <= delta,
    plus the jump block over the displacement interval, cell-averaged as exact
    overlap fractions (their total is |eps xi| / dx, conserving the displaced mass).
    """
    grid = field.grid
    x_s = position.value
    displacement = eps * position.tangent

    centers = grid.centers()
    outside = np.abs(centers - x_s) > delta
    values = field.values + eps * field.tangents * outside

    if displacement != 0.0:
        lo, hi = sorted((x_s, x_s + displacement))
        if lo < 0.0 or hi > grid.x_right:
            raise OutOfDomainError(
                f"displaced shock interval [{lo}, {hi}] exits the domain"
            )
        left_faces = centers - 0.5 * grid.dx
        right_faces = centers + 0.5 * grid.dx
        overlap = np.clip(
            np.minimum(right_faces, hi) - np.maximum(left_faces, lo), 0.0, None
        ) / grid.dx
        # Forward displacement uncovers the left state: subtract the
        # (right - left) jump there. Backward displacement uncovers the right
        # state: add it.
        if displacement > 0.0:
            values = values - jump * overlap
        else:
            values = values + jump * overlap
    return CellField(grid, values)

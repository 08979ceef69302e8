"""Discrete shock tracking with a custom tangent rule.

The tracked position obeys the characteristic ODE

    x^{n+1} = x^n + dt * c(U^n(x^n)),

with c the scalar characteristic speed f'(u) (Burgers) or the slow acoustic
speed u - a (Euler), evaluated on the piecewise-constant pre-step field. Inside
a captured shock layer c crosses the shock speed, so this point is attracted
to the layer and travels with it. That value update is shared by every mode;
the modes differ only in how the position tangent accumulates:

  shock    - differentiate a Rankine-Hugoniot speed built from LINEAR
             reconstructions probed at x +/- delta, the probe positions
             carrying the current position tangent. The probed tangent
             u_i' + x' * slope is the displaced-front combination v + xi u_x,
             which is exactly what the analytic jump-speed derivative needs.
             The probe slope is the central difference of the containing
             cell: with the staggered averaging of the base scheme the two
             one-sided differences carry an O(1) odd-even bias of opposite
             sign (measured ~+14% / ~-13% on the tracked sensitivity, grid
             independent), and their mean cancels it.
  blackbox - plain forward AD of the position update itself, with no custom
             rule: x' + dt * c(U_i)', the characteristic speed differentiated
             on the piecewise-constant cell that holds x. That cell is flat,
             so the position tangent never feeds back into the speed; inside
             the layer c(U_i) swings across the shock speed, and its tangent
             grows like 1/dx instead of converging. This is the reference for
             why the custom rule is needed.
  none     - tangent frozen at zero.

delta = c_coeff * dx**alpha is the half width assumed for the numerical shock
layer; probes sit just outside it. Every function takes the law the solver
marches with as an argument. A shock-mode step locates three points, the
tracked one and one per probe, on either law. naive_probe_speed (the
same jump speed on flat probes) is kept as a reference rule; no mode uses it.
"""

from array import array
from dataclasses import dataclass

from .dual import Dual, with_custom_tangent
from .errors import OutOfDomainError, TrackingLostError
from .mesh import eval_constant, eval_linear

#: The tracker modes: how the position tangent accumulates (module docstring).
MODES = ("none", "blackbox", "shock")


@dataclass(frozen=True)
class TrackerConfig:
    c_coeff: float = 5.0
    alpha: float = 1.0
    mode: str = "shock"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be {'|'.join(MODES)}, got {self.mode!r}")
        if not self.c_coeff > 0.0:
            raise ValueError("c_coeff must be positive")

    def delta(self, dx):
        return self.c_coeff * dx**self.alpha


def _read_value(d, i):
    return float(d.value[i])


def _read_dual(d, i):
    return Dual(float(d.value[i]), float(d.tangent[i]))


def _char_speed(field, x, law, read):
    """c(U_i) on the cell holding x; `read` yields floats or duals per cell.

    The float path is the position update; the dual path is the same formula
    run on duals, whose value rounds differently (dual division and powers),
    so only its tangent is used.
    """
    return law.cell_char_speed(field, field.grid.cell_containing(x), read)


def advance_position(position, field, dt, law):
    """Position value after one step of the characteristic ODE."""
    x = position.value
    new_x = x + dt * _char_speed(field, x, law, _read_value)
    grid = field.grid
    if not 2 * grid.dx <= new_x <= grid.x_right - 2 * grid.dx:
        raise TrackingLostError(f"tracked position {new_x} left the grid interior")
    return new_x


def char_speed(position, field, law):
    """c(U_i) at the tracked position as a dual: what black-box AD differentiates."""
    return _char_speed(field, position.value, law, _read_dual)


def _probe_speed(position, field, delta, law, evaluate):
    """RH speed from probes at x +/- delta; `evaluate` picks the reconstruction.

    evaluate(field, x, i) reads a scalar field at the dual point x on cell i,
    the cell `Grid1D.probe_cell` finds for x; the law finds it once per point.
    """
    try:
        return law.probe_speed(field, position - delta, position + delta, evaluate)
    except OutOfDomainError as exc:
        raise TrackingLostError(f"probe point left the grid: {exc}") from exc


def rh_probe_speed(position, field, delta, law):
    """Jump speed on linear reconstructions (the shock-AD rule)."""
    return _probe_speed(position, field, delta, law, _linear_eval)


def naive_probe_speed(position, field, delta, law):
    """Jump speed on piecewise-constant probes: the flat-probe RH reference.

    On constant flanking states it equals rh_probe_speed. No tracker mode
    uses it; black-box AD differentiates char_speed instead.
    """
    return _probe_speed(position, field, delta, law, eval_constant)


def _linear_eval(field, x, i):
    # Central-difference slope on either probe side; see module docstring.
    return eval_linear(field, x, "center", i)


def step_shock(position, field, dt, config, law):
    """Advance a tracked dual position one step; dx and delta come from the field."""
    new_x = advance_position(position, field, dt, law)
    if config.mode == "none":
        return with_custom_tangent(new_x, 0.0)
    if config.mode == "shock":
        speed = rh_probe_speed(position, field, config.delta(field.grid.dx), law)
    else:
        speed = char_speed(position, field, law)
    # Value from the float update above; tangent of x + dt * speed.
    return with_custom_tangent(new_x, position.tangent + dt * speed.tangent)


class ShockTracker:
    """Observer wrapping step_shock; keeps (t, x, xdot) history for one shock.

    `state` is the current dual position (x, xdot). The history is packed in
    array('d'), 8 bytes a sample against a list's boxed floats.
    """

    def __init__(self, x0, config, law):
        self.state = Dual(float(x0), 0.0)
        self.config = config
        self.law = law
        self.times = array("d", [0.0])
        self.positions = array("d", [x0])
        self.tangents = array("d", [0.0])

    def __call__(self, t, dt, field):
        self.state = step_shock(self.state, field, dt, self.config, self.law)
        self.times.append(t + dt)
        self.positions.append(self.state.value)
        self.tangents.append(self.state.tangent)

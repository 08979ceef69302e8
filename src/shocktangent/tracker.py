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
             independent), and their mean cancels it. A step is two calls of
             float code traced once at import (`dual.trace`): the law's probes
             (`mesh.trace_linear_probes`, where the central slope is stated),
             then, after the law's checks on the probed values, its speed
             (the Burgers jump speed; Euler's sound speed and shock speed from
             the probed states). The tangent is what dual arithmetic on those
             formulas gives, bit for bit, without a Dual per operation.
  blackbox - plain forward AD of the position update itself, with no custom
             rule: x' + dt * c(U_i)', the characteristic speed differentiated
             on the piecewise-constant cell that holds x. That cell is flat,
             so the position tangent never feeds back into the speed; inside
             the layer c(U_i) swings across the shock speed, and its tangent
             grows like 1/dx instead of converging. This is the reference for
             why the custom rule is needed.
  none     - tangent frozen at zero.

delta = c_coeff * dx**alpha is the half width assumed for the numerical shock
layer (a ShockTracker fixes it when built); probes sit just outside it. Every
function takes the law the solver marches with as an argument. A shock-mode
step locates three points, the tracked one and one per probe, on either law.
naive_probe_speed (the same rule on flat probes) is a reference; no mode uses it.
"""

from array import array
from dataclasses import dataclass

from .dual import Dual, with_custom_tangent
from .errors import OutOfDomainError, TrackingLostError
from .mesh import eval_constant

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


def advance_position(position, field, dt, law):
    """Position value after one step of the characteristic ODE."""
    x, grid = position.value, field.grid
    new_x = x + dt * law.cell_char_speed(field, grid.cell_containing(x), _read_value)
    if not 2 * grid.dx <= new_x <= grid.x_right - 2 * grid.dx:
        raise TrackingLostError(f"tracked position {new_x} left the grid interior")
    return new_x


def char_speed(position, field, law):
    """c(U_i) at the tracked position as a dual: what black-box AD differentiates."""
    return law.cell_char_speed(field, field.grid.cell_containing(position.value), _read_dual)


def rh_probe_speed(position, field, delta, law):
    """Jump speed on linear reconstructions (the shock-AD rule), as traced float code."""
    x_minus, x_plus = position.value - delta, position.value + delta
    locate = field.grid.probe_cell
    try:
        i_minus, i_plus = locate(x_minus), locate(x_plus)
    except OutOfDomainError as exc:
        raise TrackingLostError(f"probe point left the grid: {exc}") from exc
    return Dual(*law.traced_probe_speed(field, x_minus, x_plus, position.tangent, i_minus, i_plus))


def naive_probe_speed(position, field, delta, law):
    """Jump speed on piecewise-constant probes: the flat-probe RH reference, read on duals.

    On constant flanking states it equals rh_probe_speed. No tracker mode
    uses it; black-box AD differentiates char_speed instead.
    """
    x_minus, x_plus = position - delta, position + delta
    locate = field.grid.probe_cell
    try:
        i_minus, i_plus = locate(x_minus.value), locate(x_plus.value)
    except OutOfDomainError as exc:
        raise TrackingLostError(f"probe point left the grid: {exc}") from exc
    return Dual(*law.probe_speed(field, x_minus, x_plus, i_minus, i_plus, eval_constant))


def step_shock(position, field, dt, config, law, delta):
    """Advance a tracked dual position one step; delta is the probe offset config.delta(dx)."""
    new_x = advance_position(position, field, dt, law)
    if config.mode == "none":
        return with_custom_tangent(new_x, 0.0)
    if config.mode == "shock":
        speed = rh_probe_speed(position, field, delta, law)
    else:
        speed = char_speed(position, field, law)
    # Value from the float update above; tangent of x + dt * speed.
    return with_custom_tangent(new_x, position.tangent + dt * speed.tangent)


class ShockTracker:
    """Observer wrapping step_shock; keeps (t, x, xdot) history for one shock.

    `state` is the current dual position (x, xdot), `delta` the probe offset on
    the march's dx. The history is packed in array('d'), 8 bytes a sample.
    """

    def __init__(self, x0, config, law, dx):
        self.state = Dual(float(x0), 0.0)
        self.config = config
        self.law = law
        self.delta = config.delta(dx)
        self.times = array("d", [0.0])
        self.positions = array("d", [x0])
        self.tangents = array("d", [0.0])

    def __call__(self, t, dt, field):
        self.state = step_shock(self.state, field, dt, self.config, self.law, self.delta)
        self.times.append(t + dt)
        self.positions.append(self.state.value)
        self.tangents.append(self.state.tangent)

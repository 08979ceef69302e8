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
             independent), and their mean cancels it. The tangent is what
             dual arithmetic on those formulas gives, bit for bit, without a
             Dual per operation (`dual.trace`). Where a C compiler is at hand,
             a step is one compiled call (`_STEPS`): the whole step of each law
             is traced once at import over the field's payload arrays, from
             the rule's pieces themselves: the position's cell lookup and
             characteristic step, the two probe lookups, the law's probes
             (`mesh.linear_probes`, where the central slope is stated) read at
             the cells found, its speed (the Burgers jump speed; Euler's sound
             speed and shock speed from the probed states), and
             with_custom_tangent, and emitted as C (`native.compiled`). It
             returns the new dual position and the probed values; Python then
             runs the law's checks and the interior check on them. Where the
             kernel or a check fails, the step runs again by the pieces, which
             raise with their own words. Without a compiler a step is those
             pieces: the position update, the probe lookups, then two calls of
             traced float code, the probes (`mesh.trace_linear_probes`) and,
             after the law's checks, the speed.
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
from types import SimpleNamespace

from .dual import Dual, cell, trace, with_custom_tangent
from .errors import NumericalError, OutOfDomainError, TrackingLostError
from .mesh import eval_constant
from .models import BurgersModel, EulerModel
from .native import compiled

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


def _read_payload(d, i):
    return d.value[i]


def _moved(x, dt, law, field, i, read):
    """x + dt * c(U_i), the characteristic step from x in cell i."""
    return x + dt * law.cell_char_speed(field, i, read)


def _inside(new_x, grid):
    """new_x, or TrackingLostError where it left the grid interior."""
    if not 2 * grid.dx <= new_x <= grid.x_right - 2 * grid.dx:
        raise TrackingLostError(f"tracked position {new_x} left the grid interior")
    return new_x


def advance_position(position, field, dt, law):
    """Position value after one step of the characteristic ODE."""
    x, grid = position.value, field.grid
    return _inside(_moved(x, dt, law, field, grid.cell_containing(x), _read_value), grid)


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


def _shock_step(law, field, x, x_dot, dt, delta, dx, cells):
    """step_shock in shock mode as dual code, on a field of traced payloads.

    It returns the new dual position, then the probed values that
    `law.check_probes` takes; `cells` is an array of the field's n cells.
    """
    new_x = _moved(x, dt, law, field, cell(x, dx, cells), _read_payload)
    x_minus, x_plus = x - delta, x + delta
    speed, probes = law.linear_probe_speed(field, x_minus, x_plus, x_dot, cell(x_minus, dx, cells),
                                           cell(x_plus, dx, cells), dx)
    return (with_custom_tangent(new_x, x_dot + dt * speed.tangent), *probes)


def _burgers_step(u, u_t, x, x_dot, dt, delta, dx):
    field = SimpleNamespace(data=Dual(u, u_t))
    return _shock_step(BurgersModel(), field, x, x_dot, dt, delta, dx, u)


def _gas_step(rho, rho_t, u, u_t, p, p_t, gamma, x, x_dot, dt, delta, dx):
    state = SimpleNamespace(rho=Dual(rho, rho_t), u=Dual(u, u_t), p=Dual(p, p_t), gamma=gamma)
    return _shock_step(EulerModel(), SimpleNamespace(state=state), x, x_dot, dt, delta, dx, rho)


def _burgers_payloads(field):
    d = field.data
    return d.value, d.tangent


def _gas_payloads(field):
    s = field.state
    return s.rho.value, s.rho.tangent, s.u.value, s.u.tangent, s.p.value, s.p.tangent, s.gamma


def _compiled_steps():
    """Each law's shock-mode step as one compiled kernel, with the function that gives a
    field's payloads; none where no C compiler is at hand."""
    traced = trace(_burgers_step, arrays=2), trace(_gas_step, arrays=6)
    kernels = compiled(*traced)
    if kernels[0] is traced[0]:
        return {}
    return {BurgersModel: (kernels[0], _burgers_payloads), EulerModel: (kernels[1], _gas_payloads)}


#: What a law's compiled step was traced from, besides `_dual_jump_speed` and
#: `_dual_shock_speed`, which `traced_probe_speed` runs too.
_TRACED_FROM = ("cell_char_speed", "char_speed", "traced_probe_speed", "linear_probe_speed")


class _Steps(dict):
    """The compiled step of each class of law, found on its first step: its base law's,
    unless it overrides what that step was traced from; else None."""

    laws = _compiled_steps()

    def __missing__(self, kind):
        self[kind] = next((step for base, step in self.laws.items() if issubclass(kind, base)
                           and all(getattr(kind, name, None) is getattr(base, name, None)
                                   for name in _TRACED_FROM)), None)
        return self[kind]


#: The compiled shock-mode step by class of law: (payloads, x, x', dt, delta, dx) -> (x, x')
#: after the step, then the probed values that the law checks.
_STEPS = _Steps()


def step_shock(position, field, dt, config, law, delta):
    """Advance a tracked dual position one step; delta is the probe offset config.delta(dx).

    In shock mode, a law's compiled step (`_STEPS`) makes it one call. Where
    the kernel or a check on what it returns fails, the step runs again by
    the pieces below, which raise as they do without a compiled step.
    """
    step = _STEPS[type(law)] if config.mode == "shock" else None
    if step is not None:
        kernel, payloads = step
        x, grid = position.value, field.grid
        try:
            new_x, tangent, *probed = kernel(*payloads(field), x, position.tangent, dt, delta,
                                             grid.dx)
            law.check_probes(x - delta, x + delta, *probed)
            return with_custom_tangent(_inside(new_x, grid), tangent)
        except (NumericalError, ZeroDivisionError, IndexError, ValueError):
            pass
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

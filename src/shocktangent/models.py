"""Flux functions and gas-state algebra.

Burgers: f(u) = u^2 / 2, characteristic speed f'(u) = u.

Euler (1D, ideal gas): primitive state (rho, u, p), nondimensionalized so the
rest state is (rho, u, p, T) = (1, 0, 1/gamma, 1). Then T = gamma p / rho and
the sound speed is a = sqrt(T). Conservative vector (rho, rho u, rho E) with
E = p / (rho (gamma - 1)) + u^2 / 2 and flux
(rho u, rho u^2 + p, u (rho E + p)).

A left state is generated from a Mach number via the isentropic relations
    T_l = (1 + (gamma-1)/2 M^2)^-1,  u_l = M sqrt(T_l),
    p_l = T_l^(gamma/(gamma-1)) / gamma,  rho_l = T_l^(1/(gamma-1)),
and the state behind a shock moving at speed S follows the Rankine-Hugoniot
conditions written with the shock-relative Mach number M~ = (u_l - S)/a_l:
    p_r/p_l   = 1 + 2 gamma/(gamma+1) (M~^2 - 1)
    rho_r/rho_l = (gamma+1) M~^2 / ((gamma-1) M~^2 + 2)
    u_r - S   = (u_l - S) rho_l / rho_r      (mass conservation across the front)
All formulas are plain dual arithmetic, so seeding any input (e.g. S)
propagates exact state sensitivities.

Each field has a law: BurgersModel (scalar) or EulerModel. The caller passes
it to the solver and the tracker, which take from it all that depends on the
problem. A law's probe rule is probes, checks, speed. `probe_speed` reads the
probes on duals; `traced_probe_speed` reads linear probes as float code traced
once at import (`dual.trace`). Both then check the probed values
(`check_probes`) and run the speed, also traced: the Burgers jump speed, or
Euler's from the probed states. `linear_probe_speed` is the same probes and
speed as dual code on traced payloads, read at traced cells, which the
compiled tracker step records; it returns the probed values that
`check_probes` then takes.
"""

from dataclasses import InitVar, dataclass

import numpy as np

from .dual import Dual, lift, sqrt, trace
from .errors import NonPhysicalStateError, NoShockError, probe_jump
from .mesh import CellField, linear_probes, trace_linear_probes

GAMMA = 1.4


@dataclass(frozen=True)
class BurgersModel:
    """Quadratic scalar flux; the law of a one-component CellField."""

    scalar = True
    components = ("u",)
    columns = ("u", "v")

    def flux(self, u):
        return 0.5 * u * u

    def char_speed(self, u):
        return u

    def max_char_speed(self, field):
        """Largest |f'(u)| over the field (CFL bound): the one its step computed, if any."""
        return float(self.wave_speed(field.values)) if field.speed is None else field.speed

    def wave_speed(self, u):
        """Largest |f'(u)| of the cell values u, an array or one being traced."""
        return np.maximum.reduce(np.abs(u))

    def split(self, field):
        """The field's components as scalar CellFields."""
        return [field]

    def cell_char_speed(self, field, i, read):
        """f'(u) of cell i; `read` yields a float (the position update) or a dual (its tangent)."""
        return self.char_speed(read(field.data, i))

    def probe_speed(self, field, x_minus, x_plus, i_minus, i_plus, evaluate):
        """(speed, speed') of the jump between probes evaluate(field, x, i) at x-/+, cells i-/+."""
        v_minus = evaluate(field, x_minus, i_minus)
        v_plus = evaluate(field, x_plus, i_plus)
        probe_jump(v_plus.value, v_minus.value, "probe jump")
        return _JUMP_SPEED(v_minus.value, v_minus.tangent, v_plus.value, v_plus.tangent)

    def traced_probe_speed(self, field, x_minus, x_plus, x_dot, i_minus, i_plus):
        """probe_speed on linear probes at the dual points (x-/+, x'): two traced float calls."""
        m, p = slice(i_minus - 1, i_minus + 2), slice(i_plus - 1, i_plus + 2)
        v, t = field.data.value, field.data.tangent
        v_minus, t_minus, v_plus, t_plus = _BURGERS_PROBES(
            x_minus, x_plus, x_dot, field.grid.dx, i_minus, i_plus,
            *v[m].tolist(), *t[m].tolist(), *v[p].tolist(), *t[p].tolist())
        self.check_probes(x_minus, x_plus, v_minus, v_plus)
        return _JUMP_SPEED(v_minus, t_minus, v_plus, t_plus)

    def linear_probe_speed(self, field, x_minus, x_plus, x_dot, i_minus, i_plus, dx):
        """traced_probe_speed's probes and speed as dual code, on a field of traced payloads
        read at traced cells: the speed, and the probed values that `check_probes` takes."""
        d = field.data
        v_minus, v_plus = _BURGERS_LINEAR(x_minus, x_plus, x_dot, dx, i_minus, i_plus,
                                          *_stencil(d, i_minus), *_stencil(d, i_plus))
        speed = _dual_jump_speed(v_minus.value, v_minus.tangent, v_plus.value, v_plus.tangent)
        return speed, (v_minus.value, v_plus.value)

    def check_probes(self, x_minus, x_plus, v_minus, v_plus):
        """The probe rule's check: a jump between the probed values (`probe_jump`)."""
        probe_jump(v_plus, v_minus, "probe jump")

    def jump_speed(self, u_minus, u_plus):
        """Rankine-Hugoniot speed (f(u+) - f(u-)) / (u+ - u-) of the jump from u- to u+."""
        return (self.flux(u_plus) - self.flux(u_minus)) / (u_plus - u_minus)


def _dual_jump_speed(u_minus, t_minus, u_plus, t_plus):
    return BurgersModel().jump_speed(Dual(u_minus, t_minus), Dual(u_plus, t_plus))


def _stencil(d, i):
    """The values, then the tangents, of cells i - 1, i and i + 1 of the dual d, each read
    once (`one_sided_slopes`), where i is a traced index."""
    return [a[j] for a in (d.value, d.tangent) for j in (i - 1, i, i + 1)]


#: The Burgers probes v- and v+ as dual code, which the compiled tracker step
#: records; they and BurgersModel.jump_speed as float code traced once at import:
#: (u-, u-', u+, u+') -> (speed, speed').
_BURGERS_LINEAR = linear_probes((-1, 1))
_BURGERS_PROBES = trace_linear_probes((-1, 1))
_JUMP_SPEED = trace(_dual_jump_speed)


@dataclass(frozen=True)
class EulerState:
    """Primitive gas state; components are duals (scalar or per-cell arrays).

    Its rho and p must be positive. `minima`, the least rho and p where the
    caller has them (a step kernel returns them), spare the check its
    reductions: it reduces the cells itself, and words its message, only
    where one of them is not positive.
    """

    rho: Dual
    u: Dual
    p: Dual
    gamma: float = GAMMA
    minima: InitVar[tuple | None] = None

    def __post_init__(self, minima=None):
        if minima is not None and minima[0] > 0.0 and minima[1] > 0.0:
            return
        for name in ("rho", "p"):
            v = getattr(self, name).value
            if not (np.minimum.reduce(v) if isinstance(v, np.ndarray) else v) > 0.0:
                cell = f" (first offending cell {np.argmin(v)})" if np.ndim(v) else ""
                raise NonPhysicalStateError(f"non-positive {name}{cell}")

    def sound_speed(self):
        return sqrt(self.gamma * self.p / self.rho)

    def wave_speed(self):
        """Largest |u| + a over the cells (CFL bound), of array payloads or ones being traced."""
        return np.maximum.reduce(np.sqrt(self.gamma * self.p.value / self.rho.value)
                                 + np.abs(self.u.value))

    def specific_energy(self):
        return self.p / (self.rho * (self.gamma - 1.0))

    def total_energy(self):
        return self.specific_energy() + 0.5 * self.u * self.u

    def conservative(self):
        m = self.rho * self.u
        return self.rho, m, self.rho * self.total_energy()

    @classmethod
    def from_conservative(cls, rho, momentum, energy, gamma=GAMMA):
        u = momentum / rho
        p = (gamma - 1.0) * (energy - 0.5 * momentum * u)
        return cls(rho, u, p, gamma)


def euler_flux(state, conservative=None):
    """(mass, momentum, energy) flux of a primitive state.

    `conservative` is the state's own `state.conservative()` triple, for
    callers that have it already.
    """
    rho, m, en = state.conservative() if conservative is None else conservative
    return m, m * state.u + state.p, state.u * (en + state.p)


def euler_left_state(mach, gamma=GAMMA):
    """Pre-shock state from its Mach number (rest state at M = 0)."""
    mach = lift(mach)
    t = 1.0 / (1.0 + 0.5 * (gamma - 1.0) * mach * mach)
    if not t.value > 0.0:  # (gamma - 1) M^2 past the largest float
        raise ValueError(f"mach = {mach.value!r} and gamma = {gamma!r} give the temperature "
                         f"ratio T = 1 / (1 + (gamma - 1) M^2 / 2) = {t.value!r}")
    u = mach * sqrt(t)
    p = t ** (gamma / (gamma - 1.0)) / gamma
    rho = t ** (1.0 / (gamma - 1.0))
    return EulerState(rho, u, p, gamma)


def moving_shock_right_state(left, shock_speed):
    """Post-shock state behind a shock moving at shock_speed.

    Entropy admissibility requires the shock-relative Mach number above one;
    anything else is not a compressive shock and is rejected.
    """
    s = lift(shock_speed)
    a_l = left.sound_speed()
    m_rel = (left.u - s) / a_l
    if not m_rel.value > 1.0:
        raise NoShockError(f"shock-relative Mach {m_rel.value} <= 1 is not admissible")
    g = left.gamma
    m2 = m_rel * m_rel
    p_r = left.p * (1.0 + 2.0 * g / (g + 1.0) * (m2 - 1.0))
    rho_r = left.rho * ((g + 1.0) * m2 / ((g - 1.0) * m2 + 2.0))
    u_r = s + (left.u - s) * left.rho / rho_r
    return EulerState(rho_r, u_r, p_r, g)


def shock_speed_from_states(u_l, a_l, p_l, p_r, gamma=GAMMA):
    """Shock speed from upstream (u, a, p) and downstream pressure.

    Inverts the pressure jump relation: S = u_l - a_l sqrt(
    (gamma+1)/(2 gamma) p_r/p_l + (gamma-1)/(2 gamma)). Differentiating this
    against probed states is the custom propagation rule for tracked shocks.
    """
    ratio = p_r / p_l
    return u_l - a_l * sqrt(
        (gamma + 1.0) / (2.0 * gamma) * ratio + (gamma - 1.0) / (2.0 * gamma)
    )


@dataclass(frozen=True)
class MovingShockSetup:
    """Single-shock Riemann configuration: left state from mach, right from shock_speed."""

    mach: float
    shock_speed: float
    x_shock0: float
    gamma: float = GAMMA

    def __post_init__(self):
        # A supersonic left state first; its isentropic relations divide by gamma - 1.
        for name in ("mach", "gamma"):
            if not getattr(self, name) > 1.0:
                raise ValueError(f"{name} must exceed 1.0, got {getattr(self, name)}")
        self.right_state()  # raises NoShockError unless the shock is admissible

    def left_state(self):
        return euler_left_state(lift(self.mach), self.gamma)

    def right_state(self, shock_speed=None):
        s = lift(self.shock_speed) if shock_speed is None else shock_speed
        return moving_shock_right_state(self.left_state(), s)

    def shock_position(self, t, eps=0.0):
        return self.x_shock0 + (self.shock_speed + eps) * t

    def xi(self, t):
        """Shock-displacement sensitivity d/deps x_s(t)."""
        return t


class EulerCellField:
    """Per-cell primitive gas states on a grid (array-backed EulerState).

    `speed` is the largest |u| + a, where the step that built the field
    computed it (`solver.rusanov_step_euler`), else None.
    """

    __slots__ = ("grid", "state", "speed")

    def __init__(self, grid, state, speed=None):
        if len(state.rho.value) != grid.n_cells:
            raise ValueError("state arrays do not match grid")
        self.grid = grid
        self.state = state
        self.speed = speed

    def component(self, name):
        """One primitive variable viewed as a scalar CellField."""
        return CellField(self.grid, getattr(self.state, name))

    def max_char_speed(self):
        """Largest |u| + a over the field (CFL bound): the one its step computed, if any."""
        return float(self.state.wave_speed()) if self.speed is None else self.speed


@dataclass(frozen=True)
class EulerModel:
    """The law of an EulerCellField: primitive components rho, u, p."""

    scalar = False
    components = ("rho", "u", "p")
    columns = ("rho", "u", "p", "v_rho", "v_u", "v_p")

    def max_char_speed(self, field):
        return field.max_char_speed()

    def split(self, field):
        return [field.component(c) for c in self.components]

    def cell_char_speed(self, field, i, read):
        """Slow acoustic speed u - a of cell i; `read` yields floats (the position update) or
        duals, whose value rounds differently (dual division, powers): only a tangent is used."""
        s = field.state
        rho, u, p = read(s.rho, i), read(s.u, i), read(s.p, i)
        return u - (s.gamma * p / rho) ** 0.5

    def probe_speed(self, field, x_minus, x_plus, i_minus, i_plus, evaluate):
        """(speed, speed') of upstream rho, u, p and downstream p: probes as for Burgers."""
        rho, u, p = self.split(field)
        probed = [evaluate(c, x_minus, i_minus) for c in (rho, u, p)]
        probed.append(evaluate(p, x_plus, i_plus))
        return _gas_speed(field.state.gamma, x_minus.value, x_plus.value,
                          *(x for d in probed for x in (d.value, d.tangent)))

    def traced_probe_speed(self, field, x_minus, x_plus, x_dot, i_minus, i_plus):
        """probe_speed on linear probes at the dual points (x-/+, x'): two traced float calls."""
        m, p = slice(i_minus - 1, i_minus + 2), slice(i_plus - 1, i_plus + 2)
        s = field.state
        return _gas_speed(s.gamma, x_minus, x_plus, *_GAS_PROBES(
            x_minus, x_plus, x_dot, field.grid.dx, i_minus, i_plus,
            *s.rho.value[m].tolist(), *s.rho.tangent[m].tolist(),
            *s.u.value[m].tolist(), *s.u.tangent[m].tolist(),
            *s.p.value[m].tolist(), *s.p.tangent[m].tolist(),
            *s.p.value[p].tolist(), *s.p.tangent[p].tolist()))

    def linear_probe_speed(self, field, x_minus, x_plus, x_dot, i_minus, i_plus, dx):
        """traced_probe_speed's probes and speed as dual code, as for Burgers: the speed,
        and the probed rho, p and p+ that `check_probes` takes."""
        s = field.state
        probed = _GAS_LINEAR(x_minus, x_plus, x_dot, dx, i_minus, i_plus,
                             *_stencil(s.rho, i_minus), *_stencil(s.u, i_minus),
                             *_stencil(s.p, i_minus), *_stencil(s.p, i_plus))
        speed = _dual_shock_speed(*(x for d in probed for x in (d.value, d.tangent)), s.gamma)
        return speed, (probed[0].value, probed[2].value, probed[3].value)

    def check_probes(self, x_minus, x_plus, rho, p, p_plus):
        """The probe rule's check: the probed rho and p up- and downstream are positive."""
        for name, value, x in (("rho", rho, x_minus), ("p", p, x_minus), ("p", p_plus, x_plus)):
            if not value > 0.0:
                raise NonPhysicalStateError(
                    f"probed {name} = {value!r} at x = {x!r} is not positive")


def _dual_shock_speed(rho, rho_t, u, u_t, p, p_t, p_plus, p_plus_t, gamma):
    """Shock speed from the probed upstream rho, u, p and downstream p (values and tangents)."""
    p_minus = Dual(p, p_t)
    a_minus = sqrt(gamma * p_minus / Dual(rho, rho_t))
    return shock_speed_from_states(Dual(u, u_t), a_minus, p_minus, Dual(p_plus, p_plus_t), gamma)


#: The gas probes (rho, u, p at x - delta, p at x + delta) as dual code, as for Burgers;
#: they and _dual_shock_speed as float code traced once at import:
#: (rho, rho', u, u', p, p', p+, p+', gamma) -> (speed, speed').
_GAS_LINEAR = linear_probes((-1, -1, -1, 1))
_GAS_PROBES = trace_linear_probes((-1, -1, -1, 1))
_GAS_SPEED = trace(_dual_shock_speed)


def _gas_speed(gamma, x_minus, x_plus, *probed):
    """_GAS_SPEED of the probed values and tangents, once the probed rho and p are positive."""
    EulerModel().check_probes(x_minus, x_plus, probed[0], probed[4], probed[6])
    return _GAS_SPEED(*probed, gamma)

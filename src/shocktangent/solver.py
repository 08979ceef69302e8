"""Explicit finite-volume time stepping.

Scalar laws advance with the Lax-Friedrichs update

    U_i^{n+1} = (U_{i+1}^n + U_{i-1}^n)/2 - dt/(2 dx) (f(U_{i+1}^n) - f(U_{i-1}^n)),

the Euler system with a first-order Rusanov (local Lax-Friedrichs) flux and
forward-Euler time integration in the conservative variables. Both updates
run on dual-valued fields, so the tangent of every cell propagates through
the identical formula with the flux replaced by its dual evaluation; no
separate linearized scheme exists anywhere.

Boundaries use one ghost cell per side filled by a zero-gradient copy, which
makes the boundary numerical flux collapse to the physical flux of the edge
cell (the jump term vanishes).

`run` alone chooses and bounds each step; the two updates take the step they
are given.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dual import edge_pad, maximum
from .errors import CFLViolationError, ConfigError, NumericalError
from .mesh import CellField
from .models import EulerCellField, EulerState
from . import models

#: Longest step `cfl_dt` takes, the cap of a quiescent field.
DT_MAX = 1.0

#: Most steps a march may take (153 times Burgers grid 1's 55k): a fixed dt
#: to t_final at most, or a CFL march before it stops.
MAX_STEPS = 2**23


def cfl_dt(field, dx, cfl, law=None):
    """Largest stable step: cfl * dx / C_n with C_n the max wave speed.

    C_n comes from `law`; without one, from the field itself, which a gas
    field can report. A quiescent field (C_n = 0) has no wave-speed limit;
    the step is capped at DT_MAX instead.
    """
    c_n = field.max_char_speed() if law is None else law.max_char_speed(field)
    if c_n == 0.0:
        return DT_MAX
    return min(cfl * dx / c_n, DT_MAX)


def _check_cfl(c_n, dt, dx):
    if c_n * dt > dx * (1.0 + 1e-12):
        raise CFLViolationError(
            f"wave speed {c_n} * dt {dt} = {c_n * dt} exceeds dx {dx}"
        )


def lxf_step(field, dt, model):
    """One Lax-Friedrichs step of a scalar field."""
    dx = field.grid.dx
    u = edge_pad(field.data)
    f = model.flux(u)
    new = 0.5 * (u[2:] + u[:-2]) - (dt / (2.0 * dx)) * (f[2:] - f[:-2])
    return CellField(field.grid, new)


def lxf_boundary_fluxes(field, model):
    """Numerical flux through the two domain boundaries (ghost = edge copy).

    With copied ghosts the dissipative jump term is zero, leaving the
    physical flux of each edge cell. Total mass then changes by exactly
    dt * (F_left - F_right) per step.
    """
    f_left = model.flux(field.at(0)).value
    f_right = model.flux(field.at(-1)).value
    return f_left, f_right


def rusanov_step_euler(field, dt):
    """One Rusanov/forward-Euler step of the Euler system (primitives in/out).

    The conserved variables, fluxes and wave speeds are computed once on the
    field's own (already checked) state, then extended by ghost copies: every
    formula is elementwise, so this equals evaluating them on padded
    primitives, bit for bit.
    """
    dx = field.grid.dx
    s = field.state
    cons = s.conservative()
    _, h_mom, h_en = models.euler_flux(s, cons)
    lam = abs(s.u) + s.sound_speed()

    q_rho, q_mom, q_en = (edge_pad(c) for c in cons)
    h_rho = q_mom  # the mass flux is the momentum
    h_mom, h_en, lam = (edge_pad(c) for c in (h_mom, h_en, lam))

    new = []
    half_lam = 0.5 * maximum(lam[:-1], lam[1:])
    for q, h in ((q_rho, h_rho), (q_mom, h_mom), (q_en, h_en)):
        # interface flux: central average minus local max-speed dissipation
        f = 0.5 * (h[:-1] + h[1:]) - half_lam * (q[1:] - q[:-1])
        new.append(q[1:-1] - (dt / dx) * (f[1:] - f[:-1]))

    state = EulerState.from_conservative(*new, gamma=field.gamma)
    return EulerCellField(field.grid, state)


def euler_boundary_fluxes(field):
    """(mass, momentum, energy) physical flux at the left and right boundary."""
    s = field.state

    def edge(i):
        point = EulerState(s.rho[i], s.u[i], s.p[i], s.gamma)
        return tuple(float(h.value) for h in models.euler_flux(point))

    return edge(0), edge(-1)


@dataclass(frozen=True)
class SchemeConfig:
    """Time-marching controls.

    A dt is repeated every step; without one, each step is rescaled from the
    current max wave speed by cfl_number. Steps are clipped (never
    interpolated) so each record time and t_final are hit exactly.
    """

    t_final: float
    dt: float | None = None
    cfl_number: float | None = None
    record_times: tuple = ()

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.dt is None and not (self.cfl_number and 0.0 < self.cfl_number <= 1.0):
            raise ConfigError("without a dt, cfl_number must lie in (0, 1]")
        if not self.t_final > 0.0:
            raise ConfigError("t_final must be positive")
        times = tuple(self.record_times)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("record_times must be strictly increasing")
        if any(not 0.0 < r <= self.t_final for r in times):
            raise ConfigError("record_times must lie in (0, t_final]")
        # Within the ceiling t + dt > t holds up to t_final, so a fixed march ends.
        if self.dt is not None and not self.t_final / self.dt <= MAX_STEPS:
            raise ConfigError(
                f"t_final / dt = {self.t_final!r} / {self.dt!r} exceeds {MAX_STEPS} steps"
            )


def _check_finite(field, law, t):
    """Raise NumericalError at the first non-finite value or tangent of field."""
    for name, part in zip(law.components, law.split(field)):
        for kind, data in (("value", part.values), ("tangent", part.tangents)):
            finite = np.isfinite(data)
            if not finite.all():
                cell = int(np.argmin(finite))
                raise NumericalError(
                    f"non-finite {name} {kind} {data[cell]} in cell {cell} at t = {t!r}"
                )


@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def run(ic, config, law, observers=()):
    """March ic under `law`; returns [(t, field)] at each record time and t_final.

    Observers are called once per accepted step with (t_n, dt, pre-step field)
    before the field advances, so auxiliary ODEs (shock tracking) stay in
    lockstep with the scheme.

    A fixed step is checked against the CFL bound of the pre-step field; a
    CFL step lies within it by construction (cfl_number <= 1). A CFL march
    that would take more than MAX_STEPS steps stops with a NumericalError;
    SchemeConfig bounds a fixed march.

    A non-finite step size stops the march at once; each returned field is
    checked for non-finite values and tangents, once per stop. numpy's
    floating-point warnings are off during the march, so those checks are the
    only report.
    """
    dx = ic.grid.dx

    stops = list(config.record_times)
    if not stops or stops[-1] < config.t_final:
        stops.append(config.t_final)

    fixed = config.dt is not None
    t = 0.0
    steps = 0
    field = ic
    out = []
    for stop in stops:
        while t < stop:
            if not fixed and steps >= MAX_STEPS:
                raise NumericalError(f"CFL march took {steps} steps, the most it may, and "
                                     f"stands at t = {t!r} of t_final = {config.t_final!r}")
            dt_nom = config.dt if fixed else cfl_dt(field, dx, config.cfl_number, law)
            if not math.isfinite(dt_nom):
                raise NumericalError(f"non-finite time step {dt_nom} at t = {t!r}")
            remaining = stop - t
            hit = dt_nom >= remaining * (1.0 - 1e-12)
            dt_step = remaining if hit else dt_nom
            for obs in observers:
                obs(t, dt_step, field)
            if fixed:
                _check_cfl(law.max_char_speed(field), dt_step, dx)
            field = lxf_step(field, dt_step, law) if law.scalar else rusanov_step_euler(field, dt_step)
            t = stop if hit else t + dt_step
            steps += 1
        _check_finite(field, law, stop)
        out.append((stop, field))
    return out

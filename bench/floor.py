"""Value-only Rusanov step: the plain-numpy floor for the dual Euler step.

`rusanov_values` performs the same update as `solver.rusanov_step_euler`
(zero-gradient ghosts, Rusanov interface flux, forward Euler in conservative
variables, primitives in and out) on plain float arrays, with no tangents and
no positivity checks. `euler_floor` times both steps on the same 3000-cell
Euler desk state and reports how many times slower the dual step is.
"""

from time import perf_counter

import numpy as np

from checks import CheckError

MATCH_RTOL = 1e-12


def rusanov_values(rho, u, p, gamma, dt, dx):
    """One Rusanov/forward-Euler step on primitive value arrays."""

    def ghosts(a):
        return np.concatenate((a[:1], a[:1], a, a[-1:], a[-1:]))

    rho, u, p = ghosts(rho), ghosts(u), ghosts(p)
    m = rho * u
    en = rho * (p / (rho * (gamma - 1.0)) + 0.5 * u * u)
    lam = np.abs(u) + np.sqrt(gamma * p / rho)
    lam_face = np.maximum(lam[:-1], lam[1:])
    new = []
    for q, h in ((rho, m), (m, m * u + p), (en, u * (en + p))):
        f = 0.5 * (h[:-1] + h[1:]) - 0.5 * lam_face * (q[1:] - q[:-1])
        new.append((q[1:-1] - (dt / dx) * (f[1:] - f[:-1]))[1:-1])
    rho_n, m_n, en_n = new
    u_n = m_n / rho_n
    return rho_n, u_n, (gamma - 1.0) * (en_n - 0.5 * m_n * u_n)


def euler_floor(params, reps=300):
    """Median µs per step of the dual and the value-only step, and their ratio.

    The state is the desk case (seeded shock speed and position) marched to
    t = 1, so the shock is already smeared over its numerical layer.
    """
    from shocktangent.cases import CaseConfig, run_case
    from shocktangent.solver import cfl_dt, rusanov_step_euler

    cfg = CaseConfig(problem="euler", t_final=1.0, **params).resolved()
    field = run_case(cfg).final_field
    s = field.state
    dx = field.grid.dx
    dt = cfl_dt(field, dx, cfg.cfl)
    args = (s.rho.value, s.u.value, s.p.value, s.gamma, dt, dx)

    ref = rusanov_step_euler(field, dt).state
    for name, got, want in zip(("rho", "u", "p"), rusanov_values(*args),
                               (ref.rho.value, ref.u.value, ref.p.value)):
        if not np.all(np.abs(got - want) <= MATCH_RTOL * np.abs(want)):
            raise CheckError(f"value-only step differs from rusanov_step_euler in {name}")

    dual_t, floor_t = [], []
    for _ in range(reps):
        t0 = perf_counter()
        rusanov_step_euler(field, dt)
        t1 = perf_counter()
        rusanov_values(*args)
        floor_t.append(perf_counter() - t1)
        dual_t.append(t1 - t0)
    dual_us = 1e6 * float(np.median(dual_t))
    floor_us = 1e6 * float(np.median(floor_t))
    return {"dual_us": dual_us, "floor_us": floor_us, "ratio": dual_us / floor_us, "reps": reps}

"""Experiment harness: canonical cases, perturbation sweeps, CSV reports.

Each problem is one law object in LAWS, its flux model from models.py plus
its canonical case:

* ``burgers``: the decaying-ramp problem on [0, L], L the smallest multiple of
  dx at or above 1.9, with the nine reference grids of BURGERS_GRIDS (dx
  doubling row to row, fixed dt at cfl ~ 0.63, t_final = 2).
* ``euler``: a single shock moving at speed S through the state generated by
  an upstream Mach number, on [0, 30] by default with dx = 0.01, cfl = 0.82,
  marched to t_final = 100. The tangent seed is the sensitivity of the whole
  construction to S.

``epsilon_sweep`` runs a case once in shock mode, then measures for each
perturbation size eps how well each mode's first-order reconstruction of that
one field matches the analytic perturbed solution, normalized by eps.
``grid_convergence`` repeats the eps = eps_max comparison over a sequence of grids.
"""

import csv
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .calculus import BurgersRampOracle, jump_estimate, l1_error, tangential_shift
from .dual import Dual, lift, seed
from .errors import (ConfigError, NonPhysicalStateError, NoShockError, NumericalError,
                     OutOfDomainError)
from .mesh import CellField, Grid1D, cell_average
from .models import (
    BurgersModel,
    EulerCellField,
    EulerModel,
    EulerState,
    MovingShockSetup,
)
from .solver import MAX_STEPS, SchemeConfig, run
from .tracker import ShockTracker, TrackerConfig

#: Reference Burgers grids: row -> (dx, fixed dt). Row 1 is the finest.
BURGERS_GRIDS = {
    1: (5.75e-5, 3.64e-5),
    2: (1.15e-4, 7.27e-5),
    3: (2.3e-4, 1.45e-4),
    4: (4.6e-4, 2.9e-4),
    5: (9.2e-4, 5.88e-4),
    6: (1.84e-3, 1.18e-3),
    7: (3.68e-3, 2.35e-3),
    8: (7.36e-3, 4.7e-3),
    9: (1.472e-2, 9.52e-3),
}

#: Largest grid a case may ask for (127 times Burgers grid 1).
MAX_CELLS = 2**22

#: Most perturbation sizes a sweep takes. Each is a report row (about 180 B
#: held, 100 B of CSV) and an exact profile (about 1 ms on Burgers grid 5, one
#: Xeon core): at 10**5 the rows, not the run, set the cost (18 MB, minutes).
MAX_EPS = 10**5


class BurgersLaw(BurgersModel):
    """Burgers' equation with its decaying-ramp case (BurgersRampOracle).

    Without a dx the grid is a row of `grids`. `family` lists the rows of the
    grid study; its finest row is the default grid. A law without a family
    takes dx from its defaults. `keys` are the CaseConfig fields that only
    this law reads; `shock_key` places the initial shock. A case reads three
    methods: `setup(cfg)` returns the exact solution, whose
    `shock_position(t, eps)` places every shock; `initial_field(exact, grid)`
    seeds the t = 0 field; `reference(exact, grid, t, eps)` is the exact
    eps-perturbed profile per component. `setup` builds no field, so
    `CaseConfig.resolved()` runs it to check that the case can start.
    """

    grids = BURGERS_GRIDS
    family = (9, 8, 7, 6, 5)
    keys = ("grid_no", "shift")
    shock_key = "shift"
    defaults = {"cfl": 0.63, "t_final": 2.0, "c_coeff": 5.0, "eps_min": 1e-4,
                "eps_max": 0.2, "domain_length": 1.9}

    def setup(self, cfg):
        return BurgersRampOracle(cfg.shift)

    def initial_field(self, oracle, grid):
        u0 = oracle.avg_solution(grid, 0.0)
        # The family scales the ramp amplitude, so the seed equals the profile.
        return CellField(grid, Dual(u0.values, u0.values.copy()))

    def reference(self, oracle, grid, t, eps):
        return {"u": oracle.avg_solution(grid, t, eps)}


class EulerLaw(EulerModel):
    """The Euler equations with the single moving-shock case (MovingShockSetup)."""

    grids = {}
    family = ()
    keys = ("mach", "shock_speed", "x_shock0", "gamma")
    shock_key = "x_shock0"
    defaults = {"dx": 0.01, "cfl": 0.82, "t_final": 100.0,
                "c_coeff": 20.0, "eps_min": 1e-5, "eps_max": 0.1, "domain_length": 30.0}

    def setup(self, cfg):  # NoShockError unless shock_speed makes an admissible shock
        return MovingShockSetup(cfg.mach, cfg.shock_speed, cfg.x_shock0, cfg.gamma)

    def initial_field(self, setup, grid):
        """The t = 0 profile, seeded with d/dS of the post-shock state."""
        right = setup.right_state(seed(setup.shock_speed, 1.0))
        values = euler_profile(setup, grid, 0.0)
        tangents = _step_averages(grid, setup.x_shock0, (0.0,) * 3,
                                  [getattr(right, c).tangent for c in self.components])
        return EulerCellField(grid, EulerState(
            *(Dual(values[c].values, tangents[c].values) for c in self.components), setup.gamma))

    def reference(self, setup, grid, t, eps):
        return euler_profile(setup, grid, t, eps)


LAWS = {"burgers": BurgersLaw(), "euler": EulerLaw()}


@dataclass(frozen=True)
class CaseConfig:
    """One simulation request; unset fields take per-problem defaults."""

    problem: str = "burgers"
    mode: str = "shock"
    grid_no: int | None = None
    dx: float | None = None
    dt: float | None = None
    cfl: float | None = None
    t_final: float | None = None
    c_coeff: float | None = None
    alpha: float = 1.0
    record_times: tuple = ()
    eps_min: float | None = None
    eps_max: float | None = None
    n_eps: int = 25
    domain_length: float | None = None
    shift: float = 0.05
    mach: float = 5.3452
    shock_speed: float = 0.1
    x_shock0: float = 5.0
    gamma: float = 1.4
    jobs: int = 1

    def resolved(self):
        """Fill per-problem defaults; the one gate for a combination of inputs.

        The result holds only values that take effect: a grid row becomes its
        dx and dt, and a fixed dt leaves cfl unset. Resolving it again returns
        it unchanged.
        """
        law = LAWS.get(self.problem)
        if law is None:
            raise ConfigError(f"unknown problem {self.problem!r}")
        cfg = self
        if cfg.grid_no is not None and cfg.dx is not None:
            raise ConfigError(f"grid_no = {cfg.grid_no!r} and dx = {cfg.dx!r} exclude each other")
        if cfg.dx is None and (law.family or cfg.grid_no is not None):
            no = cfg.grid_no if cfg.grid_no is not None else law.family[-1]
            if no not in law.grids:
                raise ConfigError(f"grid_no must be one of {sorted(law.grids)}")
            table_dx, table_dt = law.grids[no]
            cfg = replace(cfg, grid_no=None, dx=table_dx, dt=table_dt if cfg.dt is None else cfg.dt)
        if cfg.dt is not None and cfg.cfl is not None:
            raise ConfigError(
                f"cfl = {cfg.cfl!r} has no effect with the fixed step dt = {cfg.dt!r} "
                "(given, or from the grid row); drop cfl, or give dx without dt"
            )
        cfg = replace(cfg, **{k: v for k, v in law.defaults.items()
                              if getattr(cfg, k) is None and (k != "cfl" or cfg.dt is None)})
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("dx", "eps_max"):
            if not getattr(cfg, name) > 0.0:
                raise ConfigError(f"{name} must exceed 0.0, got {getattr(cfg, name)}")
        if not cfg.domain_length / cfg.dx <= MAX_CELLS:
            raise ConfigError(
                f"domain_length / dx = {cfg.domain_length / cfg.dx:.4g} cells exceeds {MAX_CELLS}"
            )
        if not (isinstance(cfg.jobs, int) and cfg.jobs >= 1):
            raise ConfigError(f"jobs must be an integer of at least 1, got {cfg.jobs!r}")
        try:  # the grid, the tracker, the step control and the law check their own inputs
            grid = cfg.build_grid()
            tracker = TrackerConfig(cfg.c_coeff, cfg.alpha, cfg.mode)
            _scheme(cfg)
            x0 = law.setup(cfg).shock_position(0.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except NoShockError as exc:
            raise ConfigError(f"{_gas_keys(cfg)} make no shock: {exc}") from exc
        except NonPhysicalStateError as exc:  # a gas state of the Euler setup
            raise ConfigError(f"{_gas_keys(cfg)} give no gas state: {exc}") from exc
        try:
            delta = tracker.delta(cfg.dx)
        except OverflowError:  # dx**alpha past the largest float
            delta = math.inf
        if not 0.0 < delta < math.inf:
            raise ConfigError(
                f"c_coeff = {cfg.c_coeff!r} and alpha = {cfg.alpha!r} give the probe offset "
                f"c_coeff * dx**alpha = {delta!r} on dx = {cfg.dx!r}; it must be positive "
                "and finite"
            )
        _require_shock_in_grid(cfg, grid, "the initial shock", x0)
        if cfg.mode == "shock":
            # x -/+ delta differs from every x in [0, x_right] once delta is at
            # least the float spacing at x_right, the widest there.
            if delta < math.ulp(grid.x_right):
                raise ConfigError(
                    f"c_coeff = {cfg.c_coeff!r} and alpha = {cfg.alpha!r} give the probe offset "
                    f"c_coeff * dx**alpha = {delta!r} on dx = {cfg.dx!r}, below the float spacing "
                    f"{math.ulp(grid.x_right)!r} at x = {grid.x_right!r}: a probe would be the "
                    "tracked point itself"
                )
            try:  # the first step reads linear probes at x0 -/+ delta
                for x in (x0 - delta, x0 + delta):
                    grid.probe_cell(x)
            except OutOfDomainError as exc:
                key = law.shock_key
                raise ConfigError(
                    f"c_coeff = {cfg.c_coeff!r} and alpha = {cfg.alpha!r} put a probe of the "
                    f"initial shock ({key} = {getattr(cfg, key)!r}) at x = {x!r}, outside "
                    f"the cells [{grid.face(1)!r}, {grid.face(grid.n_cells - 1)!r}) it can read"
                ) from exc
        return cfg

    def eps_list(self):
        """The sweep's n_eps perturbation sizes, geometric from eps_min to eps_max."""
        if not 2 <= self.n_eps <= MAX_EPS:
            raise ConfigError(f"n_eps must be at least 2 and at most {MAX_EPS}, got {self.n_eps}")
        if not 0 < self.eps_min < self.eps_max:
            raise ConfigError("need 0 < eps_min < eps_max")
        return np.geomspace(self.eps_min, self.eps_max, self.n_eps)

    def build_grid(self):
        return Grid1D(self.dx, math.ceil(self.domain_length / self.dx - 1e-12))


@dataclass
class CaseResult:
    config: CaseConfig
    grid: Grid1D
    snapshots: list
    tracker: ShockTracker
    law: BurgersLaw | EulerLaw
    oracle: BurgersRampOracle | MovingShockSetup

    @property
    def final_field(self):
        return self.snapshots[-1][1]

    @property
    def final_time(self):
        return self.snapshots[-1][0]


def _require_shock_in_grid(cfg, grid, shock, x, study=False):
    """ConfigError naming the shock key unless `shock` (a description) lies at x in the grid."""
    if not 0.0 <= x < grid.x_right:
        key = LAWS[cfg.problem].shock_key
        advice = f"; lower {key} or raise domain_length" if study else ""
        raise ConfigError(
            f"{key} = {getattr(cfg, key)!r} puts {shock} at x = {x!r}, "
            f"outside the grid [0.0, {grid.x_right!r}){advice}"
        )


def _gas_keys(cfg):
    """The keys that build the gas states, as an error names them."""
    return f"mach = {cfg.mach!r}, shock_speed = {cfg.shock_speed!r} and gamma = {cfg.gamma!r}"


def _scheme(cfg):
    return SchemeConfig(
        t_final=cfg.t_final,
        dt=cfg.dt,
        cfl_number=cfg.cfl,
        record_times=tuple(cfg.record_times),
    )


def run_case(config):
    """Simulate one case; returns fields, snapshots, and the shock history."""
    cfg = config.resolved()
    law = LAWS[cfg.problem]
    grid = cfg.build_grid()
    tracker_cfg = TrackerConfig(cfg.c_coeff, cfg.alpha, cfg.mode)
    oracle = law.setup(cfg)
    tracker = ShockTracker(oracle.shock_position(0.0), tracker_cfg, law, grid.dx)
    ic = law.initial_field(oracle, grid)
    if cfg.dt is None:
        # At the initial wave speed c_0 a CFL march takes t_final * c_0 / (cfl * dx)
        # steps; `run` stops one whose wave speed grows past MAX_STEPS.
        c_0 = law.max_char_speed(ic)
        if cfg.t_final * c_0 > MAX_STEPS * cfg.cfl * cfg.dx:
            raise ConfigError(
                f"cfl = {cfg.cfl!r} on dx = {cfg.dx!r} at the initial wave speed {c_0!r} takes "
                f"more than {MAX_STEPS} steps to t_final = {cfg.t_final!r}; raise cfl"
            )
    snapshots = run(ic, _scheme(cfg), law, observers=(tracker,))
    return CaseResult(cfg, grid, snapshots, tracker, law, oracle)


def _step_averages(grid, x_step, left, right):
    """Per Euler component, the cell averages of a step from `left` to `right` at x_step."""
    return {
        name: cell_average(lambda x, lv=lv, rv=rv: np.where(x < x_step, lv, rv), grid, (x_step,))
        for name, lv, rv in zip(EulerModel.components, left, right)
    }


def euler_profile(setup, grid, t, eps=0.0):
    """Exact perturbed single-shock profile as per-component cell averages."""
    left = setup.left_state()
    right = setup.right_state(lift(setup.shock_speed + eps))
    return _step_averages(grid, setup.shock_position(t, eps),
                          *([getattr(s, c).value for c in EulerModel.components]
                            for s in (left, right)))


@dataclass
class SweepReport:
    """Error table: its header, one row per perturbation or per grid, metadata."""

    header: tuple
    rows: list
    metadata: dict


def _errors(result, eps_values):
    """(err_no_ad, err_blackbox, err_shock, err_base) at each eps, and the jumps.

    result is one shock-mode run. Its tracker only observes the march, so the
    field's values and tangents are every mode's: err_no_ad reads the values,
    err_blackbox the values plus eps times the tangents, and err_shock moves
    the jump, estimated per component, to the tracked position. Each error is
    the L1 distance to the exact eps-perturbed profile, summed over the law's
    components, then divided by eps; err_base is the unperturbed field against
    the unperturbed profile on the same scale. A quotient that is not finite
    (eps so small that it overflows) raises NumericalError naming eps.
    """
    law, grid, t, delta = result.law, result.grid, result.final_time, result.tracker.delta
    position = result.tracker.state

    comps = law.split(result.final_field)
    jumps = [jump_estimate(f, position, delta) for f in comps]

    def reference(eps):
        return law.reference(result.oracle, grid, t, eps).values()

    base_l1 = sum(l1_error(f, r) for f, r in zip(comps, reference(0.0)))
    rows = []
    for eps in eps_values:
        ref = list(reference(eps))
        l1 = (
            sum(l1_error(f, r) for f, r in zip(comps, ref)),
            sum(l1_error(CellField(grid, f.values + eps * f.tangents), r)
                for f, r in zip(comps, ref)),
            sum(l1_error(tangential_shift(f, position, jump, eps, delta), r)
                for f, jump, r in zip(comps, jumps, ref)),
            base_l1,
        )
        with np.errstate(over="ignore"):  # a tiny eps overflows the quotient; raised below
            row = tuple(e / eps for e in l1)
        if not all(map(math.isfinite, row)):
            raise NumericalError(f"an L1 error divided by eps = {float(eps)!r} is not finite")
        rows.append(row)
    return rows, dict(zip(law.components, jumps))


def _resolved_study(config):
    """config resolved in shock mode, whose run the study's error assembly reads.

    The exact shock at eps_max must fit the grid, and so must the first-order
    one x_s + eps_max * xi that the shifted reconstruction moves its jump to.
    """
    cfg = replace(config, mode="shock").resolved()
    grid, exact, t = cfg.build_grid(), LAWS[cfg.problem].setup(cfg), cfg.t_final
    at = f"at eps_max = {cfg.eps_max!r}, t_final = {t!r}"
    x = exact.shock_position(t, cfg.eps_max)
    _require_shock_in_grid(cfg, grid, f"the exact shock {at}", x, study=True)
    x = exact.shock_position(t) + cfg.eps_max * exact.xi(t)
    _require_shock_in_grid(cfg, grid, f"the first-order shock x_s + eps_max * xi {at}", x,
                           study=True)
    return cfg


def epsilon_sweep(config):
    """Error-vs-eps table from one shock-mode simulation, eps applied after."""
    cfg = _resolved_study(config)
    eps_values = cfg.eps_list()
    result = run_case(cfg)
    errors, jumps = _errors(result, eps_values)
    rows = [(float(eps), *row) for eps, row in zip(eps_values, errors)]
    position, delta = result.tracker.state, result.tracker.delta
    xi = position.tangent
    meta = {"delta": delta, "eps_dagger": delta / xi if xi else math.inf, "xi": xi,
            "shock_position": position.value, "jump": jumps,
            "problem": cfg.problem, "t_final": cfg.t_final, "dx": cfg.dx}
    header = ("epsilon", "err_no_ad", "err_blackbox", "err_shock", "err_base")
    return SweepReport(header, rows, meta)


def _grid_row(case):
    result = run_case(case)
    ((_, _, err_sh, err_base),), _ = _errors(result, [case.eps_max])
    return (result.config.dx, err_sh, err_base)


def grid_convergence(config):
    """err_shock and err_base at eps = eps_max over a sequence of grids.

    The grids are the law's reference family when config sets no dx, else
    16dx, 8dx, 4dx, 2dx, dx. Each grid takes its step from its grid row or
    from cfl, so config may hold no dt and no grid_no. config.jobs worker
    processes share the grids.
    """
    for key in ("dt", "grid_no"):
        if getattr(config, key) is not None:
            raise ConfigError(f"grid_convergence reads no {key}; it runs its own grids and steps")
    cfg = config.resolved()
    family = LAWS[cfg.problem].family
    if config.dx is None and family:
        tasks = [replace(cfg, grid_no=no, dx=None, dt=None) for no in family]
    else:
        tasks = [replace(cfg, dx=cfg.dx * 2.0**k) for k in (4, 3, 2, 1, 0)]
    tasks = [_resolved_study(t) for t in tasks]  # every grid is checked before any runs
    if cfg.jobs > 1:
        # Imported here: the process pool costs about 2 MB that a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(tasks))) as pool:
            rows = list(pool.map(_grid_row, tasks))
    else:
        rows = [_grid_row(t) for t in tasks]
    meta = {"problem": cfg.problem, "eps": cfg.eps_max, "t_final": cfg.t_final}
    return SweepReport(("dx", "err_shock", "err_base"), rows, meta)


def _write_csv(path, header, rows, what):
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) for v in row])
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def emit_csv(report, path):
    """Write a report as UTF-8 CSV: header row, then shortest-roundtrip floats."""
    _write_csv(path, report.header, report.rows, "report")


def emit_snapshot_csv(field, law, path):
    """Write one field snapshot of `law`: x,u,v (scalar) or x,rho,u,p,v_rho,v_u,v_p."""
    comps = law.split(field)
    columns = [field.grid.centers(), *(c.values for c in comps), *(c.tangents for c in comps)]
    # One tolist() a column, not a numpy scalar boxed per value.
    _write_csv(path, ("x", *law.columns), zip(*(c.tolist() for c in columns)), "snapshot")

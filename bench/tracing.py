"""Span tracer that wraps the public functions of every shocktangent module.

Nothing inside the package changes: `Tracer.install` rebinds each listed
function (or method) to a wrapper in every package module that imported it,
and `Tracer.uninstall` puts the originals back. Each call records one span
(name, parent span, start, end) plus the running count of `Dual`
constructions at its start and end. Spans live in typed arrays in memory
and are written out once, by `save`, after the run.

A span's self time is its duration minus the durations of its direct
children. "Inside a run" means a span nested under a `solver.run` span, which
is how the per-step counts are restricted to the time march.
"""

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

MODULES = ("dual", "mesh", "models", "solver", "tracker", "calculus", "cases", "cli")

#: Traced callables per layer; "Class.method" names a method. `errors` does no
#: work and is not traced.
TRACED = {
    "dual": ("edge_pad", "maximum", "where", "sqrt", "lift", "seed", "with_custom_tangent"),
    "mesh": ("cell_average", "eval_constant", "eval_linear", "one_sided_slopes"),
    "models": (
        "euler_flux", "euler_left_state", "moving_shock_right_state",
        "shock_speed_from_states", "EulerState.__post_init__",
        "EulerState.conservative", "EulerState.from_conservative",
        "EulerState.sound_speed", "EulerCellField.max_char_speed",
        "BurgersModel.flux", "BurgersModel.max_char_speed",
    ),
    "solver": ("run", "cfl_dt", "lxf_step", "rusanov_step_euler"),
    "tracker": ("step_shock", "advance_position", "rh_probe_speed", "naive_probe_speed"),
    "calculus": ("l1_error", "jump_estimate", "tangential_shift", "BurgersRampOracle.avg_solution"),
    "cases": ("run_case", "epsilon_sweep", "euler_profile", "emit_csv", "emit_snapshot_csv"),
    "cli": ("main",),
}

# step_shock spans are named by the tracker mode they ran in.
_STEP_SHOCK_MODES = ("none", "blackbox", "shock")


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.duals_before = array("q")
        self.duals_after = array("q")
        self.duals = 0
        self._stack = [-1]
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        tracer = self
        if name == "tracker.step_shock":
            ids = {m: self._id(f"tracker.step_shock.{m}") for m in _STEP_SHOCK_MODES}

            def name_of(args):
                return ids[args[3].mode]
        else:
            nid = self._id(name)

            def name_of(args):
                return nid

        # Bound methods held locally keep the per-call cost down.
        add_name, add_parent = self.name_id.append, self.parent.append
        add_before, add_after = self.duals_before.append, self.duals_after.append
        add_start, add_end = self.start.append, self.end.append
        start, end, after, stack = self.start, self.end, self.duals_after, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            add_name(name_of(args))
            add_parent(stack[-1])
            add_before(tracer.duals)
            add_after(0)
            add_end(0.0)
            stack.append(idx)
            add_start(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                after[idx] = tracer.duals

        return wrapper

    def install(self, package):
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        everywhere = [importlib.import_module(package), *mods.values()]
        for layer, names in TRACED.items():
            mod = mods[layer]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(f"{layer}.{name}", raw.__func__))
                    else:
                        new = self._wrap(f"{layer}.{name}", raw)
                    self._undo.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                orig = getattr(mod, name)
                new = self._wrap(f"{layer}.{name}", orig)
                for m in everywhere:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, new)

        dual_cls = mods["dual"].Dual
        orig_init = dual_cls.__init__
        tracer = self

        def counting_init(obj, value, tangent):
            tracer.duals += 1
            orig_init(obj, value, tangent)

        self._undo.append((dual_cls, "__init__", orig_init))
        dual_cls.__init__ = counting_init

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def arrays(self):
        """The span table as numpy arrays (one entry per span)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "duals_before": np.frombuffer(self.duals_before, dtype=np.int64),
            "duals_after": np.frombuffer(self.duals_after, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(names, name_id, parent, start, end, duals_before, duals_after):
    """Per-name totals over a span table, plus what the march did.

    Returns {"spans": {name: {"calls", "calls_in_run", "total_s", "self_s"}},
    "steps", "run_calls", "duals_in_run", "run_s"}.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    run_id = names.index("solver.run") if "solver.run" in names else -1
    in_run = np.zeros(len(dur), dtype=bool)
    duals_in_run = 0
    run_s = 0.0
    runs = np.flatnonzero(name_id == run_id)
    for r in runs:
        # Descendants of a span are the contiguous block recorded after it
        # that started before it ended.
        stop = np.searchsorted(start, end[r], side="right")
        in_run[r + 1 : stop] = True
        duals_in_run += int(duals_after[r] - duals_before[r])
        run_s += float(dur[r])

    spans = {}
    for i, name in enumerate(names):
        sel = name_id == i
        spans[name] = {
            "calls": int(sel.sum()),
            "calls_in_run": int((sel & in_run).sum()),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_time[sel].sum()),
        }
    steps = sum(
        spans.get(n, {}).get("calls_in_run", 0)
        for n in ("solver.lxf_step", "solver.rusanov_step_euler")
    )
    return {
        "spans": spans,
        "steps": steps,
        "run_calls": len(runs),
        "duals_in_run": duals_in_run,
        "run_s": run_s,
    }

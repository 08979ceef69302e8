"""Benchmark for shocktangent: one workload through the public CLI.

usage: python3 bench/run.py --workload NAME [--seed 1] [--seconds 30] [--trace 0|1]

Run it from the root of a source checkout (it imports the package from
./src). Each run of a workload is one `shocktangent.cli.main` call in a fresh
process (bench/worker.py). Runs form a closed loop with one client: the next
run starts only after the previous one has ended, and runs repeat until
--seconds have passed (at least MIN_RUNS times). The program gets only the
generated inputs: CLI flags plus a --config file whose values come from the
seed. Every run's stdout and output files are checked against closed-form
references (checks.py); a run fails on a non-zero exit, a traceback or a
failed check.

--trace 0 reports the end-to-end metrics. Run time is given in units of a
fixed calibration kernel timed in the same process right around the CLI
call (calib.py), because the speed of a shared machine drifts by tens of
percent over minutes; the raw wall time is printed and recorded as well.
--trace 1 first repeats the
untraced loop, then makes two traced runs with the same seed (tracing.py),
requires their counts to match exactly, and reports the per-layer metrics.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric with its unit,
the failed fraction and the accuracy of the outputs. A run record (machine,
versions, inputs, samples, output hashes) goes to bench/out/.

Time comes from time.perf_counter only, in this process and in the workers.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_RUNS = 3
MIN_SETUPS = 7
TRACED_RUNS = 2
DEADLINE_S = 170.0

EULER_T_FINAL = 20.0
FINE_RECORD_TIMES = (0.5, 1.0, 1.5)

#: Per-step and per-run counts that must repeat exactly between traced runs.
EXACT_COUNTS = (
    "solver.steps", "solver.run_calls", "dual.objects_per_step",
    "dual.edge_pad_per_step", "models.max_char_speed_per_step",
    "models.state_checks_per_step", "mesh.eval_linear_per_step",
    "mesh.cell_average_calls", "cases.csv_bytes",
)


@dataclass(frozen=True)
class Workload:
    argv: tuple
    params: object
    check: object
    kernel: str


def _euler_params(rng):
    return {"shock_speed": rng.uniform(0.08, 0.12), "x_shock0": rng.uniform(4.5, 5.5)}


def _burgers_params(rng):
    # Past shift = 0.05 the sweep's displaced shock at eps = 0.2 can leave
    # the 1.9-long domain.
    return {"shift": rng.uniform(0.02, 0.05)}


def _workloads():
    import checks

    record = [a for t in FINE_RECORD_TIMES for a in ("--record", repr(t))]
    return {
        # 3000 cells x ~6k steps; the dual Rusanov step dominates.
        "euler_desk": Workload(
            ("euler", "--t-final", repr(EULER_T_FINAL)), _euler_params,
            lambda p, out, d: checks.check_euler_desk(p, out, d, EULER_T_FINAL),
            "python",
        ),
        # 3 solver runs (one per tracker mode) x 2066 cells: fixed per-step
        # cost, all tracker modes, error assembly and a CSV report.
        "burgers_sweep": Workload(
            ("sweep", "--grid-no", "5", "--out", "{dir}/s.csv"), _burgers_params,
            checks.check_burgers_sweep, "python",
        ),
        # 16522 cells x 27.5k steps: per-cell cost and 4 snapshot CSVs. Its
        # time goes to array arithmetic, so it is calibrated with numpy.
        "burgers_fine": Workload(
            ("burgers", "--grid-no", "2", *record, "--out", "{dir}/u.csv"), _burgers_params,
            lambda p, out, d: checks.check_burgers_fine(p, out, d, FINE_RECORD_TIMES),
            "numpy",
        ),
    }


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


class Bench:
    """One benchmark invocation: spawns runs, checks them, keeps samples."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.workdir = workdir
        self.params = workload.params(random.Random(seed))
        self.t0 = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = {
            "wall_s": [], "wall_cal": [], "calib_s": [], "setup_s": [],
            "peak_rss_mb": [], "traced_wall_s": [], "traced_wall_cal": [],
        }
        self.cell_steps = None
        self.accuracy = []
        self.hashes = []
        self.traces = []

        workdir.mkdir(parents=True, exist_ok=True)
        cfg = workdir / "case.cfg"
        cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in self.params.items()))
        rel = workdir.relative_to(ROOT).as_posix()
        self.argv = [
            workload.argv[0], "--config", f"{rel}/case.cfg",
            *(a.format(dir=rel) for a in workload.argv[1:]),
        ]

    def remaining(self):
        return DEADLINE_S - (perf_counter() - self.t0)

    def _spawn(self, mode, record):
        record.unlink(missing_ok=True)
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(record), mode,
             self.workload.kernel, *self.argv],
            cwd=ROOT, capture_output=True, text=True, timeout=max(self.remaining(), 1.0),
        )
        rec = json.loads(record.read_text()) if record.exists() else None
        return start, proc, rec

    def setup_sample(self):
        start, proc, rec = self._spawn("setup", self.workdir / "setup.json")
        if proc.returncode != 0 or rec is None or rec["first_run"] is None:
            self.errors.append(f"set-up sample: {proc.stderr.strip()[-400:]}")
            return False
        self.samples["setup_s"].append(rec["first_run"] - start)
        return True

    def run_once(self, traced=False):
        """One checked run; a failed one is counted and leaves no samples."""
        for path in self.workdir.glob("*.csv"):
            path.unlink()
        self.attempted += 1
        mode = "trace" if traced else "run"
        record = self.workdir / f"{mode}-{len(self.traces) if traced else 0}.json"
        start, proc, rec = self._spawn(mode, record)
        try:
            if proc.returncode != 0 or "Traceback" in proc.stderr or rec is None:
                raise RuntimeError(
                    f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"
                )
            acc, files = self.workload.check(self.params, proc.stdout, self.workdir)
            cell_steps = sum(cells * steps for cells, steps in rec["runs"])
            if self.cell_steps not in (None, cell_steps):
                raise RuntimeError(f"cell-steps changed: {self.cell_steps} -> {cell_steps}")
        except Exception as exc:  # every failure mode counts against failed
            self.failed += 1
            self.errors.append(f"{mode} run {self.attempted}: {exc}")
            return
        self.cell_steps = cell_steps
        self.accuracy.append(acc)
        self.hashes.append({
            "stdout": _sha256(proc.stdout.encode()),
            **{p.name: _sha256(p.read_bytes()) for p in files},
        })
        rec["csv_bytes"] = sum(p.stat().st_size for p in self.workdir.glob("*.csv"))
        wall = rec["main_end"] - rec["main_start"]
        cal = 0.5 * (rec["calib_before"] + rec["calib_after"])
        if traced:
            self.samples["traced_wall_s"].append(wall)
            self.samples["traced_wall_cal"].append(wall / cal)
            self.traces.append(rec)
        else:
            self.samples["wall_s"].append(wall)
            self.samples["calib_s"].append(cal)
            self.samples["wall_cal"].append(wall / cal)
            # The kernel ran inside the set-up interval; it is not set-up work.
            self.samples["setup_s"].append(rec["first_run"] - start - rec["calib_before"])
            self.samples["peak_rss_mb"].append(rec["maxrss_kb"] / 1024.0)

    def loop(self, seconds, reserve_runs=0):
        """Untraced closed loop for `seconds`, keeping time for `reserve_runs` more."""
        while self.attempted < MIN_RUNS or perf_counter() - self.t0 < seconds:
            walls = self.samples["wall_s"]
            typical = 1.5 * max(walls) + 2.0 if walls else 0.0
            if walls and self.remaining() < (1 + reserve_runs) * typical:
                break
            self.run_once()


def end_to_end(bench):
    """End-to-end metrics, then the raw wall-clock figures they derive from."""
    wall = statistics.median(bench.samples["wall_s"])
    wall_cal = statistics.median(bench.samples["wall_cal"])
    metrics = {
        "wall_cal": (wall_cal, "cal"),
        "cell_steps_per_cal": (bench.cell_steps / wall_cal, "1/cal"),
        "setup_s": (statistics.median(bench.samples["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(bench.samples["peak_rss_mb"]), "MB"),
    }
    raw = {
        "wall_s": (wall, "s"),
        "cell_steps_per_s": (bench.cell_steps / wall, "1/s"),
        "calib_s": (statistics.median(bench.samples["calib_s"]), "s"),
    }
    return metrics, raw


def per_layer(rec, floor):
    """Per-layer metrics from one traced run's span summary."""
    tr = rec["trace"]
    sp = tr["spans"]
    steps = tr["steps"]
    cell_steps = sum(cells * n for cells, n in rec["runs"])

    def total(*names, key="total_s"):
        return sum(sp.get(n, {}).get(key, 0.0) for n in names)

    def calls(*names, key="calls"):
        return sum(sp.get(n, {}).get(key, 0) for n in names)

    def mean_us(*names, key="total_s"):
        n = calls(*names)
        return 1e6 * total(*names, key=key) / n if n else 0.0

    def per_step(*names):
        return calls(*names, key="calls_in_run") / steps if steps else 0.0

    step = ("solver.lxf_step", "solver.rusanov_step_euler")
    shock_steps = [f"tracker.step_shock.{m}" for m in ("shock", "blackbox", "none")]
    sweep_s = total("cases.epsilon_sweep")
    return {
        "solver.step_us": (mean_us(*step), "us"),
        "solver.step_self_us": (mean_us(*step, key="self_s"), "us"),
        "solver.ns_per_cell_step": (1e9 * total(*step) / cell_steps if cell_steps else 0.0, "ns"),
        "solver.cfl_dt_us": (mean_us("solver.cfl_dt"), "us"),
        "solver.steps": (steps, "count"),
        "solver.run_calls": (tr["run_calls"], "count"),
        "solver.euler_floor_ratio": (floor["ratio"], "ratio"),
        "solver.euler_floor_us": (floor["floor_us"], "us"),
        "models.euler_flux_us": (mean_us("models.euler_flux"), "us"),
        "models.conservative_us": (mean_us("models.EulerState.conservative"), "us"),
        "models.from_conservative_us": (mean_us("models.EulerState.from_conservative"), "us"),
        "models.sound_speed_us": (mean_us("models.EulerState.sound_speed"), "us"),
        "models.state_checks_per_step": (per_step("models.EulerState.__post_init__"), "1/step"),
        "models.max_char_speed_per_step": (per_step(
            "models.EulerCellField.max_char_speed", "models.BurgersModel.max_char_speed"), "1/step"),
        "models.burgers_flux_us": (mean_us("models.BurgersModel.flux"), "us"),
        "dual.edge_pad_us": (mean_us("dual.edge_pad"), "us"),
        "dual.edge_pad_per_step": (per_step("dual.edge_pad"), "1/step"),
        "dual.maximum_us": (mean_us("dual.maximum"), "us"),
        "dual.objects_per_step": (tr["duals_in_run"] / steps if steps else 0.0, "1/step"),
        "tracker.step_us.shock": (mean_us(shock_steps[0]), "us"),
        "tracker.step_us.blackbox": (mean_us(shock_steps[1]), "us"),
        "tracker.step_us.none": (mean_us(shock_steps[2]), "us"),
        "tracker.probe_speed_us": (mean_us("tracker.rh_probe_speed", "tracker.naive_probe_speed"), "us"),
        "tracker.share": (total(*shock_steps) / tr["run_s"] if tr["run_s"] else 0.0, "frac"),
        "mesh.eval_linear_us": (mean_us("mesh.eval_linear"), "us"),
        "mesh.eval_linear_per_step": (per_step("mesh.eval_linear"), "1/step"),
        "mesh.cell_average_us": (mean_us("mesh.cell_average"), "us"),
        "mesh.cell_average_calls": (calls("mesh.cell_average"), "count"),
        "calculus.tangential_shift_us": (mean_us("calculus.tangential_shift"), "us"),
        "calculus.l1_error_us": (mean_us("calculus.l1_error"), "us"),
        "calculus.avg_solution_us": (mean_us("calculus.BurgersRampOracle.avg_solution"), "us"),
        "calculus.jump_estimate_us": (mean_us("calculus.jump_estimate"), "us"),
        # epsilon_sweep minus the solver.run calls it makes.
        "cases.assembly_s": (sweep_s - tr["run_s"] if sweep_s else 0.0, "s"),
        "cases.emit_snapshot_csv_ms": (1e-3 * mean_us("cases.emit_snapshot_csv"), "ms"),
        "cases.emit_csv_ms": (1e-3 * mean_us("cases.emit_csv"), "ms"),
        "cases.csv_bytes": (rec["csv_bytes"], "count"),
        # cli.main minus the case call and CSV writes it wraps.
        "cli.overhead_s": (total("cli.main", key="self_s"), "s"),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "shocktangent").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(bench, args, metrics, samples, extra):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": bench.argv,
        "params": bench.params,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "errors": bench.errors,
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                    for k, (v, u) in metrics.items()},
        "raw_samples": bench.samples,
        "cell_steps_per_run": bench.cell_steps,
        "accuracy": bench.accuracy,
        "output_sha256": bench.hashes[0] if bench.hashes else None,
        "outputs_identical": all(h == bench.hashes[0] for h in bench.hashes),
        **extra,
    }


def traced_metrics(bench, seed, workload):
    """Per-layer metrics: mean of the traced runs, counts required equal."""
    from floor import euler_floor

    params = bench.params if workload == "euler_desk" else _euler_params(random.Random(seed))
    try:
        floor = euler_floor(params)
    except Exception as exc:
        bench.errors.append(f"euler floor: {exc}")
        floor = {"ratio": 0.0, "floor_us": 0.0, "reps": 0}
    runs = [per_layer(rec, floor) for rec in bench.traces]
    for key in EXACT_COUNTS:
        seen = [r[key][0] for r in runs]
        if any(v != seen[0] for v in seen):
            bench.errors.append(f"count {key} differs between traced runs: {seen}")
    metrics = {
        key: (statistics.fmean(r[key][0] for r in runs), unit)
        for key, (_, unit) in runs[0].items()
    }
    # Compared in kernel units, so that machine drift between the untraced
    # and the traced runs does not show as overhead; then back to seconds.
    traced, untraced = bench.samples["traced_wall_cal"], bench.samples["wall_cal"]
    metrics["trace_overhead_s"] = (
        (statistics.fmean(traced) - statistics.median(untraced))
        * statistics.median(bench.samples["calib_s"]),
        "s",
    )
    samples = {key: len(runs) for key in metrics}
    samples["trace_overhead_s"] = {"traced": len(traced), "untraced": len(untraced)}
    samples["solver.euler_floor_ratio"] = samples["solver.euler_floor_us"] = floor["reps"]
    return metrics, samples, {"euler_floor": floor}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shocktangent" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a shocktangent checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    bench = Bench(workloads[args.workload], args.seed, workdir)
    metrics, info, samples, extra = {}, {}, {}, {}
    if args.trace:
        # Traced runs are slower: keep time for twice their number.
        bench.loop(args.seconds, reserve_runs=2 * TRACED_RUNS)
        for _ in range(TRACED_RUNS):
            bench.run_once(traced=True)
        if bench.samples["wall_s"] and len(bench.traces) == TRACED_RUNS:
            metrics, samples, extra = traced_metrics(bench, args.seed, args.workload)
    else:
        bench.loop(args.seconds, reserve_runs=1)
        while len(bench.samples["setup_s"]) < MIN_SETUPS and bench.remaining() > 10.0:
            if not bench.setup_sample():
                break
        if bench.samples["wall_s"]:
            metrics, info = end_to_end(bench)
            samples = {key: len(bench.samples[key]) for key in
                       ("wall_s", "wall_cal", "setup_s", "peak_rss_mb", "calib_s")}
            samples["cell_steps_per_s"] = samples["wall_s"]
            samples["cell_steps_per_cal"] = samples["wall_cal"]

    if not metrics:
        print("no metrics; errors:\n" + "\n".join(bench.errors), file=sys.stderr)
        return 1

    info["failed_frac"] = (bench.failed / bench.attempted, "1")
    samples["failed_frac"] = bench.attempted
    for key, unit in (("xi_rel_err", "1"), ("pos_err_dx", "dx")):
        vals = [a[key] for a in bench.accuracy if key in a]
        if vals:
            info[key] = (statistics.median(vals), unit)
            samples[key] = len(vals)

    record = run_record(bench, args, {**metrics, **info}, samples, extra)
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed} params {bench.params}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:<14.6g} {unit:7s} samples {samples[key]}")
    print("  not in the result line:")
    for key, (value, unit) in info.items():
        print(f"  {key:32s} {value:<14.6g} {unit:7s} samples {samples[key]}")
    for error in bench.errors:
        print(f"  ERROR {error}")
    print(f"  record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

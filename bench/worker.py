"""Run one shocktangent CLI call in a fresh process and record what it took.

usage: python3 bench/worker.py RECORD.json {run,setup,trace} KERNEL CLI_ARG...

The CLI's stdout and stderr pass through untouched, and the process exits
with the CLI's exit code. RECORD.json receives perf_counter stamps (the
parent compares them with its own, as both read the same monotonic clock),
the cells and steps of every solver.run call, and the peak resident memory.

Modes:
  run    plain CLI call; only solver.run is wrapped, to stamp its first call
         and count steps through the public observers hook. The calibration
         KERNEL (see calib.py) runs right before and right after the call,
         here and in trace mode.
  setup  stops at the first call into solver.run (a set-up sample).
  trace  additionally wraps the public functions of every package module
         (see tracing.py), adds the span summary to the record and saves the
         span table next to it.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from calib import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class _SetupDone(Exception):
    """Raised at the first solver.run call of a set-up sample."""


def main(argv):
    record_path, mode, kernel, cli_args = Path(argv[0]), argv[1], argv[2], argv[3:]
    sys.path.insert(0, str(SRC))
    import shocktangent
    from shocktangent import cases, cli

    if not Path(shocktangent.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"shocktangent imported from {shocktangent.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install("shocktangent")

    rec = {"first_run": None, "runs": []}
    inner_run = cases.run

    def stamped_run(ic, config, model=None, observers=()):
        if rec["first_run"] is None:
            rec["first_run"] = perf_counter()
            if mode == "setup":
                raise _SetupDone
        steps = 0

        def count(t, dt, field):
            nonlocal steps
            steps += 1

        out = inner_run(ic, config, model, observers=(*observers, count))
        rec["runs"].append([ic.grid.n_cells, steps])
        return out

    cases.run = stamped_run
    if mode != "setup":
        rec["calib_before"] = calibrate(kernel)
    rec["main_start"] = perf_counter()
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    rec["main_end"] = perf_counter()
    rec["exit_code"] = code
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()
    if mode != "setup":
        rec["calib_after"] = calibrate(kernel)

    if tracer is not None:
        from tracing import summarize

        tracer.uninstall()
        tracer.save(record_path.with_suffix(".npz"))
        rec["trace"] = summarize(tracer.names, **tracer.arrays())
    record_path.write_text(json.dumps(rec))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one workload phase in a fresh interpreter and print one JSON line.

``run.py`` starts this file once per set-up sample (``--phase setup``:
set up, stamp the time, exit) and once per measured run (``--phase
run``: set up, stamp, timed phase, output check).  ``first_op`` is the
``CLOCK_MONOTONIC`` reading just before the first timed operation, so
the parent, which stamped the same clock before starting this process,
gets set-up time from interpreter start; a set-up sample runs in one
:class:`host.Window`, leaves the time spent sampling out of
``first_op`` and reports the window's ``factor``.  ``--trace-out``
records spans during the timed phase and names the file they go to;
untraced runs read the timed phase at reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from host import SpeedMeter, Window, pick_cpu
    from tracer import Tracer
    from workloads import WORKLOADS

    setup, run, check = WORKLOADS[args.workload]
    if args.phase == "setup":
        with SpeedMeter() as meter, Window(meter) as window:
            setup(args.seed, args.seconds)
            first_op = meter.clock()
        print(json.dumps({"first_op": first_op, "factor": window.factor}))
        return 0

    pick_cpu()
    state = setup(args.seed, args.seconds)
    first_op = perf_counter()
    if args.trace_out:
        tracer = Tracer()
        out = run(state, tracer, None)
    else:
        tracer = None
        with SpeedMeter() as meter:
            out = run(state, None, meter)
    out["first_op"] = first_op
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["spans"] = tracer.totals()
        out["snapshot_bytes_mean"] = tracer.bytes_mean()
        out["span_count"] = tracer.write(args.trace_out)
        out["span_cost_s"] = Tracer.span_cost()
    out["attempted"], out["failed"], out["check"] = check(state)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repository benchmark: quick reproduction and multiplexed serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``reproduce-quick``, ``serve-steady``,
``serve-zipf``.  Every workload runs in fresh interpreters started from
here, serially, with one closed-loop caller and single-threaded BLAS.

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``.
Every timing is read at reference speed: divided by how much slower than
nominal a fixed kernel ran, sampled on the same CPU while the timed
work ran (see ``host.py``), so the host's slow phases, which can
outlast a run, do not show as a slower program.  ``setup_s`` is the
median of several fresh interpreters, started before and after the
measured one, each timed from its start to its first timed operation.
The rest come
from the measured run, which repeats its operations and keeps the median
of each one's latencies (see ``workloads.py``): ``run_s`` is the sum of
those latencies, one repeat's work; ``rounds_per_s`` is the work of one
repeat over ``run_s`` (tenant rounds; on reproduce-quick, sweep cells);
``call_p50_ms``/``call_p99_ms`` are percentiles of the latencies
(``submit_many`` ticks; on reproduce-quick, its 10 scenarios, so the
median and the slowest artifact); ``peak_rss_mib`` is the measured
interpreter's ``ru_maxrss``.
``--trace 1`` runs the same inputs with spans recorded around the timed
operations and prints the per-layer split: calls and self time of each
wrapped layer entry point, per-scenario time, ``ServiceStats`` ratios,
the tracing overhead (the measured cost of one span times the span
count, over the untraced rest of the timed wall-clock), the
unattributed share of the timed wall-clock, and a fresh
``python -X importtime -c "import repro.cli"``.  The spans themselves go
to ``perfbench/out/``.

Outputs are checked on every run (pinned artifact digests; solo replays
of sampled tenants; in traced runs, span counts against the counts the
workload keeps itself) and failures count against ``attempted``.  A
host-speed probe (the speed kernel, timed before and after the
workload), the spread of the windows' speed factors and an environment
stamp are printed on the line before the result; they are context for
reading a run, never compared.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

from host import kernel
from tracer import TARGETS
from workloads import BUSY_SPANS, SCENARIOS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Fresh interpreters set up on each side of the measured one;
#: ``setup_s`` is the median of all of them.
SETUP_SAMPLES_PER_SIDE = 2
#: Everything a run starts must end within this many seconds.
DEADLINE_S = 170.0
#: Single-threaded BLAS and a fixed hash seed: steadier on a shared
#: 2-CPU host, and the rendered artifacts are byte-identical either way.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """A child process failed; the run prints no result."""


class Runner:
    """Starts workload interpreters against one deadline."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **CHILD_ENV)

    def _timeout(self) -> float:
        left = DEADLINE_S - (perf_counter() - self.started)
        if left <= 1.0:
            raise BenchError("out of time before starting the next interpreter")
        return left

    def call(self, argv: list) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(
                argv,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{' '.join(argv[1:])} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        return proc

    def worker(self, phase: str, trace_out: str | None = None) -> dict:
        """One fresh interpreter; adds ``setup_s`` measured from its start."""
        argv = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--seconds", str(self.seconds),
            "--phase", phase,
        ]
        if trace_out:
            argv += ["--trace-out", trace_out]
        spawned = perf_counter()
        doc = json.loads(self.call(argv).stdout.strip().splitlines()[-1])
        doc["setup_s"] = doc["first_op"] - spawned
        return doc

    def setup_sample(self) -> float:
        """Set-up seconds of one fresh interpreter, at reference speed."""
        doc = self.worker("setup")
        return doc["setup_s"] / doc["factor"]

    def import_times(self) -> dict:
        """Cumulative import time of ``repro.cli`` and ``scipy.optimize``."""
        proc = self.call([sys.executable, "-X", "importtime", "-c", "import repro.cli"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if match:
                cumulative.setdefault(match.group(2), int(match.group(1)) / 1e6)
        return {
            "import.repro_s": cumulative["repro.cli"],
            "import.scipy_s": cumulative.get("scipy.optimize", 0.0),
        }


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def end_to_end(setups: list, run: dict) -> tuple:
    """End-to-end metric values, plus each one's sample count."""
    values = {name: run[name] for name in (
        "run_s", "rounds_per_s", "call_p50_ms", "call_p99_ms", "peak_rss_mib",
    )}
    values["setup_s"] = statistics.median(setups)
    samples = {name: run["calls"] for name in values}
    samples.update(setup_s=len(setups), peak_rss_mib=1, repeats=run["repeats"])
    return values, samples


def per_layer(traced: dict, imports: dict) -> dict:
    """Per-layer metric values from a traced run."""
    spans = traced["spans"]
    values = dict(imports)
    for name, _, _ in TARGETS:
        span = spans.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = span["calls"]
        values[f"{name}.self_s"] = span["self_s"]
    scenario_spans = [spans.get(f"scenarios.{name}") for name in SCENARIOS]
    for name, span in zip(SCENARIOS, scenario_spans):
        values[f"scenarios.{name}.s"] = span["total_s"] if span else 0.0
    values["scenarios.run_scenario.calls"] = sum(s["calls"] for s in scenario_spans if s)
    values["scenarios.run_scenario.self_s"] = sum(
        s["self_s"] for s in scenario_spans if s
    )
    values["core.GameSession.snapshot.bytes_mean"] = traced["snapshot_bytes_mean"]
    values["runtime.cells_played"] = traced["cells_played"]
    stats = traced["service"]
    builds, hits = stats.get("lane_builds", 0), stats.get("lane_cache_hits", 0)
    lanes, solo = stats.get("lockstep_lanes", 0), stats.get("solo_rounds", 0)
    values["serving.lane_builds"] = builds
    values["serving.lane_cache_hit_ratio"] = hits / (hits + builds) if hits else 0.0
    values["serving.lockstep_lane_share"] = lanes / (lanes + solo) if lanes else 0.0
    values["serving.evictions"] = stats.get("evictions", 0)
    values["serving.restores"] = stats.get("restores", 0)
    self_total = sum(span["self_s"] for span in spans.values())
    overhead_s = traced["span_cost_s"] * traced["span_count"]
    values["trace.overhead_frac"] = overhead_s / (traced["timed_s"] - overhead_s)
    values["trace.unattributed_frac"] = (traced["timed_s"] - self_total) / traced["timed_s"]
    return values


def trace_mismatches(traced: dict, busy: tuple) -> dict:
    """Spans whose call count differs from what the workload counted.

    ``traced["expected_spans"]`` holds exact counts; every ``busy`` span
    must record at least one call.  A target whose callers no longer
    look it up where it is wrapped records too few calls; each such span
    is a failed operation.
    """
    spans = traced["spans"]
    calls = {
        name: spans.get(name, {}).get("calls", 0)
        for name in [*traced["expected_spans"], *busy]
    }
    mismatches = {
        name: {"spans": calls[name], "expected": want}
        for name, want in traced["expected_spans"].items()
        if calls[name] != want
    }
    for name in busy:
        if not calls[name]:
            mismatches[name] = {"spans": 0, "expected": "at least 1"}
    return mismatches


# --------------------------------------------------------------------- #
# context: host-speed probe and environment stamp
# --------------------------------------------------------------------- #
def host_probe() -> float:
    """Seconds for the speed kernel (median of 21 passes)."""
    return statistics.median(kernel() for _ in range(21))


def spread(values: list) -> dict:
    """Minimum, quartiles and maximum of ``values``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values)}


def environment_stamp(args: argparse.Namespace) -> dict:
    import numpy as np

    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    # Identifies the measured code where there is no git metadata.
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        src.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            src.update(handle.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_env": CHILD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics(kind: str) -> dict:
    """``{name: unit}`` for one metric list of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro package next to perfbench/", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    context = {"stamp": environment_stamp(args), "probe_before_s": host_probe()}
    try:
        if args.trace:
            units = declared_metrics("per_layer")
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz")
            measured = runner.worker("run", trace_out=trace_out)
            values = per_layer(measured, runner.import_times())
            busy = BUSY_SPANS[args.workload]
            mismatches = trace_mismatches(measured, busy)
            extra_attempted = len(measured["expected_spans"]) + len(busy)
            extra_failed = len(mismatches)
            context.update(
                trace_file=os.path.relpath(trace_out, ROOT),
                span_count=measured["span_count"],
                span_mismatches=mismatches,
            )
        else:
            units = declared_metrics("end_to_end")
            sides = range(SETUP_SAMPLES_PER_SIDE)
            setups = [runner.setup_sample() for _ in sides]
            measured = runner.worker("run")
            setups += [runner.setup_sample() for _ in sides]
            values, context["samples"] = end_to_end(setups, measured)
            context["setup_samples_s"] = setups
            context["host_factor"] = spread(measured["host_factors"])
            extra_attempted = extra_failed = 0
            if "scenario_s" in measured:
                context["scenario_s"] = measured["scenario_s"]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    context["probe_after_s"] = host_probe()
    context["check"] = measured["check"]

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"run.py: metrics not produced: {missing}", file=sys.stderr)
        return 1
    attempted = measured["attempted"] + extra_attempted
    failed = measured["failed"] + extra_failed
    print(json.dumps(context))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Sweep-runner micro-benchmark: serial against a process pool.

Times the ``metagame`` scenario at quick scale (4 collectors x 4
adversaries x 2 repetitions of 10-round games) through ``run_scenario``
serially and with ``workers=4`` — both play the grid in lockstep groups
— asserts the two payoff matrices are byte-identical, and persists the
wall-clock trajectory to ``benchmarks/results/BENCH_sweep.json`` so
later performance PRs have a baseline to beat.

The parallel speedup is hardware-bound: the assertion only requires
>= 2x when at least 4 CPUs are actually available (on a single-core
container the pool can't beat the serial loop — determinism is still
asserted; lockstep play is the single-core lever, measured separately
by ``bench_batched_engine.py``).  Run standalone with
``python benchmarks/bench_sweep_runner.py``.
"""

import json
import os
import time

from repro.scenarios import get_scenario, run_scenario

from conftest import available_cpus

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_sweep.json")

#: Quick scale is the default tournament grid (32 games of 10 rounds).
METAGAME = get_scenario("metagame")
PARALLEL_WORKERS = 4


def _timed(workers: int) -> tuple:
    t0 = time.perf_counter()
    run = run_scenario(METAGAME, workers=workers)
    return time.perf_counter() - t0, run


def _matrices_identical(a, b) -> bool:
    return bool(
        a.adversary_payoffs.tobytes() == b.adversary_payoffs.tobytes()
        and a.collector_payoffs.tobytes() == b.collector_payoffs.tobytes()
    )


def run_sweep_benchmark() -> dict:
    """Time the grid serially and on the pool; return the payload.

    The two payoff matrices must be byte-identical.
    """
    serial_s, serial = _timed(1)
    parallel_s, parallel = _timed(PARALLEL_WORKERS)
    identical = _matrices_identical(serial.value, parallel.value)
    result, params = serial.value, serial.params
    n_games = (
        len(result.collector_names)
        * len(result.adversary_names)
        * params["repetitions"]
    )
    return {
        "grid": {
            "collectors": list(result.collector_names),
            "adversaries": list(result.adversary_names),
            "repetitions": params["repetitions"],
            "rounds": params["rounds"],
            "n_games": n_games,
        },
        "workers": PARALLEL_WORKERS,
        "available_cpus": available_cpus(),
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "serial_games_per_second": n_games / serial_s,
        "matrices_byte_identical": identical,
    }


def _persist(payload: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def test_sweep_runner_parallelism(report):
    payload = run_sweep_benchmark()
    _persist(payload)
    report(
        "sweep_runner",
        "Sweep runner: default tournament grid "
        f"({payload['grid']['n_games']} games)\n"
        f"serial {payload['serial_seconds']:.3f}s | "
        f"{PARALLEL_WORKERS} workers {payload['parallel_seconds']:.3f}s | "
        f"speedup {payload['speedup']:.2f}x on "
        f"{payload['available_cpus']} CPU(s)",
    )

    # Correctness gate: parallel execution must not change a single bit.
    assert payload["matrices_byte_identical"]
    # Performance gate: only meaningful when the hardware can parallelize.
    if payload["available_cpus"] >= PARALLEL_WORKERS:
        assert payload["speedup"] >= 2.0


if __name__ == "__main__":
    result = run_sweep_benchmark()
    _persist(result)
    print(json.dumps(result, indent=2))
    print(f"written to {BENCH_PATH}")

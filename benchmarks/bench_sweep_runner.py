"""Sweep-runner micro-benchmark: serial against a process pool.

Times the default meta-game tournament grid (4 collectors x 4
adversaries x 2 repetitions of 10-round games) through the
:mod:`repro.runtime` sweep runner serially and on a 4-process pool —
both play the grid in lockstep groups — asserts the two payoff matrices
are byte-identical, and persists the wall-clock trajectory to
``benchmarks/results/BENCH_sweep.json`` so later performance PRs have a
baseline to beat.

The parallel speedup is hardware-bound: the assertion only requires
>= 2x when at least 4 CPUs are actually available (on a single-core
container the pool can't beat the serial loop — determinism is still
asserted; lockstep play is the single-core lever, measured separately
by ``bench_batched_engine.py``).  Run standalone with
``python benchmarks/bench_sweep_runner.py``.
"""

import dataclasses
import json
import os
import time

from repro.experiments import TournamentConfig, run_tournament

from conftest import available_cpus

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_sweep.json")

#: The default tournament grid (32 games of 10 rounds each).
BASE = TournamentConfig()
PARALLEL_WORKERS = 4


def _timed(config) -> tuple:
    t0 = time.perf_counter()
    result = run_tournament(config)
    return time.perf_counter() - t0, result


def _matrices_identical(a, b) -> bool:
    return bool(
        a.adversary_payoffs.tobytes() == b.adversary_payoffs.tobytes()
        and a.collector_payoffs.tobytes() == b.collector_payoffs.tobytes()
    )


def run_sweep_benchmark() -> dict:
    """Time the grid serially and on the pool; return the payload.

    The two payoff matrices must be byte-identical.
    """
    serial_s, serial = _timed(BASE)
    parallel_s, parallel = _timed(
        dataclasses.replace(BASE, workers=PARALLEL_WORKERS)
    )
    identical = _matrices_identical(serial, parallel)
    n_games = (
        len(serial.collector_names)
        * len(serial.adversary_names)
        * BASE.repetitions
    )
    return {
        "grid": {
            "collectors": list(serial.collector_names),
            "adversaries": list(serial.adversary_names),
            "repetitions": BASE.repetitions,
            "rounds": BASE.rounds,
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

"""Shared helpers for the performance benchmarks.

Each bench gates byte-equality and speed of one layer, writes its
payload to ``benchmarks/results/BENCH_*.json`` and a one-screen summary
to ``benchmarks/results/<name>.txt`` (and stdout, visible with ``-s``).
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware, cross-platform)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="session")
def report():
    """Print a rendered table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _report(artifact: str, text: str) -> None:
        print()
        print(text)
        path = os.path.join(RESULTS_DIR, f"{artifact}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")

    return _report


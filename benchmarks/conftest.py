"""Shared helpers for the performance benchmarks.

Each bench gates byte-equality and speed of one layer, writes its
payload to ``benchmarks/results/BENCH_*.json`` and a one-screen summary
to ``benchmarks/results/<name>.txt`` (and stdout, visible with ``-s``).
"""

import os
import platform
import statistics
import subprocess
from typing import Callable, List, Tuple

import numpy as np
import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware, cross-platform)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def host_stamp() -> dict:
    """The code and host a bench's numbers were measured on.

    ``git_dirty`` marks a working tree with uncommitted changes to
    tracked files, whose code ``git_sha`` alone does not name.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha or None,
        "git_dirty": None if status is None else bool(status),
        "usable_cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def median_of_passes(
    measure: Callable[[], dict], passes: int
) -> Tuple[dict, List[dict]]:
    """Call ``measure()`` ``passes`` times and fold them into one point.

    Each pass returns a flat dict of one measurement.  A numeric field
    becomes its median over the passes, and a boolean field (an
    identity check) holds only if it held in every pass.  The passes
    come back too, so a bench can record each pass's ratio next to the
    median it gates on: one short pass is decided by whatever else the
    host runs at that moment.
    """
    runs = [measure() for _ in range(passes)]
    point = {
        key: (
            all(run[key] for run in runs)
            if isinstance(value, bool)
            else statistics.median(run[key] for run in runs)
        )
        for key, value in runs[0].items()
    }
    return point, runs


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


"""Batched replication engine benchmark: solo rep loop vs lockstep stacks.

The third layer of the perf stack (PR 1: across cells, PR 2: within
rounds, PR 3: across reps) collapses the repetition axis of a sweep cell
into one :class:`~repro.core.engine.BatchedCollectionGame`.  This bench
plays the tournament workload — the default meta-game's 16 (collector ×
adversary) pairings of 10-round games — at R ∈ {8, 32, 128} repetitions
per cell, twice: once as a solo per-spec loop (``spec.play()`` for every
cell) and once through :class:`~repro.runtime.runner.SweepRunner`, which
plays the grid in lockstep groups.

Correctness gate (non-negotiable): every record of the batched run must
equal the solo run's record for the same spec — the per-rep
byte-equality contract of the batched engine — at every R, in every
pass.  Performance at R = 32 on a shared 2-CPU container, over 15
single-pass runs: about 600 games/s batched against about 260 solo
(medians), 1.75-2.66x (median 2.31x); R = 8 and R = 128 read medians of
2.44x and 2.82x.  So the R = 32 point plays ``GATE_REPEATS`` = 5 passes
over the same grid and its 2x blocking gate reads the median ratio;
every pass's ratio is recorded next to it.  Over four runs on one host,
three of them alternating with its parent commit, the gated median read
2.30-2.37x (passes 2.20-2.46x, about 1,080-1,120 games/s batched against
455-480 solo), and the parent's 2.42-2.52x: the solo loop's trim cutoff
became plain float arithmetic, and the lockstep rounds did not change.

Each batched pass also records the minor page faults it takes
(``resource.getrusage`` on this process, ``ru_minflt``): a lockstep
round that allocates its ``(L, n, d)`` stacks afresh makes the kernel
zero-fill new pages every round.  The gated point's median must stay
at or below ``MAX_BATCHED_FAULTS``.  Before each cohort reused its
round buffers (the joined benign-and-poison stack in
``BatchedGameSession``, the radial differences in ``TrimLanes``), the
R = 32 pass took 141,438-141,448 faults, about 27.6 per lane-round
(8 groups of 64 lanes x 10 rounds); with them, 31.8-33.2k: each
cohort's first round (its fresh buffers and the quality evaluator's
norm temporaries) and the per-round gather of the benign stack.  Since
the quality program also squares into a buffer it owns, the pass reads
38.2k: each of these ten-round cohorts first-touches one more ``(L, n,
d)`` buffer, where fresh per-round squares read 33.0k in a scratch
variant (a long-lived service cohort saves the faults instead).  Two
pytest runs with the reused buffers read a gated median of 2.65x and
2.93x (about 970-1,130 games/s batched), where the parent commit read
2.30x in a run beside them.
Results are persisted to ``benchmarks/results/BENCH_batched.json``,
stamped with the commit and host they measured, so the perf trajectory
stays inspectable per commit.

Run standalone with ``python benchmarks/bench_batched_engine.py``.
"""

import json
import os
import resource
import time
from functools import partial

from repro.experiments.tournament import (
    TournamentConfig,
    _default_adversaries,
    _default_collectors,
)
from repro.runtime import SweepGrid, SweepRunner, cross_pairs, summarize_game

from conftest import host_stamp, median_of_passes

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_batched.json")

#: Repetition counts to sweep; the gate applies at GATED_REPS.
REP_COUNTS = (8, 32, 128)
GATED_REPS = 32
#: CI regression gate on the median of GATE_REPEATS passes at
#: GATED_REPS: single passes at R=32 on a shared 2-CPU container read
#: 1.75-2.66x over 15 runs, so one pass is decided by host noise.
MIN_SPEEDUP = 2.0
GATE_REPEATS = 5
#: Ceiling on the gated point's median minor page faults per batched
#: pass: about 2.2x the 31.8k a round on reused buffers takes here, and
#: half the 141.4k the per-round allocations took.
MAX_BATCHED_FAULTS = 70_000

BASE = TournamentConfig()


def _grid(repetitions: int) -> SweepGrid:
    """The tournament grid at a given repetition count."""
    collectors = _default_collectors(BASE.t_th)
    adversaries = _default_adversaries(BASE.t_th)
    return SweepGrid(
        pairs=cross_pairs(collectors, adversaries),
        datasets=(BASE.dataset,),
        attack_ratios=(BASE.attack_ratio,),
        repetitions=repetitions,
        rounds=BASE.rounds,
        batch_size=BASE.batch_size,
        anchor="reference",
        store_retained=False,
        seed=BASE.seed,
    )


def _solo_loop(grid: SweepGrid) -> list:
    """Every cell played alone, in grid order."""
    return [summarize_game(spec, spec.play()) for spec in grid.expand()]


def _minor_faults() -> int:
    """Minor page faults this process has taken so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _time_run(play, grid: SweepGrid):
    """``(seconds, minor faults, records)`` of one pass."""
    faults = _minor_faults()
    t0 = time.perf_counter()
    records = play(grid)
    return time.perf_counter() - t0, _minor_faults() - faults, records


def _measure(grid: SweepGrid) -> dict:
    """One solo and one batched pass over the same grid."""
    solo_s, _, solo_records = _time_run(_solo_loop, grid)
    batched_s, batched_faults, batched_records = _time_run(
        SweepRunner().run_grid, grid
    )
    return {
        "solo_seconds": solo_s,
        "batched_seconds": batched_s,
        "speedup": solo_s / batched_s,
        "batched_minor_faults": batched_faults,
        "records_identical": bool(solo_records == batched_records),
    }


def run_batched_benchmark() -> dict:
    """Time solo vs batched at every R; assert record equality; report.

    The gated point plays GATE_REPEATS passes: its seconds and ratio are
    the medians over them, and ``repeat_speedups`` keeps every pass's
    ratio.
    """
    points = []
    for repetitions in REP_COUNTS:
        grid = _grid(repetitions)
        point, runs = median_of_passes(
            partial(_measure, grid),
            GATE_REPEATS if repetitions == GATED_REPS else 1,
        )
        n_games = grid.n_cells
        points.append(
            {
                "repetitions": repetitions,
                "n_games": n_games,
                "rounds": BASE.rounds,
                **point,
                "solo_games_per_second": n_games / point["solo_seconds"],
                "batched_games_per_second": n_games / point["batched_seconds"],
                "repeat_speedups": [run["speedup"] for run in runs],
                "repeat_batched_minor_faults": [
                    run["batched_minor_faults"] for run in runs
                ],
            }
        )
    return {
        "host": host_stamp(),
        "workload": {
            "pairs": 16,
            "rounds": BASE.rounds,
            "batch_size": BASE.batch_size,
            "dataset": BASE.dataset,
            "attack_ratio": BASE.attack_ratio,
        },
        "gate": {
            "repetitions": GATED_REPS,
            "min_speedup": MIN_SPEEDUP,
            "max_batched_minor_faults": MAX_BATCHED_FAULTS,
            "repeats": GATE_REPEATS,
            "statistic": "median",
        },
        "points": points,
    }


def _persist(payload: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def test_batched_engine(report):
    payload = run_batched_benchmark()
    _persist(payload)
    lines = ["Batched replication engine (solo rep loop vs lockstep stacks)"]
    for point in payload["points"]:
        lines.append(
            f"R={point['repetitions']:>3}: "
            f"{point['solo_games_per_second']:.0f} -> "
            f"{point['batched_games_per_second']:.0f} games/s "
            f"({point['speedup']:.2f}x), records identical: "
            f"{point['records_identical']}; batched pass "
            f"{point['batched_minor_faults']:.0f} minor faults"
        )
        if len(point["repeat_speedups"]) > 1:
            lines.append(
                f"       {len(point['repeat_speedups'])} passes: "
                + ", ".join(f"{ratio:.2f}x" for ratio in point["repeat_speedups"])
            )
    report("batched_engine", "\n".join(lines))

    # Correctness gates: the batched engine must not change a single bit.
    for point in payload["points"]:
        assert point["records_identical"], (
            f"lockstep records diverged at R={point['repetitions']}"
        )
    # Performance gate at the headline repetition count.
    gated = next(
        p for p in payload["points"] if p["repetitions"] == GATED_REPS
    )
    assert gated["speedup"] >= MIN_SPEEDUP, (
        f"median batched speedup {gated['speedup']:.2f}x below the "
        f"{MIN_SPEEDUP}x gate at R={GATED_REPS} "
        f"(passes: {gated['repeat_speedups']})"
    )
    # Fault gate: steady-state lockstep rounds reuse their stacks.
    assert gated["batched_minor_faults"] <= MAX_BATCHED_FAULTS, (
        f"median batched pass took {gated['batched_minor_faults']:.0f} minor "
        f"page faults, above the {MAX_BATCHED_FAULTS} gate at R={GATED_REPS} "
        f"(passes: {gated['repeat_batched_minor_faults']})"
    )


if __name__ == "__main__":
    from profiling import parse_bench_args, run_maybe_profiled

    cli = parse_bench_args(__doc__.splitlines()[0])
    result = run_maybe_profiled(cli, "batched_engine", run_batched_benchmark)
    _persist(result)
    print(json.dumps(result, indent=2))
    print(f"written to {BENCH_PATH}")

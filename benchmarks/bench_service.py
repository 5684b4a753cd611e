"""DefenseService benchmark: multiplexed live sessions vs the solo loop.

The serving layer's claim is that many concurrent tenants should not
each pay the per-round Python loop: the
:class:`~repro.serving.DefenseService` steps a whole cohort through one
vectorized lockstep round.  Since PR 8 the cohort key is the *fusion
family* (strategy-family lanes with ``(L,)`` parameter columns), so
tenants with different strategy pairs and attack ratios fuse too —
the heterogeneous workload below is the tentpole's headline number.
Each workload opens R tenants and plays every tenant to its 60-round
horizon twice — once as R independent
:class:`~repro.core.session.GameSession` loops, once through
``DefenseService.submit_many`` — and reports session-rounds/sec for
both, including tenant onboarding in both timings.

Workloads:

* ``taxi`` (homogeneous, gated) — R same-configuration tenants on the
  paper's 1-D live-stream shape.  Rounds are Python-overhead-bound,
  which is exactly what multiplexing removes: at R = 32 about 14,700
  solo against 67,600 multiplexed session-rounds/s, 4.47-4.65x end to
  end and 5.48-5.83x steady-state (six runs of the gated figure on a
  shared 2-CPU container), gated at 2x and 4x for noisy CI runners.
* ``hetero-taxi`` (heterogeneous, gated) — the same shape but tenants
  cycle through three strategy schemes x three attack ratios: nine
  distinct configurations that the pre-fusion service served solo.
  Gated at 2x end to end and 2.5x steady-state; the gated figure read
  2.59-2.70x and 2.81-2.99x over six runs, while its single passes
  read 2.11-2.84x and 2.27-3.08x (the pre-fusion service scores
  exactly 1x here by construction).  The solo loop's trim cutoff is
  plain float arithmetic, so the solo side runs about 14 % faster than
  when these read 2.99-3.09x and 3.28-3.42x; the lockstep side did
  not change.
* ``control`` (reported, ungated) — 60-dimensional batches.  Here the
  round is numpy-compute-bound (the norms dominate), so lockstep saves
  only the loop overhead (~1.25x at R = 32).  The point is recorded so the
  trade-off stays visible instead of silently truncated.

Each gated point (R = 32 on ``taxi`` and ``hetero-taxi``) plays the
same tenants ``GATE_REPEATS`` = 5 times and gates on the median
ratios: one timed pass lasts about 0.1 s, so a single pass is decided
by whatever else the host runs at that moment.  Every pass's ratios
are recorded next to the medians.

Correctness gate (non-negotiable, every workload): every multiplexed
tenant's final board must equal its solo session's board, record for
record — the byte-identity contract of the lockstep path.  Results are
persisted to ``benchmarks/results/BENCH_service.json``, stamped with
the commit they measured (and whether its tree had uncommitted
changes), the usable CPU count and the Python and numpy versions.

Run standalone with ``python benchmarks/bench_service.py``.
"""

import json
import os
import resource
import time
from functools import partial

from repro import ComponentSpec, DefenseService, GameSpec
from repro.core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    JustBelowAdversary,
    MirrorCollector,
    TitForTatCollector,
)

from conftest import host_stamp, median_of_passes

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_service.json")

#: Concurrent tenant counts; the gates apply at GATED_SESSIONS on the
#: GATED_WORKLOADS.
SESSION_COUNTS = (8, 32)
GATED_SESSIONS = 32
GATED_WORKLOADS = ("taxi", "hetero-taxi")
#: CI regression gates.  The total-wall-clock gate keeps ample headroom
#: for noisy shared CI runners, like the sibling engine gates; the
#: steady-state gates (per gated workload) pin the PR 9 deferred-
#: writeback win — serving-phase speedups measured well above them on
#: this container (see results/BENCH_service.json).
MIN_SPEEDUP = 2.0
MIN_STEADY_SPEEDUP = {"taxi": 4.0, "hetero-taxi": 2.5}
#: Each gated point times the same tenants GATE_REPEATS times and gates
#: on the median ratios: one timed phase lasts about 0.1 s, so a single
#: pass is decided by whatever else the host runs at that moment.
GATE_REPEATS = 5

#: 60-round horizons: tenants are long-lived, so the serving phase —
#: not the one-time onboarding both paths pay identically — dominates
#: the wall clock, as it does for a resident service.  The
#: ``steady_state_speedup`` column isolates the serving phase exactly.
ROUNDS = 60
BATCH_SIZE = 100

#: The heterogeneous tenant population: three schemes x three ratios.
HETERO_SCHEMES = (
    (
        "tft",
        ComponentSpec(TitForTatCollector, {"t_th": 0.9, "trigger": None}),
        ComponentSpec(FixedAdversary, {"percentile": 0.99}),
    ),
    (
        "elastic0.5",
        ComponentSpec(ElasticCollector, {"t_th": 0.9, "k": 0.5}),
        ComponentSpec(ElasticAdversary, {"t_th": 0.9, "k": 0.5}),
    ),
    (
        "mirror",
        ComponentSpec(MirrorCollector, {"t_th": 0.9}),
        ComponentSpec(JustBelowAdversary, {"initial_threshold": 0.9}),
    ),
)
HETERO_RATIOS = (0.1, 0.2, 0.3)


def _homo_spec(dataset: str, dataset_size, seed: int) -> GameSpec:
    """One same-configuration tenant; tenants differ only in the seed."""
    return GameSpec(
        collector=ComponentSpec(ElasticCollector, {"t_th": 0.9, "k": 0.5}),
        adversary=ComponentSpec(ElasticAdversary, {"t_th": 0.9, "k": 0.5}),
        dataset=dataset,
        dataset_size=dataset_size,
        attack_ratio=0.2,
        rounds=ROUNDS,
        batch_size=BATCH_SIZE,
        store_retained=False,
        seed=seed,
    )


def _hetero_spec(seed: int) -> GameSpec:
    """Tenant ``seed`` of the mixed-scheme, mixed-ratio population."""
    _, collector, adversary = HETERO_SCHEMES[seed % len(HETERO_SCHEMES)]
    ratio = HETERO_RATIOS[(seed // len(HETERO_SCHEMES)) % len(HETERO_RATIOS)]
    return GameSpec(
        collector=collector,
        adversary=adversary,
        dataset="taxi",
        dataset_size=2000,
        attack_ratio=ratio,
        rounds=ROUNDS,
        batch_size=BATCH_SIZE,
        store_retained=False,
        seed=seed,
    )


#: label -> per-tenant spec recipe.
WORKLOADS = (
    ("taxi", lambda seed: _homo_spec("taxi", 2000, seed)),
    ("hetero-taxi", _hetero_spec),
    ("control", lambda seed: _homo_spec("control", None, seed)),
)


def _solo(spec_fn, n_sessions: int):
    """R independent session loops (the per-tenant baseline).

    Returns ``(onboard_seconds, round_seconds, results)``.
    """
    t0 = time.perf_counter()
    sessions = [spec_fn(r).session() for r in range(n_sessions)]
    t1 = time.perf_counter()
    results = []
    for session in sessions:
        while not session.done:
            session.submit()
        results.append(session.close())
    return t1 - t0, time.perf_counter() - t1, results


def _multiplexed(spec_fn, n_sessions: int):
    """The same tenants through one DefenseService lockstep cohort.

    Returns ``(onboard_seconds, round_seconds, results, stats)``; the
    round timing includes the closing flush of the deferred sinks, so
    the columnar writeback pays for itself inside the timed window.
    """
    t0 = time.perf_counter()
    service = DefenseService()
    sids = [service.open(spec_fn(r)) for r in range(n_sessions)]
    t1 = time.perf_counter()
    for _ in range(ROUNDS):
        service.submit_many(sids)
    results = [service.close(sid) for sid in sids]
    return t1 - t0, time.perf_counter() - t1, results, service.stats


def _peak_rss_kib() -> int:
    """Peak RSS of this process so far, in KiB (Linux ``ru_maxrss``).

    The kernel counter is a monotonic high-water mark, so each point
    records the peak *as of* that point — the final gated point is the
    run's true peak.
    """
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _measure(spec_fn, n_sessions: int) -> dict:
    """One solo and one multiplexed pass over the same R tenants."""
    solo_on, solo_rounds, solo_results = _solo(spec_fn, n_sessions)
    mux_on, mux_rounds, mux_results, stats = _multiplexed(spec_fn, n_sessions)
    identical = all(
        solo.to_records() == mux.to_records()
        and solo.termination_round == mux.termination_round
        for solo, mux in zip(solo_results, mux_results, strict=True)
    )
    return {
        "solo_seconds": solo_on + solo_rounds,
        "multiplexed_seconds": mux_on + mux_rounds,
        "solo_onboard_seconds": solo_on,
        "multiplexed_onboard_seconds": mux_on,
        "speedup": (solo_on + solo_rounds) / (mux_on + mux_rounds),
        "steady_state_speedup": solo_rounds / mux_rounds,
        "lane_build_seconds": stats.lane_build_seconds,
        "kernel_seconds": stats.kernel_seconds,
        "absorb_seconds": stats.absorb_seconds,
        "boards_identical": bool(identical),
    }


def run_service_benchmark() -> dict:
    """Time solo vs multiplexed per workload; assert board equality.

    A gated point plays GATE_REPEATS passes: its seconds and ratios are
    the medians over them, and ``repeat_speedups`` /
    ``repeat_steady_state_speedups`` keep every pass's ratios.
    """
    points = []
    for label, spec_fn in WORKLOADS:
        for n_sessions in SESSION_COUNTS:
            gated = label in GATED_WORKLOADS and n_sessions == GATED_SESSIONS
            point, runs = median_of_passes(
                partial(_measure, spec_fn, n_sessions),
                GATE_REPEATS if gated else 1,
            )
            total_rounds = n_sessions * ROUNDS
            points.append(
                {
                    "dataset": label,
                    "sessions": n_sessions,
                    "rounds_per_session": ROUNDS,
                    **point,
                    "solo_rounds_per_second": total_rounds / point["solo_seconds"],
                    "multiplexed_rounds_per_second": (
                        total_rounds / point["multiplexed_seconds"]
                    ),
                    "repeat_speedups": [run["speedup"] for run in runs],
                    "repeat_steady_state_speedups": [
                        run["steady_state_speedup"] for run in runs
                    ],
                    "peak_rss_kib": _peak_rss_kib(),
                }
            )
    return {
        "host": host_stamp(),
        "workload": {
            "homogeneous_scheme": "elastic0.5",
            "heterogeneous_schemes": [s[0] for s in HETERO_SCHEMES],
            "heterogeneous_ratios": list(HETERO_RATIOS),
            "datasets": [w[0] for w in WORKLOADS],
            "rounds": ROUNDS,
            "batch_size": BATCH_SIZE,
        },
        "gate": {
            "datasets": list(GATED_WORKLOADS),
            "sessions": GATED_SESSIONS,
            "min_speedup": MIN_SPEEDUP,
            "min_steady_state_speedup": dict(MIN_STEADY_SPEEDUP),
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


def test_defense_service(report):
    payload = run_service_benchmark()
    _persist(payload)
    lines = ["DefenseService (solo session loops vs multiplexed lockstep)"]
    for point in payload["points"]:
        lines.append(
            f"{point['dataset']:>12} R={point['sessions']:>3}: "
            f"{point['solo_rounds_per_second']:.0f} -> "
            f"{point['multiplexed_rounds_per_second']:.0f} session-rounds/s "
            f"({point['speedup']:.2f}x, steady-state "
            f"{point['steady_state_speedup']:.2f}x), boards identical: "
            f"{point['boards_identical']}"
        )
        lines.append(
            f"{'':>12} phases: build {point['lane_build_seconds']:.3f}s, "
            f"kernel {point['kernel_seconds']:.3f}s, "
            f"absorb {point['absorb_seconds']:.3f}s; "
            f"peak RSS {point['peak_rss_kib'] / 1024:.0f} MiB"
        )
        if len(point["repeat_speedups"]) > 1:
            lines.append(
                f"{'':>12} {len(point['repeat_speedups'])} passes "
                "(end to end/steady-state): "
                + ", ".join(
                    f"{end:.2f}x/{steady:.2f}x"
                    for end, steady in zip(
                        point["repeat_speedups"],
                        point["repeat_steady_state_speedups"],
                        strict=True,
                    )
                )
            )
    report("defense_service", "\n".join(lines))

    # Correctness gate: multiplexing must not change a single bit.
    for point in payload["points"]:
        assert point["boards_identical"], (
            f"multiplexed boards diverged at R={point['sessions']} "
            f"on {point['dataset']}"
        )
    # Performance gates: the homogeneous headline must not regress, and
    # the fused heterogeneous workload must actually multiplex.
    for dataset in GATED_WORKLOADS:
        gated = next(
            p
            for p in payload["points"]
            if p["sessions"] == GATED_SESSIONS and p["dataset"] == dataset
        )
        assert gated["speedup"] >= MIN_SPEEDUP, (
            f"median multiplexed speedup {gated['speedup']:.2f}x below the "
            f"{MIN_SPEEDUP}x gate at R={GATED_SESSIONS} on {dataset} "
            f"(passes: {gated['repeat_speedups']})"
        )
        steady_gate = MIN_STEADY_SPEEDUP[dataset]
        assert gated["steady_state_speedup"] >= steady_gate, (
            f"median steady-state speedup "
            f"{gated['steady_state_speedup']:.2f}x below the {steady_gate}x "
            f"gate at R={GATED_SESSIONS} on {dataset} "
            f"(passes: {gated['repeat_steady_state_speedups']})"
        )


if __name__ == "__main__":
    from profiling import parse_bench_args, run_maybe_profiled

    cli = parse_bench_args(__doc__.splitlines()[0])
    result = run_maybe_profiled(cli, "service", run_service_benchmark)
    _persist(result)
    print(json.dumps(result, indent=2))
    print(f"written to {BENCH_PATH}")

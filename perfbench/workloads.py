"""The three benchmark workloads: set-up, timed phase, output check.

Each workload is a ``(setup, run, check)`` triple.  ``setup(seed,
seconds)`` generates every input from the workload seed (tenant seeds,
the activity schedule) and onboards them; the program under test only
ever receives the generated ``GameSpec``s and ids.  ``run(state,
tracer, meter)`` is the timed phase: one closed-loop caller, serial,
issuing the next call when the previous one returns.  ``check(state)`` runs
after the timing and returns ``(attempted, failed, detail)``: operation
counts plus what a reader needs to see why one failed.

The timed phase runs in windows (:class:`host.Window`, one scenario or
:data:`BLOCK_TICKS` serving ticks each): each runs on whichever allowed
CPU is fastest at its start, and in untraced runs (with a ``meter``) its
latencies are read at reference speed (see ``host.py``), so a slow
phase of the shared host does not show as a slower program.  The
operations are repeated on fresh state, and each one's latency is the
median of its repeats, which drops the odd collection pause or hiccup
that the speed readings miss.

* ``reproduce-quick`` -- every paper artifact at ``--scale quick`` (the
  CLI's default), store-less, in registration order; an operation is
  one scenario.  ``ml``, ``ldp`` and ``datasets`` do most of the work;
  ``serving`` next to none.
* ``serve-steady`` -- 256 open-ended tenants ticked together through one
  ``DefenseService``: a single fused cohort whose lane programs are
  built once and hit the cohort cache on every later tick.  The fused
  ``core`` kernels and per-tenant bookkeeping do the work; ``ml``,
  ``ldp`` and snapshots do none.
* ``serve-zipf`` -- 512 tenants behind ``max_resident=64`` with
  in-memory snapshots; each tick 8 distinct tenants drawn by Zipf rank
  weights submit.  Tenants rarely share a round index, so most rounds go
  solo, lanes rebuild, and every tick evicts and restores: snapshots
  (writes) beside rounds (reads), the counterweight to anything that
  helps ``serve-steady`` by caching or deferring more work.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from host import SpeedMeter, Window
from tracer import Span, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: Registration order of the paper artifacts.
SCENARIOS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "metagame",
)
#: Seconds of ``--seconds`` per quick-scale pass over every scenario
#: (4-6 s on a 2-CPU container).
PASS_SECONDS = 5
#: Layer entry points each workload exists to exercise: a traced run in
#: which one records no call fails that check.
BUSY_SPANS = {
    "reproduce-quick": (
        "ml.kmeans",
        "ml.OneVsRestSVM.fit",
        "ml.SelfOrganizingMap.fit",
        "ldp.ExpectationMaximizationFilter.fit",
        "datasets.generate_taxi",
        "runtime.play_fused_batch",
        "core.CollectionGame.run",
    ),
    "serve-steady": (
        "core.BatchedGameSession.submit",
        "core.InjectorLanes.materialize_many",
        "core.TrimLanes.trim_stack",
        "streams.ArrayStream.next_batch",
        "streams.ColumnarBoard.record_decision",
    ),
    "serve-zipf": (
        "core.GameSession.submit",
        "streams.PoisonInjector.materialize",
    ),
}

#: The hetero-taxi tenant mix of ``benchmarks/bench_service.py``: three
#: schemes x three attack ratios, crossed here with four taxi sizes so
#: stream reshuffles stagger (every 20/24/28/32 rounds at batch 100) and
#: one cohort carries four reference tables.
SCHEMES = (
    ("TitForTatCollector", {"t_th": 0.9, "trigger": None},
     "FixedAdversary", {"percentile": 0.99}),
    ("ElasticCollector", {"t_th": 0.9, "k": 0.5},
     "ElasticAdversary", {"t_th": 0.9, "k": 0.5}),
    ("MirrorCollector", {"t_th": 0.9},
     "JustBelowAdversary", {"initial_threshold": 0.9}),
)
RATIOS = (0.1, 0.2, 0.3)
TAXI_SIZES = (2000, 2400, 2800, 3200)
BATCH_SIZE = 100

STEADY_TENANTS = 256
ZIPF_TENANTS = 512
ZIPF_RESIDENT = 64
ZIPF_ACTIVE = 8
ZIPF_EXPONENT = 1.1

#: Repeats of the serving ticks; each tick's latency is their median.
REPEATS = 3
#: Ticks per second of ``--seconds``, over all repeats.  The timed work
#: is a fixed function of (seed, seconds) -- so counts repeat exactly
#: between runs -- sized to take roughly ``--seconds`` on a 2-CPU
#: container.  serve-zipf's slowest ticks are many and alike (evictions,
#: restores and lane rebuilds, 1.5-2x the median tick), so its p99 gets
#: half as many ticks again to settle.
STEADY_TICKS_PER_SECOND = 150
ZIPF_TICKS_PER_SECOND = 225
#: Ticks per repeat at least: p99 then has ten samples beyond it.
MIN_TICKS = 1000

#: Tenants replayed solo by the output check (the hottest among them).
CHECKED_TENANTS = 5

#: Serving ticks per window (a quarter to half a second).
BLOCK_TICKS = 50


def timings(repeats: List[List[float]], work: int) -> Dict[str, Any]:
    """End-to-end timings from repeats of the same operations.

    ``repeats[r][i]`` is operation ``i``'s latency in repeat ``r``, at
    reference speed; ``work`` is what one repeat completes (tenant
    rounds, sweep cells).
    """
    typical = [statistics.median(times) for times in zip(*repeats)]
    run_s = sum(typical)
    return {
        "run_s": run_s,
        "rounds_per_s": work / run_s,
        "call_p50_ms": 1e3 * statistics.median(typical),
        "call_p99_ms": 1e3 * statistics.quantiles(typical, n=100, method="inclusive")[98],
        "calls": len(typical),
        "repeats": len(repeats),
    }


@contextmanager
def traced(tracer: Optional[Tracer]) -> Iterator[None]:
    """Wrap the layer entry points for the enclosed timed work only."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


# --------------------------------------------------------------------- #
# reproduce-quick
# --------------------------------------------------------------------- #
def setup_reproduce(seed: int, seconds: int) -> Dict[str, Any]:
    from repro.scenarios import get_scenario

    return {
        "scenarios": [get_scenario(name) for name in SCENARIOS],
        "passes": max(2, round(seconds / PASS_SECONDS)),
    }


def run_reproduce(
    state: Dict[str, Any], tracer: Optional[Tracer], meter: Optional[SpeedMeter]
) -> Dict[str, Any]:
    from repro.scenarios import run_scenario

    repeats: List[List[float]] = []
    digests: List[Dict[str, Optional[str]]] = []
    errors: Dict[str, str] = {}
    factors: List[float] = []
    timed_s = 0.0
    cells = 0
    with traced(tracer):
        for p in range(state["passes"]):
            latencies: List[float] = []
            texts: Dict[str, Optional[str]] = {}
            cells = 0
            for index, scenario in enumerate(state["scenarios"]):
                if tracer is not None:
                    tracer.tag = p * len(SCENARIOS) + index
                text = None
                with Window(meter) as block:
                    t0 = block.clock()
                    try:
                        with Span(tracer, f"scenarios.{scenario.name}"):
                            run = run_scenario(scenario, scale="quick")
                    except Exception as exc:  # a failed operation, reported below
                        errors[f"{p}/{scenario.name}"] = f"{type(exc).__name__}: {exc}"
                    else:
                        text = None if run.failures else run.text
                        cells += run.stats.played
                    raw = block.clock() - t0
                latencies.append(raw / block.factor)
                factors.append(block.factor)
                timed_s += raw
                texts[scenario.name] = (
                    None if text is None else hashlib.sha256(text.encode()).hexdigest()
                )
            repeats.append(latencies)
            digests.append(texts)
    state.update(digests=digests, errors=errors)
    # Sweep cells stand in for rounds: one pass plays ``cells`` of them.
    return {
        **timings(repeats, cells),
        "timed_s": timed_s,
        "host_factors": factors,
        "scenario_s": dict(zip(SCENARIOS, (statistics.median(t) for t in zip(*repeats)))),
        "cells_played": cells,
        "expected_spans": {f"scenarios.{name}": len(repeats) for name in SCENARIOS},
        "service": {},
    }


def check_reproduce(state: Dict[str, Any]) -> Tuple[int, int, Dict[str, Any]]:
    """Compare every pass's rendered artifacts with the pinned digests."""
    with open(DIGESTS_PATH) as handle:
        pinned = json.load(handle)
    mismatched = sorted(
        f"{p}/{name}"
        for p, observed in enumerate(state["digests"])
        for name in SCENARIOS
        if observed.get(name) != pinned.get(name)
    )
    detail: Dict[str, Any] = {"mismatched": mismatched, "errors": state["errors"]}
    if mismatched:
        detail["observed_digests"] = state["digests"]
    return len(state["digests"]) * len(SCENARIOS), len(mismatched), detail


# --------------------------------------------------------------------- #
# serve-*
# --------------------------------------------------------------------- #
def tenant_specs(seed: int, n: int) -> list:
    """``n`` hetero-taxi tenants; their seeds derive from the workload seed."""
    import numpy as np

    from repro import ComponentSpec, GameSpec
    from repro.core import strategies

    seeds = np.random.SeedSequence([seed, n]).generate_state(n, dtype=np.uint64)
    specs = []
    for i in range(n):
        collector, c_kwargs, adversary, a_kwargs = SCHEMES[i % len(SCHEMES)]
        specs.append(
            GameSpec(
                collector=ComponentSpec(getattr(strategies, collector), c_kwargs),
                adversary=ComponentSpec(getattr(strategies, adversary), a_kwargs),
                dataset="taxi",
                dataset_size=TAXI_SIZES[(i // 9) % len(TAXI_SIZES)],
                attack_ratio=RATIOS[(i // len(SCHEMES)) % len(RATIOS)],
                batch_size=BATCH_SIZE,
                store_retained=False,
                seed=int(seeds[i]),
            )
        )
    return specs


def ticks(seconds: int, per_second: int) -> int:
    """Timed ticks per repeat."""
    return max(MIN_TICKS, per_second * seconds // REPEATS)


def onboard(state: Dict[str, Any]) -> None:
    """A fresh service with every tenant open (and warmed, if asked)."""
    from repro import DefenseService

    state.pop("service", None)
    gc.collect()
    service = DefenseService(max_resident=state["max_resident"])
    ids = [service.open(spec, horizon=None) for spec in state["specs"]]
    if state["warm_up"]:
        service.submit_many(ids)  # the cohort's one lane build
    state["service"] = service
    state["played"] = dict.fromkeys(ids, int(state["warm_up"]))


def setup_steady(seed: int, seconds: int) -> Dict[str, Any]:
    specs = tenant_specs(seed, STEADY_TENANTS)
    everyone = [f"session-{i}" for i in range(STEADY_TENANTS)]
    state = {
        "seed": seed,
        "specs": specs,
        "max_resident": None,
        "warm_up": True,
        "schedule": [everyone] * ticks(seconds, STEADY_TICKS_PER_SECOND),
    }
    onboard(state)
    return state


def setup_zipf(seed: int, seconds: int) -> Dict[str, Any]:
    import numpy as np

    specs = tenant_specs(seed, ZIPF_TENANTS)
    rng = np.random.default_rng([seed, ZIPF_TENANTS, ZIPF_ACTIVE])
    weights = np.arange(1, ZIPF_TENANTS + 1, dtype=float) ** -ZIPF_EXPONENT
    weights /= weights.sum()
    by_rank = rng.permutation(ZIPF_TENANTS)
    picks = [
        by_rank[rng.choice(ZIPF_TENANTS, ZIPF_ACTIVE, replace=False, p=weights)]
        for _ in range(ticks(seconds, ZIPF_TICKS_PER_SECOND))
    ]
    state = {
        "seed": seed,
        "specs": specs,
        "max_resident": ZIPF_RESIDENT,
        "warm_up": False,
        "schedule": [[f"session-{i}" for i in pick] for pick in picks],
    }
    onboard(state)
    return state


def run_serve(
    state: Dict[str, Any], tracer: Optional[Tracer], meter: Optional[SpeedMeter]
) -> Dict[str, Any]:
    repeats: List[List[float]] = []
    failed_ticks: List[Tuple[int, int]] = []
    errors: List[str] = []
    factors: List[float] = []
    timed_s = 0.0
    timed = {"evictions": 0, "restores": 0}
    schedule = state["schedule"]
    for repeat in range(REPEATS):
        if repeat:
            onboard(state)  # untimed: the next repeat starts fresh
        service, played = state["service"], state["played"]
        before = {name: getattr(service.stats, name) for name in timed}
        latencies: List[float] = []
        rounds = 0
        with traced(tracer):
            for start in range(0, len(schedule), BLOCK_TICKS):
                raw: List[float] = []
                with Window(meter) as block:
                    for tick in range(start, min(start + BLOCK_TICKS, len(schedule))):
                        ids = schedule[tick]
                        if tracer is not None:
                            tracer.tag = tick
                        t0 = block.clock()
                        try:
                            decisions = service.submit_many(ids, on_error="quarantine")
                        except Exception as exc:  # a failed operation, reported below
                            decisions = {}
                            errors.append(f"{repeat}/{tick}: {type(exc).__name__}: {exc}")
                        raw.append(block.clock() - t0)
                        if len(decisions) != len(ids):
                            failed_ticks.append((repeat, tick))
                        for sid in decisions:
                            played[sid] += 1
                        rounds += len(decisions)
                latencies += [t / block.factor for t in raw]
                factors.append(block.factor)
                timed_s += sum(raw)
        for name in timed:
            timed[name] += getattr(service.stats, name) - before[name]
        repeats.append(latencies)
    state.update(failed_ticks=failed_ticks, errors=errors)
    stats = state["service"].stats
    return {
        **timings(repeats, rounds),
        "timed_s": timed_s,
        "host_factors": factors,
        "cells_played": 0,
        # What the traced spans must count: a mismatch is a tracing failure.
        "expected_spans": {
            "serving.DefenseService.submit_many": REPEATS * len(schedule),
            "core.GameSession.snapshot": timed["evictions"],
            "core.GameSession.restore": timed["restores"],
        },
        # Lifetime of the last repeat's service, onboarding included.
        "service": {
            name: getattr(stats, name)
            for name in (
                "lane_builds",
                "lane_cache_hits",
                "lockstep_lanes",
                "solo_rounds",
                "evictions",
                "restores",
            )
        },
    }


def check_serve(state: Dict[str, Any]) -> Tuple[int, int, Dict[str, Any]]:
    """Replay a seed-chosen tenant sample solo and compare boards.

    The sample, drawn from the last repeat's tenants, always holds the
    hottest one.  Each replay plays the same number of rounds through
    ``GameSpec.session(horizon=None)`` and must match the served
    tenant's ``to_records()`` and termination round.  Ticks that raised
    or quarantined, in any repeat, count as failed too.
    """
    import numpy as np

    service, played = state["service"], state["played"]
    specs = dict(zip(played, state["specs"]))
    active = sorted(sid for sid, n in played.items() if n > 0)
    hottest = max(active, key=lambda sid: (played[sid], sid))
    rng = np.random.default_rng([state["seed"], len(active)])
    others = [sid for sid in active if sid != hottest]
    sample = [hottest] + [
        others[i]
        for i in sorted(rng.choice(len(others), CHECKED_TENANTS - 1, replace=False))
    ]
    mismatched = []
    for sid in sample:
        try:
            served = service.close(sid)
            solo = specs[sid].session(horizon=None)
            for _ in range(played[sid]):
                solo.submit()
            replay = solo.close()
            same = (
                served.to_records() == replay.to_records()
                and served.termination_round == replay.termination_round
            )
        except Exception:  # a failed operation, reported below
            same = False
        if not same:
            mismatched.append(sid)
    failed_ticks = state["failed_ticks"]
    attempted = REPEATS * len(state["schedule"]) + len(sample)
    detail = {
        "checked": {sid: played[sid] for sid in sample},
        "mismatched": mismatched,
        "failed_ticks": failed_ticks[:20],
        "errors": state["errors"][:5],
        "quarantined": service.quarantined_ids[:20],
    }
    return attempted, len(failed_ticks) + len(mismatched), detail


WORKLOADS = {
    "reproduce-quick": (setup_reproduce, run_reproduce, check_reproduce),
    "serve-steady": (setup_steady, run_serve, check_serve),
    "serve-zipf": (setup_zipf, run_serve, check_serve),
}

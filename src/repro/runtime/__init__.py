"""Parallel sweep runtime: declarative game specs and grid execution.

The paper's experiments (Figs. 4–9, Tables I–IV) are all sweeps over
repeated collection games.  This subsystem factors the shared mechanics
out of the individual experiment runners:

* :mod:`repro.runtime.spec` — :class:`ComponentSpec` (picklable factory
  recipes), :class:`GameSpec` (one fully-described game cell with
  deterministic ``SeedSequence`` seed derivation) and :class:`TaskSpec`
  (the non-game compute cell riding the same machinery);
* :mod:`repro.runtime.runner` — :class:`SweepGrid` (cross-product
  expansion with collision-free per-cell seeds) and :class:`SweepRunner`
  (serial or process-parallel execution with in-worker reduction);
* :mod:`repro.runtime.store` — :class:`ResultStore`, the
  content-addressed record cache that makes sweeps cacheable and
  resumable (``SweepRunner(store=...)`` skips stored cells and
  checkpoints fresh records as they complete);
* :mod:`repro.runtime.faults` — :class:`FaultPlan` /
  :class:`FaultInjector`, the seeded chaos harness the supervised
  runner's retry/timeout/quarantine machinery is tested with.

Quickstart::

    from repro.runtime import (
        ComponentSpec, StrategyPair, SweepGrid, SweepRunner,
    )
    from repro.core.strategies import ElasticCollector, FixedAdversary

    grid = SweepGrid(
        pairs=(
            StrategyPair(
                "elastic-vs-extreme",
                ComponentSpec(ElasticCollector, {"t_th": 0.9, "k": 0.5}),
                ComponentSpec(FixedAdversary, {"percentile": 0.99}),
            ),
        ),
        attack_ratios=(0.1, 0.2, 0.4),
        repetitions=5,
        seed=0,
    )
    records = SweepRunner(workers=4).run_grid(grid)
"""

from .faults import (
    CellFault,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    TornWriteStore,
    WorkerKilled,
)
from .runner import (
    CellTimeoutError,
    FailureRecord,
    GameRecord,
    StrategyPair,
    SweepGrid,
    SweepRunner,
    SweepStats,
    cross_pairs,
    summarize_game,
)
from .spec import (
    ADVERSARY_CHANNEL,
    COLLECTOR_CHANNEL,
    INJECTOR_CHANNEL,
    JUDGE_CHANNEL,
    QUALITY_CHANNEL,
    SOURCE_CHANNEL,
    USER_CHANNEL,
    ComponentSpec,
    GameSpec,
    TaskSpec,
    load_reference,
    play_rep_batch,
    rep_group_key,
)
from .store import ResultStore, spec_fingerprint, spec_hash

__all__ = [
    "ComponentSpec",
    "GameSpec",
    "TaskSpec",
    "GameRecord",
    "FailureRecord",
    "CellFault",
    "CellTimeoutError",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "TornWriteStore",
    "WorkerKilled",
    "StrategyPair",
    "SweepGrid",
    "SweepRunner",
    "SweepStats",
    "ResultStore",
    "spec_fingerprint",
    "spec_hash",
    "cross_pairs",
    "summarize_game",
    "load_reference",
    "play_rep_batch",
    "rep_group_key",
    "SOURCE_CHANNEL",
    "COLLECTOR_CHANNEL",
    "ADVERSARY_CHANNEL",
    "INJECTOR_CHANNEL",
    "JUDGE_CHANNEL",
    "QUALITY_CHANNEL",
    "USER_CHANNEL",
]

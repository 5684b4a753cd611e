"""Sweep execution: grid expansion and supervised (optionally parallel) runs.

The runner is the shared execution layer the paper's experiments sit on:

1. :class:`SweepGrid` expands a declarative cross-product — datasets ×
   attack ratios × strategy pairs × repetitions — into a flat list of
   :class:`~repro.runtime.spec.GameSpec` cells, deriving one
   collision-free :class:`numpy.random.SeedSequence` per cell from the
   cell's *coordinates* (``spawn_key=(dataset, ratio, pair, rep)``), so
   results are reproducible and independent of expansion or execution
   order.
2. :class:`SweepRunner` plays the cells — serially, or fanned out over a
   ``ProcessPoolExecutor`` — and returns one record per cell *in grid
   order*.  Consecutive game cells of one fusion family (a cell's
   repetitions, neighboring cells, or both) play as one lockstep group
   through :func:`~repro.runtime.spec.play_fused_batch`, byte-identical
   to per-spec solo play; a task cell is a group of one.  Execution is
   *supervised*: every lockstep group is an independently retryable
   work unit, so a worker killed mid-sweep (``BrokenProcessPool``)
   costs only the in-flight units — the pool is respawned and the lost
   groups replayed; transient exceptions retry with exponential backoff
   (``retries=``); hung units are killed and replayed (``timeout=``);
   and under ``on_error="quarantine"`` a permanently failing group
   emits a typed :class:`FailureRecord` in each of its grid slots
   instead of aborting the sweep.  Because every spec is self-contained
   (own seeds, own component recipes) and faults never change *what* a
   cell computes, ``workers=1`` and ``workers=N`` — with or without
   failures and retries along the way — produce byte-identical records.
3. A *reducer* — any picklable ``f(spec, result) -> record`` — turns the
   heavy in-worker :class:`~repro.core.engine.GameResult` (boards carry
   every retained row) into the small record that crosses the process
   boundary.  The default :func:`summarize_game` reducer emits a
   :class:`GameRecord` with the bookkeeping totals every experiment
   reports.

Failure-handling contract
-------------------------
``retries=N`` allows N re-executions of a unit after ordinary cell
exceptions or timeouts; worker crashes (SIGKILL, OOM) always get at
least one replay even at ``retries=0``, because the dying cell may not
be the one at fault — the whole in-flight window dies with the worker
pool and innocent units must not be charged.  ``timeout=`` is enforced
preemptively under ``workers>=2`` (the hung worker is killed); under
``workers=1`` it is checked after the unit returns (a best-effort soft
timeout — serial in-process execution cannot be preempted).  A unit
that exhausts its budget either aborts the sweep (``on_error="raise"``,
the default — the original exception propagates) or is *quarantined*:
its grid slots are filled with :class:`FailureRecord` values, the sweep
completes, and — with a store attached — a later run replays exactly
the quarantined cells, because no record of them was persisted.
"""

from __future__ import annotations

import math
import os
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.engine import GameResult
from ..core.trimming import RadialTrimmer
from .faults import FaultInjector, FaultPlan, WorkerKilled
from .spec import (
    ComponentSpec,
    GameSpec,
    TaskSpec,
    fusion_group_key,
    play_fused_batch,
    rep_group_key,
    rep_keys_equal,
)

__all__ = [
    "CellTimeoutError",
    "FailureRecord",
    "GameRecord",
    "StrategyPair",
    "SweepGrid",
    "SweepRunner",
    "SweepStats",
    "cross_pairs",
    "summarize_game",
]


@dataclass(frozen=True)
class GameRecord:
    """Per-game summary record (the default reducer's output)."""

    tags: Mapping[str, Any]
    collector: str
    adversary: str
    rounds: int
    termination_round: Optional[int]
    n_collected: int
    n_retained: int
    n_poison_injected: int
    n_poison_retained: int
    poison_retained_fraction: float
    trimmed_fraction: float
    mean_trim_percentile: float

    def __getitem__(self, key: str) -> Any:
        """Dict-style access to tags, for aggregation convenience."""
        return self.tags[key]


class CellTimeoutError(RuntimeError):
    """A sweep work unit exceeded the runner's ``timeout``."""


@dataclass(frozen=True)
class FailureRecord:
    """The typed record a quarantined cell emits in its grid slot.

    Carries everything needed to report, triage and retry the cell:
    its grid coordinate (position in the spec list handed to
    :meth:`SweepRunner.run`), the spec's tags, the failure class
    (``"error"``, ``"timeout"`` or ``"worker-crash"``), the final
    exception rendered as text, and how many attempts were made.
    Failure records are never persisted to a result store — a resumed
    run sees the cell as missing and replays it.
    """

    index: int
    tags: Mapping[str, Any]
    kind: str
    error: str
    attempts: int

    def __getitem__(self, key: str) -> Any:
        return self.tags[key]


def summarize_game(spec: GameSpec, result: GameResult) -> GameRecord:
    """The default reducer: compress a game into its bookkeeping totals.

    Reads the board's column arrays, never per-round observation
    objects.
    """
    cols = result.board.columns
    return GameRecord(
        tags=dict(spec.tags),
        collector=result.collector_name,
        adversary=result.adversary_name,
        rounds=result.rounds,
        termination_round=result.termination_round,
        n_collected=int(np.sum(cols.n_collected)),
        n_retained=int(np.sum(cols.n_retained)),
        n_poison_injected=int(np.sum(cols.n_poison_injected)),
        n_poison_retained=int(np.sum(cols.n_poison_retained)),
        poison_retained_fraction=result.poison_retained_fraction(),
        trimmed_fraction=result.trimmed_fraction(),
        mean_trim_percentile=float(np.mean(cols.trim_percentile)),
    )


def _default_record(spec: Union[GameSpec, TaskSpec], result: Any) -> Any:
    """Reducer-less record: summarize games, pass task results through."""
    if isinstance(spec, GameSpec):
        return summarize_game(spec, result)
    return result


def _run_group(
    group: Sequence[Union[GameSpec, TaskSpec]], reduce: Optional[Callable]
) -> List[Any]:
    """Play one lockstep group and reduce per spec (worker-side).

    A group is either game specs of one fusion family (repetitions of
    one cell, neighboring cells, or both), which :func:`play_fused_batch`
    plays byte-identically to per-spec solo play, or a single task cell.
    """
    games = [spec for spec in group if isinstance(spec, GameSpec)]
    results: List[Any] = play_fused_batch(games) if games else [group[0].play()]
    record = _default_record if reduce is None else reduce
    return [record(spec, result) for spec, result in zip(group, results, strict=True)]


def _run_unit_task(
    groups: Sequence[Sequence[Union[GameSpec, TaskSpec]]],
    reduce: Optional[Callable],
    indices: Sequence[int],
    attempt: int,
    injector: Optional[FaultInjector],
    allow_kill: bool,
) -> List[Any]:
    """Execute one supervised work unit (worker-side entry point).

    The returned record list aligns with the unit's flattened cell
    order.  The fault injector — when armed — strikes before any cell
    plays, so an injected failure never leaves a half-executed unit
    behind.
    """
    if injector is not None:
        for index in indices:
            injector.before_cell(index, attempt, allow_kill)
    return [record for group in groups for record in _run_group(group, reduce)]


#: Default lockstep width cap for cross-cell fused groups.  Same-cell
#: rep runs stay unbounded (the historical behavior); fused runs stop
#: absorbing further cells here so wide sweeps still fan out over
#: workers instead of collapsing into one giant serial cohort.
_FUSED_WIDTH = 64


def _group_reps(
    specs: Sequence[Union[GameSpec, TaskSpec]], max_width: Optional[int]
) -> List[List[Union[GameSpec, TaskSpec]]]:
    """Chunk *consecutive* lockstep-compatible specs into play groups.

    Grid expansion keeps a cell's repetitions adjacent, so consecutive
    grouping recovers exactly the rep axis; beyond that, consecutive
    *different* cells sharing a :func:`fusion_group_key` — neighboring
    ratios, strategy pairings or seeds of one sweep family — fuse into
    the same group (capped at ``max_width`` or :data:`_FUSED_WIDTH`).
    Arbitrary spec lists degrade gracefully to singleton groups.
    ``max_width`` caps the lockstep width (``None`` = unbounded for
    same-cell reps).  Non-game cells (``TaskSpec``) have no lockstep
    engine and always form singleton groups.
    """
    groups: List[List[Union[GameSpec, TaskSpec]]] = []
    current_key = None
    current_fusion = None
    for spec in specs:
        key = rep_group_key(spec) if isinstance(spec, GameSpec) else None
        fusion = fusion_group_key(spec) if isinstance(spec, GameSpec) else None
        full = (
            max_width is not None
            and groups
            and len(groups[-1]) >= max_width
        )
        joinable = (
            bool(groups)
            and not full
            and key is not None
            and current_key is not None
        )
        if joinable and rep_keys_equal(key, current_key):
            groups[-1].append(spec)
        elif (
            joinable
            and rep_keys_equal(fusion, current_fusion)
            and len(groups[-1]) < (max_width or _FUSED_WIDTH)
        ):
            # A different cell of the same lockstep family: fuse, and
            # compare the *next* spec against this cell's rep key so a
            # following rep run keeps extending the group.
            groups[-1].append(spec)
            current_key = key
        else:
            groups.append([spec])
            current_key = key
            current_fusion = fusion
    return groups


class _Unit:
    """One dispatchable, independently retryable work item.

    ``offsets`` are the cells' positions in the spec list a
    ``_iter_records`` call received (emission slots); ``indices`` are
    their *grid coordinates* in the full sweep (fault-plan keys and
    :class:`FailureRecord` addresses) — the two differ on resumed runs,
    where only the missing cells are re-executed.
    """

    __slots__ = ("groups", "offsets", "indices", "attempt", "ready_at", "kind")

    def __init__(
        self,
        groups: List[List[Union[GameSpec, TaskSpec]]],
        offsets: List[int],
        indices: List[int],
    ) -> None:
        self.groups = groups
        self.offsets = offsets
        self.indices = indices
        self.attempt = 0
        self.ready_at = 0.0
        self.kind = "error"

    def cells(self) -> List[Union[GameSpec, TaskSpec]]:
        """The unit's specs, flattened, aligned with ``offsets``."""
        return [spec for group in self.groups for spec in group]


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every worker of a process pool (hung-cell enforcement).

    ``ProcessPoolExecutor`` cannot cancel a *running* call, so a cell
    that blew its deadline can only be stopped by killing the process
    under it — and since the executor does not expose which worker runs
    which future, the whole pool goes.  The supervisor then sees
    ``BrokenProcessPool`` semantics and replays the in-flight window.
    """
    processes = getattr(pool, "_processes", None) or {}
    for pid in list(processes):
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            pass


@dataclass(frozen=True)
class StrategyPair:
    """One named (collector, adversary) pairing of a sweep.

    ``tags`` are merged into every cell spawned from the pair — use them
    to carry scheme parameters (e.g. the mixed-strategy ``p``) into
    reducers and aggregation.
    """

    name: str
    collector: ComponentSpec
    adversary: ComponentSpec
    collector_name: Optional[str] = None
    adversary_name: Optional[str] = None
    tags: Mapping[str, Any] = field(default_factory=dict)


def cross_pairs(
    collectors: Mapping[str, ComponentSpec],
    adversaries: Mapping[str, ComponentSpec],
) -> Tuple[StrategyPair, ...]:
    """Full cross-product of named collector and adversary specs."""
    return tuple(
        StrategyPair(
            name=f"{cname}|{aname}",
            collector=cspec,
            adversary=aspec,
            collector_name=cname,
            adversary_name=aname,
        )
        for cname, cspec in collectors.items()
        for aname, aspec in adversaries.items()
    )


@dataclass(frozen=True)
class SweepGrid:
    """Declarative sweep: datasets × attack ratios × pairs × repetitions.

    ``seed`` is the root entropy; each cell receives
    ``SeedSequence(seed, spawn_key=(dataset_i, ratio_i, pair_i, rep))``,
    which is what ``SeedSequence.spawn`` would produce for that
    coordinate — deterministic, collision-free, and stable under
    re-expansion (unlike arithmetic seed mixing, which silently
    correlates cells whenever the linear combinations coincide).

    ``store_retained=False`` plays every cell on a lean board (running
    counts instead of per-round retained arrays) — the right choice
    whenever the reducer only emits summary records, e.g. the default
    :func:`summarize_game`.  Reducers that call ``retained_data()``
    need the default ``True``.
    """

    pairs: Sequence[StrategyPair]
    datasets: Sequence[str] = ("control",)
    attack_ratios: Sequence[float] = (0.2,)
    repetitions: int = 1
    rounds: int = 20
    batch_size: int = 100
    dataset_size: Optional[int] = None
    anchor: str = "reference"
    store_retained: bool = True
    injection_mode: str = "radial"
    injection_jitter: float = 0.01
    trimmer: ComponentSpec = field(
        default_factory=lambda: ComponentSpec(RadialTrimmer)
    )
    quality: Optional[ComponentSpec] = None
    judge: Optional[ComponentSpec] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("grid needs at least one strategy pair")
        if not self.datasets or not self.attack_ratios:
            raise ValueError("grid needs at least one dataset and one ratio")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def n_cells(self) -> int:
        """Number of games the grid expands to."""
        return (
            len(self.datasets)
            * len(self.attack_ratios)
            * len(self.pairs)
            * self.repetitions
        )

    def expand(self) -> List[GameSpec]:
        """Flatten the grid into per-cell :class:`GameSpec` objects."""
        specs: List[GameSpec] = []
        for d_i, dataset in enumerate(self.datasets):
            for r_i, ratio in enumerate(self.attack_ratios):
                for p_i, pair in enumerate(self.pairs):
                    for rep in range(self.repetitions):
                        tags = {
                            "dataset": dataset,
                            "attack_ratio": float(ratio),
                            "pair": pair.name,
                            "collector": pair.collector_name or pair.name,
                            "adversary": pair.adversary_name or pair.name,
                            "rep": rep,
                        }
                        tags.update(pair.tags)
                        specs.append(
                            GameSpec(
                                collector=pair.collector,
                                adversary=pair.adversary,
                                dataset=dataset,
                                dataset_size=self.dataset_size,
                                attack_ratio=float(ratio),
                                injection_mode=self.injection_mode,
                                injection_jitter=self.injection_jitter,
                                trimmer=self.trimmer,
                                quality=self.quality,
                                judge=self.judge,
                                rounds=self.rounds,
                                batch_size=self.batch_size,
                                anchor=self.anchor,
                                store_retained=self.store_retained,
                                seed=np.random.SeedSequence(
                                    self.seed, spawn_key=(d_i, r_i, p_i, rep)
                                ),
                                tags=tags,
                            )
                        )
        return specs


@dataclass(frozen=True)
class SweepStats:
    """Cache and failure accounting of one :meth:`SweepRunner.run`."""

    total: int
    cached: int
    played: int
    #: Wall-clock seconds of the run (``None`` on synthesized stats,
    #: e.g. a ``scenario report`` replay that executed nothing).
    seconds: Optional[float] = None
    #: Cells whose execution permanently failed this run.
    failed: int = 0
    #: Cell re-executions performed (retries and crash replays).
    retried: int = 0
    #: Cells emitted as :class:`FailureRecord` (``on_error="quarantine"``).
    quarantined: int = 0

    def describe(self) -> str:
        """One-line human summary (CLI status output)."""
        timing = "" if self.seconds is None else f" in {self.seconds:.2f}s"
        text = (
            f"{self.total} cells: {self.cached} loaded from store, "
            f"{self.played} played{timing}"
        )
        if self.retried or self.quarantined:
            text += (
                f" ({self.retried} retried, {self.quarantined} quarantined)"
            )
        return text

    def to_json(self) -> dict:
        """The stats as a JSON-ready document (``--stats-json``)."""
        return {
            "total": self.total,
            "cached": self.cached,
            "played": self.played,
            "seconds": self.seconds,
            "failed": self.failed,
            "retried": self.retried,
            "quarantined": self.quarantined,
        }


class SweepRunner:
    """Executes sweep cells under supervision, serially or across processes.

    Game cells always play in lockstep groups: consecutive specs of one
    fusion family — a sweep cell's repetitions and neighboring cells —
    play as one :class:`~repro.core.engine.BatchedCollectionGame` per
    horizon and dataset, byte-identical to per-spec ``spec.play()``.  A
    group is one retry/quarantine/checkpoint unit; a task cell is a
    group of one.

    Parameters
    ----------
    workers:
        ``1`` (default) plays every group in-process; ``N > 1`` fans the
        groups out over a ``ProcessPoolExecutor``, capping a group at
        ``ceil(n / workers)`` cells so every worker gets one.  Results
        are identical either way — specs are self-contained and records
        are emitted by grid slot, never completion order.  Unsupervised
        parallel runs hand a worker ``ceil(groups / (4 * workers))``
        groups per dispatch (amortizing IPC while the tail stays
        balanced); serial runs and runs under supervision (``timeout``,
        ``retries``, quarantine or fault injection) dispatch one group
        at a time, so the failure unit is exactly one group.
    reduce:
        Picklable ``f(spec, result) -> record`` applied *inside* the
        worker, so only the (small) record crosses the process boundary.
        Defaults to :func:`summarize_game` for game cells; task cells
        (:class:`~repro.runtime.spec.TaskSpec`) pass their result
        through unreduced.
    store:
        Optional :class:`~repro.runtime.store.ResultStore`.  When set,
        cells whose key is already stored are *not* played — their
        records load from disk — and every freshly played record is
        persisted as soon as it completes, so an interrupted sweep
        resumes from the stored prefix.  Quarantined cells are *not*
        persisted: a later run replays exactly them.  Records are
        always emitted in grid order (the order of ``specs``), never
        completion order, so fresh, warm-cache and resumed runs produce
        byte-identical outputs for any worker count.
    timeout:
        Per-unit wall-clock budget in seconds.  With ``workers >= 2``
        a unit that blows it is killed preemptively (pool teardown +
        replay); with ``workers=1`` it is checked after the unit
        returns (soft).  ``None`` (default) disables.
    retries:
        Re-executions allowed per unit after an ordinary exception or a
        timeout, with exponential backoff.  Worker crashes always get
        ``max(1, retries)`` replays — see the module docstring.
    backoff:
        Base backoff delay in seconds; attempt ``k`` waits
        ``backoff * 2**(k-1)``, capped at 2s.
    on_error:
        ``"raise"`` (default): a unit that exhausts its budget aborts
        the sweep with the original exception.  ``"quarantine"``: its
        cells emit :class:`FailureRecord` values in their grid slots and
        the sweep completes; counts land on :class:`SweepStats` and the
        records on :attr:`last_failures`.
    faults:
        Optional :class:`~repro.runtime.faults.FaultInjector` (or bare
        :class:`~repro.runtime.faults.FaultPlan`) — the deterministic
        chaos harness.  Injected faults strike cell attempts and record
        writes but never change computed records.
    """

    def __init__(
        self,
        workers: int = 1,
        reduce: Optional[Callable[[GameSpec, GameResult], Any]] = None,
        store: Optional[Any] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
        on_error: str = "raise",
        faults: Union[FaultInjector, FaultPlan, None] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be > 0 seconds (or None)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        if on_error not in ("raise", "quarantine"):
            raise ValueError("on_error must be 'raise' or 'quarantine'")
        self.workers = int(workers)
        self.reduce = reduce
        self.store = store
        self.timeout = None if timeout is None else float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.on_error = on_error
        self.faults = (
            FaultInjector(faults) if isinstance(faults, FaultPlan) else faults
        )
        #: :class:`SweepStats` of the most recent :meth:`run`.
        self.last_stats: Optional[SweepStats] = None
        #: Grid-order cell keys of the most recent store-backed
        #: :meth:`run` (``None`` without a store).  Spec hashing
        #: canonicalizes whole component recipes, so consumers that need
        #: the keys (e.g. scenario manifests) read them here instead of
        #: recomputing the pass.
        self.last_keys: Optional[List[str]] = None
        #: Grid-order :class:`FailureRecord` list of the most recent
        #: :meth:`run` (empty when everything succeeded).
        self.last_failures: List[FailureRecord] = []
        self._counters: Dict[str, int] = {}

    @property
    def _supervised(self) -> bool:
        """Whether failure handling is active (one group per unit)."""
        return (
            self.timeout is not None
            or self.retries > 0
            or self.on_error == "quarantine"
            or (self.faults is not None and self.faults.plan.active)
        )

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #
    def run(self, specs: Sequence[Union[GameSpec, TaskSpec]]) -> List[Any]:
        """Play every spec and return one record per spec, in order.

        With a :class:`~repro.runtime.store.ResultStore` attached,
        already-stored cells are loaded instead of played, fresh records
        persist as soon as they complete, and the returned list is in
        the order of ``specs`` (grid-coordinate order) regardless of
        which cells came from the cache or in what order workers
        finished them.  Under ``on_error="quarantine"`` permanently
        failed cells hold :class:`FailureRecord` values (also collected
        on :attr:`last_failures`) and are never persisted.
        """
        specs = list(specs)
        started = time.perf_counter()
        self._counters = {"failed": 0, "retried": 0, "quarantined": 0}
        failures: List[FailureRecord] = []

        store = self.store
        if store is not None and self.faults is not None:
            store = self.faults.wrap_store(store)

        if store is None:
            records: List[Any] = [None] * len(specs)
            for offset, record in self._iter_records(
                specs, list(range(len(specs)))
            ):
                records[offset] = record
                if isinstance(record, FailureRecord):
                    failures.append(record)
            self.last_keys = None
            cached = 0
            missing_count = len(specs)
        else:
            miss = object()
            keys = [store.key(spec, self.reduce) for spec in specs]
            self.last_keys = keys
            records = [store.load(key, miss) for key in keys]
            missing = [i for i, record in enumerate(records) if record is miss]
            for offset, record in self._iter_records(
                [specs[i] for i in missing], missing
            ):
                i = missing[offset]
                if isinstance(record, FailureRecord):
                    failures.append(record)
                else:
                    store.save(keys[i], record)
                records[i] = record
            cached = len(specs) - len(missing)
            missing_count = len(missing)

        failures.sort(key=lambda failure: failure.index)
        self.last_failures = failures
        self.last_stats = SweepStats(
            total=len(specs),
            cached=cached,
            played=missing_count - self._counters["quarantined"],
            seconds=time.perf_counter() - started,
            failed=self._counters["failed"],
            retried=self._counters["retried"],
            quarantined=self._counters["quarantined"],
        )
        return records

    def run_grid(self, grid: SweepGrid) -> List[Any]:
        """Expand and run a :class:`SweepGrid`."""
        return self.run(grid.expand())

    # ------------------------------------------------------------------ #
    # unit construction
    # ------------------------------------------------------------------ #
    def _build_units(
        self, specs: List[Any], indices: List[int]
    ) -> List[_Unit]:
        """Carve the spec list into dispatchable work units.

        Units hold whole :func:`_group_reps` lockstep groups.  Supervised
        runs (and all serial runs) use one unit per group — the
        failure/retry granularity; unsupervised parallel runs chunk
        several groups per unit to amortize IPC.
        """
        max_width = None
        if self.workers > 1:
            # A group is one work unit: cap it so that every worker
            # gets one, else a fused family plays serially.
            max_width = math.ceil(len(specs) / self.workers)
        groups = _group_reps(specs, max_width)
        chunk = 1
        if not (self._supervised or self.workers == 1):
            chunk = math.ceil(len(groups) / (4 * self.workers))
        units: List[_Unit] = []
        offset = 0
        for start in range(0, len(groups), chunk):
            block = groups[start:start + chunk]
            width = sum(len(group) for group in block)
            offsets = list(range(offset, offset + width))
            units.append(_Unit(block, offsets, [indices[o] for o in offsets]))
            offset += width
        return units

    # ------------------------------------------------------------------ #
    # failure bookkeeping
    # ------------------------------------------------------------------ #
    @staticmethod
    def _classify(exc: BaseException) -> str:
        if isinstance(exc, CellTimeoutError):
            return "timeout"
        if isinstance(exc, (WorkerKilled, BrokenProcessPool)):
            return "worker-crash"
        return "error"

    def _note_failure(self, unit: _Unit, exc: BaseException) -> str:
        """Charge one failed attempt; decide retry / quarantine / raise.

        Worker crashes get at least one replay even at ``retries=0``:
        a pool death takes the whole in-flight window with it, so the
        failing unit cannot be singled out and innocent cells must not
        abort the sweep.
        """
        unit.attempt += 1
        unit.kind = self._classify(exc)
        budget = (
            max(1, self.retries)
            if unit.kind == "worker-crash"
            else self.retries
        )
        if unit.attempt <= budget:
            self._counters["retried"] += len(unit.offsets)
            return "retry"
        self._counters["failed"] += len(unit.offsets)
        if self.on_error == "quarantine":
            self._counters["quarantined"] += len(unit.offsets)
            return "quarantine"
        return "raise"

    def _retry_delay(self, attempt: int) -> float:
        """Exponential backoff before re-executing a failed unit."""
        if self.backoff <= 0:
            return 0.0
        return min(2.0, self.backoff * (2.0 ** max(0, attempt - 1)))

    def _settle(
        self, unit: _Unit, exc: BaseException, backing_off: List[_Unit]
    ) -> Iterator[Tuple[int, FailureRecord]]:
        """Settle one failed pool attempt: retry, quarantine or raise.

        A retry waits out its backoff on ``backing_off``; a quarantined
        unit emits its failure records; otherwise ``exc`` propagates.
        """
        action = self._note_failure(unit, exc)
        if action == "retry":
            unit.ready_at = time.monotonic() + self._retry_delay(unit.attempt)
            backing_off.append(unit)
        elif action == "quarantine":
            yield from self._emit_quarantined(unit, exc)
        else:
            raise exc

    def _emit_quarantined(
        self, unit: _Unit, exc: BaseException
    ) -> Iterator[Tuple[int, FailureRecord]]:
        """Fill a permanently failed unit's grid slots with failure records."""
        error = f"{type(exc).__name__}: {exc}"
        for offset, index, spec in zip(
            unit.offsets, unit.indices, unit.cells()
        , strict=False):
            yield offset, FailureRecord(
                index=index,
                tags=dict(getattr(spec, "tags", {}) or {}),
                kind=unit.kind,
                error=error,
                attempts=unit.attempt,
            )

    # ------------------------------------------------------------------ #
    # execution loops
    # ------------------------------------------------------------------ #
    def _iter_records(
        self, specs: List[Any], indices: List[int]
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(offset, record)`` pairs as cells finish.

        ``offset`` is the cell's position in ``specs`` (the possibly
        partial list handed in); ``indices`` carries each cell's grid
        coordinate in the full sweep.  Yielding as results stream in is
        what lets :meth:`run` checkpoint every record immediately;
        completion order is *not* guaranteed — the caller places records
        by offset.
        """
        if not specs:
            return
        units = self._build_units(specs, indices)
        if self.workers == 1:
            yield from self._iter_serial(units)
        else:
            yield from self._iter_parallel(units)

    def _iter_serial(self, units: List[_Unit]) -> Iterator[Tuple[int, Any]]:
        for unit in units:
            yield from self._play_unit_serial(unit)

    def _play_unit_serial(self, unit: _Unit) -> Iterator[Tuple[int, Any]]:
        """Serial supervision: retry loop around one in-process unit."""
        while True:
            started = time.perf_counter()
            try:
                records = _run_unit_task(
                    unit.groups, self.reduce, unit.indices, unit.attempt,
                    self.faults, allow_kill=False,
                )
                if self.timeout is not None:
                    elapsed = time.perf_counter() - started
                    if elapsed > self.timeout:
                        raise CellTimeoutError(
                            f"cell(s) {unit.indices} took {elapsed:.3f}s "
                            f"(timeout {self.timeout:g}s)"
                        )
            except Exception as exc:
                action = self._note_failure(unit, exc)
                if action == "retry":
                    time.sleep(self._retry_delay(unit.attempt))
                    continue
                if action == "quarantine":
                    yield from self._emit_quarantined(unit, exc)
                    return
                raise
            for offset, record in zip(unit.offsets, records, strict=False):
                yield offset, record
            return

    def _iter_parallel(self, units: List[_Unit]) -> Iterator[Tuple[int, Any]]:
        """Supervised pool execution: sliding window + crash/timeout replay.

        A window of at most ``workers`` units is in flight at a time (so
        dispatch time approximates start time, which is what makes the
        per-unit deadline meaningful).  Completed futures stream records
        out; failed units retry with backoff; a dead pool
        (``BrokenProcessPool`` — worker SIGKILL, OOM) or an enforced
        timeout tears the pool down, respawns it, and replays exactly
        the lost units.
        """
        width = min(self.workers, max(1, len(units)))
        pending: Deque[_Unit] = deque(units)
        backing_off: List[_Unit] = []
        inflight: Dict[Future, Tuple[_Unit, float]] = {}
        pool = ProcessPoolExecutor(max_workers=width)

        def respawn(old: ProcessPoolExecutor) -> ProcessPoolExecutor:
            old.shutdown(wait=False, cancel_futures=True)
            return ProcessPoolExecutor(max_workers=width)

        try:
            while pending or backing_off or inflight:
                now = time.monotonic()
                if backing_off:
                    ready = [u for u in backing_off if u.ready_at <= now]
                    if ready:
                        backing_off = [
                            u for u in backing_off if u.ready_at > now
                        ]
                        pending.extendleft(reversed(ready))
                while pending and len(inflight) < width:
                    unit = pending[0]
                    try:
                        future = pool.submit(
                            _run_unit_task, unit.groups, self.reduce,
                            unit.indices, unit.attempt, self.faults, True,
                        )
                    except BrokenProcessPool:
                        # A worker died since the last wait.  The unit
                        # stays queued; the dead in-flight futures
                        # report the crash below, which respawns.
                        break
                    pending.popleft()
                    inflight[future] = (unit, time.monotonic())
                if not inflight:
                    # Everything left is backing off; sleep to the next
                    # ready time instead of spinning.
                    wake = min(u.ready_at for u in backing_off)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue

                wait_timeout = None
                if self.timeout is not None:
                    deadline = (
                        min(started for _, started in inflight.values())
                        + self.timeout
                    )
                    wait_timeout = max(0.0, deadline - time.monotonic())
                done, _ = wait(
                    list(inflight),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )

                if not done:
                    # Deadline expired and nothing finished: a worker is
                    # hung.  Kill the pool; replay the window — the
                    # overdue units are charged, bystanders are not.
                    now = time.monotonic()
                    assert self.timeout is not None
                    overdue = {
                        future
                        for future, (_, started) in inflight.items()
                        if now - started >= self.timeout
                    }
                    if not overdue:
                        continue  # spurious wake-up; re-derive deadline
                    _kill_pool_workers(pool)
                    lost = list(inflight.items())
                    inflight.clear()
                    pool = respawn(pool)
                    for future, (unit, _started) in lost:
                        if future not in overdue:
                            pending.append(unit)
                            continue
                        yield from self._settle(
                            unit,
                            CellTimeoutError(
                                f"cell(s) {unit.indices} exceeded the "
                                f"{self.timeout:g}s timeout (attempt "
                                f"{unit.attempt}); worker killed"
                            ),
                            backing_off,
                        )
                    continue

                crashed: List[_Unit] = []
                for future in done:
                    unit, _started = inflight.pop(future)
                    try:
                        records = future.result()
                    except BrokenProcessPool:
                        crashed.append(unit)
                    except Exception as exc:
                        yield from self._settle(unit, exc, backing_off)
                    else:
                        for offset, record in zip(unit.offsets, records, strict=False):
                            yield offset, record
                if crashed:
                    # The pool is dead; every still-inflight unit died
                    # with it.  Respawn and replay them all — crash
                    # attribution is impossible, so each gets charged a
                    # crash attempt (budget >= 1 even at retries=0).
                    crashed.extend(unit for unit, _ in inflight.values())
                    inflight.clear()
                    pool = respawn(pool)
                    for unit in crashed:
                        yield from self._settle(
                            unit,
                            WorkerKilled(
                                "a process pool worker died while cell(s) "
                                f"{unit.indices} were in flight"
                            ),
                            backing_off,
                        )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

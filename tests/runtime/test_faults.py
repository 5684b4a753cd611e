"""The chaos determinism gate: supervised execution under injected faults.

The non-negotiable contract of the fault-tolerance layer: faults change
*whether an attempt completes*, never *what a cell computes* — so every
record produced under injected faults + retries + resume must be
byte-identical to a fault-free run and to per-spec solo play, across
``workers=1|2``.  These tests drive the supervised :class:`SweepRunner`
through the seeded :class:`FaultPlan` harness (transient errors, worker
SIGKILLs, slow cells vs timeouts, torn store writes) and pin that
contract down.  Game cells fail, retry and heal per lockstep group.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    TitForTatCollector,
)
from repro.runtime import (
    CellFault,
    CellTimeoutError,
    ComponentSpec,
    FailureRecord,
    FaultPlan,
    InjectedFault,
    ResultStore,
    StrategyPair,
    SweepGrid,
    SweepRunner,
    TaskSpec,
    summarize_game,
)


def _grid(**overrides):
    kwargs = dict(
        pairs=(
            StrategyPair(
                name="titfortat",
                collector=ComponentSpec(
                    TitForTatCollector, {"t_th": 0.9, "trigger": None}
                ),
                adversary=ComponentSpec(FixedAdversary, {"percentile": 0.99}),
            ),
            StrategyPair(
                name="elastic0.5",
                collector=ComponentSpec(
                    ElasticCollector, {"t_th": 0.9, "k": 0.5}
                ),
                adversary=ComponentSpec(
                    ElasticAdversary, {"t_th": 0.9, "k": 0.5}
                ),
            ),
        ),
        datasets=("control",),
        attack_ratios=(0.1, 0.3),
        repetitions=2,
        rounds=3,
        batch_size=60,
        store_retained=False,
        seed=0,
    )
    kwargs.update(overrides)
    return SweepGrid(**kwargs)


def _solo(specs):
    """The per-spec reference: every game cell played alone."""
    return [summarize_game(spec, spec.play()) for spec in specs]


def _two_families():
    """Game cells of two fusion families (batch sizes 60 and 40), so
    the sweep plays as two lockstep groups of four cells each."""
    return (
        _grid(repetitions=1).expand()
        + _grid(repetitions=1, batch_size=40, seed=1).expand()
    )


def _cube(value):
    """Module-level picklable task body for cheap TaskSpec sweeps."""
    return {"value": value, "cubed": value**3}


def _task_specs(n):
    return [
        TaskSpec(
            ComponentSpec(_cube, {"value": i}), tags={"i": i}
        )
        for i in range(n)
    ]


class TestFaultPlan:
    def test_plan_is_a_pure_function_of_cell(self):
        plan = FaultPlan(seed=3, error_rate=0.3, slow_rate=0.2, kill_rate=0.1)
        first = [plan.fault_for_cell(i) for i in range(50)]
        second = [plan.fault_for_cell(i) for i in range(50)]
        assert first == second
        kinds = {fault.kind for fault in first if fault is not None}
        assert kinds <= {"error", "slow", "kill"}
        # at these rates, 50 draws should include strikes and clean cells
        assert any(fault is not None for fault in first)
        assert any(fault is None for fault in first)

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, error_rate=0.5)
        b = FaultPlan(seed=2, error_rate=0.5)
        assert [a.fault_for_cell(i) for i in range(64)] != [
            b.fault_for_cell(i) for i in range(64)
        ]

    def test_pinned_faults_beat_rates(self):
        plan = FaultPlan(
            seed=0,
            cells=((4, CellFault("error", attempts=2)),),
            slow_rate=1.0,
        )
        assert plan.fault_for_cell(4) == CellFault("error", attempts=2)
        assert plan.fault_for_cell(5).kind == "slow"

    def test_torn_schedule_keys_by_content_key(self):
        plan = FaultPlan(seed=9, torn_rate=0.5)
        keys = [f"{i:064x}" for i in range(40)]
        assert [plan.tears_record(k) for k in keys] == [
            plan.tears_record(k) for k in keys
        ]
        assert any(plan.tears_record(k) for k in keys)
        assert not all(plan.tears_record(k) for k in keys)

    def test_parse(self):
        plan = FaultPlan.parse("seed=7, error=0.3, torn=0.25, attempts=2")
        assert plan.seed == 7
        assert plan.error_rate == 0.3
        assert plan.torn_rate == 0.25
        assert plan.fault_attempts == 2
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ValueError, match="bad value"):
            FaultPlan.parse("error=lots")

    def test_validation(self):
        with pytest.raises(ValueError, match="rates"):
            FaultPlan(error_rate=1.5)
        with pytest.raises(ValueError, match="exceed 1"):
            FaultPlan(error_rate=0.6, kill_rate=0.6)
        with pytest.raises(ValueError, match="pinned twice"):
            FaultPlan(
                cells=((1, CellFault("error")), (1, CellFault("slow")))
            )
        with pytest.raises(ValueError, match="unknown fault kind"):
            CellFault("explode")


class TestSupervisedRetries:
    def test_transient_error_is_retried_and_output_unchanged(self):
        specs = _task_specs(6)
        baseline = SweepRunner().run(specs)
        plan = FaultPlan.pinned({2: CellFault("error", attempts=2)})
        runner = SweepRunner(retries=2, backoff=0.0, faults=plan)
        assert runner.run(specs) == baseline
        assert runner.last_stats.retried == 2
        assert runner.last_stats.failed == 0
        assert runner.last_failures == []

    def test_default_on_error_raises_the_original_exception(self):
        specs = _task_specs(4)
        plan = FaultPlan.pinned({1: CellFault("error", attempts=5)})
        with pytest.raises(InjectedFault, match="cell 1"):
            SweepRunner(retries=1, backoff=0.0, faults=plan).run(specs)

    def test_quarantine_emits_failure_records_in_grid_slots(self):
        specs = _task_specs(5)
        plan = FaultPlan.pinned({3: CellFault("error", attempts=9)})
        runner = SweepRunner(
            retries=1, backoff=0.0, on_error="quarantine", faults=plan
        )
        records = runner.run(specs)
        assert isinstance(records[3], FailureRecord)
        assert records[3].index == 3
        assert records[3].kind == "error"
        assert records[3].attempts == 2  # initial try + 1 retry
        assert records[3].tags == {"i": 3}
        assert [r for i, r in enumerate(records) if i != 3] == [
            _cube(i) for i in range(5) if i != 3
        ]
        assert runner.last_stats.quarantined == 1
        assert runner.last_failures == [records[3]]

    def test_serial_kill_fault_gets_a_free_replay(self):
        """Worker crashes are replayed once even at retries=0."""
        specs = _task_specs(3)
        plan = FaultPlan.pinned({0: CellFault("kill")})
        runner = SweepRunner(backoff=0.0, faults=plan)  # retries=0
        assert runner.run(specs) == SweepRunner().run(specs)
        assert runner.last_stats.retried == 1

    def test_quarantined_cells_heal_on_resume(self, tmp_path):
        specs = _two_families()
        baseline = _solo(specs)

        store = ResultStore(tmp_path)
        plan = FaultPlan.pinned({5: CellFault("error", attempts=9)})
        chaotic = SweepRunner(
            retries=1, backoff=0.0, on_error="quarantine",
            faults=plan, store=store,
        )
        records = chaotic.run(specs)
        # the failing cell takes its whole lockstep group (cells 4-7)
        # into quarantine; the other group completes
        assert [isinstance(r, FailureRecord) for r in records] == (
            [False] * 4 + [True] * 4
        )
        assert [r.index for r in records[4:]] == [4, 5, 6, 7]
        assert records[:4] == baseline[:4]
        assert chaotic.last_stats.quarantined == 4
        # the quarantined cells were never persisted...
        assert not any(key in store for key in chaotic.last_keys[4:])

        # ...so a fault-free run against the same store replays only them
        resumed_runner = SweepRunner(store=store)
        resumed = resumed_runner.run(specs)
        assert resumed_runner.last_stats.played == 4
        assert resumed_runner.last_stats.cached == 4
        assert resumed_runner.last_stats.quarantined == 0
        assert resumed == baseline


class TestTimeouts:
    def test_serial_soft_timeout(self):
        specs = _task_specs(3)
        plan = FaultPlan.pinned({1: CellFault("slow", delay=0.3)})
        runner = SweepRunner(
            timeout=0.1, backoff=0.0, on_error="quarantine", faults=plan
        )
        records = runner.run(specs)
        assert isinstance(records[1], FailureRecord)
        assert records[1].kind == "timeout"
        with pytest.raises(CellTimeoutError):
            SweepRunner(timeout=0.1, backoff=0.0, faults=plan).run(specs)

    def test_serial_timeout_retry_recovers(self):
        specs = _task_specs(3)
        plan = FaultPlan.pinned({1: CellFault("slow", delay=0.3)})
        runner = SweepRunner(
            timeout=0.1, retries=1, backoff=0.0, faults=plan
        )
        assert runner.run(specs) == SweepRunner().run(specs)
        assert runner.last_stats.retried == 1

    @pytest.mark.slow
    def test_parallel_hung_cell_is_killed_and_replayed(self):
        specs = _task_specs(4)
        baseline = SweepRunner().run(specs)
        plan = FaultPlan.pinned({2: CellFault("slow", delay=5.0)})
        runner = SweepRunner(
            workers=2, timeout=0.5, retries=1, backoff=0.0, faults=plan
        )
        records = runner.run(specs)
        assert records == baseline
        assert runner.last_stats.retried >= 1


class TestChaosMatrix:
    """The acceptance gate: SIGKILL + transient errors + torn writes,
    quarantine-then-resume, byte-identical across worker counts."""

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantine_then_resume_is_byte_identical(self, tmp_path, workers):
        specs = _grid().expand()
        baseline = _solo(specs)

        plan = FaultPlan(
            seed=0,
            cells=(
                (1, CellFault("error", attempts=2)),  # heals via retry
                (3, CellFault("kill")),               # real SIGKILL at N>1
                (5, CellFault("error", attempts=9)),  # quarantined
            ),
            torn_rate=0.3,
        )
        store = ResultStore(tmp_path / f"w{workers}")
        chaotic = SweepRunner(
            workers=workers,
            retries=1,
            backoff=0.0,
            on_error="quarantine",
            faults=plan,
            store=store,
        )
        records = chaotic.run(specs)
        assert chaotic.last_stats.quarantined >= 1
        assert any(isinstance(r, FailureRecord) for r in records)
        assert chaotic.last_stats.retried >= 1

        # fault-free resume against the same store: heals quarantined
        # cells and torn records, and must equal the clean baseline
        resumed_runner = SweepRunner(workers=workers, store=store)
        resumed = resumed_runner.run(specs)
        assert resumed_runner.last_stats.quarantined == 0
        assert resumed_runner.last_stats.failed == 0
        assert resumed == baseline

        # and a warm-cache replay executes nothing
        warm = SweepRunner(store=ResultStore(tmp_path / f"w{workers}"))
        assert warm.run(specs) == baseline
        assert warm.last_stats.played == 0

    @pytest.mark.slow
    def test_worker_sigkill_mid_sweep_completes_byte_identical(self):
        """A pool worker SIGKILLed mid-sweep costs nothing but a replay."""
        specs = _grid().expand()
        baseline = _solo(specs)
        plan = FaultPlan.pinned({4: CellFault("kill")})
        runner = SweepRunner(workers=2, backoff=0.0, faults=plan)
        assert runner.run(specs) == baseline
        assert runner.last_stats.retried >= 1
        assert runner.last_stats.quarantined == 0


class TestFaultScheduleProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        error_rate=st.floats(min_value=0.0, max_value=0.8),
        attempts=st.integers(min_value=1, max_value=3),
    )
    def test_random_schedules_never_change_output_bytes(
        self, seed, error_rate, attempts
    ):
        """Any retryable fault schedule yields the fault-free records."""
        specs = _task_specs(8)
        baseline = [_cube(i) for i in range(8)]
        plan = FaultPlan(
            seed=seed, error_rate=error_rate, fault_attempts=attempts
        )
        runner = SweepRunner(retries=attempts, backoff=0.0, faults=plan)
        assert runner.run(specs) == baseline

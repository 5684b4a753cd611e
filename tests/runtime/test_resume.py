"""Resume and record-ordering determinism of store-backed sweeps.

The contract under test (the store's reason to exist): records are
emitted in grid-coordinate order — never completion order — so a fresh
run, a warm-cache run, a ``workers=N`` run and an interrupted-then-
resumed run of the same grid all produce byte-identical record lists.
"""

import pytest

from repro.core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    TitForTatCollector,
)
from repro.runtime import (
    ComponentSpec,
    ResultStore,
    StrategyPair,
    SweepGrid,
    SweepRunner,
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


def _two_families(**overrides):
    """Two fusion families (batch sizes 60 and 40): the sweep plays as
    two lockstep groups, the checkpoint and replay granularity."""
    return (
        _grid(**overrides).expand()
        + _grid(batch_size=40, seed=1, **overrides).expand()
    )


#: Kill switch for the mid-sweep interrupt simulation.  The reducer is a
#: plain module-level function, so its store fingerprint — and therefore
#: every cell key — is identical whether the bomb is armed or not.
_BOMB = {"remaining": None}


def killing_summarize(spec, result):
    if _BOMB["remaining"] is not None:
        if _BOMB["remaining"] <= 0:
            raise RuntimeError("sweep killed mid-run")
        _BOMB["remaining"] -= 1
    return summarize_game(spec, result)


@pytest.fixture(autouse=True)
def _disarm_bomb():
    _BOMB["remaining"] = None
    yield
    _BOMB["remaining"] = None


class TestInterruptResume:
    def test_killed_sweep_resumes_byte_identical(self, tmp_path):
        """Kill a sweep mid-run; --resume must reproduce the full output."""
        specs = _two_families(repetitions=1)
        fresh = [summarize_game(spec, spec.play()) for spec in specs]

        store = ResultStore(tmp_path)
        _BOMB["remaining"] = 4  # die after the first group's four cells
        with pytest.raises(RuntimeError, match="killed mid-run"):
            SweepRunner(reduce=killing_summarize, store=store).run(specs)
        assert store.count() == 4  # the played group was checkpointed

        _BOMB["remaining"] = None
        runner = SweepRunner(reduce=killing_summarize, store=store)
        resumed = runner.run(specs)
        assert runner.last_stats.cached == 4
        assert runner.last_stats.played == len(specs) - 4
        assert resumed == fresh

    def test_interrupted_rep_batched_sweep_resumes(self, tmp_path):
        """Lockstep groups compose with resume: a partial group replays.

        The bomb lands inside the *second* lockstep group, so the first
        group's records are already checkpointed when it goes off, and
        none of the second group's are.
        """
        specs = _two_families(repetitions=3)
        fresh = [summarize_game(spec, spec.play()) for spec in specs]

        store = ResultStore(tmp_path)
        _BOMB["remaining"] = 14  # dies inside the second group
        with pytest.raises(RuntimeError):
            SweepRunner(reduce=killing_summarize, store=store).run(specs)
        assert store.count() == 12

        _BOMB["remaining"] = None
        runner = SweepRunner(reduce=killing_summarize, store=store)
        resumed = runner.run(specs)
        assert runner.last_stats.cached == 12
        assert runner.last_stats.played == 12
        assert resumed == fresh


class TestGridOrderEmission:
    def test_records_in_grid_order_not_completion_order(self, tmp_path):
        """Pre-seeding the cache out of order must not reorder output."""
        specs = _grid().expand()
        fresh = SweepRunner().run(specs)

        store = ResultStore(tmp_path)
        # store a scattered subset first (reverse order, gaps)
        scattered = [specs[6], specs[4], specs[1]]
        partial_runner = SweepRunner(store=store)
        partial_runner.run(scattered)
        assert store.count() == 3

        runner = SweepRunner(store=store)
        merged = runner.run(specs)
        assert runner.last_stats.cached == 3
        assert merged == fresh
        tags = [record["rep"] for record in merged]
        assert tags == [spec.tags["rep"] for spec in specs]

    @pytest.mark.slow
    def test_workers_and_rep_batch_agree_with_serial(self, tmp_path):
        specs = _grid().expand()
        fresh = SweepRunner().run(specs)
        assert fresh == [summarize_game(spec, spec.play()) for spec in specs]
        parallel_runner = SweepRunner(
            workers=2, store=ResultStore(tmp_path / "a")
        )
        assert parallel_runner.run(specs) == fresh
        # and the parallel-populated store replays serially, byte-identical
        serial_warm = SweepRunner(store=ResultStore(tmp_path / "a"))
        assert serial_warm.run(specs) == fresh
        assert serial_warm.last_stats.played == 0

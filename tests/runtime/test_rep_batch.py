"""Tests for the lockstep groups of the sweep runtime.

SweepRunner plays every game sweep in lockstep groups; its records must
be byte-identical to an explicit per-spec ``spec.play()`` loop, serially
and over process pools, and the grouping/spec plumbing must only ever
collapse true rep groups.
"""

import dataclasses
import pickle

import pytest

from repro.core.strategies import (
    ElasticCollector,
    FixedAdversary,
    MixedAdversary,
    TitForTatCollector,
)
from repro.runtime import (
    ComponentSpec,
    StrategyPair,
    SweepGrid,
    SweepRunner,
    play_rep_batch,
    rep_group_key,
    summarize_game,
)
from repro.runtime.runner import _group_reps
from repro.runtime.spec import fusion_group_key, play_fused_batch


def _grid(repetitions=4, **overrides):
    pairs = (
        StrategyPair(
            "tft-vs-extreme",
            ComponentSpec(TitForTatCollector, {"t_th": 0.9, "trigger": None}),
            ComponentSpec(FixedAdversary, {"percentile": 0.99}),
        ),
        StrategyPair(
            "elastic-vs-mixed",
            ComponentSpec(ElasticCollector, {"t_th": 0.9, "k": 0.5}),
            ComponentSpec(MixedAdversary, {"p": 0.5}, seeded=True),
        ),
    )
    params = dict(
        pairs=pairs,
        attack_ratios=(0.1, 0.3),
        repetitions=repetitions,
        rounds=5,
        batch_size=60,
        store_retained=False,
        seed=0,
    )
    params.update(overrides)
    return SweepGrid(**params)


def _solo(grid, reduce=summarize_game):
    """The per-spec reference: every cell played alone, in grid order."""
    return [reduce(spec, spec.play()) for spec in grid.expand()]


class TestRepBatchRunner:
    def test_auto_matches_solo_loop(self):
        grid = _grid()
        assert SweepRunner().run_grid(grid) == _solo(grid)

    def test_composes_with_process_pool(self):
        grid = _grid()
        assert SweepRunner(workers=2).run_grid(grid) == _solo(grid)

    def test_workers_split_a_fused_family(self):
        # table3's quick plan is one fusion family: one group, so one
        # work unit, unless the group is capped by the worker count.
        from repro.scenarios import get_scenario

        scenario = get_scenario("table3")
        plan = scenario.plan(scenario.resolve_params("quick"))
        specs = list(plan.specs)
        parallel = SweepRunner(workers=2)
        units = parallel._build_units(specs, list(range(len(specs))))
        assert len(units) >= 2
        serial = SweepRunner()
        assert len(serial._build_units(specs, list(range(len(specs))))) == 1
        assert parallel.run(specs) == serial.run(specs)

    def test_custom_reducer_applied_per_rep(self):
        def reduce(spec, result):
            return (spec.tags["rep"], result.rounds)

        grid = _grid()
        assert SweepRunner(reduce=reduce).run_grid(grid) == _solo(grid, reduce)

    def test_full_boards_round_trip(self):
        grid = _grid(store_retained=True)

        def reduce(spec, result):
            return (
                spec.tags["rep"],
                result.retained_data().tobytes(),
            )

        assert SweepRunner(reduce=reduce).run_grid(grid) == _solo(grid, reduce)


class TestMergedLockstepRoute:
    """Every lockstep group plays through one route: play_fused_batch.

    Whole GameRecords are compared (they carry the strategy names), so
    a lane that played right but reported another lane's names fails.
    """

    def test_fused_batch_mixes_horizons_sizes_ratios_and_families(self):
        grids = [
            _grid(repetitions=2, rounds=rounds, dataset_size=size, seed=i)
            for i, (rounds, size) in enumerate(
                [(4, None), (6, None), (4, 300), (6, 300)]
            )
        ]
        # Interleave the four (horizon, size) parts so each one's lanes
        # are scattered across the group.
        specs = [
            spec
            for cells in zip(*(grid.expand() for grid in grids), strict=True)
            for spec in cells
        ]
        assert len({spec.attack_ratio for spec in specs}) == 2
        assert len({spec.collector.factory for spec in specs}) == 2
        key = fusion_group_key(specs[0])
        assert all(fusion_group_key(spec) == key for spec in specs)

        fused = play_fused_batch(specs)
        records = [
            summarize_game(spec, result)
            for spec, result in zip(specs, fused, strict=True)
        ]
        assert records == [summarize_game(spec, spec.play()) for spec in specs]
        assert records == SweepRunner().run(specs)
        for spec, result in zip(specs, fused, strict=True):
            assert result.to_records() == spec.play().to_records()

    def test_wide_rep_run_next_to_single_cells(self):
        # A same-cell run of 8 reps between single cells of the same
        # fusion family: one lockstep group, whatever the run widths.
        wide = _grid(repetitions=8).expand()[:8]
        assert all(
            rep_group_key(spec) == rep_group_key(wide[0]) for spec in wide
        )
        singles = _grid(repetitions=1, seed=1).expand()
        specs = singles[:2] + wide + singles[2:]
        assert [len(g) for g in _group_reps(specs, None)] == [len(specs)]

        records = SweepRunner().run(specs)
        assert records == [summarize_game(spec, spec.play()) for spec in specs]


class TestGrouping:
    def test_groups_fuse_whole_family(self):
        # Every cell of this grid shares one fusion family, so the
        # whole sweep collapses into a single fused lockstep group.
        specs = _grid(repetitions=3).expand()
        groups = _group_reps(specs, None)
        assert [len(g) for g in groups] == [len(specs)]
        flattened = [spec for group in groups for spec in group]
        assert flattened == specs

    def test_mixed_families_split_groups(self):
        # Different batch sizes are different fusion families: groups
        # must break at the family boundary and recover the rep axis.
        a = _grid(repetitions=3).expand()
        b = _grid(repetitions=3, batch_size=40).expand()
        groups = _group_reps(a + b, None)
        assert [len(g) for g in groups] == [len(a), len(b)]

    def test_width_cap_splits_groups(self):
        specs = _grid(repetitions=5).expand()
        groups = _group_reps(specs, 2)
        assert all(len(group) <= 2 for group in groups)
        assert [spec for group in groups for spec in group] == specs

    def test_same_cell_run_takes_the_default_cap(self):
        # One width cap for every group: a 70-rep run of one cell
        # splits at 64 like a run of different cells would.
        specs = _grid(repetitions=70).expand()[:70]
        assert all(
            rep_group_key(spec) == rep_group_key(specs[0]) for spec in specs
        )
        groups = _group_reps(specs, None)
        assert [len(g) for g in groups] == [64, 6]
        assert [spec for group in groups for spec in group] == specs

    def test_key_excludes_seed_and_tags(self):
        specs = _grid(repetitions=2).expand()
        assert rep_group_key(specs[0]) == rep_group_key(specs[1])
        assert specs[0].seed is not specs[1].seed

    def test_key_separates_cells(self):
        specs = _grid(repetitions=2).expand()
        # Specs 1 and 2 straddle a cell boundary (rep axis is innermost).
        assert rep_group_key(specs[1]) != rep_group_key(specs[2])


class TestPlayRepBatch:
    def test_matches_individual_play(self):
        specs = _grid(repetitions=3).expand()[:3]
        batched = play_rep_batch(specs)
        for spec, result in zip(specs, batched, strict=False):
            assert spec.play().to_records() == result.to_records()

    def test_single_spec_short_circuits(self):
        spec = _grid(repetitions=1).expand()[0]
        (result,) = play_rep_batch([spec])
        assert result.to_records() == spec.play().to_records()

    def test_rejects_mixed_cells(self):
        specs = _grid(repetitions=2).expand()
        with pytest.raises(ValueError, match="agree"):
            play_rep_batch([specs[0], specs[-1]])


class TestPlayFusedBatch:
    def test_rejects_mixed_families_in_one_part(self):
        # One horizon and dataset: both specs land in one lockstep part,
        # but batch sizes 60 and 40 are two fusion families.
        a = _grid(repetitions=1).expand()[0]
        b = _grid(repetitions=1, batch_size=40).expand()[0]
        assert (a.rounds, a.dataset) == (b.rounds, b.dataset)
        assert fusion_group_key(a) != fusion_group_key(b)
        with pytest.raises(ValueError, match="fusion family"):
            play_fused_batch([a, b])

    def test_families_may_differ_across_parts(self):
        # The family is checked per multi-spec part: two parts (one per
        # horizon) of different families each play as one lockstep.
        short = _grid(repetitions=2, rounds=4).expand()[:2]
        long = _grid(repetitions=2, rounds=6, batch_size=40).expand()[:2]
        assert fusion_group_key(short[0]) != fusion_group_key(long[0])
        specs = [short[0], long[0], short[1], long[1]]
        fused = play_fused_batch(specs)
        for spec, result in zip(specs, fused, strict=True):
            assert result.to_records() == spec.play().to_records()


class TestReviewRegressions:
    def test_ndarray_component_kwargs_degrade_to_singletons(self):
        """Equal-but-distinct ComponentSpecs with ndarray kwargs must not
        crash grouping — they conservatively form singleton groups."""
        import numpy as np

        class _CenterAdversary(FixedAdversary):
            def __init__(self, centers=None, percentile=0.99):
                super().__init__(percentile)
                self.centers = centers

        base = _grid(repetitions=1).expand()[0]
        specs = [
            dataclasses.replace(
                base,
                adversary=ComponentSpec(
                    _CenterAdversary,
                    {"centers": np.array([[0.0, 1.0], [2.0, 3.0]])},
                ),
            )
            for _ in range(3)
        ]
        groups = _group_reps(specs, None)
        # Rep keys degrade to identity comparison (no crash) so the
        # cells are not same-cell reps — but they still share a fusion
        # family, so they group for the fused lockstep path.
        assert [len(g) for g in groups] == [3]
        with pytest.raises(ValueError, match="agree"):
            play_rep_batch(specs)

    def test_mixed_trigger_counters_restored(self):
        """Post-game lane state must match solo play (the sink flush)."""
        from repro.core.engine import BandExcessJudge, BatchedCollectionGame
        from repro.core.strategies import MixedStrategyTrigger
        from repro.experiments import SCHEMES, scheme_specs
        from repro.runtime.spec import GameSpec

        pairs = (
            StrategyPair(
                "tft-mixed",
                ComponentSpec(
                    TitForTatCollector,
                    {
                        "t_th": 0.9,
                        "trigger": ComponentSpec(
                            MixedStrategyTrigger,
                            {"equilibrium_probability": 0.5, "warmup": 3},
                        ),
                    },
                ),
                ComponentSpec(MixedAdversary, {"p": 0.5}, seeded=True),
            ),
        )
        grid = SweepGrid(
            pairs=pairs, repetitions=3, rounds=15, batch_size=60,
            store_retained=False, seed=0,
        )
        specs = grid.expand()
        game = BatchedCollectionGame([spec.build() for spec in specs])
        game.run()
        for spec, lane in zip(specs, game.games, strict=True):
            collector = lane.collector
            solo_game = spec.build()
            solo_game.run()
            solo_collector = solo_game.collector
            assert collector.trigger._rounds == solo_collector.trigger._rounds
            assert (
                collector.trigger._betrayals
                == solo_collector.trigger._betrayals
            )
            assert (
                collector.trigger.betrayal_ratio
                == solo_collector.trigger.betrayal_ratio
            )
            assert collector.triggered == solo_collector.triggered

        # Every lane component's exported state, across every paper
        # scheme, with the injector jitter and judge noise advancing.
        specs = [
            GameSpec(
                collector=collector,
                adversary=adversary,
                judge=ComponentSpec(
                    BandExcessJudge, {"noise_sigma": 0.02}, seeded=True
                ),
                injection_jitter=0.02,
                rounds=8,
                batch_size=60,
                seed=seed,
            )
            for seed, (collector, adversary) in enumerate(
                scheme_specs(name, 0.9) for name in SCHEMES
            )
        ]
        game = BatchedCollectionGame([spec.build() for spec in specs])
        game.run()

        def components(game):
            return (
                game.collector, game.adversary, game.injector, game.judge,
                game.source,
            )

        for spec, lane in zip(specs, game.games, strict=True):
            solo_game = spec.build()
            solo_game.run()
            for got, want in zip(
                components(lane), components(solo_game), strict=True
            ):
                assert pickle.dumps(got.export_state()) == pickle.dumps(
                    want.export_state()
                ), f"{spec.collector.name}: {type(got).__name__}"

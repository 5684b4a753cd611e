"""Tests for repro.runtime.runner — grid expansion and parallel sweeps."""

import numpy as np
import pytest

from repro.core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    MixedAdversary,
    StaticCollector,
    TitForTatCollector,
)
from repro.runtime import (
    ComponentSpec,
    GameRecord,
    StrategyPair,
    SweepGrid,
    SweepRunner,
    TaskSpec,
    cross_pairs,
    summarize_game,
)


def _pair(name="tft-vs-extreme"):
    return StrategyPair(
        name=name,
        collector=ComponentSpec(
            TitForTatCollector, {"t_th": 0.9, "trigger": None}
        ),
        adversary=ComponentSpec(FixedAdversary, {"percentile": 0.99}),
        collector_name="titfortat",
        adversary_name="extreme@0.99",
    )


def _grid(**overrides):
    kwargs = dict(
        pairs=(_pair(),),
        datasets=("control",),
        attack_ratios=(0.1, 0.3),
        repetitions=2,
        rounds=3,
        batch_size=60,
        seed=0,
    )
    kwargs.update(overrides)
    return SweepGrid(**kwargs)


class TestSweepGrid:
    def test_expansion_count_and_order(self):
        grid = _grid()
        specs = grid.expand()
        assert len(specs) == grid.n_cells == 4
        # ratio-major, then pair, then rep
        assert [s.tags["attack_ratio"] for s in specs] == [0.1, 0.1, 0.3, 0.3]
        assert [s.tags["rep"] for s in specs] == [0, 1, 0, 1]

    def test_cell_seeds_are_collision_free(self):
        grid = _grid(repetitions=3)
        states = [
            tuple(s.seed_sequence().generate_state(4).tolist())
            for s in grid.expand()
        ]
        assert len(set(states)) == len(states)

    def test_cell_seeds_use_coordinate_spawn_keys(self):
        specs = _grid().expand()
        assert specs[0].seed_sequence().spawn_key == (0, 0, 0, 0)
        assert specs[-1].seed_sequence().spawn_key == (0, 1, 0, 1)

    def test_pair_tags_merged_into_cells(self):
        pair = StrategyPair(
            name="tagged",
            collector=ComponentSpec(StaticCollector, {"threshold": 0.9}),
            adversary=ComponentSpec(FixedAdversary, {"percentile": 0.99}),
            tags={"p": 0.5},
        )
        specs = _grid(pairs=(pair,), repetitions=1).expand()
        assert all(s.tags["p"] == 0.5 for s in specs)

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            _grid(pairs=())
        with pytest.raises(ValueError):
            _grid(repetitions=0)
        with pytest.raises(ValueError):
            _grid(attack_ratios=())


class TestCrossPairs:
    def test_full_cross_product(self):
        collectors = {
            "static": ComponentSpec(StaticCollector, {"threshold": 0.9}),
            "elastic0.5": ComponentSpec(
                ElasticCollector, {"t_th": 0.9, "k": 0.5}
            ),
        }
        adversaries = {
            "extreme": ComponentSpec(FixedAdversary, {"percentile": 0.99}),
            "elastic0.5": ComponentSpec(
                ElasticAdversary, {"t_th": 0.9, "k": 0.5}
            ),
        }
        pairs = cross_pairs(collectors, adversaries)
        assert len(pairs) == 4
        assert pairs[0].collector_name == "static"
        assert pairs[0].adversary_name == "extreme"
        assert {p.name for p in pairs} == {
            "static|extreme",
            "static|elastic0.5",
            "elastic0.5|extreme",
            "elastic0.5|elastic0.5",
        }


class TestSweepRunner:
    def test_default_reducer_emits_game_records(self):
        records = SweepRunner().run_grid(_grid(repetitions=1))
        assert all(isinstance(r, GameRecord) for r in records)
        record = records[0]
        assert record.collector == "titfortat"
        assert record.adversary == "fixed@0.99"
        assert record.rounds == 3
        assert 0.0 <= record.poison_retained_fraction <= 1.0
        assert record.n_retained <= record.n_collected
        assert record["attack_ratio"] == 0.1

    def test_summarize_game_counts_are_consistent(self):
        spec = _grid(repetitions=1).expand()[0]
        result = spec.play()
        record = summarize_game(spec, result)
        entries = result.board.entries
        assert record.n_collected == sum(e.n_collected for e in entries)
        assert record.n_poison_retained <= record.n_poison_injected
        assert record.mean_trim_percentile == pytest.approx(
            float(np.mean(result.threshold_path()))
        )

    def test_empty_spec_list(self):
        assert SweepRunner().run([]) == []

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)
        with pytest.raises(ValueError):
            SweepRunner(retries=-1)

    @pytest.mark.slow
    def test_parallel_equals_serial(self):
        grid = _grid(
            pairs=(
                _pair(),
                StrategyPair(
                    name="elastic-vs-mixed",
                    collector=ComponentSpec(
                        ElasticCollector, {"t_th": 0.9, "k": 0.5}
                    ),
                    adversary=ComponentSpec(
                        MixedAdversary, {"p": 0.5}, seeded=True
                    ),
                ),
            )
        )
        serial = SweepRunner(workers=1).run_grid(grid)
        parallel = SweepRunner(workers=2).run_grid(grid)
        assert serial == parallel
        assert serial == [
            summarize_game(spec, spec.play()) for spec in grid.expand()
        ]

    def test_units_hold_whole_lockstep_groups(self):
        # Two fusion families (batch sizes 60 and 40) of 4 cells each,
        # then 12 task cells: 14 lockstep groups.
        specs = (
            _grid().expand()
            + _grid(batch_size=40).expand()
            + [TaskSpec(ComponentSpec(dict, {"i": i})) for i in range(12)]
        )
        indices = list(range(len(specs)))

        def plan(runner):
            units = runner._build_units(specs, indices)
            assert [c for u in units for c in u.cells()] == specs
            assert [o for u in units for o in u.offsets] == indices
            return [[len(group) for group in unit.groups] for unit in units]

        # serial and supervised runs: one group per unit
        assert plan(SweepRunner()) == [[4], [4]] + [[1]] * 12
        assert plan(SweepRunner(workers=2, retries=1)) == [[4], [4]] + [[1]] * 12
        # other parallel runs: ceil(14 groups / (4 * 2 workers)) per unit
        assert plan(SweepRunner(workers=2)) == [[4, 4]] + [[1, 1]] * 6
        assert SweepRunner().run(specs) == (
            [summarize_game(spec, spec.play()) for spec in specs[:8]]
            + [{"i": i} for i in range(12)]
        )


@pytest.mark.slow
class TestTournamentParallelism:
    """The acceptance gate: payoff matrices identical at any worker count."""

    def test_tournament_workers_1_vs_4_byte_identical(self):
        from repro.scenarios import get_scenario, run_scenario

        serial, parallel = (
            run_scenario(
                get_scenario("metagame"), overrides={"rounds": "4"},
                workers=workers,
            ).value
            for workers in (1, 4)
        )
        assert serial.adversary_payoffs.tobytes() == (
            parallel.adversary_payoffs.tobytes()
        )
        assert serial.collector_payoffs.tobytes() == (
            parallel.collector_payoffs.tobytes()
        )
        np.testing.assert_array_equal(
            serial.collector_mixture, parallel.collector_mixture
        )
        assert serial.game_value == parallel.game_value


class TestLeanSweeps:
    """store_retained propagates grid -> spec -> engine, and summary
    records are identical either way."""

    def test_store_retained_propagates_to_specs(self):
        specs = _grid(store_retained=False).expand()
        assert all(not s.store_retained for s in specs)
        assert all(s.store_retained for s in _grid().expand())

    def test_lean_game_records_match_full(self):
        lean = SweepRunner().run_grid(_grid(store_retained=False))
        full = SweepRunner().run_grid(_grid(store_retained=True))
        assert lean == full

    def test_lean_spec_plays_on_lean_board(self):
        spec = _grid(store_retained=False).expand()[0]
        result = spec.play()
        assert all(e.retained is None for e in result.board.entries)
        # summarize_game must work off the counts alone.
        record = summarize_game(spec, result)
        assert record.n_retained > 0

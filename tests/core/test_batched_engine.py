"""Tests for the batched replication engine (BatchedCollectionGame).

The non-negotiable contract: every rep of a batched run is byte-identical
to the corresponding solo CollectionGame run seeded from the same
SeedSequence children.  The matrix below covers every shipped strategy
pair, both judges (noisy seeds intact), lean and full boards, reference
and batch anchoring, and non-vectorizable user strategies exercising the
per-rep fallback loop (including ragged inject/skip rounds).
"""

import json

import numpy as np
import pytest
from numpy.random import SeedSequence

from repro.core.engine import (
    BandExcessJudge,
    BatchedCollectionGame,
    CollectionGame,
    NoisyPositionJudge,
)
from repro.core.fusion import (
    TrimLanes,
    fused_adversary_lanes,
    fused_collector_lanes,
)
from repro.core.quality import MeanShiftEvaluator
from repro.core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    GenerousCollector,
    JustBelowAdversary,
    MirrorCollector,
    MixedAdversary,
    MixedStrategyTrigger,
    NullAdversary,
    OstrichCollector,
    QualityTrigger,
    StaticCollector,
    TitForTatCollector,
    TitForTwoTatsCollector,
    UniformRangeAdversary,
)
from repro.core.strategies.base import (
    AdversaryStrategy,
    CollectorStrategy,
    RoundObservationBatch,
)
from repro.core.trimming import RadialTrimmer, ValueTrimmer
from repro.datasets import generate_control, generate_taxi
from repro.experiments.classifiers import (
    LabelAwareRadialTrimmer,
    LabelMimicInjector,
)
from repro.streams import ArrayStream, PoisonInjector

from test_session import cohort_leftovers, matrix_spec

N_REPS = 4
ROUNDS = 12


def _child(root: SeedSequence, channel: int) -> SeedSequence:
    return SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (channel,)
    )


def _roots():
    return [SeedSequence(17, spawn_key=(0, 0, 0, rep)) for rep in range(N_REPS)]


def _read_only(data):
    """Games calibrated on one read-only array share one reference fit,
    so their lanes take the lane programs' shared-fit groups."""
    data.setflags(write=False)
    return data


@pytest.fixture(scope="module")
def data_2d():
    rng = np.random.default_rng(5)
    return _read_only(rng.normal(size=(2000, 2)) + 4.0)


@pytest.fixture(scope="module")
def data_1d():
    rng = np.random.default_rng(6)
    return _read_only(rng.lognormal(size=2000))


def _assert_batched_matches_solo(
    make_collector,
    make_adversary,
    data,
    trimmer_cls,
    *,
    anchor="reference",
    judge_maker=None,
    store_retained=True,
    ratio=0.2,
    rounds=ROUNDS,
):
    """Play solo and batched from the same seed children; compare reps."""
    mode = "radial" if np.ndim(data) == 2 else "quantile"
    roots = _roots()

    def game(rep):
        root = roots[rep]
        return CollectionGame(
            source=ArrayStream(data, batch_size=80, seed=_child(root, 0)),
            collector=make_collector(_child(root, 1)),
            adversary=make_adversary(_child(root, 2)),
            injector=PoisonInjector(ratio, mode=mode, seed=_child(root, 3)),
            trimmer=trimmer_cls(),
            reference=data,
            judge=None if judge_maker is None else judge_maker(_child(root, 4)),
            rounds=rounds,
            anchor=anchor,
            store_retained=store_retained,
        )

    batched = BatchedCollectionGame([game(rep) for rep in range(N_REPS)]).run()

    assert len(batched) == N_REPS
    for rep in range(N_REPS):
        solo_result = game(rep).run()
        rep_result = batched[rep]
        assert rep_result.rounds == rounds
        assert json.dumps(solo_result.to_records(), sort_keys=True) == (
            json.dumps(rep_result.to_records(), sort_keys=True)
        )
        assert solo_result.termination_round == rep_result.termination_round
        assert solo_result.collector_name == rep_result.collector_name
        assert solo_result.adversary_name == rep_result.adversary_name
        assert (
            solo_result.poison_retained_fraction()
            == rep_result.poison_retained_fraction()
        )
        assert solo_result.trimmed_fraction() == rep_result.trimmed_fraction()
        assert (
            solo_result.threshold_path().tobytes()
            == rep_result.threshold_path().tobytes()
        )
        assert (
            solo_result.injection_path().tobytes()
            == rep_result.injection_path().tobytes()
        )
        if store_retained:
            assert (
                solo_result.retained_data().tobytes()
                == rep_result.retained_data().tobytes()
            )
    return batched


class TestShippedStrategyPairs:
    """Byte-equality across the shipped strategy matrix."""

    def test_titfortat_vs_extreme(self, data_2d):
        _assert_batched_matches_solo(
            lambda s: TitForTatCollector(0.9, trigger=None),
            lambda s: FixedAdversary(0.99),
            data_2d,
            RadialTrimmer,
        )

    def test_titfortat_quality_trigger(self, data_2d):
        _assert_batched_matches_solo(
            lambda s: TitForTatCollector(
                0.9, trigger=QualityTrigger(reference_score=0.0, redundancy=0.04)
            ),
            lambda s: FixedAdversary(0.95),
            data_2d,
            RadialTrimmer,
            ratio=0.3,
        )

    def test_titfortat_mixed_trigger_vs_mixed(self, data_1d):
        _assert_batched_matches_solo(
            lambda s: TitForTatCollector(
                0.9, trigger=MixedStrategyTrigger(0.5, warmup=3)
            ),
            lambda s: MixedAdversary(0.5, seed=s),
            data_1d,
            ValueTrimmer,
            judge_maker=lambda s: NoisyPositionJudge(boundary=0.905, seed=s),
            rounds=25,
        )

    def test_elastic_vs_elastic(self, data_2d):
        _assert_batched_matches_solo(
            lambda s: ElasticCollector(0.9, 0.5),
            lambda s: ElasticAdversary(0.9, 0.5),
            data_2d,
            RadialTrimmer,
        )

    def test_elastic_relaxation_rule(self, data_1d):
        _assert_batched_matches_solo(
            lambda s: ElasticCollector(0.9, 0.3, rule="relaxation"),
            lambda s: ElasticAdversary(0.9, 0.3, rule="relaxation"),
            data_1d,
            ValueTrimmer,
        )

    def test_elastic_quality_fallback_vs_null(self, data_2d):
        # NullAdversary → injection is None → Algorithm 2 quality rule.
        _assert_batched_matches_solo(
            lambda s: ElasticCollector(0.9, 0.5),
            lambda s: NullAdversary(),
            data_2d,
            RadialTrimmer,
        )

    def test_ostrich_vs_null(self, data_2d):
        _assert_batched_matches_solo(
            lambda s: OstrichCollector(),
            lambda s: NullAdversary(),
            data_2d,
            RadialTrimmer,
        )

    def test_static_vs_uniform_range(self, data_2d):
        _assert_batched_matches_solo(
            lambda s: StaticCollector(0.9),
            lambda s: UniformRangeAdversary(seed=s),
            data_2d,
            RadialTrimmer,
        )

    def test_static_vs_just_below(self, data_1d):
        _assert_batched_matches_solo(
            lambda s: StaticCollector(0.9),
            lambda s: JustBelowAdversary(0.9),
            data_1d,
            ValueTrimmer,
        )

    def test_mirror_vs_mixed_noisy_band(self, data_1d):
        _assert_batched_matches_solo(
            lambda s: MirrorCollector(0.9),
            lambda s: MixedAdversary(0.3, seed=s),
            data_1d,
            ValueTrimmer,
            judge_maker=lambda s: BandExcessJudge(noise_sigma=0.05, seed=s),
        )

    def test_generous_vs_just_below_noisy_band(self, data_1d):
        _assert_batched_matches_solo(
            lambda s: GenerousCollector(0.9, seed=s),
            lambda s: JustBelowAdversary(0.9),
            data_1d,
            ValueTrimmer,
            judge_maker=lambda s: BandExcessJudge(noise_sigma=0.05, seed=s),
        )

    def test_two_tats_vs_mixed(self, data_1d):
        _assert_batched_matches_solo(
            lambda s: TitForTwoTatsCollector(0.9),
            lambda s: MixedAdversary(0.3, seed=s),
            data_1d,
            ValueTrimmer,
            judge_maker=lambda s: BandExcessJudge(noise_sigma=0.05, seed=s),
        )


class TestModesAndBoards:
    """Anchoring modes, lean boards and judges."""

    def test_batch_anchor(self, data_1d):
        _assert_batched_matches_solo(
            lambda s: ElasticCollector(0.9, 0.5),
            lambda s: ElasticAdversary(0.9, 0.5),
            data_1d,
            ValueTrimmer,
            anchor="batch",
        )

    def test_lean_board(self, data_1d):
        batched = _assert_batched_matches_solo(
            lambda s: TitForTatCollector(0.9, trigger=None),
            lambda s: FixedAdversary(0.99),
            data_1d,
            ValueTrimmer,
            store_retained=False,
        )
        with pytest.raises(ValueError, match="lean"):
            batched[0].retained_data()

    def test_noisy_band_judge_seeds_intact(self, data_1d):
        _assert_batched_matches_solo(
            lambda s: MirrorCollector(0.9),
            lambda s: FixedAdversary(0.92),
            data_1d,
            ValueTrimmer,
            judge_maker=lambda s: BandExcessJudge(noise_sigma=0.08, seed=s),
        )

    def test_noisy_position_judge_seeds_intact(self, data_1d):
        _assert_batched_matches_solo(
            lambda s: MirrorCollector(0.9),
            lambda s: MixedAdversary(0.6, seed=s),
            data_1d,
            ValueTrimmer,
            judge_maker=lambda s: NoisyPositionJudge(boundary=0.905, seed=s),
        )

    def test_zero_attack_ratio(self, data_2d):
        _assert_batched_matches_solo(
            lambda s: ElasticCollector(0.9, 0.5),
            lambda s: FixedAdversary(0.99),
            data_2d,
            RadialTrimmer,
            ratio=0.0,
        )

    def test_rerun_replays_identically(self, data_1d):
        game = BatchedCollectionGame(
            [
                CollectionGame(
                    source=ArrayStream(data_1d, batch_size=80, seed=_child(r, 0)),
                    collector=MirrorCollector(0.9),
                    adversary=MixedAdversary(0.4, seed=_child(r, 2)),
                    injector=PoisonInjector(
                        0.2, mode="quantile", seed=_child(r, 3)
                    ),
                    trimmer=ValueTrimmer(),
                    reference=data_1d,
                    judge=BandExcessJudge(noise_sigma=0.05, seed=_child(r, 4)),
                    rounds=6,
                )
                for r in _roots()
            ]
        )
        first = game.run()
        second = game.run()
        for rep in range(N_REPS):
            assert (
                first[rep].to_records()
                == second[rep].to_records()
            )


class TestCohortLifetime:
    def test_cohort_dies_with_its_sessions(self):
        # The first close() flushes the cohort, which lets go of its
        # members and its writeback hook: no cycle outlives the run.
        specs = [
            matrix_spec("tft-mixed", "mixed", "position", seed=s)
            for s in range(4)
        ]
        assert cohort_leftovers(
            lambda: BatchedCollectionGame([spec.build() for spec in specs]).run()
        ) == []


class _RandomUserCollector(CollectorStrategy):
    """Non-vectorizable: random walk thresholds from a per-rep stream."""

    name = "user-random"

    def __init__(self, seed=None):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self):
        self._rng = np.random.default_rng(self._seed)

    def first(self):
        return 0.93

    def react(self, last):
        return float(0.88 + 0.1 * self._rng.random())


class _SometimesAdversary(AdversaryStrategy):
    """Non-vectorizable: injects only on random rounds (ragged stacks)."""

    name = "user-sometimes"

    def __init__(self, seed=None):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self):
        self._rng = np.random.default_rng(self._seed)

    def first(self):
        return 0.95

    def react(self, last):
        return None if self._rng.random() < 0.5 else 0.92


class _NanAdversary(_SometimesAdversary):
    """Says "no injection" with NaN instead of None."""

    name = "user-nan"

    def first(self):
        return float("nan")

    def react(self, last):
        position = super().react(last)
        return float("nan") if position is None else position


class _SubclassedElastic(ElasticCollector):
    """Subclass overriding react: must not take the vectorized lane."""

    def react(self, last):
        return min(1.0, super().react(last) + 0.001)


class TestFallbackLoop:
    """User strategies run through the documented per-rep fallback."""

    def test_user_strategies_and_ragged_rounds(self, data_1d):
        _assert_batched_matches_solo(
            lambda s: _RandomUserCollector(seed=s),
            lambda s: _SometimesAdversary(seed=s),
            data_1d,
            ValueTrimmer,
            judge_maker=lambda s: BandExcessJudge(noise_sigma=0.05, seed=s),
            rounds=20,
        )

    def test_nan_position_injects_nothing(self, data_1d):
        # Solo and lockstep both read a NaN position as no injection,
        # as the board's injection column does.
        batched = _assert_batched_matches_solo(
            lambda s: _RandomUserCollector(seed=s),
            lambda s: _NanAdversary(seed=s),
            data_1d,
            ValueTrimmer,
            rounds=20,
        )
        for result in batched:
            columns = result.board.columns
            skipped = np.isnan(columns.injection_percentile)
            assert skipped[0] and not skipped.all()
            assert not columns.n_poison_injected[skipped].any()
            assert columns.n_poison_injected[~skipped].all()

    def test_shipped_subclass_falls_back(self, data_1d):
        lanes = fused_collector_lanes(
            [_SubclassedElastic(0.9, 0.5) for _ in range(3)]
        )
        assert lanes.vectorized is False
        _assert_batched_matches_solo(
            lambda s: _SubclassedElastic(0.9, 0.5),
            lambda s: FixedAdversary(0.95),
            data_1d,
            ValueTrimmer,
        )

    def test_mismatched_params_pack_into_columns(self):
        # Since the fusion refactor, heterogeneous parameters no longer
        # force the fallback loop: they pack into (L,) columns.
        mixed = [ElasticCollector(0.9, 0.5), ElasticCollector(0.8, 0.1)]
        lanes = fused_collector_lanes(mixed)
        assert lanes.vectorized is True
        np.testing.assert_array_equal(lanes._k, [0.5, 0.1])
        np.testing.assert_array_equal(lanes._t_th, [0.9, 0.8])

    def test_shipped_strategies_vectorize(self):
        assert fused_collector_lanes(
            [TitForTatCollector(0.9, trigger=None) for _ in range(3)]
        ).vectorized
        assert fused_collector_lanes(
            [ElasticCollector(0.9, 0.5) for _ in range(3)]
        ).vectorized
        assert fused_adversary_lanes(
            [NullAdversary() for _ in range(3)]
        ).vectorized
        assert fused_adversary_lanes(
            [MixedAdversary(0.5, seed=s) for s in range(3)]
        ).vectorized

    def test_fallback_quality_evaluator(self, data_1d):
        """A non-TailMass evaluator routes through the per-rep loop."""
        roots = _roots()

        def game(rep):
            root = roots[rep]
            return CollectionGame(
                source=ArrayStream(data_1d, batch_size=80, seed=_child(root, 0)),
                collector=ElasticCollector(0.9, 0.5),
                adversary=FixedAdversary(0.99),
                injector=PoisonInjector(
                    0.2, mode="quantile", seed=_child(root, 3)
                ),
                trimmer=ValueTrimmer(),
                reference=data_1d,
                quality_evaluator=MeanShiftEvaluator(),
                rounds=6,
            )

        batched = BatchedCollectionGame([game(rep) for rep in range(N_REPS)]).run()
        for rep in range(N_REPS):
            assert game(rep).run().to_records() == batched[rep].to_records()


class _TightenedTrimmer(ValueTrimmer):
    """Custom trim() override: exercises the per-lane trim loop."""

    def trim(self, batch, percentile):
        return ValueTrimmer.trim(self, batch, max(0.0, percentile - 0.02))


class _DriftingTrimmer(ValueTrimmer):
    """STATEFUL custom trimmer: cutoff tightens with every trim() call.

    Byte-identity to solo play requires one instance per rep — the
    engine must route each rep's rounds through its own game's
    instance.
    """

    def __init__(self):
        super().__init__()
        self._calls = 0

    def trim(self, batch, percentile):
        self._calls += 1
        drift = min(0.05, 0.002 * self._calls)
        return ValueTrimmer.trim(self, batch, max(0.0, percentile - drift))


class TestCustomTrimmer:
    def test_trim_override_routes_per_rep(self, data_1d):
        shared = _TightenedTrimmer()
        lanes = TrimLanes([shared, shared, shared])
        assert lanes.mode == "loop"
        lanes_report = lanes.trim_stack(
            np.tile(data_1d[:50], (3, 1)), np.array([0.9, 0.95, 1.0])
        )
        assert lanes_report.kept.shape == (3, 50)
        _assert_batched_matches_solo(
            lambda s: StaticCollector(0.9),
            lambda s: FixedAdversary(0.99),
            data_1d,
            _TightenedTrimmer,
        )

    def test_stateful_trimmer_sequence_isolates_reps(self, data_1d):
        """Each game's own trimmer gives its rep its own state path."""
        roots = _roots()

        def game(rep):
            root = roots[rep]
            return CollectionGame(
                source=ArrayStream(data_1d, batch_size=80, seed=_child(root, 0)),
                collector=StaticCollector(0.9),
                adversary=FixedAdversary(0.99),
                injector=PoisonInjector(
                    0.2, mode="quantile", seed=_child(root, 3)
                ),
                trimmer=_DriftingTrimmer(),
                reference=data_1d,
                rounds=8,
            )

        batched = BatchedCollectionGame([game(rep) for rep in range(N_REPS)]).run()
        for rep in range(N_REPS):
            assert game(rep).run().to_records() == batched[rep].to_records()

    def test_runtime_builds_per_rep_trimmers(self, data_1d):
        """Sweep cells with a stateful custom trimmer batch correctly."""
        from repro.runtime import (
            ComponentSpec,
            StrategyPair,
            SweepGrid,
            SweepRunner,
            summarize_game,
        )

        class _DriftingRadial(RadialTrimmer):
            def __init__(self):
                super().__init__()
                self._calls = 0

            def trim(self, batch, percentile):
                self._calls += 1
                drift = min(0.05, 0.002 * self._calls)
                return RadialTrimmer.trim(
                    self, batch, max(0.0, percentile - drift)
                )

        # The factory must be importable for specs in general, but the
        # serial path never pickles — keep the sweep in-process.
        grid = SweepGrid(
            pairs=(
                StrategyPair(
                    "static-vs-extreme",
                    ComponentSpec(StaticCollector, {"threshold": 0.9}),
                    ComponentSpec(FixedAdversary, {"percentile": 0.99}),
                ),
            ),
            repetitions=3,
            rounds=5,
            batch_size=60,
            trimmer=ComponentSpec(_DriftingRadial),
            store_retained=False,
            seed=0,
        )
        solo = [summarize_game(spec, spec.play()) for spec in grid.expand()]
        assert SweepRunner().run_grid(grid) == solo


def _lane_games(data, collectors, adversaries, trimmers, rounds=8):
    """Solo results and one batched result, lane ``r`` built from the
    ``r``-th maker of each list (one quantile injector per lane)."""
    roots = _roots()[: len(collectors)]
    lanes = list(zip(roots, collectors, adversaries, trimmers, strict=True))

    def games():
        return [
            CollectionGame(
                source=ArrayStream(data, batch_size=80, seed=_child(root, 0)),
                collector=collector(),
                adversary=adversary(),
                injector=PoisonInjector(
                    0.2, mode="quantile", seed=_child(root, 3)
                ),
                trimmer=trimmer(),
                reference=data,
                rounds=rounds,
            )
            for root, collector, adversary, trimmer in lanes
        ]

    solo = [game.run() for game in games()]
    batched = BatchedCollectionGame(games()).run()
    return solo, batched


class TestPerLaneComponents:
    """Every lane runs its own components, whatever lane 0 holds."""

    def test_shipped_lead_trimmer_does_not_stand_in(self, data_1d):
        # A shipped first entry must not be shared across the list: the
        # stateful lanes 1 and 2 need their own drifting instances.
        solo, batched = _lane_games(
            data_1d,
            [lambda: StaticCollector(0.9)] * 3,
            [lambda: FixedAdversary(0.99)] * 3,
            [ValueTrimmer, _DriftingTrimmer, _DriftingTrimmer],
        )
        for rep in range(3):
            assert solo[rep].to_records() == batched[rep].to_records()

    def test_heterogeneous_lanes_report_their_own_names(self, data_1d):
        solo, batched = _lane_games(
            data_1d,
            [lambda: StaticCollector(0.9), lambda: ElasticCollector(0.9, 0.5)],
            [lambda: FixedAdversary(0.99), lambda: JustBelowAdversary(0.9)],
            [ValueTrimmer, ValueTrimmer],
        )
        for rep in range(2):
            lane = batched[rep]
            assert lane.collector_name == solo[rep].collector_name
            assert lane.adversary_name == solo[rep].adversary_name
            assert lane.to_records() == solo[rep].to_records()
        assert [lane.collector_name for lane in batched] == [
            "static@0.90", "elastic0.5"
        ]
        assert [lane.adversary_name for lane in batched] == [
            "fixed@0.99", "just-below"
        ]


class _ShiftedInjector(PoisonInjector):
    """Overrides ``materialize``: lockstep lanes must call it."""

    def materialize(self, benign, percentile):
        return super().materialize(benign, percentile) - 0.3


def _labeled_control():
    data, labels = generate_control(seed=7)
    return np.column_stack([data, labels])


def _taxi():
    return generate_taxi(4000, seed=17)


class TestInjectorSubclassLanes:
    """A ``PoisonInjector`` subclass lane plays its own ``materialize``,
    next to vectorized exact-class lanes."""

    @pytest.mark.parametrize(
        "make_data, injectors, trimmer, mode, batch",
        [
            pytest.param(
                _labeled_control,
                [LabelMimicInjector, LabelMimicInjector],
                LabelAwareRadialTrimmer,
                "radial",
                120,
                id="label-mimic",
            ),
            pytest.param(
                _taxi,
                [_ShiftedInjector, _ShiftedInjector],
                ValueTrimmer,
                "quantile",
                100,
                id="shifted-taxi",
            ),
            pytest.param(
                _taxi,
                [PoisonInjector, _ShiftedInjector, PoisonInjector],
                ValueTrimmer,
                "quantile",
                100,
                id="mixed-taxi",
            ),
        ],
    )
    def test_lockstep_equals_solo(self, make_data, injectors, trimmer, mode, batch):
        data = _read_only(make_data())
        roots = _roots()[: len(injectors)]

        def lane(root, injector_cls):
            return dict(
                source=ArrayStream(data, batch_size=batch, seed=_child(root, 0)),
                collector=ElasticCollector(0.9, 0.5),
                adversary=JustBelowAdversary(0.9),
                injector=injector_cls(0.2, mode=mode, seed=_child(root, 3)),
                trimmer=trimmer(),
            )

        pairs = list(zip(roots, injectors, strict=True))
        solo = [
            CollectionGame(**lane(root, cls), reference=data, rounds=8).run()
            for root, cls in pairs
        ]
        batched = BatchedCollectionGame(
            [
                CollectionGame(**lane(root, cls), reference=data, rounds=8)
                for root, cls in pairs
            ]
        ).run()
        for rep, result in enumerate(solo):
            assert batched[rep].to_records() == result.to_records()
            np.testing.assert_array_equal(
                batched[rep].retained_data(), result.retained_data()
            )
            assert result.poison_retained_fraction() > 0.0


class TestValidation:
    def _game(self, data, seed, rounds=4):
        return CollectionGame(
            source=ArrayStream(data, batch_size=80, seed=seed),
            collector=OstrichCollector(),
            adversary=NullAdversary(),
            injector=PoisonInjector(0.2, mode="quantile", seed=seed),
            trimmer=ValueTrimmer(),
            reference=data,
            rounds=rounds,
        )

    def test_rejects_no_games(self):
        with pytest.raises(ValueError, match="at least one game"):
            BatchedCollectionGame([])

    def test_rejects_a_game_seated_twice(self, data_1d):
        game = self._game(data_1d, 0)
        with pytest.raises(ValueError, match="seated twice"):
            BatchedCollectionGame([game, self._game(data_1d, 1), game])

    def test_rejects_mixed_horizons(self, data_1d):
        with pytest.raises(ValueError, match=r"one horizon.*\[4, 6\]"):
            BatchedCollectionGame(
                [self._game(data_1d, 0), self._game(data_1d, 1, rounds=6)]
            )


class TestObservationBatch:
    def test_rep_slices_scalar_observation(self):
        batch = RoundObservationBatch(
            index=3,
            trim_percentile=np.array([0.9, 0.95]),
            injection_percentile=np.array([np.nan, 0.92]),
            quality=np.array([0.1, 0.2]),
            observed_poison_ratio=np.array([0.0, 0.05]),
            betrayal=np.array([False, True]),
        )
        assert batch.n_reps == 2
        first = batch.rep(0)
        assert first.index == 3
        assert first.injection_percentile is None
        assert batch.rep(1).injection_percentile == 0.92
        assert batch.rep(1).betrayal is True

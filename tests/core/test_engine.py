"""Tests for repro.core.engine — the collection game loop and judges."""

import numpy as np
import pytest

from repro.core.engine import BandExcessJudge, CollectionGame, NoisyPositionJudge
from repro.core.quality import TailMassEvaluator
from repro.core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    GenerousCollector,
    MixedStrategyTrigger,
    NullAdversary,
    OstrichCollector,
    StaticCollector,
    TitForTatCollector,
    TitForTwoTatsCollector,
)
from repro.core.trimming import RadialTrimmer, ValueTrimmer
from repro.streams import ArrayStream, PoisonInjector


def _game(data, collector, adversary, ratio=0.2, rounds=5, anchor="reference",
          trimmer=None, judge=None):
    return CollectionGame(
        source=ArrayStream(data, batch_size=100, seed=0),
        collector=collector,
        adversary=adversary,
        injector=PoisonInjector(attack_ratio=ratio, seed=1),
        trimmer=trimmer or RadialTrimmer(),
        reference=data,
        quality_evaluator=TailMassEvaluator(),
        judge=judge,
        rounds=rounds,
        anchor=anchor,
    )


class TestCollectionGame:
    def test_round_count(self, control_data):
        data, _ = control_data
        result = _game(data, OstrichCollector(), NullAdversary(), rounds=7).run()
        assert result.rounds == 7

    def test_groundtruth_keeps_everything(self, control_data):
        data, _ = control_data
        result = _game(data, OstrichCollector(), NullAdversary()).run()
        assert result.poison_retained_fraction() == 0.0
        assert result.trimmed_fraction() == 0.0
        assert result.retained_data().shape == (500, data.shape[1])

    def test_ostrich_keeps_all_poison(self, control_data):
        data, _ = control_data
        result = _game(data, OstrichCollector(), FixedAdversary(0.99)).run()
        assert result.poison_retained_fraction() == pytest.approx(
            0.2 / 1.2, abs=0.01
        )

    def test_reference_trim_removes_above_threshold_poison(self, control_data):
        data, _ = control_data
        result = _game(data, StaticCollector(0.9), FixedAdversary(0.99)).run()
        # Poison at the 99th reference percentile sits above the 0.9 cutoff.
        assert result.poison_retained_fraction() == pytest.approx(0.0, abs=0.01)

    def test_just_below_poison_survives_reference_trim(self, control_data):
        data, _ = control_data
        result = _game(data, StaticCollector(0.9), FixedAdversary(0.85)).run()
        assert result.poison_retained_fraction() > 0.12

    def test_batch_anchor_trims_fixed_fraction(self, control_data):
        data, _ = control_data
        result = _game(
            data, StaticCollector(0.9), FixedAdversary(0.99), anchor="batch"
        ).run()
        # 10% of each combined batch is removed, independent of inflation.
        assert result.trimmed_fraction() == pytest.approx(0.1, abs=0.01)

    def test_threshold_and_injection_paths_recorded(self, control_data):
        data, _ = control_data
        result = _game(data, StaticCollector(0.9), FixedAdversary(0.99)).run()
        np.testing.assert_allclose(result.threshold_path(), 0.9)
        np.testing.assert_allclose(result.injection_path(), 0.99)

    def test_null_adversary_injection_path_is_nan(self, control_data):
        data, _ = control_data
        result = _game(data, OstrichCollector(), NullAdversary()).run()
        assert np.isnan(result.injection_path()).all()

    def test_invalid_rounds_rejected(self, control_data):
        data, _ = control_data
        with pytest.raises(ValueError):
            _game(data, OstrichCollector(), NullAdversary(), rounds=0)

    def test_invalid_anchor_rejected(self, control_data):
        data, _ = control_data
        with pytest.raises(ValueError):
            _game(data, OstrichCollector(), NullAdversary(), anchor="nope")

    def test_scalar_stream_with_value_trimmer(self, rng):
        values = rng.normal(size=2000)
        game = CollectionGame(
            source=ArrayStream(values, batch_size=200, seed=0),
            collector=StaticCollector(0.95),
            adversary=FixedAdversary(0.99),
            injector=PoisonInjector(attack_ratio=0.1, seed=1),
            trimmer=ValueTrimmer(),
            reference=values,
            rounds=4,
        )
        result = game.run()
        assert result.poison_retained_fraction() < 0.02

    def test_run_is_reproducible_given_seeds(self, control_data):
        data, _ = control_data
        r1 = _game(data, StaticCollector(0.9), FixedAdversary(0.95)).run()
        r2 = _game(data, StaticCollector(0.9), FixedAdversary(0.95)).run()
        assert r1.poison_retained_fraction() == r2.poison_retained_fraction()
        np.testing.assert_array_equal(r1.retained_data(), r2.retained_data())


class TestStrategyReplay:
    """Reused strategy objects must replay identically after reset().

    ``CollectionGame.run`` resets both strategies, so playing the same
    game twice on the *same* instances is the engine-level contract the
    per-strategy ``reset`` implementations have to honor.
    """

    @pytest.mark.parametrize(
        "make_collector",
        [
            lambda: ElasticCollector(0.9, 0.5, rule="relaxation"),
            lambda: TitForTatCollector(
                0.9, trigger=MixedStrategyTrigger(0.5, warmup=2)
            ),
            lambda: GenerousCollector(0.9, generosity=0.5, seed=11),
            lambda: TitForTwoTatsCollector(0.9),
        ],
    )
    def test_same_game_twice_identical_paths(self, rng, make_collector):
        data = rng.normal(size=(500, 4))
        collector = make_collector()
        adversary = ElasticAdversary(0.9, 0.5, rule="relaxation")
        game = _game(data, collector, adversary, rounds=8)
        first = game.run()
        second = game.run()
        np.testing.assert_array_equal(
            first.threshold_path(), second.threshold_path()
        )
        np.testing.assert_array_equal(
            first.injection_path(), second.injection_path()
        )
        assert first.termination_round == second.termination_round
        assert (
            first.poison_retained_fraction()
            == second.poison_retained_fraction()
        )


class TestBandExcessJudge:
    def test_clean_scores_not_flagged(self, rng):
        reference = rng.normal(size=5000)
        judge = BandExcessJudge(noise_sigma=0.0).fit(np.abs(reference))
        assert not judge.judge(np.abs(rng.normal(size=3000)))

    def test_band_stuffing_flagged(self, rng):
        reference = np.abs(rng.normal(size=5000))
        judge = BandExcessJudge(band=(0.85, 0.95), margin=0.04, noise_sigma=0.0)
        judge.fit(reference)
        lo, hi = np.quantile(reference, [0.86, 0.94])
        batch = np.concatenate(
            [np.abs(rng.normal(size=1000)), rng.uniform(lo, hi, size=300)]
        )
        assert judge.judge(batch)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            BandExcessJudge().judge(np.ones(10))

    def test_empty_scores_not_flagged(self, rng):
        judge = BandExcessJudge().fit(np.abs(rng.normal(size=100)))
        assert not judge.judge(np.array([]))

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            BandExcessJudge(band=(0.9, 0.8))


class TestNoisyPositionJudge:
    def test_noiseless_judgement(self):
        judge = NoisyPositionJudge(0.9, miss_rate=0.0, false_positive_rate=0.0)
        assert judge.judge_round(0.85, None)
        assert not judge.judge_round(0.95, None)
        assert not judge.judge_round(None, None)

    def test_miss_rate_frequency(self):
        judge = NoisyPositionJudge(0.9, miss_rate=0.3, false_positive_rate=0.0,
                                   seed=0)
        hits = [judge.judge_round(0.8, None) for _ in range(5000)]
        assert np.mean(hits) == pytest.approx(0.7, abs=0.03)

    def test_false_positive_frequency(self):
        judge = NoisyPositionJudge(0.9, miss_rate=0.0, false_positive_rate=0.2,
                                   seed=0)
        hits = [judge.judge_round(0.99, None) for _ in range(5000)]
        assert np.mean(hits) == pytest.approx(0.2, abs=0.03)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NoisyPositionJudge(0.0)
        with pytest.raises(ValueError):
            NoisyPositionJudge(0.9, miss_rate=1.5)


class TestLeanMode:
    """store_retained=False must change memory, never results."""

    def test_records_byte_identical_to_full_mode(self, control_data):
        data, _ = control_data

        def build(store_retained):
            return CollectionGame(
                source=ArrayStream(data, batch_size=100, seed=0),
                collector=ElasticCollector(t_th=0.9, k=0.5),
                adversary=ElasticAdversary(t_th=0.9, k=0.5),
                injector=PoisonInjector(attack_ratio=0.2, seed=1),
                trimmer=RadialTrimmer(),
                reference=data,
                quality_evaluator=TailMassEvaluator(),
                judge=BandExcessJudge(noise_sigma=0.02, seed=3),
                rounds=6,
                store_retained=store_retained,
            )

        import json

        full = build(True).run()
        lean = build(False).run()
        assert json.dumps(full.to_records(), sort_keys=True) == json.dumps(
            lean.to_records(), sort_keys=True
        )
        assert lean.poison_retained_fraction() == full.poison_retained_fraction()
        assert lean.trimmed_fraction() == full.trimmed_fraction()

    def test_lean_result_has_no_retained_data(self, control_data):
        data, _ = control_data
        game = CollectionGame(
            source=ArrayStream(data, batch_size=100, seed=0),
            collector=OstrichCollector(),
            adversary=NullAdversary(),
            injector=PoisonInjector(attack_ratio=0.2, seed=1),
            trimmer=RadialTrimmer(),
            reference=data,
            rounds=3,
            store_retained=False,
        )
        result = game.run()
        with pytest.raises(ValueError, match="lean"):
            result.retained_data()
        assert result.board.retained is None


class TestSharedScoreSweep:
    """With a ValueTrimmer on 1-D data the evaluator reuses the trim
    report's scores — results must match an unshared evaluation."""

    def test_value_trimmer_shares_scores_with_tailmass(self, rng):
        data = rng.lognormal(size=2000)

        class NoShareEvaluator(TailMassEvaluator):
            def accepts_scores(self, score_kind):
                return False

        def build(evaluator):
            return CollectionGame(
                source=ArrayStream(data, batch_size=200, seed=0),
                collector=ElasticCollector(t_th=0.9, k=0.5),
                adversary=FixedAdversary(0.93),
                injector=PoisonInjector(attack_ratio=0.2, mode="quantile", seed=1),
                trimmer=ValueTrimmer(),
                reference=data,
                quality_evaluator=evaluator,
                rounds=5,
            )

        shared_game = build(TailMassEvaluator())
        assert shared_game._share_scores
        unshared_game = build(NoShareEvaluator())
        assert not unshared_game._share_scores

        import json

        shared = shared_game.run().to_records()
        unshared = unshared_game.run().to_records()
        assert json.dumps(shared, sort_keys=True) == json.dumps(
            unshared, sort_keys=True
        )

    def test_radial_trimmer_does_not_share(self, control_data):
        data, _ = control_data
        game = _game(data, OstrichCollector(), NullAdversary())
        assert not game._share_scores


class TestJudgeTableSharing:
    def test_band_judge_fit_accepts_quantile_table(self, rng):
        from repro.core.domain import QuantileTable

        scores = rng.normal(size=1000)
        from_scores = BandExcessJudge(noise_sigma=0.0).fit(scores)
        from_table = BandExcessJudge(noise_sigma=0.0).fit(QuantileTable(scores))
        assert from_scores._band_values == from_table._band_values

    def test_engine_shares_trimmer_table_with_band_judge(self, control_data):
        data, _ = control_data
        game = _game(data, OstrichCollector(), NullAdversary())
        # The judge's band cutoffs must equal quantiles of the trimmer's
        # reference scores (the single shared sorted table).
        expected = np.quantile(
            game.trimmer.reference_scores, game.judge.band
        )
        assert game.judge._band_values == (float(expected[0]), float(expected[1]))

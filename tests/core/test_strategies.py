"""Tests for repro.core.strategies — collectors, adversaries, triggers."""

import numpy as np
import pytest

from repro.core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    JustBelowAdversary,
    MixedAdversary,
    MixedStrategyTrigger,
    NullAdversary,
    OstrichCollector,
    QualityTrigger,
    StaticCollector,
    TitForTatCollector,
    UniformRangeAdversary,
)
from repro.core.strategies.base import (
    RoundObservation,
    generator_from_state,
    rng_state,
    set_rng_state,
)


def obs(index=1, trim=0.9, inject=0.95, quality=0.0, ratio=0.0, betrayal=False):
    return RoundObservation(
        index=index,
        trim_percentile=trim,
        injection_percentile=inject,
        quality=quality,
        observed_poison_ratio=ratio,
        betrayal=betrayal,
    )


class TestBaselines:
    def test_ostrich_never_trims(self):
        c = OstrichCollector()
        assert c.first() == 1.0
        assert c.react(obs()) == 1.0

    def test_static_constant(self):
        c = StaticCollector(0.9)
        assert c.first() == 0.9
        assert c.react(obs(inject=0.1)) == 0.9

    def test_static_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            StaticCollector(0.0)

    def test_static_name_includes_threshold(self):
        assert "0.90" in StaticCollector(0.9).name


class TestTitForTatCollector:
    def test_soft_until_triggered(self):
        trig = QualityTrigger(reference_score=0.1, redundancy=0.05)
        c = TitForTatCollector(0.9, trigger=trig)
        assert c.first() == pytest.approx(0.91)
        assert c.react(obs(quality=0.12)) == pytest.approx(0.91)
        assert not c.triggered

    def test_trigger_fires_and_is_permanent(self):
        trig = QualityTrigger(reference_score=0.1, redundancy=0.05)
        c = TitForTatCollector(0.9, trigger=trig)
        c.first()
        assert c.react(obs(index=3, quality=0.3)) == pytest.approx(0.87)
        assert c.triggered
        assert c.terminated_round == 3
        # Even a pristine observation cannot restore soft trimming.
        assert c.react(obs(index=4, quality=0.0)) == pytest.approx(0.87)

    def test_no_trigger_configuration_never_hardens(self):
        c = TitForTatCollector(0.9, trigger=None)
        for i in range(1, 20):
            assert c.react(obs(index=i, quality=10.0)) == pytest.approx(0.91)
        assert c.terminated_round is None

    def test_reset_clears_trigger_state(self):
        trig = QualityTrigger(reference_score=0.0, redundancy=0.0)
        c = TitForTatCollector(0.9, trigger=trig)
        c.react(obs(quality=1.0))
        assert c.triggered
        c.reset()
        assert not c.triggered
        assert c.terminated_round is None
        assert c.first() == pytest.approx(0.91)

    def test_offsets_clipped_to_unit_interval(self):
        c = TitForTatCollector(0.995, soft_offset=0.01)
        assert c.soft_percentile == 1.0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            TitForTatCollector(1.5)


class TestMixedStrategyTrigger:
    def test_tolerance_formula(self):
        t = MixedStrategyTrigger(0.7, redundancy=0.05)
        assert t.tolerance == pytest.approx(0.35)

    def test_no_fire_during_warmup(self):
        t = MixedStrategyTrigger(1.0, redundancy=0.05, warmup=5)
        for i in range(4):
            assert not t.fired(obs(index=i + 1, betrayal=True))

    def test_fires_after_warmup_when_ratio_exceeds(self):
        t = MixedStrategyTrigger(1.0, redundancy=0.05, warmup=3)
        t.fired(obs(betrayal=True))
        t.fired(obs(betrayal=True))
        assert t.fired(obs(betrayal=True))  # ratio 1 > 0.05 at warmup

    def test_p_zero_never_fires(self):
        t = MixedStrategyTrigger(0.0, redundancy=0.05, warmup=2)
        fired = [t.fired(obs(index=i, betrayal=True)) for i in range(1, 30)]
        assert not any(fired)  # tolerance 1.05 unreachable

    def test_ratio_tracks_judgements(self):
        t = MixedStrategyTrigger(0.5, warmup=100)
        t.fired(obs(betrayal=True))
        t.fired(obs(betrayal=False))
        assert t.betrayal_ratio == pytest.approx(0.5)

    def test_reset(self):
        t = MixedStrategyTrigger(0.5)
        t.fired(obs(betrayal=True))
        t.reset()
        assert t.betrayal_ratio == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MixedStrategyTrigger(1.5)
        with pytest.raises(ValueError):
            MixedStrategyTrigger(0.5, warmup=0)


class TestElasticCollector:
    def test_initial_position(self):
        c = ElasticCollector(0.9, 0.5)
        assert c.first() == pytest.approx(0.87)

    def test_paper_rule_update(self):
        c = ElasticCollector(0.9, 0.5, rule="paper")
        c.reset()
        new = c.react(obs(inject=0.99))
        assert new == pytest.approx(0.9 + 0.5 * (0.99 - 0.9 - 0.01))

    def test_relaxation_rule_moves_partway(self):
        c = ElasticCollector(0.9, 0.5, rule="relaxation")
        c.reset()
        target = 0.9 + 0.5 * (0.99 - 0.9 - 0.01)
        new = c.react(obs(inject=0.99))
        assert new == pytest.approx(0.5 * 0.87 + 0.5 * target)

    def test_converges_to_linear_fixed_point(self):
        from repro.core.stackelberg import linear_response_fixed_point

        for rule in ("paper", "relaxation"):
            collector = ElasticCollector(0.9, 0.5, rule=rule)
            adversary = ElasticAdversary(0.9, 0.5, rule=rule)
            collector.reset()
            adversary.reset()
            t, a = collector.first(), adversary.first()
            for i in range(200):
                o = obs(index=i + 1, trim=t, inject=a)
                t, a = collector.react(o), adversary.react(o)
            t_star, a_star = linear_response_fixed_point(0.9, 0.5)
            assert t == pytest.approx(t_star, abs=1e-6)
            assert a == pytest.approx(a_star, abs=1e-6)

    def test_quality_fallback_when_no_injection(self):
        c = ElasticCollector(0.9, 0.5)
        c.reset()
        calm = c.react(obs(inject=None, quality=0.0))
        assert calm == pytest.approx(0.91)  # no alarm -> soft endpoint
        c.reset()
        alarmed = c.react(obs(inject=None, quality=1.0))
        assert alarmed == pytest.approx(0.5 * 0.91 + 0.5 * 0.87)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ElasticCollector(0.9, 1.0)
        with pytest.raises(ValueError):
            ElasticCollector(0.9, 0.5, rule="nope")


class TestElasticAdversary:
    def test_initial_position(self):
        a = ElasticAdversary(0.9, 0.5)
        assert a.first() == pytest.approx(0.91)

    def test_paper_rule_update(self):
        a = ElasticAdversary(0.9, 0.5, rule="paper")
        a.reset()
        new = a.react(obs(trim=0.87))
        assert new == pytest.approx(0.9 - 0.03 + 0.5 * (0.87 - 0.9))

    def test_reset_restores_initial(self):
        a = ElasticAdversary(0.9, 0.5)
        a.react(obs(trim=0.5))
        a.reset()
        assert a.first() == pytest.approx(0.91)


class TestAdversaries:
    def test_null_adversary(self):
        a = NullAdversary()
        assert a.first() is None
        assert a.react(obs()) is None

    def test_fixed_adversary(self):
        a = FixedAdversary(0.99)
        assert a.first() == 0.99
        assert a.react(obs(trim=0.1)) == 0.99

    def test_fixed_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FixedAdversary(1.2)

    def test_uniform_range_in_bounds(self):
        a = UniformRangeAdversary(0.9, 1.0, seed=0)
        draws = [a.react(obs()) for _ in range(100)]
        assert all(0.9 <= d <= 1.0 for d in draws)
        assert len(set(draws)) > 50  # actually random

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformRangeAdversary(1.0, 0.9)

    def test_just_below_tracks_threshold(self):
        a = JustBelowAdversary(initial_threshold=0.9, margin=0.01)
        assert a.first() == pytest.approx(0.89)
        assert a.react(obs(trim=0.95)) == pytest.approx(0.94)

    def test_just_below_clips_at_zero(self):
        a = JustBelowAdversary(initial_threshold=0.9, margin=0.01)
        assert a.react(obs(trim=0.005)) == 0.0

    def test_mixed_adversary_extremes(self):
        always_eq = MixedAdversary(1.0, seed=0)
        assert all(always_eq.react(obs()) == 0.99 for _ in range(20))
        always_greedy = MixedAdversary(0.0, seed=0)
        assert all(always_greedy.react(obs()) == 0.90 for _ in range(20))

    def test_mixed_adversary_frequency(self):
        a = MixedAdversary(0.7, seed=1)
        draws = [a.react(obs()) for _ in range(4000)]
        assert np.mean(np.array(draws) == 0.99) == pytest.approx(0.7, abs=0.03)

    def test_mixed_tracks_last_play(self):
        a = MixedAdversary(0.0, seed=0)
        a.react(obs())
        assert a.last_was_greedy

    def test_mixed_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            MixedAdversary(0.5, equilibrium_position=0.8, greedy_position=0.9)


BIT_GENERATORS = ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]


def _scribble(document):
    """Overwrite every value of a bit-state document, arrays in place."""
    for key, value in document.items():
        if isinstance(value, dict):
            _scribble(value)
        elif isinstance(value, np.ndarray):
            value[...] = 7
        elif isinstance(value, int):
            document[key] = value + 1


class TestRngState:
    """The contract snapshots rely on: documents never alias a Generator."""

    @staticmethod
    def _generator(name, seed=11):
        rng = np.random.Generator(getattr(np.random, name)(seed))
        rng.random(5)  # move off the seeded state (buffered halves too)
        rng.integers(0, 10, size=3, dtype=np.uint32)
        return rng

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_mutating_an_exported_document_never_moves_the_generator(self, name):
        rng, twin = self._generator(name), self._generator(name)
        _scribble(rng_state(rng))
        assert rng.random(8).tobytes() == twin.random(8).tobytes()

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_mutating_an_imported_document_never_moves_the_generator(self, name):
        rng, twin = self._generator(name, seed=1), self._generator(name)
        document = rng_state(twin)
        set_rng_state(rng, document)
        _scribble(document)
        assert rng.random(8).tobytes() == twin.random(8).tobytes()

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_a_rebuild_without_its_seed_sequence_cannot_spawn(self, name):
        # It draws as the original does, but has no seed sequence to
        # spawn from, and says so rather than spawning from a made-up
        # one.
        rng = self._generator(name)
        rebuilt = generator_from_state(rng_state(rng))
        assert rebuilt.random(4).tobytes() == rng.random(4).tobytes()
        with pytest.raises(TypeError, match="spawning"):
            rebuilt.spawn(1)

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_export_then_import_into_a_fresh_generator_continues(self, name):
        rng = self._generator(name)
        fresh = np.random.Generator(getattr(np.random, name)(99))
        set_rng_state(fresh, rng_state(rng))
        rebuilt = generator_from_state(rng_state(rng))
        expected = rng.normal(size=16).tobytes()
        assert fresh.normal(size=16).tobytes() == expected
        assert rebuilt.normal(size=16).tobytes() == expected

"""Tests for repro.core.strategies.variants — Tit-for-tat variants."""

import numpy as np
import pytest

from repro.core.engine import CollectionGame, NoisyPositionJudge
from repro.core.strategies import (
    FixedAdversary,
    GenerousCollector,
    MirrorCollector,
    MixedStrategyTrigger,
    TitForTatCollector,
    TitForTwoTatsCollector,
)
from repro.core.strategies.base import RoundObservation
from repro.core.trimming import RadialTrimmer
from repro.datasets import load_dataset
from repro.streams import ArrayStream, PoisonInjector


def obs(index=1, betrayal=False):
    return RoundObservation(
        index=index,
        trim_percentile=0.9,
        injection_percentile=0.95,
        quality=0.0,
        observed_poison_ratio=0.0,
        betrayal=betrayal,
    )


class TestMirrorCollector:
    def test_opens_soft(self):
        c = MirrorCollector(0.9)
        assert c.first() == pytest.approx(0.91)

    def test_punishes_exactly_one_round(self):
        c = MirrorCollector(0.9)
        assert c.react(obs(betrayal=True)) == pytest.approx(0.87)
        assert c.react(obs(betrayal=False)) == pytest.approx(0.91)

    def test_never_escalates_permanently(self):
        c = MirrorCollector(0.9)
        for _ in range(5):
            c.react(obs(betrayal=True))
        assert c.react(obs(betrayal=False)) == pytest.approx(0.91)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            MirrorCollector(0.0)


class TestGenerousCollector:
    def test_zero_generosity_is_mirror(self):
        c = GenerousCollector(0.9, generosity=0.0, seed=0)
        for _ in range(10):
            assert c.react(obs(betrayal=True)) == pytest.approx(0.87)

    def test_full_generosity_never_punishes(self):
        c = GenerousCollector(0.9, generosity=1.0, seed=0)
        for _ in range(10):
            assert c.react(obs(betrayal=True)) == pytest.approx(0.91)

    def test_forgiveness_frequency(self):
        c = GenerousCollector(0.9, generosity=0.3, seed=1)
        outcomes = [c.react(obs(betrayal=True)) for _ in range(4000)]
        forgiven = np.mean(np.isclose(outcomes, 0.91))
        assert forgiven == pytest.approx(0.3, abs=0.03)

    def test_cooperative_rounds_always_soft(self):
        c = GenerousCollector(0.9, generosity=0.3, seed=2)
        assert all(
            c.react(obs(betrayal=False)) == pytest.approx(0.91)
            for _ in range(50)
        )

    def test_invalid_generosity_rejected(self):
        with pytest.raises(ValueError):
            GenerousCollector(0.9, generosity=1.5)

    def test_reset_replays_the_forgiveness_stream(self):
        # Regression: reset() must rewind the RNG so a reused seeded
        # instance makes identical forgiveness decisions game over game.
        c = GenerousCollector(0.9, generosity=0.5, seed=5)
        first = [c.react(obs(betrayal=True)) for _ in range(30)]
        c.reset()
        second = [c.react(obs(betrayal=True)) for _ in range(30)]
        assert first == second


class TestTitForTwoTats:
    def test_single_betrayal_absorbed(self):
        c = TitForTwoTatsCollector(0.9)
        assert c.react(obs(betrayal=True)) == pytest.approx(0.91)
        assert c.react(obs(betrayal=False)) == pytest.approx(0.91)

    def test_two_consecutive_betrayals_punished(self):
        c = TitForTwoTatsCollector(0.9)
        c.react(obs(betrayal=True))
        assert c.react(obs(betrayal=True)) == pytest.approx(0.87)

    def test_alternating_betrayal_never_punished(self):
        c = TitForTwoTatsCollector(0.9)
        for i in range(10):
            out = c.react(obs(betrayal=(i % 2 == 0)))
            assert out == pytest.approx(0.91)

    def test_reset_clears_memory(self):
        c = TitForTwoTatsCollector(0.9)
        c.react(obs(betrayal=True))
        c.reset()
        assert c.react(obs(betrayal=True)) == pytest.approx(0.91)

    def test_noise_tolerance_vs_mirror(self):
        # Under iid false positives at rate alpha, tit-for-two-tats
        # punishes at roughly alpha^2 whereas mirror punishes at alpha.
        rng = np.random.default_rng(3)
        alpha = 0.2
        flags = rng.random(6000) < alpha
        mirror = MirrorCollector(0.9)
        tftt = TitForTwoTatsCollector(0.9)
        mirror_punish = sum(
            mirror.react(obs(betrayal=bool(b))) < 0.9 for b in flags
        )
        tftt_punish = sum(
            tftt.react(obs(betrayal=bool(b))) < 0.9 for b in flags
        )
        assert tftt_punish < 0.5 * mirror_punish


@pytest.mark.slow
class TestNoisyJudgement:
    def test_tolerant_variants_punish_a_compliant_adversary_less(self):
        """§V of arXiv 2403.10313: against a fully compliant adversary
        under a judge with 10 % false positives, the grim trigger
        (Algorithm 1) hard-trims at least as many rounds as mirror
        Tit-for-tat, and generosity and two-tats tolerance both fewer."""
        data, _ = load_dataset("control")
        collectors = {
            "grim": lambda: TitForTatCollector(
                0.9, trigger=MixedStrategyTrigger(1.0, redundancy=0.05, warmup=5)
            ),
            "mirror": lambda: MirrorCollector(0.9),
            "generous": lambda: GenerousCollector(0.9, 0.3, seed=11),
            "two-tats": lambda: TitForTwoTatsCollector(0.9),
        }
        hard_rounds = {}
        for name, make_collector in collectors.items():
            counts = []
            for rep in range(5):
                result = CollectionGame(
                    source=ArrayStream(data, batch_size=100, seed=rep),
                    collector=make_collector(),
                    adversary=FixedAdversary(0.99),
                    injector=PoisonInjector(0.2, mode="radial", seed=rep + 1),
                    trimmer=RadialTrimmer(),
                    reference=data,
                    judge=NoisyPositionJudge(
                        boundary=0.905,
                        miss_rate=0.0,
                        false_positive_rate=0.1,
                        seed=rep + 2,
                    ),
                    rounds=30,
                    anchor="batch",
                ).run()
                counts.append(int(np.sum(result.threshold_path() < 0.9)))
            hard_rounds[name] = float(np.mean(counts))
        assert hard_rounds["grim"] >= hard_rounds["mirror"]
        assert hard_rounds["generous"] < hard_rounds["mirror"]
        assert hard_rounds["two-tats"] < hard_rounds["mirror"]

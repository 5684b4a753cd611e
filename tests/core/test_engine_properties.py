"""Property-based invariants of the collection game engine.

Hypothesis drives random attack ratios, thresholds and anchoring modes
through short games and asserts bookkeeping invariants that must hold for
*every* configuration: conservation of counts, bounded fractions, and
percentile-coordinate consistency between injection and trimming.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import CollectionGame
from repro.core.strategies import FixedAdversary, StaticCollector
from repro.core.trimming import RadialTrimmer
from repro.streams import ArrayStream, PoisonInjector


@pytest.fixture(scope="module")
def reference_data():
    rng = np.random.default_rng(7)
    return rng.normal(size=(400, 6))


def _run(reference_data, ratio, trim_q, inject_q, anchor, rounds=3, seed=0):
    game = CollectionGame(
        source=ArrayStream(reference_data, batch_size=80, seed=seed),
        collector=StaticCollector(trim_q),
        adversary=FixedAdversary(inject_q),
        injector=PoisonInjector(attack_ratio=ratio, mode="radial", seed=seed),
        trimmer=RadialTrimmer(),
        reference=reference_data,
        rounds=rounds,
        anchor=anchor,
    )
    return game.run()


class TestEngineInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        ratio=st.floats(0.0, 0.5),
        trim_q=st.floats(0.5, 1.0),
        inject_q=st.floats(0.0, 1.0),
        anchor=st.sampled_from(["reference", "batch"]),
    )
    def test_bookkeeping_conservation(
        self, reference_data, ratio, trim_q, inject_q, anchor
    ):
        result = _run(reference_data, ratio, trim_q, inject_q, anchor)
        cols = result.board.columns
        for retained, n_collected, n_poison_injected, n_poison_retained in zip(
            result.board.retained,
            cols.n_collected,
            cols.n_poison_injected,
            cols.n_poison_retained,
            strict=True,
        ):
            # Retained is a subset of collected.
            assert 0 <= retained.shape[0] <= n_collected
            # Poison bookkeeping is conserved.
            assert 0 <= n_poison_retained <= n_poison_injected
            # Collected = benign batch + injected poison.
            assert n_collected == 80 + n_poison_injected
        assert 0.0 <= result.poison_retained_fraction() <= 1.0
        assert 0.0 <= result.trimmed_fraction() <= 1.0

    @settings(max_examples=15, deadline=None)
    @given(ratio=st.floats(0.05, 0.4), gap=st.floats(0.02, 0.2))
    def test_injection_above_reference_cutoff_is_trimmed(
        self, reference_data, ratio, gap
    ):
        # Reference anchoring: poison strictly above the trim percentile
        # (by at least the jitter width) never survives.
        trim_q = 0.85
        inject_q = min(0.99, trim_q + gap + 0.011)
        result = _run(reference_data, ratio, trim_q, inject_q, "reference")
        assert result.poison_retained_fraction() == pytest.approx(0.0, abs=0.02)

    @settings(max_examples=15, deadline=None)
    @given(ratio=st.floats(0.05, 0.4))
    def test_injection_well_below_cutoff_survives(self, reference_data, ratio):
        result = _run(reference_data, ratio, 0.95, 0.5, "reference")
        expected = ratio / (1.0 + ratio)
        assert result.poison_retained_fraction() == pytest.approx(
            expected, abs=0.05
        )

    @settings(max_examples=15, deadline=None)
    @given(
        ratio=st.floats(0.0, 0.5),
        trim_q=st.floats(0.5, 0.99),
    )
    def test_batch_anchor_trims_requested_fraction(
        self, reference_data, ratio, trim_q
    ):
        result = _run(reference_data, ratio, trim_q, 0.9, "batch")
        assert result.trimmed_fraction() == pytest.approx(1.0 - trim_q, abs=0.03)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_determinism(self, reference_data, seed):
        a = _run(reference_data, 0.2, 0.9, 0.95, "reference", seed=seed)
        b = _run(reference_data, 0.2, 0.9, 0.95, "reference", seed=seed)
        np.testing.assert_array_equal(a.retained_data(), b.retained_data())

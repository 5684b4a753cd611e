"""Tests for repro.streams.injection — poison materialization."""

import numpy as np
import pytest

from repro.streams import PoisonInjector


class TestPoisonCount:
    def test_rounding(self):
        assert PoisonInjector(0.2).poison_count(100) == 20
        assert PoisonInjector(0.25).poison_count(10) == 2  # round(2.5) banker's
        assert PoisonInjector(0.0).poison_count(100) == 0

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            PoisonInjector(-0.1)


class TestScalarInjection:
    def test_positions_at_quantile(self, rng):
        benign = rng.normal(size=1000)
        inj = PoisonInjector(0.1, jitter=0.0, seed=0)
        poison = inj.materialize(benign, 0.9)
        assert poison.shape == (100,)
        np.testing.assert_allclose(poison, np.quantile(benign, 0.9))

    def test_jitter_band(self, rng):
        benign = np.sort(rng.normal(size=1000))
        inj = PoisonInjector(0.1, jitter=0.05, seed=0)
        poison = inj.materialize(benign, 0.9)
        lo = np.quantile(benign, 0.9)
        hi = np.quantile(benign, 0.95)
        assert (poison >= lo - 1e-12).all() and (poison <= hi + 1e-12).all()

    def test_zero_ratio_returns_empty(self, rng):
        inj = PoisonInjector(0.0)
        assert inj.materialize(rng.normal(size=50), 0.9).shape == (0,)

    def test_reference_calibration_overrides_batch(self, rng):
        reference = rng.normal(0.0, 1.0, size=10_000)
        inj = PoisonInjector(0.1, jitter=0.0, seed=0).fit_reference(reference)
        # A weird batch no longer matters: positions come from the reference.
        batch = rng.normal(100.0, 1.0, size=100)
        poison = inj.materialize(batch, 0.9)
        np.testing.assert_allclose(poison, np.quantile(reference, 0.9))


class TestMultivariateInjection:
    def test_corner_mode_per_feature_quantiles(self, rng):
        benign = rng.normal(size=(500, 3))
        inj = PoisonInjector(0.1, jitter=0.0, mode="quantile", seed=0)
        poison = inj.materialize(benign, 0.99)
        assert poison.shape == (50, 3)
        np.testing.assert_allclose(
            poison[0], np.quantile(benign, 0.99, axis=0)
        )

    def test_radial_mode_matches_score_quantile(self, rng):
        benign = rng.normal(size=(1000, 4))
        inj = PoisonInjector(0.1, jitter=0.0, mode="radial", seed=0)
        poison = inj.materialize(benign, 0.95)
        center = np.median(benign, axis=0)
        scores = np.linalg.norm(benign - center, axis=1)
        target = np.quantile(scores, 0.95)
        dists = np.linalg.norm(poison - center, axis=1)
        np.testing.assert_allclose(dists, target, rtol=1e-9)

    def test_radial_poison_is_colluding(self, rng):
        # All poison lies along one ray: pairwise directions are parallel.
        benign = rng.normal(size=(500, 5))
        inj = PoisonInjector(0.2, jitter=0.0, mode="radial", seed=0)
        poison = inj.materialize(benign, 0.9)
        center = np.median(benign, axis=0)
        units = (poison - center) / np.linalg.norm(
            poison - center, axis=1, keepdims=True
        )
        assert np.allclose(units, units[0])

    def test_radial_reference_calibration(self, rng):
        reference = rng.normal(size=(5000, 3))
        inj = PoisonInjector(0.1, jitter=0.0, mode="radial", seed=0)
        inj.fit_reference(reference)
        batch = rng.normal(10.0, 1.0, size=(100, 3))
        poison = inj.materialize(batch, 0.99)
        ref_center = np.median(reference, axis=0)
        ref_scores = np.linalg.norm(reference - ref_center, axis=1)
        dists = np.linalg.norm(poison - ref_center, axis=1)
        np.testing.assert_allclose(dists, np.quantile(ref_scores, 0.99))

    def test_higher_percentile_is_farther(self, rng):
        benign = rng.normal(size=(1000, 4))
        inj = PoisonInjector(0.05, jitter=0.0, mode="radial", seed=0)
        center = np.median(benign, axis=0)
        near = np.linalg.norm(inj.materialize(benign, 0.5) - center, axis=1)
        far = np.linalg.norm(inj.materialize(benign, 0.99) - center, axis=1)
        assert far.mean() > near.mean()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PoisonInjector(0.1, mode="diagonal")

    def test_3d_batch_rejected(self, rng):
        inj = PoisonInjector(0.1)
        with pytest.raises(ValueError):
            inj.materialize(rng.normal(size=(2, 2, 2)), 0.9)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            PoisonInjector(0.1).fit_reference(np.array([]))


# --------------------------------------------------------------------- #
# fitted placement, bit for bit against the per-call computation
# --------------------------------------------------------------------- #
def _positions(rng, percentile, count, jitter):
    """The injector's jitter draw, replayed on a twin Generator."""
    low = min(1.0, max(0.0, percentile))
    high = min(1.0, low + jitter)
    if high <= low:
        return np.full(count, low)
    return rng.uniform(low, high, size=count)


def _placement_1d(reference, positions):
    """Per-call 1-D placement: quantiles of the sorted reference."""
    return np.quantile(np.sort(reference), positions)


def _placement_radial(reference, positions):
    """Per-call radial placement: center, scores and corner each call."""
    center = np.median(reference, axis=0)
    scores = np.linalg.norm(reference - center, axis=1)
    targets = np.quantile(scores, positions)
    direction = np.quantile(reference, 0.99, axis=0) - center
    norm = float(np.linalg.norm(direction))
    if norm <= 0.0:
        direction = np.zeros(reference.shape[1])
        direction[0] = 1.0
        norm = 1.0
    direction = direction / norm
    return center[None, :] + targets[:, None] * direction[None, :]


class TestFittedPlacementBitwise:
    """A fitted injector reads its shared fit's tables, center and
    direction; every poison row must equal the per-call computation
    bit for bit (``assert_allclose`` would hide a last-bit change)."""

    @pytest.mark.parametrize("shape", [(500,), (500, 1), (500, 3), (500, 60)])
    @pytest.mark.parametrize("jitter", [0.0, 0.01, 0.05])
    def test_matches_per_call_placement(self, shape, jitter):
        rng = np.random.default_rng(sum(shape) + int(jitter * 100))
        reference = rng.lognormal(size=shape)
        benign = rng.normal(size=(100,) + shape[1:])
        placement = _placement_1d if len(shape) == 1 else _placement_radial
        for ratio in (0.05, 0.2, 0.5):
            injector = PoisonInjector(ratio, jitter=jitter, seed=5)
            injector.fit_reference(reference)
            twin = np.random.default_rng(5)
            count = injector.poison_count(benign.shape[0])
            for percentile in (-0.1, 0.0, 0.5, 0.97, 1.0, 1.2):
                got = injector.materialize(benign, percentile)
                positions = _positions(twin, percentile, count, jitter)
                want = placement(reference, positions)
                assert got.tobytes() == want.tobytes()

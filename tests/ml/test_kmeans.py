"""Tests for repro.ml.kmeans."""

import numpy as np
import pytest

from repro.ml import kmeans, kmeans_plus_plus_init


class TestKMeansPlusPlus:
    def test_returns_requested_centers(self, small_gaussian, rng):
        data, _ = small_gaussian
        centers = kmeans_plus_plus_init(data, 3, rng)
        assert centers.shape == (3, data.shape[1])

    def test_centers_are_data_points(self, small_gaussian, rng):
        data, _ = small_gaussian
        centers = kmeans_plus_plus_init(data, 3, rng)
        for c in centers:
            assert np.min(np.linalg.norm(data - c, axis=1)) < 1e-12

    def test_handles_duplicate_data(self, rng):
        data = np.zeros((10, 2))
        centers = kmeans_plus_plus_init(data, 3, rng)
        assert centers.shape == (3, 2)


class TestKMeans:
    def test_separated_clusters_recovered(self, small_gaussian):
        data, labels = small_gaussian
        result = kmeans(data, 3, seed=0)
        # Each true cluster maps to exactly one fitted label.
        for cluster in range(3):
            assigned = result.labels[labels == cluster]
            assert np.unique(assigned).size == 1

    def test_centroids_near_true_centers(self, small_gaussian):
        data, _ = small_gaussian
        result = kmeans(data, 3, seed=0)
        truth = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
        for t in truth:
            assert np.min(np.linalg.norm(result.centroids - t, axis=1)) < 0.8

    def test_sse_decreases_with_more_clusters(self, small_gaussian):
        data, _ = small_gaussian
        sse_values = [kmeans(data, k, seed=0, n_init=5).sse for k in (1, 2, 3)]
        assert sse_values[0] > sse_values[1] > sse_values[2]

    def test_sse_matches_definition(self, small_gaussian):
        data, _ = small_gaussian
        result = kmeans(data, 3, seed=0)
        manual = sum(
            np.sum((data[result.labels == c] - result.centroids[c]) ** 2)
            for c in range(3)
        )
        assert result.sse == pytest.approx(manual)

    def test_explicit_init_respected(self, small_gaussian):
        data, _ = small_gaussian
        init = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
        result = kmeans(data, 3, init=init)
        assert result.n_iter <= 5  # warm start converges fast

    def test_wrong_init_shape_rejected(self, small_gaussian):
        data, _ = small_gaussian
        with pytest.raises(ValueError):
            kmeans(data, 3, init=np.zeros((2, 2)))

    def test_n_init_keeps_best(self, small_gaussian):
        data, _ = small_gaussian
        multi = kmeans(data, 3, seed=0, n_init=8)
        single = kmeans(data, 3, seed=0, n_init=1)
        assert multi.sse <= single.sse + 1e-9

    def test_k_equals_n_points(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        result = kmeans(data, 3, seed=0)
        assert result.sse == pytest.approx(0.0, abs=1e-12)

    def test_invalid_cluster_count_rejected(self, small_gaussian):
        data, _ = small_gaussian
        with pytest.raises(ValueError):
            kmeans(data, 0)
        with pytest.raises(ValueError):
            kmeans(data, data.shape[0] + 1)

    @pytest.mark.parametrize("n_init", [1, 3])
    @pytest.mark.parametrize("max_iter", [0, -2])
    def test_non_positive_max_iter_rejected(self, small_gaussian, max_iter, n_init):
        data, _ = small_gaussian
        with pytest.raises(ValueError, match="max_iter"):
            kmeans(data, 3, max_iter=max_iter, seed=0, n_init=n_init)

    def test_single_iteration_allowed(self, small_gaussian):
        data, _ = small_gaussian
        assert kmeans(data, 3, max_iter=1, seed=0).n_iter == 1

    def test_1d_data_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.arange(10.0), 2)

    def test_empty_cluster_repair(self):
        # Pathological init far away: empty clusters get re-seeded, and
        # the final model still uses all centroids validly.
        data = np.vstack(
            [np.zeros((20, 2)), np.full((20, 2), 10.0)]
        )
        init = np.array([[0.0, 0.0], [100.0, 100.0], [200.0, 200.0]])
        result = kmeans(data, 3, init=init)
        assert np.isfinite(result.sse)
        assert result.labels.max() <= 2

    def test_deterministic_given_seed(self, small_gaussian):
        data, _ = small_gaussian
        r1 = kmeans(data, 3, seed=11)
        r2 = kmeans(data, 3, seed=11)
        np.testing.assert_array_equal(r1.centroids, r2.centroids)

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


def reference_pairwise_sq_dists(data, centers):
    """The distance kernel as first written: ``‖x‖²`` and ``2x`` per call."""
    d2 = (
        np.sum(data**2, axis=1)[:, None]
        - 2.0 * data @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def reference_plus_plus(data, n_clusters, rng):
    """k-means++ seeding on the per-call kernel."""
    n = data.shape[0]
    centers = np.empty((n_clusters, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    closest = reference_pairwise_sq_dists(data, centers[:1]).ravel()
    for i in range(1, n_clusters):
        total = closest.sum()
        if total <= 0.0:
            centers[i] = data[rng.integers(n)]
            continue
        centers[i] = data[rng.choice(n, p=closest / total)]
        closest = np.minimum(
            closest, reference_pairwise_sq_dists(data, centers[i : i + 1]).ravel()
        )
    return centers


def reference_kmeans(data, n_clusters, max_iter=100, tol=1e-6, seed=None, init=None, n_init=1):
    """Lloyd's algorithm as first written, restarts included: every
    seeding step and iteration recomputes the per-point terms."""
    if init is None and n_init > 1:
        base = 0 if seed is None else seed
        fits = [
            reference_kmeans(data, n_clusters, max_iter, tol, seed=base + r)
            for r in range(n_init)
        ]
        best = fits[0]
        for fit in fits[1:]:
            if fit[2] < best[2]:
                best = fit
        return best
    arr = np.asarray(data, dtype=float)
    rng = np.random.default_rng(seed)
    if init is not None:
        centers = np.array(init, dtype=float, copy=True)
    else:
        centers = reference_plus_plus(arr, n_clusters, rng)
    for iteration in range(1, max_iter + 1):
        d2 = reference_pairwise_sq_dists(arr, centers)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for c in range(n_clusters):
            members = arr[labels == c]
            if members.shape[0] == 0:
                new_centers[c] = arr[int(np.argmax(np.min(d2, axis=1)))]
            else:
                new_centers[c] = members.mean(axis=0)
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if shift < tol:
            break
    d2 = reference_pairwise_sq_dists(arr, centers)
    labels = np.argmin(d2, axis=1)
    sse = float(np.sum(d2[np.arange(arr.shape[0]), labels]))
    return centers, labels, sse, iteration


class TestRowTermsOncePerFit:
    """A fit computes ``‖x‖²`` and ``2x`` once; every result must equal,
    bit for bit, the loop that recomputed them on every distance call."""

    @staticmethod
    def _assert_matches_reference(data, n_clusters, **kwargs):
        got = kmeans(data, n_clusters, **kwargs)
        centers, labels, sse, n_iter = reference_kmeans(data, n_clusters, **kwargs)
        assert got.centroids.tobytes() == centers.tobytes()
        assert got.labels.tobytes() == labels.tobytes()
        assert got.sse == sse
        assert got.n_iter == n_iter

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(40, 1), (120, 2), (300, 60)])
    def test_random_fits_match_reference(self, seed, shape):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3])
        k = 1 + seed % 5
        self._assert_matches_reference(data, k, seed=seed)
        self._assert_matches_reference(data, k, seed=seed, n_init=3)
        self._assert_matches_reference(data, k, seed=seed, max_iter=2)
        self._assert_matches_reference(data, k, init=data[:k] + 0.25)
        assert (
            kmeans_plus_plus_init(data, k, np.random.default_rng(seed)).tobytes()
            == reference_plus_plus(data, k, np.random.default_rng(seed)).tobytes()
        )

    def test_unseeded_restarts_match_reference(self, small_gaussian):
        data, _ = small_gaussian
        self._assert_matches_reference(data, 3, n_init=4)

    def test_empty_cluster_repair_matches_reference(self):
        data = np.vstack([np.zeros((20, 2)), np.full((20, 2), 10.0)])
        init = np.array([[0.0, 0.0], [100.0, 100.0], [200.0, 200.0]])
        # The far centers start empty, so the repair runs.
        first = np.argmin(reference_pairwise_sq_dists(data, init), axis=1)
        assert set(first.tolist()) == {0}
        self._assert_matches_reference(data, 3, init=init)

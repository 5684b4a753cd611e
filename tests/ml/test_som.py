"""Tests for repro.ml.som — Self-Organizing Map."""

import numpy as np
import pytest

from repro.datasets import generate_creditcard
from repro.ml import SelfOrganizingMap


@pytest.fixture(scope="module")
def trained_som():
    rng = np.random.default_rng(0)
    data = np.vstack(
        [rng.normal(-5, 0.5, (150, 2)), rng.normal(5, 0.5, (150, 2))]
    )
    som = SelfOrganizingMap(rows=8, cols=8, n_iter=3000, seed=1).fit(data)
    return som, data


class TestTraining:
    def test_weight_shape(self, trained_som):
        som, _ = trained_som
        assert som.weights.shape == (64, 2)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            SelfOrganizingMap(rows=0, cols=5)

    def test_invalid_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            SelfOrganizingMap(learning_rate=0.0)

    def test_unfitted_usage_rejected(self):
        with pytest.raises(RuntimeError):
            SelfOrganizingMap().u_matrix()

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            SelfOrganizingMap().fit(np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        data = np.random.default_rng(0).normal(size=(20, 3))
        data[5, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            SelfOrganizingMap(rows=3, cols=3, n_iter=10, seed=0).fit(data)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(100, 2))
        w1 = SelfOrganizingMap(rows=4, cols=4, n_iter=500, seed=9).fit(data).weights
        w2 = SelfOrganizingMap(rows=4, cols=4, n_iter=500, seed=9).fit(data).weights
        np.testing.assert_array_equal(w1, w2)


class TestMapQuality:
    def test_quantization_error_reasonable(self, trained_som):
        som, data = trained_som
        # Neurons should approximate the data well within cluster scale.
        assert som.quantization_error(data) < 1.0

    def test_quantization_error_worse_on_shifted_data(self, trained_som):
        som, data = trained_som
        shifted = data + 20.0
        assert som.quantization_error(shifted) > som.quantization_error(data)

    def test_topographic_error_low_for_smooth_map(self, trained_som):
        som, data = trained_som
        assert som.topographic_error(data) < 0.35

    def test_bmus_in_range(self, trained_som):
        som, data = trained_som
        bmus = som.best_matching_units(data)
        assert bmus.min() >= 0 and bmus.max() < som.n_neurons

    def test_creditcard_minority_points_are_isolated(self):
        """Fig. 6b of arXiv 2403.10313: a map trained on the clean
        Creditcard stand-in is dominated by the bulk, so the 7 minority
        points sit distinctly further from their neurons."""
        data, labels = generate_creditcard(n_samples=2000, seed=23)
        som = SelfOrganizingMap(rows=10, cols=10, n_iter=4000, seed=0).fit(data)
        bulk_qe = som.quantization_error(data[labels == 0])
        minority_qe = som.quantization_error(data[labels > 0])
        assert minority_qe > 1.3 * bulk_qe


class TestUMatrix:
    def test_shape(self, trained_som):
        som, _ = trained_som
        assert som.u_matrix().shape == (8, 8)

    def test_nonnegative(self, trained_som):
        som, _ = trained_som
        assert (som.u_matrix() >= 0).all()

    def test_boundary_between_clusters_visible(self, trained_som):
        # Two far clusters: the largest U-matrix value (cluster border)
        # should clearly exceed the median (cluster interiors).
        som, _ = trained_som
        u = som.u_matrix()
        assert u.max() > 3.0 * np.median(u)


class TestClusterCount:
    def test_two_blobs_counted(self, trained_som):
        som, data = trained_som
        count = som.cluster_count(data)
        assert 2 <= count <= 6  # coarse watershed; two dominant groups

    def test_single_blob_fewer_components(self, rng):
        # A coarse watershed over-segments an unstructured blob; the test
        # only bounds the fragmentation, not an exact count.
        data = rng.normal(size=(200, 2))
        som = SelfOrganizingMap(rows=6, cols=6, n_iter=2000, seed=2).fit(data)
        assert som.cluster_count(data) <= som.n_neurons // 2


def _som_state(som):
    return None if som.weights is None else som.weights.tobytes()


def _bad_som_member(case, data, fitted):
    """One cohort member that must make the whole cohort fit fail."""
    nan_data = data.copy()
    nan_data[3, 0] = np.inf
    config = dict(rows=3, cols=4, n_iter=150, seed=5)
    return {
        "grid": (SelfOrganizingMap(**{**config, "cols": 3}), data),
        "n_iter": (SelfOrganizingMap(**{**config, "n_iter": 151}), data),
        "learning_rate": (SelfOrganizingMap(**config, learning_rate=0.4), data),
        "sigma": (SelfOrganizingMap(**config, sigma=1.5), data),
        "width": (SelfOrganizingMap(**config), data[:, :1]),
        "named_twice": (fitted, data[::-1]),
        "empty": (SelfOrganizingMap(**config), data[:0]),
        "non_finite": (SelfOrganizingMap(**config), nan_data),
    }[case]


class TestCohortRejection:
    """A cohort fit checks every member before any member's state moves."""

    @pytest.mark.parametrize("bad_leads", [False, True])
    @pytest.mark.parametrize(
        "case",
        ["grid", "n_iter", "learning_rate", "sigma", "width", "named_twice", "empty", "non_finite"],
    )
    def test_rejected_cohort_moves_no_state(self, case, bad_leads):
        data = np.random.default_rng(4).normal(size=(40, 2))
        fitted = SelfOrganizingMap(rows=3, cols=4, n_iter=150, seed=1).fit(data)
        unfitted = SelfOrganizingMap(rows=3, cols=4, n_iter=150, seed=2)
        members = [(fitted, data), (unfitted, data[::2])]
        bad = _bad_som_member(case, data, fitted)
        members = [bad, *members] if bad_leads else [*members, bad]
        before = [_som_state(som) for som, _ in members]
        (lead, lead_data), *peers = members
        with pytest.raises(ValueError):
            lead.fit(lead_data, peers=peers)
        assert [_som_state(som) for som, _ in members] == before
        assert unfitted.weights is None

    def test_lead_named_as_its_own_peer_rejected(self):
        data = np.random.default_rng(4).normal(size=(40, 2))
        som = SelfOrganizingMap(rows=3, cols=4, n_iter=150, seed=1)
        with pytest.raises(ValueError, match="twice"):
            som.fit(data, peers=[(som, data)])
        assert som.weights is None

    def test_non_map_peer_rejected(self):
        data = np.random.default_rng(4).normal(size=(40, 2))
        som = SelfOrganizingMap(rows=3, cols=4, n_iter=150, seed=1)
        with pytest.raises(TypeError):
            som.fit(data, peers=[(object(), data)])
        assert som.weights is None

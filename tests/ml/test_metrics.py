"""Tests for repro.ml.metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml import (
    accuracy,
    centroid_distance,
    confusion_matrix,
    confusion_summary,
    mse,
    sse,
)


class TestSSE:
    def test_zero_when_data_on_centroids(self):
        cents = np.array([[0.0, 0.0], [1.0, 1.0]])
        data = np.repeat(cents, 3, axis=0)
        assert sse(data, cents) == 0.0

    def test_uses_nearest_centroid(self):
        data = np.array([[0.0, 0.0]])
        cents = np.array([[0.0, 1.0], [0.0, 10.0]])
        assert sse(data, cents) == pytest.approx(1.0)

    def test_additive_over_points(self, rng):
        data = rng.normal(size=(20, 3))
        cents = rng.normal(size=(4, 3))
        total = sse(data, cents)
        parts = sse(data[:10], cents) + sse(data[10:], cents)
        assert total == pytest.approx(parts)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            sse(np.arange(4.0), np.zeros((1, 1)))


class TestCentroidDistance:
    def test_zero_for_identical_sets(self, rng):
        cents = rng.normal(size=(5, 3))
        assert centroid_distance(cents, cents) == pytest.approx(0.0)

    def test_permutation_invariant(self, rng):
        cents = rng.normal(size=(6, 2))
        shuffled = cents[[3, 1, 5, 0, 4, 2]]
        assert centroid_distance(shuffled, cents) == pytest.approx(0.0)

    def test_single_shift_measured(self):
        ref = np.array([[0.0, 0.0], [5.0, 5.0]])
        est = np.array([[0.0, 1.0], [5.0, 5.0]])
        assert centroid_distance(est, ref) == pytest.approx(1.0)

    def test_hungarian_picks_optimal_matching(self):
        ref = np.array([[0.0], [10.0]])
        est = np.array([[9.0], [1.0]])
        # Optimal matching crosses over: 1<->0 and 9<->10, total 2.
        assert centroid_distance(est, ref) == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            centroid_distance(np.zeros((2, 2)), np.zeros((3, 2)))

    @given(st.integers(0, 1000))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(4, 2))
        assert centroid_distance(a, b) == pytest.approx(centroid_distance(b, a))


class TestAccuracyAndConfusion:
    def test_accuracy(self):
        assert accuracy([1, 1, 0, 0], [1, 0, 0, 0]) == 0.75

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_confusion_matrix_counts(self):
        m = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        np.testing.assert_array_equal(m, [[1, 1], [0, 2]])

    def test_confusion_matrix_explicit_classes(self):
        m = confusion_matrix([0], [0], n_classes=4)
        assert m.shape == (4, 4)

    @pytest.mark.parametrize(
        "y_true, y_pred, n_classes",
        [
            ([0, 1, -1], [0, 1, 1], 3),  # np.add.at would count it at [2, 1]
            ([0, 1, 1], [0, 1, -1], None),
            ([-2, -1], [-1, -2], None),
            ([0, 1, 3], [0, 1, 1], 3),  # an index past the last class
            ([0, 1], [0, 2], 2),
            ([0, 1.7, 1], [0, 1, 1.2], None),  # astype(int) counted 1 twice
            ([0, 1, 1], [0, 0.5, 1], 2),
            ([0, 1], [0, np.nan], None),
            (np.array([0.0, np.inf]), [0, 1], None),
            ([0, -0.5], [0, 0], None),  # truncates into the class range
        ],
    )
    def test_confusion_matrix_rejects_labels_outside_classes(
        self, y_true, y_pred, n_classes
    ):
        with pytest.raises(ValueError, match="class indices"):
            confusion_matrix(y_true, y_pred, n_classes)

    def test_confusion_matrix_accepts_integral_floats(self):
        m = confusion_matrix([0.0, 1.0, 1.0], np.array([0, 1, 1], dtype=float))
        np.testing.assert_array_equal(m, [[1, 0], [0, 2]])
        np.testing.assert_array_equal(
            m, confusion_matrix([0, 1, 1], [0, 1, 1])
        )

    @pytest.mark.parametrize("n_classes", [0, -1])
    def test_confusion_matrix_rejects_non_positive_class_count(self, n_classes):
        with pytest.raises(ValueError, match="n_classes"):
            confusion_matrix([0, 0], [0, 0], n_classes)

    def test_confusion_summary_rejects_labels_outside_classes(self):
        with pytest.raises(ValueError, match="class indices"):
            confusion_summary([0, 1, -1], [0, 1, 1], 3)

    def test_confusion_summary_ppv_fdr(self):
        s = confusion_summary([0, 0, 1, 1], [0, 1, 1, 1])
        assert s.ppv[0] == pytest.approx(1.0)
        assert s.ppv[1] == pytest.approx(2 / 3)
        assert s.fdr[1] == pytest.approx(1 / 3)
        assert s.accuracy == pytest.approx(0.75)

    def test_confusion_summary_handles_unpredicted_class(self):
        s = confusion_summary([0, 1], [0, 0], n_classes=2)
        assert np.isnan(s.ppv[1])

    def test_trace_equals_correct_predictions(self, rng):
        y = rng.integers(0, 4, size=100)
        p = rng.integers(0, 4, size=100)
        m = confusion_matrix(y, p, 4)
        assert np.trace(m) == np.sum(y == p)


class TestMSE:
    def test_zero_for_exact(self):
        assert mse([2.0, 2.0], 2.0) == 0.0

    def test_formula(self):
        assert mse([1.0, 3.0], 2.0) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse([], 0.0)

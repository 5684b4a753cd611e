"""Tests for repro.core.trimming — percentile trimming operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.trimming import RadialTrimmer, TrimReport, ValueTrimmer


class TestTrimReport:
    def test_counts(self):
        report = TrimReport(
            kept=np.array([True, False, True, True]),
            threshold_score=1.0,
            percentile=0.75,
        )
        assert report.n_kept == 3
        assert report.n_trimmed == 1
        assert report.trimmed_fraction == pytest.approx(0.25)

    def test_kept_scores_requires_scores(self):
        report = TrimReport(
            kept=np.array([True, False]),
            threshold_score=1.0,
            percentile=0.5,
        )
        with pytest.raises(ValueError):
            report.kept_scores

    def test_kept_scores_masks_scores(self):
        report = TrimReport(
            kept=np.array([True, False, True]),
            threshold_score=1.0,
            percentile=0.5,
            scores=np.array([0.1, 2.0, 0.3]),
        )
        np.testing.assert_array_equal(report.kept_scores, [0.1, 0.3])


class TestReportScoresSinglePass:
    """The report's ``scores`` must equal a separate ``scores()`` pass.

    This is the contract that lets the engine's hot loop skip its second
    per-round scoring sweep.
    """

    @given(
        percentile=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=1, max_value=200),
        anchored=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_trimmer_scores_match(self, percentile, n, anchored, seed):
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=n)
        trimmer = ValueTrimmer()
        if anchored:
            trimmer.fit_reference(rng.normal(size=300))
        report = trimmer.trim(batch, percentile)
        assert report.scores is not None
        np.testing.assert_array_equal(report.scores, trimmer.scores(batch))
        np.testing.assert_array_equal(
            report.kept_scores, trimmer.scores(batch)[report.kept]
        )

    @given(
        percentile=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=1, max_value=120),
        d=st.integers(min_value=1, max_value=6),
        anchored=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_radial_trimmer_scores_match(self, percentile, n, d, anchored, seed):
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(n, d))
        trimmer = RadialTrimmer()
        if anchored:
            trimmer.fit_reference(rng.normal(size=(200, d)))
        report = trimmer.trim(batch, percentile)
        assert report.scores is not None
        np.testing.assert_array_equal(report.scores, trimmer.scores(batch))


class TestValueTrimmer:
    def test_full_percentile_keeps_all(self, rng):
        batch = rng.normal(size=100)
        report = ValueTrimmer().trim(batch, 1.0)
        assert report.n_kept == 100

    def test_trims_expected_fraction(self, rng):
        batch = rng.normal(size=1000)
        report = ValueTrimmer().trim(batch, 0.9)
        assert report.trimmed_fraction == pytest.approx(0.1, abs=0.01)

    def test_keeps_lowest_values(self, rng):
        batch = rng.normal(size=500)
        trimmer = ValueTrimmer()
        report = trimmer.trim(batch, 0.8)
        assert batch[report.kept].max() <= batch[~report.kept].min()

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            ValueTrimmer().trim(np.zeros((3, 2)), 0.9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ValueTrimmer().trim(np.array([]), 0.9)

    def test_apply_returns_values(self, rng):
        batch = rng.normal(size=50)
        kept = ValueTrimmer().apply(batch, 0.5)
        assert kept.size < 50

    def test_reference_anchored_cutoff_resists_inflation(self, rng):
        # Poison inflating the batch must not move a reference cutoff.
        reference = rng.normal(size=5000)
        trimmer = ValueTrimmer(anchor="reference").fit_reference(reference)
        cutoff = np.quantile(reference, 0.9)
        batch = np.concatenate([rng.normal(size=500), np.full(300, 50.0)])
        report = trimmer.trim(batch, 0.9)
        assert report.threshold_score == pytest.approx(cutoff)
        # All poison sits above the reference cutoff -> all removed.
        assert batch[report.kept].max() <= cutoff

    def test_batch_anchor_trims_fixed_fraction_despite_reference(self, rng):
        reference = rng.normal(size=5000)
        trimmer = ValueTrimmer(anchor="batch").fit_reference(reference)
        batch = np.concatenate([rng.normal(size=500), np.full(500, 50.0)])
        report = trimmer.trim(batch, 0.5)
        assert report.trimmed_fraction == pytest.approx(0.5, abs=0.01)

    def test_degenerate_batch_keeps_one_point(self):
        trimmer = ValueTrimmer(anchor="reference").fit_reference(
            np.linspace(0, 1, 100)
        )
        report = trimmer.trim(np.full(10, 99.0), 0.5)
        assert report.n_kept == 1

    @given(st.floats(0.0, 1.0))
    def test_trimmed_fraction_bounded_by_percentile(self, q):
        batch = np.arange(200.0)
        report = ValueTrimmer().trim(batch, q)
        assert report.trimmed_fraction <= 1.0 - q + 0.01

    @settings(max_examples=30)
    @given(st.floats(0.1, 0.9), st.floats(0.1, 0.9))
    def test_monotone_in_percentile(self, q1, q2):
        lo, hi = min(q1, q2), max(q1, q2)
        batch = np.arange(300.0)
        trimmer = ValueTrimmer()
        kept_lo = trimmer.trim(batch, lo).n_kept
        kept_hi = trimmer.trim(batch, hi).n_kept
        assert kept_lo <= kept_hi


class TestQuantileTableCutoffs:
    """Reference-anchored cutoffs ride the sort-once table and must be
    bit-identical to a fresh np.quantile over the reference scores."""

    @given(
        percentile=st.floats(min_value=0.0, max_value=0.999),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_value_trimmer_cutoff_matches_numpy(self, percentile, seed):
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=500)
        trimmer = ValueTrimmer(anchor="reference").fit_reference(reference)
        report = trimmer.trim(rng.normal(size=100), percentile)
        assert report.threshold_score == float(np.quantile(reference, percentile))

    def test_radial_trimmer_cutoff_matches_numpy(self, rng):
        reference = rng.normal(size=(400, 3))
        trimmer = RadialTrimmer(anchor="reference").fit_reference(reference)
        ref_scores = np.linalg.norm(
            reference - np.median(reference, axis=0), axis=1
        )
        report = trimmer.trim(rng.normal(size=(80, 3)), 0.87)
        assert report.threshold_score == float(np.quantile(ref_scores, 0.87))

    def test_refit_invalidates_cached_table(self, rng):
        # Regression: a refit on new reference data must not serve
        # cutoffs from the previous reference's cached quantile table.
        trimmer = ValueTrimmer(anchor="reference")
        trimmer.fit_reference(rng.normal(size=500))
        trimmer.trim(rng.normal(size=50), 0.9)  # builds the lazy table
        shifted = rng.normal(size=500) + 100.0
        trimmer.fit_reference(shifted)
        report = trimmer.trim(rng.normal(size=50) + 100.0, 0.9)
        assert report.threshold_score == float(np.quantile(shifted, 0.9))

    def test_reference_scores_property(self, rng):
        trimmer = ValueTrimmer()
        assert trimmer.reference_scores is None
        reference = rng.normal(size=100)
        trimmer.fit_reference(reference)
        np.testing.assert_array_equal(trimmer.reference_scores, reference)

    def test_score_kind_tags(self):
        assert ValueTrimmer().score_kind == "value"
        assert RadialTrimmer().score_kind == "radial"


class TestRadialTrimmer:
    def test_scores_are_distances_from_median(self, rng):
        batch = rng.normal(size=(200, 3))
        scores = RadialTrimmer().scores(batch)
        center = np.median(batch, axis=0)
        np.testing.assert_allclose(
            scores, np.linalg.norm(batch - center, axis=1)
        )

    def test_1d_special_case(self, rng):
        batch = rng.normal(size=100)
        scores = RadialTrimmer().scores(batch)
        np.testing.assert_allclose(scores, np.abs(batch - np.median(batch)))

    def test_outliers_trimmed_first(self, rng):
        bulk = rng.normal(0, 1, size=(500, 4))
        outliers = np.full((20, 4), 10.0)
        batch = np.vstack([bulk, outliers])
        trimmer = RadialTrimmer()
        report = trimmer.trim(batch, 0.95)
        assert not report.kept[-20:].any()

    def test_reference_center_used_after_fit(self, rng):
        reference = rng.normal(0, 1, size=(1000, 3))
        trimmer = RadialTrimmer().fit_reference(reference)
        ref_center = np.median(reference, axis=0)
        # A batch with a wildly different median: scores still use the
        # reference center, so colluding mass cannot drag the center.
        batch = rng.normal(5, 1, size=(100, 3))
        scores = trimmer.scores(batch)
        np.testing.assert_allclose(
            scores, np.linalg.norm(batch - ref_center, axis=1)
        )

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            RadialTrimmer().scores(np.zeros((2, 2, 2)))

    def test_invalid_anchor_rejected(self):
        with pytest.raises(ValueError):
            RadialTrimmer(anchor="weird")

    def test_fit_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            RadialTrimmer().fit_reference(np.array([]))

    def test_1d_batch_after_2d_fit_raises_dimension_mismatch(self, rng):
        # Regression: this used to crash with numpy's cryptic "only
        # 0-dimensional arrays can be converted to Python scalars" when
        # float() hit the length-d center vector.
        trimmer = RadialTrimmer().fit_reference(rng.normal(size=(100, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            trimmer.scores(rng.normal(size=50))

    def test_1d_batch_after_single_feature_2d_fit_works(self, rng):
        # A (n, 1) reference has a commensurable length-1 center.
        reference = rng.normal(size=(100, 1))
        trimmer = RadialTrimmer().fit_reference(reference)
        batch = rng.normal(size=30)
        scores = trimmer.scores(batch)
        np.testing.assert_allclose(
            scores, np.abs(batch - float(np.median(reference, axis=0)[0]))
        )

    def test_is_reference_anchored_flag(self, rng):
        trimmer = RadialTrimmer(anchor="reference")
        assert not trimmer.is_reference_anchored
        trimmer.fit_reference(rng.normal(size=(50, 2)))
        assert trimmer.is_reference_anchored
        trimmer.anchor = "batch"
        assert not trimmer.is_reference_anchored


class TestBatchTrimReportParity:
    def test_nan_percentile_matches_solo_clip(self):
        """clip_percentile(nan) is 0.0 (Python min/max); the lockstep
        trim must agree instead of propagating NaN and keeping all."""
        import numpy as np

        from repro.core.fusion import TrimLanes
        from repro.core.trimming import ValueTrimmer

        data = np.linspace(0.0, 1.0, 10)
        trimmer = ValueTrimmer()
        trimmer.fit_reference(data)
        solo = trimmer.trim(data, float("nan"))
        batch = TrimLanes([trimmer, trimmer]).trim_stack(
            np.stack([data, data]), np.array([np.nan, 0.5])
        )
        assert batch.kept[0].tobytes() == solo.kept.tobytes()
        assert float(batch.percentiles[0]) == solo.percentile == 0.0
        assert batch.n_kept[0] == solo.n_kept == 1

    def test_from_reports_stacks_solo_reports(self):
        import numpy as np

        from repro.core.trimming import BatchTrimReport, ValueTrimmer

        data = np.linspace(0.0, 1.0, 12)
        trimmer = ValueTrimmer()
        trimmer.fit_reference(data)
        reports = [trimmer.trim(data, q) for q in (0.5, 0.9, 1.0)]
        stacked = BatchTrimReport.from_reports(reports)
        assert stacked.n_reps == 3
        for r, report in enumerate(reports):
            assert stacked.kept[r].tobytes() == report.kept.tobytes()
            assert float(stacked.threshold_scores[r]) == report.threshold_score
            assert stacked.scores[r].tobytes() == report.scores.tobytes()

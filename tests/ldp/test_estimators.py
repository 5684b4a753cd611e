"""Tests for repro.ldp.estimators — trimmed mean with bias correction."""

import numpy as np
import pytest

from repro.ldp import PiecewiseMechanism, TrimmedMeanEstimator, mean_estimate


class TestMeanEstimate:
    def test_plain_mean(self):
        assert mean_estimate([1.0, 2.0, 3.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_estimate([])

    def test_ldp_mean_estimation_consistent(self, rng):
        mech = PiecewiseMechanism(2.0, seed=0)
        inputs = rng.uniform(-0.5, 0.5, size=50_000)
        reports = mech.perturb(inputs)
        assert mean_estimate(reports) == pytest.approx(inputs.mean(), abs=0.02)


class TestTrimmedMeanEstimator:
    @pytest.fixture()
    def calibrated(self, rng):
        mech = PiecewiseMechanism(2.0, seed=1)
        inputs = rng.uniform(-0.5, 0.5, size=20_000)
        reference = mech.perturb(inputs)
        return mech, TrimmedMeanEstimator(reference)

    def test_cutoff_monotone(self, calibrated):
        _, est = calibrated
        assert est.cutoff(0.8) <= est.cutoff(0.95)

    def test_full_percentile_cutoff_infinite(self, calibrated):
        _, est = calibrated
        assert est.cutoff(1.0) == float("inf")

    def test_bias_correction_positive_for_upper_trim(self, calibrated):
        # Removing the upper tail lowers the mean; correction adds back.
        _, est = calibrated
        assert est.bias_correction(0.9) > 0.0

    def test_no_trim_means_no_correction(self, calibrated):
        _, est = calibrated
        assert est.bias_correction(1.0) == pytest.approx(0.0)

    @pytest.fixture()
    def reference(self, rng):
        return PiecewiseMechanism(2.0, seed=1).perturb(
            rng.uniform(-0.5, 0.5, size=2001)
        )

    @pytest.mark.parametrize("percentile", [0.05, 0.5, 0.9, 0.99])
    def test_cutoff_is_the_reference_quantile(self, reference, percentile):
        est = TrimmedMeanEstimator(reference)
        assert est.cutoff(percentile) == float(np.quantile(reference, percentile))

    @pytest.mark.parametrize("percentile", [0.5, 0.8, 0.95])
    def test_bias_correction_is_the_reference_mean_shift(self, reference, percentile):
        est = TrimmedMeanEstimator(reference)
        kept = reference[reference <= est.cutoff(percentile)]
        expected = float(np.mean(reference)) - float(np.mean(kept))
        assert est.bias_correction(percentile) == pytest.approx(expected, rel=1e-12)

    def test_untrimmed_estimate_is_the_plain_mean(self, calibrated, rng):
        mech, est = calibrated
        reports = mech.perturb(rng.uniform(-0.5, 0.5, size=500))
        assert est.estimate(reports, 1.0) == pytest.approx(
            mean_estimate(reports), rel=1e-12
        )
        assert est.trimmed_fraction(reports, 1.0) == 0.0

    def test_clean_estimate_unbiased_after_correction(self, rng):
        mech = PiecewiseMechanism(2.0, seed=2)
        inputs = rng.uniform(-0.5, 0.5, size=30_000)
        reference = mech.perturb(inputs)
        est = TrimmedMeanEstimator(reference)
        fresh = mech.perturb(rng.uniform(-0.5, 0.5, size=30_000))
        assert est.estimate(fresh, 0.9) == pytest.approx(0.0, abs=0.03)

    def test_trimming_removes_attack_mass(self, rng):
        mech = PiecewiseMechanism(3.0, seed=3)
        honest_inputs = rng.uniform(-0.5, 0.5, size=20_000)
        reference = mech.perturb(honest_inputs)
        est = TrimmedMeanEstimator(reference)
        honest = mech.perturb(rng.uniform(-0.5, 0.5, size=20_000))
        attack = mech.perturb(np.ones(4000))
        reports = np.concatenate([honest, attack])
        plain = mean_estimate(reports)
        trimmed = est.estimate(reports, 0.9)
        truth = 0.0
        assert abs(trimmed - truth) < abs(plain - truth)

    def test_trimmed_fraction_reflects_attack(self, rng):
        mech = PiecewiseMechanism(3.0, seed=4)
        reference = mech.perturb(rng.uniform(-0.5, 0.5, size=20_000))
        est = TrimmedMeanEstimator(reference)
        attack = mech.perturb(np.ones(5000))
        assert est.trimmed_fraction(attack, 0.9) > 0.5

    def test_tiny_reference_rejected(self):
        with pytest.raises(ValueError):
            TrimmedMeanEstimator(np.arange(5.0))

    def test_nan_reference_rejected(self):
        with pytest.raises(ValueError):
            TrimmedMeanEstimator(np.append(np.linspace(-1.0, 1.0, 20), np.nan))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_reference_rejected(self, bad):
        with pytest.raises(ValueError):
            TrimmedMeanEstimator(np.append(np.linspace(-1.0, 1.0, 20), bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["estimate", "trimmed_fraction"])
    def test_non_finite_reports_rejected(self, calibrated, method, bad):
        _, est = calibrated
        with pytest.raises(ValueError):
            getattr(est, method)([0.1, bad], 0.9)

    def test_empty_batch_rejected(self, calibrated):
        _, est = calibrated
        with pytest.raises(ValueError):
            est.estimate([], 0.9)

    def test_empty_batch_trims_nothing(self, calibrated):
        _, est = calibrated
        assert est.trimmed_fraction([], 0.9) == 0.0

    def test_all_above_cutoff_falls_back_to_min(self, calibrated):
        _, est = calibrated
        out = est.estimate(np.full(10, 1e9), 0.5)
        assert np.isfinite(out)

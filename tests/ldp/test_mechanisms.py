"""Tests for repro.ldp.mechanisms — numeric LDP mechanisms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ldp import PiecewiseMechanism, SquareWaveMechanism

MECHANISMS = (PiecewiseMechanism,)
#: The Square-Wave mechanism (inputs in [0, 1]) joins only the domain-free tests.
ALL_MECHANISMS = (PiecewiseMechanism, SquareWaveMechanism)


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", ALL_MECHANISMS)
    def test_invalid_epsilon_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(0.0)

    @pytest.mark.parametrize("cls", ALL_MECHANISMS)
    def test_out_of_domain_inputs_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(1.0, seed=0).perturb([1.5])

    @pytest.mark.parametrize("cls", ALL_MECHANISMS)
    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
    def test_non_finite_epsilon_rejected(self, cls, epsilon):
        with pytest.raises(ValueError):
            cls(epsilon)

    @pytest.mark.parametrize("cls", ALL_MECHANISMS)
    def test_nan_input_rejected_before_any_draw(self, cls):
        mech = cls(1.0, seed=0)
        state = mech._rng.bit_generator.state
        with pytest.raises(ValueError):
            mech.perturb([0.2, np.nan])
        assert mech._rng.bit_generator.state == state

    @pytest.mark.parametrize("cls", ALL_MECHANISMS)
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_input_rejected_before_any_draw(self, cls, value):
        mech = cls(1.0, seed=0)
        state = mech._rng.bit_generator.state
        with pytest.raises(ValueError):
            mech.perturb([0.2, value])
        assert mech._rng.bit_generator.state == state

    @pytest.mark.parametrize("cls", ALL_MECHANISMS)
    def test_empty_batch_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(1.0, seed=0).perturb([])

    @pytest.mark.parametrize("cls", ALL_MECHANISMS)
    def test_one_flat_report_per_input(self, cls):
        reports = cls(1.0, seed=0).perturb(np.full((3, 4), 0.5))
        assert reports.shape == (12,)
        assert np.all(np.isfinite(reports))

    @pytest.mark.parametrize("cls", ALL_MECHANISMS)
    def test_seed_fixes_the_reports(self, cls):
        inputs = np.linspace(0.0, 1.0, 200)
        first = cls(1.0, seed=3).perturb(inputs)
        np.testing.assert_array_equal(first, cls(1.0, seed=3).perturb(inputs))
        assert not np.array_equal(first, cls(1.0, seed=4).perturb(inputs))

    @pytest.mark.parametrize("cls", MECHANISMS)
    def test_unbiasedness_at_zero(self, cls):
        mech = cls(2.0, seed=0)
        reports = mech.perturb(np.zeros(60_000))
        tolerance = 4.0 * np.sqrt(mech.variance(0.0) / 60_000)
        assert abs(reports.mean()) < tolerance

    @pytest.mark.parametrize("cls", MECHANISMS)
    @pytest.mark.parametrize("x", [-0.7, 0.3, 1.0])
    def test_unbiasedness_at_nonzero_inputs(self, cls, x):
        mech = cls(2.0, seed=1)
        reports = mech.perturb(np.full(60_000, x))
        tolerance = 4.0 * np.sqrt(mech.variance(x) / 60_000)
        assert abs(reports.mean() - x) < tolerance

    @pytest.mark.parametrize("cls", MECHANISMS)
    def test_variance_shrinks_with_epsilon(self, cls):
        assert cls(4.0).variance(0.0) < cls(1.0).variance(0.0)

    @pytest.mark.parametrize("cls", MECHANISMS)
    def test_reports_within_output_bound(self, cls):
        mech = cls(1.5, seed=2)
        reports = mech.perturb(np.linspace(-1, 1, 5000))
        assert np.abs(reports).max() <= mech.c_bound + 1e-9


class TestPiecewise:
    def test_c_bound_formula(self):
        t = np.exp(0.5)
        assert PiecewiseMechanism(1.0).c_bound == pytest.approx((t + 1) / (t - 1))

    def test_reports_concentrate_near_input(self):
        mech = PiecewiseMechanism(4.0, seed=5)
        reports = mech.perturb(np.full(20_000, 0.5))
        # High epsilon: most reports inside the high-density band around 0.5.
        band = np.abs(reports - 0.5) < (mech.c_bound - 1)
        assert band.mean() > 0.75

    def test_empirical_variance_matches_formula(self):
        mech = PiecewiseMechanism(2.0, seed=6)
        for x in (0.0, 0.6):
            reports = mech.perturb(np.full(150_000, x))
            assert np.var(reports) == pytest.approx(mech.variance(x), rel=0.05)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.5, 5.0), st.floats(-1.0, 1.0))
    def test_unbiasedness_property(self, epsilon, x):
        mech = PiecewiseMechanism(epsilon, seed=7)
        reports = mech.perturb(np.full(40_000, x))
        tolerance = 5.0 * np.sqrt(mech.variance(x) / 40_000)
        assert abs(reports.mean() - x) < tolerance

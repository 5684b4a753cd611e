"""Tests for repro.ldp.attacks and repro.ldp.emf."""

import numpy as np
import pytest

from repro.ldp import (
    ExpectationMaximizationFilter,
    InputManipulationAttack,
    PiecewiseMechanism,
    SquareWaveMechanism,
)


class TestInputManipulationAttack:
    def test_reports_through_mechanism_are_unbiased_at_target(self):
        attack = InputManipulationAttack(target=1.0)
        mech = PiecewiseMechanism(2.0, seed=0)
        reports = attack.reports(mech, 50_000)
        assert reports.mean() == pytest.approx(1.0, abs=0.05)

    def test_zero_attackers(self):
        attack = InputManipulationAttack()
        assert attack.reports(PiecewiseMechanism(1.0, seed=0), 0).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            InputManipulationAttack().reports(PiecewiseMechanism(1.0), -1)

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError):
            InputManipulationAttack(target=np.nan).reports(PiecewiseMechanism(1.0), 2)

    @pytest.mark.parametrize("target", [np.inf, -np.inf, 1.5])
    def test_out_of_domain_target_rejected_before_any_draw(self, target):
        mech = PiecewiseMechanism(1.0, seed=0)
        state = mech._rng.bit_generator.state
        with pytest.raises(ValueError):
            InputManipulationAttack(target).reports(mech, 2)
        assert mech._rng.bit_generator.state == state

    def test_zero_attackers_draw_nothing(self):
        mech = PiecewiseMechanism(1.0, seed=0)
        state = mech._rng.bit_generator.state
        InputManipulationAttack().reports(mech, 0)
        assert mech._rng.bit_generator.state == state

    def test_square_wave_reports_stay_in_output_domain(self):
        # Fig. 9's EMF baseline feeds the same attack through Square-Wave.
        mech = SquareWaveMechanism(2.0, seed=2)
        reports = InputManipulationAttack(1.0).reports(mech, 10_000)
        assert reports.min() >= -mech.b - 1e-12
        assert reports.max() <= 1.0 + mech.b + 1e-12
        inside = np.abs(reports - 1.0) <= mech.b
        assert inside.mean() == pytest.approx(2 * mech.b * mech.p_density, abs=0.02)

    def test_reports_indistinguishable_support(self):
        # Input-manipulated reports stay inside the mechanism's output
        # domain — the deniability property.
        mech = PiecewiseMechanism(1.0, seed=1)
        reports = InputManipulationAttack(1.0).reports(mech, 10_000)
        assert np.abs(reports).max() <= mech.c_bound + 1e-9


class TestEMF:
    def _reports(self, epsilon, n_honest, n_attack, seed=0):
        rng = np.random.default_rng(seed)
        mech = SquareWaveMechanism(epsilon, seed=seed + 1)
        honest = rng.beta(2, 2, size=n_honest)  # mean 0.5 on [0, 1]
        reports = mech.perturb(honest)
        if n_attack > 0:  # input manipulation at the domain maximum
            reports = np.concatenate([reports, mech.perturb(np.ones(n_attack))])
        return mech, reports, honest

    def test_clean_estimation_accurate(self):
        mech, reports, honest = self._reports(2.0, 20_000, 0)
        emf = ExpectationMaximizationFilter(mech, attack_fraction=0.0)
        result = emf.fit(reports)
        truth = 2 * honest.mean() - 1
        assert result.mean == pytest.approx(truth, abs=0.05)

    def test_result_distributions_normalized(self):
        mech, reports, _ = self._reports(2.0, 5000, 500)
        emf = ExpectationMaximizationFilter(mech, attack_fraction=0.09)
        result = emf.fit(reports)
        assert result.honest_distribution.sum() == pytest.approx(1.0, abs=1e-6)
        assert result.attack_distribution.sum() == pytest.approx(1.0, abs=1e-6)

    def test_input_manipulation_evades_filter(self):
        # The documented EMF limitation: channel-consistent attacks are
        # not separable, so the estimate stays biased toward the target.
        mech, reports, honest = self._reports(2.0, 20_000, 4000)
        truth = 2 * honest.mean() - 1
        emf = ExpectationMaximizationFilter(mech, attack_fraction=4000 / 24_000)
        result = emf.fit(reports)
        assert result.mean > truth + 0.05

    def test_invalid_attack_fraction_rejected(self):
        mech = SquareWaveMechanism(1.0)
        with pytest.raises(ValueError):
            ExpectationMaximizationFilter(mech, attack_fraction=1.0)

    def test_empty_reports_rejected(self):
        mech = SquareWaveMechanism(1.0)
        emf = ExpectationMaximizationFilter(mech, attack_fraction=0.1)
        with pytest.raises(ValueError):
            emf.fit(np.array([]))

"""Tests for the Table IV cost runner and the Elastic update rules.

The paper's claims on every other artifact are checked on the
registered scenarios (``tests/scenarios/test_paper_claims.py``).
"""

import numpy as np
import pytest

from repro.core.stackelberg import linear_response_fixed_point
from repro.experiments import CostConfig, run_cost_analysis
from repro.experiments.cost import elastic_trajectory, roundwise_cost


class TestCostRunner:
    def test_roundwise_cost_decreases_with_rounds(self):
        rows = run_cost_analysis(CostConfig(round_numbers=(5, 20, 50)))
        costs_high = [r.cost_k_high for r in rows]
        costs_low = [r.cost_k_low for r in rows]
        assert costs_high[0] > costs_high[1] > costs_high[2]
        assert costs_low[0] > costs_low[1] > costs_low[2]

    def test_stronger_response_is_cheaper(self):
        rows = run_cost_analysis(CostConfig())
        for row in rows:
            assert row.cost_k_high < row.cost_k_low

    def test_roundwise_cost_scales_inverse_rounds(self):
        # Total transient cost is finite: cost(n) * n converges.
        totals = [roundwise_cost(0.9, 0.5, n) * n for n in (20, 40, 80)]
        assert abs(totals[-1] - totals[-2]) < 0.05 * totals[-1]

    def test_trajectory_converges_to_fixed_point(self):
        thresholds, injections = elastic_trajectory(0.9, 0.5, 300)
        t_star, a_star = linear_response_fixed_point(0.9, 0.5)
        assert thresholds[-1] == pytest.approx(t_star, abs=1e-6)
        assert injections[-1] == pytest.approx(a_star, abs=1e-6)

    def test_paper_rule_also_converges(self):
        thresholds, injections = elastic_trajectory(0.9, 0.3, 200, rule="paper")
        assert abs(thresholds[-1] - thresholds[-2]) < 1e-9

    def test_update_rules_rank_response_strengths_oppositely(self):
        """Over 30 rounds, the relaxation rule makes the stronger
        response (k = 0.7) cheaper than k = 0.1, the direction of Table
        IV of arXiv 2403.10313; the anchored paper rule contracts at
        rate k, so under it the stronger response costs more."""
        relaxation = [roundwise_cost(0.9, k, 30) for k in (0.1, 0.7)]
        paper = [roundwise_cost(0.9, k, 30, rule="paper") for k in (0.1, 0.7)]
        assert relaxation[-1] < relaxation[0]
        assert paper[-1] > paper[0]

    def test_fixed_point_is_finite_for_every_strength(self):
        for k in (0.1, 0.3, 0.5, 0.7):
            t_star, a_star = linear_response_fixed_point(0.9, k)
            assert np.isfinite(t_star) and np.isfinite(a_star)

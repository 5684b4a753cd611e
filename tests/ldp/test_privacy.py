"""ε-LDP verification: density ratios bounded by e^ε for every mechanism.

The defining property of ε-local differential privacy: for all inputs
``x, x'`` and all reports ``y``, ``p(y|x) <= e^ε p(y|x')``.  These tests
verify it analytically via the mechanisms' density functions over input
and report grids, and also check the densities integrate to one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ldp import PiecewiseMechanism, SquareWaveMechanism

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _max_ratio(mechanism, inputs, reports):
    densities = np.array([mechanism.density(reports, x) for x in inputs])
    floor = 1e-300
    worst = 1.0
    for i in range(len(inputs)):
        for j in range(len(inputs)):
            if i == j:
                continue
            a, b = densities[i], densities[j]
            mask = (a > floor) | (b > floor)
            ratios = (a[mask] + floor) / (b[mask] + floor)
            worst = max(worst, float(ratios.max()))
    return worst


#: Fig. 9's privacy budgets (``LDPConfig.epsilons``), plus the low end 0.5.
FIG9_EPSILONS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]


class TestPrivacyBound:
    @pytest.mark.parametrize("epsilon", FIG9_EPSILONS)
    def test_piecewise_ratio_bounded_and_tight(self, epsilon):
        mech = PiecewiseMechanism(epsilon)
        inputs = np.linspace(-1, 1, 9)
        reports = np.linspace(-mech.c_bound, mech.c_bound, 401)
        worst = _max_ratio(mech, inputs, reports)
        assert worst <= np.exp(epsilon) * (1 + 1e-9)
        assert worst == pytest.approx(np.exp(epsilon), rel=1e-6)

    @pytest.mark.parametrize("epsilon", FIG9_EPSILONS)
    def test_square_wave_ratio_bounded_and_tight(self, epsilon):
        mech = SquareWaveMechanism(epsilon)
        inputs = np.linspace(0, 1, 9)
        reports = np.linspace(-mech.b, 1 + mech.b, 301)
        worst = _max_ratio(mech, inputs, reports)
        assert worst <= np.exp(epsilon) * (1 + 1e-9)
        assert worst == pytest.approx(np.exp(epsilon), rel=1e-9)


class TestDensityNormalization:
    @pytest.mark.parametrize("x", [-1.0, -0.2, 0.9])
    def test_piecewise_integrates_to_one(self, x):
        mech = PiecewiseMechanism(2.0)
        c = mech.c_bound
        grid = np.linspace(-c, c, 400_001)
        mass = _trapezoid(mech.density(grid, x), grid)
        assert mass == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("x", [0.0, 0.4, 1.0])
    def test_square_wave_integrates_to_one(self, x):
        mech = SquareWaveMechanism(1.0)
        b = mech.b
        grid = np.linspace(-b, 1 + b, 200_001)
        mass = _trapezoid(mech.density(grid, x), grid)
        assert mass == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("epsilon", [0.5, 3.0, 5.0])
    def test_piecewise_mass_at_other_budgets(self, epsilon):
        mech = PiecewiseMechanism(epsilon)
        c = mech.c_bound
        grid = np.linspace(-c, c, 400_001)
        mass = _trapezoid(mech.density(grid, 0.3), grid)
        assert mass == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("epsilon", [0.5, 3.0, 5.0])
    def test_square_wave_mass_at_other_budgets(self, epsilon):
        mech = SquareWaveMechanism(epsilon)
        b = mech.b
        grid = np.linspace(-b, 1 + b, 200_001)
        mass = _trapezoid(mech.density(grid, 0.3), grid)
        assert mass == pytest.approx(1.0, abs=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.3, 4.0), st.floats(-1.0, 1.0))
    def test_piecewise_density_consistent_with_samples(self, epsilon, x):
        # Empirical in-band frequency matches the analytic band mass.
        mech = PiecewiseMechanism(epsilon, seed=0)
        reports = mech.perturb(np.full(20_000, x))
        left = (mech.c_bound + 1) / 2 * x - (mech.c_bound - 1) / 2
        right = left + mech.c_bound - 1
        t = np.exp(epsilon / 2.0)
        expected = t / (t + 1.0)
        measured = float(np.mean((reports >= left) & (reports <= right)))
        assert measured == pytest.approx(expected, abs=0.03)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.3, 5.0), st.floats(0.0, 1.0))
    def test_square_wave_density_consistent_with_samples(self, epsilon, x):
        # Empirical in-window frequency matches the analytic window mass.
        mech = SquareWaveMechanism(epsilon, seed=0)
        reports = mech.perturb(np.full(20_000, x))
        expected = 2.0 * mech.b * mech.p_density
        measured = float(np.mean(np.abs(reports - x) <= mech.b))
        assert measured == pytest.approx(expected, abs=0.03)

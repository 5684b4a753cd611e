"""Tests for repro.core.payoffs — P, T, x_L, x_R, and profile payoffs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.payoffs import PayoffModel, power_poison_gain, power_trim_cost


class TestGainCostFamilies:
    def test_poison_gain_increasing(self):
        gain = power_poison_gain(scale=2.0, exponent=2.0)
        xs = np.linspace(0, 1, 11)
        vals = [gain(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:], strict=False))

    def test_trim_cost_decreasing(self):
        cost = power_trim_cost(scale=1.5, exponent=1.0)
        xs = np.linspace(0, 1, 11)
        vals = [cost(x) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:], strict=False))

    def test_default_model_trades_off_across_domain(self):
        """Fig. 1a of arXiv 2403.10313: on the default model, the poison
        payoff P rises and the trimming overhead T falls over [0, 1]."""
        model = PayoffModel()
        xs = np.linspace(0.0, 1.0, 11)
        p_values = [model.poison_payoff(x) for x in xs]
        t_values = [model.trim_overhead(x) for x in xs]
        assert all(b >= a for a, b in zip(p_values, p_values[1:], strict=False))
        assert all(b <= a for a, b in zip(t_values, t_values[1:], strict=False))

    def test_trim_cost_zero_at_one(self):
        assert power_trim_cost()(1.0) == 0.0

    def test_poison_gain_zero_at_zero(self):
        assert power_poison_gain()(0.0) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            power_poison_gain(scale=bad)
        with pytest.raises(ValueError):
            power_trim_cost(exponent=bad)


class TestBalancePoint:
    def test_balance_point_equalizes_payoffs(self):
        model = PayoffModel()
        x_l = model.balance_point()
        assert 0.0 < x_l < 1.0
        assert abs(model.poison_payoff(x_l) - model.trim_overhead(x_l)) < 1e-9

    def test_balance_point_moves_with_trim_cost(self):
        cheap_trim = PayoffModel(trim_cost=power_trim_cost(scale=0.1))
        pricey_trim = PayoffModel(trim_cost=power_trim_cost(scale=10.0))
        # More expensive trimming pushes the balance point right: the
        # collector tolerates more poison before trimming pays off.
        assert cheap_trim.balance_point() < pricey_trim.balance_point()

    def test_dominant_poison_returns_left_edge(self):
        model = PayoffModel(
            poison_gain=lambda x: 5.0 + x,
            trim_cost=power_trim_cost(),
        )
        assert model.balance_point() == 0.0

    def test_dominant_overhead_returns_right_edge(self):
        model = PayoffModel(
            poison_gain=power_poison_gain(scale=0.001),
            trim_cost=lambda x: 10.0 + (1 - x),
        )
        assert model.balance_point() == 1.0

    @given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
    def test_balance_point_root_property(self, gain_scale, cost_scale):
        model = PayoffModel(
            poison_gain=power_poison_gain(scale=gain_scale),
            trim_cost=power_trim_cost(scale=cost_scale),
        )
        x_l = model.balance_point()
        if 0.0 < x_l < 1.0:
            assert abs(model.poison_payoff(x_l) - model.trim_overhead(x_l)) < 1e-7


class TestRightBoundary:
    def test_right_boundary_from_tolerance(self):
        model = PayoffModel(tolerance=0.02)
        assert model.right_boundary() == pytest.approx(0.98)

    def test_strategy_interval_ordering(self):
        x_l, x_r = PayoffModel().strategy_interval()
        assert 0.0 <= x_l < x_r <= 1.0

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            PayoffModel(tolerance=0.7)


class TestProfilePayoffs:
    def test_surviving_poison_is_zero_sum(self):
        model = PayoffModel()
        adv, col = model.profile_payoffs(x_a=0.5, x_c=0.9)
        assert adv > 0.0
        # Collector loss = poison + overhead; the poison part is zero-sum.
        assert col == pytest.approx(-adv - model.trim_overhead(0.9))

    def test_trimmed_poison_gains_nothing(self):
        model = PayoffModel()
        adv, col = model.profile_payoffs(x_a=0.95, x_c=0.9)
        assert adv == 0.0
        assert col == pytest.approx(-model.trim_overhead(0.9))

    def test_equal_positions_mean_trimmed(self):
        adv, _ = PayoffModel().profile_payoffs(0.9, 0.9)
        assert adv == 0.0

    def test_collector_payoff_never_positive(self):
        model = PayoffModel()
        for x_a in np.linspace(0, 1, 7):
            for x_c in np.linspace(0, 1, 7):
                _, col = model.profile_payoffs(x_a, x_c)
                assert col <= 0.0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_adversary_payoff_bounded_by_gain(self, x_a, x_c):
        model = PayoffModel()
        adv, _ = model.profile_payoffs(x_a, x_c)
        assert 0.0 <= adv <= model.poison_payoff(x_a) + 1e-12


def scalar_reference_matrix(model, adversary_grid, collector_grid):
    """The naive double loop over ``profile_payoffs`` — the ground truth
    the broadcast ``payoff_matrix`` must reproduce exactly."""
    a_grid = np.asarray(adversary_grid, dtype=float)
    c_grid = np.asarray(collector_grid, dtype=float)
    adv = np.empty((a_grid.size, c_grid.size))
    col = np.empty_like(adv)
    for i, x_a in enumerate(a_grid):
        for j, x_c in enumerate(c_grid):
            adv[i, j], col[i, j] = model.profile_payoffs(x_a, x_c)
    return adv, col


def _scalar_only_gain(x):
    """A deliberately non-vectorizable poison gain (truth-tests its input)."""
    return 2.0 * x * x if x > 0.1 else 0.05 * x


def _scalar_only_cost(x):
    """A deliberately non-vectorizable trim cost."""
    return (1.0 - x) * (1.5 if x < 0.9 else 0.5)


class TestVectorizedKernels:
    def test_power_kernels_accept_arrays(self):
        xs = np.linspace(0.0, 1.0, 17)
        gain = power_poison_gain(scale=1.3, exponent=2.5)
        cost = power_trim_cost(scale=0.7, exponent=1.5)
        np.testing.assert_array_equal(gain(xs), [gain(float(x)) for x in xs])
        np.testing.assert_array_equal(cost(xs), [cost(float(x)) for x in xs])

    def test_power_kernels_scalar_returns_float(self):
        assert type(power_poison_gain()(0.5)) is float
        assert type(power_trim_cost()(0.5)) is float

    def test_model_payoffs_accept_arrays(self):
        model = PayoffModel()
        xs = np.linspace(-0.2, 1.2, 23)  # clipping exercised
        gains = model.poison_payoff(xs)
        overheads = model.trim_overhead(xs)
        np.testing.assert_array_equal(
            gains, [model.poison_payoff(float(x)) for x in xs]
        )
        np.testing.assert_array_equal(
            overheads, [model.trim_overhead(float(x)) for x in xs]
        )

    def test_scalar_only_callable_falls_back(self):
        model = PayoffModel(
            poison_gain=_scalar_only_gain, trim_cost=_scalar_only_cost
        )
        xs = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(
            model.poison_payoff(xs), [model.poison_payoff(float(x)) for x in xs]
        )
        np.testing.assert_array_equal(
            model.trim_overhead(xs), [model.trim_overhead(float(x)) for x in xs]
        )

    def test_constant_lambda_kernel_supported(self):
        # Returns a scalar even for array input: wrong shape -> fallback.
        model = PayoffModel(poison_gain=lambda x: 0.25, trim_cost=power_trim_cost())
        out = model.poison_payoff(np.linspace(0, 1, 5))
        np.testing.assert_array_equal(out, np.full(5, 0.25))


class TestBroadcastMatrixEquivalence:
    """The broadcast matrix must match the scalar double loop bit-for-bit."""

    @given(
        n_a=st.integers(min_value=1, max_value=24),
        n_c=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
        gain_scale=st.floats(0.2, 4.0),
        gain_exp=st.floats(0.5, 3.0),
        cost_scale=st.floats(0.2, 4.0),
        cost_exp=st.floats(0.5, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_grids_match_scalar_loop(
        self, n_a, n_c, seed, gain_scale, gain_exp, cost_scale, cost_exp
    ):
        rng = np.random.default_rng(seed)
        model = PayoffModel(
            poison_gain=power_poison_gain(gain_scale, gain_exp),
            trim_cost=power_trim_cost(cost_scale, cost_exp),
        )
        a_grid = np.sort(rng.random(n_a))
        c_grid = np.sort(rng.random(n_c))
        adv, col = model.payoff_matrix(a_grid, c_grid)
        ref_adv, ref_col = scalar_reference_matrix(model, a_grid, c_grid)
        np.testing.assert_array_equal(adv, ref_adv)
        np.testing.assert_array_equal(col, ref_col)

    def test_scalar_only_kernels_match_scalar_loop(self):
        model = PayoffModel(
            poison_gain=_scalar_only_gain, trim_cost=_scalar_only_cost
        )
        grid = np.linspace(0.0, 1.0, 31)
        adv, col = model.payoff_matrix(grid, grid)
        ref_adv, ref_col = scalar_reference_matrix(model, grid, grid)
        np.testing.assert_array_equal(adv, ref_adv)
        np.testing.assert_array_equal(col, ref_col)

    def test_grid_including_unit_endpoint_matches(self):
        # x_c = 1.0 makes T = 0 in the trimmed branch: the signed-zero
        # combination -0.0 - 0.0 must match the scalar path bytes too.
        model = PayoffModel()
        grid = np.linspace(0.0, 1.0, 9)
        adv, col = model.payoff_matrix(grid, grid)
        ref_adv, ref_col = scalar_reference_matrix(model, grid, grid)
        assert adv.tobytes() == ref_adv.tobytes()
        assert col.tobytes() == ref_col.tobytes()


class TestPayoffMatrix:
    def test_shapes(self):
        model = PayoffModel()
        adv, col = model.payoff_matrix(np.linspace(0, 1, 4), np.linspace(0, 1, 6))
        assert adv.shape == (4, 6)
        assert col.shape == (4, 6)

    def test_matrix_matches_pointwise(self):
        model = PayoffModel()
        grid = np.linspace(0.1, 0.9, 5)
        adv, col = model.payoff_matrix(grid, grid)
        for i, x_a in enumerate(grid):
            for j, x_c in enumerate(grid):
                a, c = model.profile_payoffs(x_a, x_c)
                assert adv[i, j] == pytest.approx(a)
                assert col[i, j] == pytest.approx(c)

    def test_adversary_prefers_just_below_threshold(self):
        model = PayoffModel()
        grid = np.linspace(0.0, 1.0, 101)
        adv, _ = model.payoff_matrix(grid, np.array([0.9]))
        best = grid[int(np.argmax(adv[:, 0]))]
        # Best response to trimming at 0.9 sits just below 0.9.
        assert 0.85 <= best < 0.9

"""Tests for repro.core.domain — percentile coordinate algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.domain import (
    Domain,
    QuantileBank,
    QuantileTable,
    clip_percentile,
    empirical_quantile,
    percentile_grid,
    percentile_of,
    sorted_quantile,
)


class TestDomain:
    def test_width_and_center(self):
        d = Domain(-1.0, 1.0)
        assert d.width == 2.0
        assert d.center == 0.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Domain(1.0, -1.0)

    def test_rejects_equal_bounds(self):
        with pytest.raises(ValueError):
            Domain(0.5, 0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Domain(0.0, np.inf)

    def test_contains_endpoints(self):
        d = Domain(0.0, 1.0)
        assert d.contains([0.0, 0.5, 1.0]).all()

    def test_contains_excludes_outside(self):
        d = Domain(0.0, 1.0)
        assert not d.contains(1.0001)
        assert not d.contains(-0.0001)

    def test_clip(self):
        d = Domain(-1.0, 1.0)
        np.testing.assert_allclose(d.clip([-5.0, 0.3, 5.0]), [-1.0, 0.3, 1.0])

    def test_normalize_maps_bounds_to_unit(self):
        d = Domain(0.0, 86340.0)
        np.testing.assert_allclose(d.normalize([0.0, 86340.0]), [-1.0, 1.0])

    def test_normalize_denormalize_roundtrip(self):
        d = Domain(3.0, 17.0)
        vals = np.linspace(3.0, 17.0, 11)
        np.testing.assert_allclose(d.denormalize(d.normalize(vals)), vals)

    def test_scale_enlarges_about_center(self):
        d = Domain(-1.0, 1.0).scale(2.0)
        assert d.low == -2.0 and d.high == 2.0

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Domain(-1.0, 1.0).scale(0.0)

    @given(st.floats(-100, 100), st.floats(0.1, 100))
    def test_normalize_bounds_property(self, low, width):
        d = Domain(low, low + width)
        out = d.normalize([d.low, d.center, d.high])
        np.testing.assert_allclose(out, [-1.0, 0.0, 1.0], atol=1e-9)


class TestEmpiricalQuantile:
    def test_median(self):
        assert empirical_quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_extremes(self):
        vals = [5.0, 1.0, 9.0]
        assert empirical_quantile(vals, 0.0) == 1.0
        assert empirical_quantile(vals, 1.0) == 9.0

    def test_vector_fractions(self):
        out = empirical_quantile(np.arange(101.0), [0.0, 0.5, 1.0])
        np.testing.assert_allclose(out, [0.0, 50.0, 100.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)

    def test_out_of_range_fraction_raises(self):
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 1.5)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50),
        st.floats(0.0, 1.0),
    )
    def test_quantile_within_range(self, values, q):
        out = float(empirical_quantile(values, q))
        assert min(values) <= out <= max(values)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    def test_quantile_monotone_in_fraction(self, values):
        lo = float(empirical_quantile(values, 0.25))
        hi = float(empirical_quantile(values, 0.75))
        assert lo <= hi


class TestEmpiricalQuantileReturnTypes:
    """Scalar ``q`` must yield a plain float, array ``q`` an ndarray."""

    def test_scalar_fraction_returns_float(self):
        out = empirical_quantile([3.0, 1.0, 2.0], 0.5)
        assert type(out) is float
        assert out == 2.0

    def test_zero_d_array_fraction_returns_float(self):
        out = empirical_quantile([3.0, 1.0, 2.0], np.float64(0.5))
        assert type(out) is float

    def test_array_fraction_returns_ndarray(self):
        out = empirical_quantile(np.arange(11.0), np.array([0.1, 0.9]))
        assert isinstance(out, np.ndarray)
        assert out.shape == (2,)

    def test_list_fraction_returns_ndarray(self):
        out = empirical_quantile(np.arange(11.0), [0.0, 0.5, 1.0])
        assert isinstance(out, np.ndarray)
        assert out.shape == (3,)


def _fractions(n, rng, extra):
    """0, 1, exact order statistics k/(n-1), midpoints (gamma = 0.5) and
    random fractions for a sample of size ``n``."""
    q = [0.0, 1.0, *extra, *rng.random(16)]
    if n > 1:
        ks = np.unique(rng.integers(0, n, size=8))
        q += [k / (n - 1) for k in ks]
        q += [(k + 0.5) / (n - 1) for k in ks if k < n - 1]
    return np.array(q)


class TestQuantileBank:
    """Tables laid end to end answer as each table does, bit for bit."""

    @given(
        sizes=st.lists(
            st.one_of(st.just(1), st.just(2), st.integers(3, 5000)),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        extra=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_table_bit_for_bit(self, sizes, seed, extra):
        rng = np.random.default_rng(seed)
        tables = [QuantileTable(rng.normal(size=n) * rng.lognormal()) for n in sizes]
        bank = QuantileBank(tables)
        rows = []
        for slot, table in enumerate(tables):
            q = _fractions(table.n, rng, extra)
            got = bank.quantile(np.full(q.shape, slot), q)
            assert got.tobytes() == table.quantile(q).tobytes(), slot
            rows.append(q[:16])
        # Every table in one gather: row j reads table j.
        slots = np.arange(len(tables))
        q = np.stack([np.resize(row, 16) for row in rows])
        got = bank.quantile(slots[:, None], q)
        for slot, table in enumerate(tables):
            assert got[slot].tobytes() == table.quantile(q[slot]).tobytes()

    def test_values_are_read_only(self):
        bank = QuantileBank([QuantileTable([2.0, 1.0]), QuantileTable([5.0])])
        assert bank.values.tolist() == [1.0, 2.0, 5.0]
        assert bank.starts.tolist() == [0, 2]
        assert bank.sizes.tolist() == [2, 1]
        with pytest.raises(ValueError):
            bank.values[0] = 0.0


def test_ragged_sorted_rows_read_their_own_prefix():
    rng = np.random.default_rng(3)
    sizes = np.array([1, 2, 9, 30, 17])
    rows = rng.normal(size=(5, 30))
    rows[np.arange(30) >= sizes[:, None]] = np.nan  # pads sort last
    ordered = np.sort(rows, axis=1)
    for q in (0.0, 1.0, 0.5, 0.3, 0.97):
        got = sorted_quantile(ordered, np.full(5, q), sizes)
        for j, size in enumerate(sizes):
            want = np.quantile(rows[j, :size], q)
            assert got[j].tobytes() == want.tobytes(), (q, j)


class TestQuantileTable:
    @given(
        n=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantile_bit_identical_to_numpy(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n) * rng.lognormal()
        table = QuantileTable(values)
        qs = np.concatenate([rng.random(64), [0.0, 0.25, 0.5, 0.75, 1.0]])
        np.testing.assert_array_equal(table.quantile(qs), np.quantile(values, qs))
        for q in (0.0, 0.5, 0.9, 1.0, float(rng.random())):
            assert table.quantile(q) == float(np.quantile(values, q))

    def test_scalar_query_returns_float(self):
        table = QuantileTable([3.0, 1.0, 2.0])
        out = table.quantile(0.5)
        assert type(out) is float
        assert out == 2.0

    def test_array_query_returns_ndarray(self):
        table = QuantileTable(np.arange(10.0))
        out = table.quantile(np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, [0.0, 9.0])

    def test_single_element_table(self):
        table = QuantileTable([7.0])
        assert table.quantile(0.0) == 7.0
        assert table.quantile(1.0) == 7.0

    def test_values_sorted_and_read_only(self):
        table = QuantileTable([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(table.values, [1.0, 2.0, 3.0])
        assert table.n == 3
        with pytest.raises(ValueError):
            table.values[0] = -1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QuantileTable([])

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError):
            QuantileTable([1.0, 2.0]).quantile(1.5)

    @pytest.mark.parametrize(
        "q",
        [float("nan"), np.float64("nan"), np.array(np.nan), np.array([0.5, np.nan])],
        ids=["float", "float64", "0-d", "array"],
    )
    def test_nan_fraction_rejected(self, q):
        # numpy.quantile raises ValueError on NaN fractions; so does the
        # table, instead of indexing with a NaN cast to an integer.
        with pytest.raises(ValueError, match="must lie in"):
            QuantileTable(np.arange(10.0)).quantile(q)

    @given(
        n=st.integers(min_value=1, max_value=3001),
        seed=st.integers(min_value=0, max_value=2**16),
        q=st.one_of(
            st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_float_fraction_bit_identical_to_numpy(self, n, seed, q):
        values = np.random.default_rng(seed).normal(size=n)
        table = QuantileTable(values)
        want = np.quantile(values, q)
        for fraction in (q, np.float64(q)):
            got = table.quantile(fraction)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes()

    def test_zero_d_and_one_element_arrays_keep_their_types(self):
        table = QuantileTable(np.arange(10.0))
        zero_d = table.quantile(np.array(0.25))
        assert type(zero_d) is float
        assert zero_d == 2.25
        one = table.quantile(np.array([0.25]))
        assert isinstance(one, np.ndarray)
        assert one.shape == (1,)
        np.testing.assert_array_equal(one, [2.25])

    @given(
        n=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_cdf_matches_percentile_of(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n)
        table = QuantileTable(values)
        probes = np.concatenate([values[: min(n, 5)], rng.normal(size=5)])
        for x in probes:
            assert table.cdf(float(x)) == percentile_of(values, float(x))

    def test_tail_mass_counts_strictly_above(self):
        table = QuantileTable([1.0, 2.0, 2.0, 3.0])
        assert table.tail_mass(2.0) == pytest.approx(0.25)
        assert table.tail_mass(0.0) == 1.0
        assert table.tail_mass(3.0) == 0.0

    def test_cdf_array_query(self):
        table = QuantileTable([1.0, 2.0, 3.0, 4.0])
        out = table.cdf(np.array([1.0, 2.5, 10.0]))
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])


class TestPercentileOf:
    def test_inverse_of_quantile(self):
        values = np.arange(1000.0)
        x = empirical_quantile(values, 0.73)
        assert abs(percentile_of(values, x) - 0.73) < 0.01

    def test_below_minimum_is_zero(self):
        assert percentile_of([1.0, 2.0], 0.0) == 0.0

    def test_above_maximum_is_one(self):
        assert percentile_of([1.0, 2.0], 5.0) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile_of([], 1.0)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        st.floats(-200, 200),
    )
    def test_result_is_probability(self, values, x):
        p = percentile_of(values, x)
        assert 0.0 <= p <= 1.0


class TestClipPercentile:
    @pytest.mark.parametrize(
        "raw, expected", [(-0.5, 0.0), (0.0, 0.0), (0.42, 0.42), (1.0, 1.0), (1.7, 1.0)]
    )
    def test_clip_values(self, raw, expected):
        assert clip_percentile(raw) == expected


class TestPercentileGrid:
    def test_inclusive_endpoints(self):
        grid = percentile_grid(0.2, 0.8, 7)
        assert grid[0] == 0.2 and grid[-1] == 0.8
        assert grid.size == 7

    def test_monotone(self):
        grid = percentile_grid(0.1, 0.9, 33)
        assert np.all(np.diff(grid) > 0)

    def test_clips_out_of_range_inputs(self):
        grid = percentile_grid(-1.0, 2.0, 3)
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            percentile_grid(0.0, 1.0, 1)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            percentile_grid(0.9, 0.9, 5)

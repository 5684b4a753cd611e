"""The numpy behaviours the chunked SGD fits are built on.

``LinearSVM``/``OneVsRestSVM`` and ``SelfOrganizingMap`` draw sample
indices in chunks; the Pegasos lanes compute per-lane dot products and
norms with one stacked ``np.matmul``; a SOM cohort updates an
``(L, neurons, d)`` weight stack, reducing each lane's rows along the
last axis, exponentiating its ``(L, neurons)`` influence in place and
taking each lane's first best-matching unit with ``argmin(axis=1)``.
Their outputs are bit-identical to the sequential loops only while the
facts below hold; a numpy upgrade that breaks one must fail here, not
silently change the paper artifacts.
"""

import numpy as np
import pytest


@pytest.mark.parametrize(
    "n", [1, 2, 7, 600, 2**31 + 11, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3]
)
@pytest.mark.parametrize("chunk", [1, 63, 64, 65])
def test_chunked_integers_equal_scalar_draws(n, chunk):
    scalar_rng = np.random.default_rng(2024)
    chunked_rng = np.random.default_rng(2024)
    # A float draw first, as the SOM's weight init does, then several
    # chunks, so buffered 32-bit halves carry across chunk boundaries.
    scalar_rng.random(3)
    chunked_rng.random(3)
    for _ in range(3):
        scalar = [int(scalar_rng.integers(n)) for _ in range(chunk)]
        chunked = chunked_rng.integers(n, size=chunk)
        assert chunked.tolist() == scalar
        assert chunked_rng.bit_generator.state == scalar_rng.bit_generator.state


@pytest.mark.parametrize("lanes", [1, 6, 42])
def test_stacked_matmul_equals_vector_dot(lanes):
    rng = np.random.default_rng(7)
    for d in range(1, 258):
        a = rng.normal(size=(lanes, d)) * rng.choice([1e-3, 1.0, 1e3], size=(lanes, 1))
        b = rng.normal(size=(lanes, d))
        dots = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
        norms = np.sqrt(np.matmul(b[:, None, :], b[:, :, None]))[:, 0, 0]
        for k in range(lanes):
            # Standalone copies: the sequential loops own their vectors.
            w = b[k].copy()
            assert dots[k].tobytes() == (a[k] @ w).tobytes(), (d, k)
            assert norms[k].tobytes() == np.linalg.norm(w).tobytes(), (d, k)


#: Feature widths around numpy's pairwise-summation block edges (8-way
#: unrolling from 8 terms, blocks of 128), and Fig. 8's Creditcard width.
SUM_WIDTHS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 60, 127, 128, 129)


@pytest.mark.parametrize("lanes", [1, 2, 7, 42])
@pytest.mark.parametrize("d", SUM_WIDTHS)
def test_stacked_last_axis_reduce_equals_per_lane(lanes, d):
    rng = np.random.default_rng(d)
    sq = rng.normal(size=(lanes, 13, d)) ** 2 * rng.choice([1e-3, 1.0, 1e3], size=(lanes, 13, 1))
    out = np.empty((lanes, 13))
    np.add.reduce(sq, axis=2, out=out)
    for k in range(lanes):
        alone = np.empty(13)
        np.add.reduce(sq[k].copy(), axis=1, out=alone)
        assert out[k].tobytes() == alone.tobytes(), (d, k)


@pytest.mark.parametrize("lanes", [1, 2, 7, 42])
@pytest.mark.parametrize("n", [1, 3, 12, 100, 400])
def test_stacked_inplace_exp_equals_per_lane(lanes, n):
    rng = np.random.default_rng(n)
    # The SOM's exponents: -(grid distance) / (2 sigma^2), down to underflow.
    two_sigma_sq = 2.0 * rng.uniform(0.25, 100.0, size=(lanes, 1))
    stacked = -rng.integers(0, 800, size=(lanes, n)) / two_sigma_sq
    per_lane = [row.copy() for row in stacked]
    for alone in per_lane:
        np.exp(alone, out=alone)
    np.exp(stacked, out=stacked)
    for k in range(lanes):
        assert stacked[k].tobytes() == per_lane[k].tobytes(), (n, k)


def test_argmin_rows_keep_first_tied_minimum():
    d2 = np.array([[3.0, 1.0, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0], [5.0, 4.0, 9.0, 4.0]])
    assert d2.argmin(axis=1).tolist() == [1, 0, 1]
    for row in d2:
        assert int(row.argmin()) == int(np.flatnonzero(row == row.min())[0])

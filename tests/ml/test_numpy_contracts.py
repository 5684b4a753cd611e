"""The numpy behaviours the chunked SGD fits are built on.

``LinearSVM``/``OneVsRestSVM`` and ``SelfOrganizingMap`` draw sample
indices in chunks and compute per-lane dot products and norms with one
stacked ``np.matmul``.  Their outputs are bit-identical to the
sequential loops only while the two facts below hold; a numpy upgrade
that breaks either must fail here, not silently change the paper
artifacts.
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


@pytest.mark.parametrize("lanes", [1, 6])
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

"""The numpy behaviours the one-pass lockstep round is built on.

The round scores a taxi-shaped ``(L, n, 1)`` stack with ``sqrt(x * x)``
of the squeezed column, where the solo trimmer used ``np.linalg.norm``
over the length-1 feature axis, and it counts a boolean mask with
``np.count_nonzero(...) / n`` where the solo evaluator and judge used
``np.mean``.  Both are bit-identical only while the facts below hold; a
numpy upgrade that breaks one must fail here, not silently change a
lane's board.
"""

import numpy as np
import pytest

from repro.core.domain import _row_norms

#: Signed zeros, subnormals, squares that underflow or overflow, the
#: largest doubles and infinities.
SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1e-170,
    1.4916681462400413e-154, 1e154, -1.3407807929942596e154, 1e155,
    1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf,
)


def _values(seed, size):
    rng = np.random.default_rng(seed)
    spread = rng.normal(size=size) * np.exp(rng.uniform(-300.0, 300.0, size=size))
    return np.concatenate([SPECIALS, spread])


pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered")


@pytest.mark.parametrize("lanes", [None, 1, 3])
def test_length_one_norm_is_the_squeezed_square_root(lanes):
    x = _values(lanes or 0, 3 * 400 - len(SPECIALS))
    stack = x.reshape(-1, 1) if lanes is None else x.reshape(lanes, -1, 1)
    want = np.linalg.norm(stack, axis=-1)
    got = np.sqrt(stack[..., 0] * stack[..., 0])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 60])
@pytest.mark.parametrize("shape", [(97,), (4, 97)])
def test_row_norms_equal_linalg_norm(d, shape):
    rng = np.random.default_rng(d)
    x = rng.normal(size=shape + (d,)) * np.exp(rng.uniform(-20.0, 20.0, size=shape + (d,)))
    x.flat[: len(SPECIALS)] = SPECIALS[: x.size]
    center = rng.normal(size=shape[:-1] + (1, d))
    assert _row_norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
    want = np.linalg.norm(x - center, axis=-1)
    assert _row_norms(x, center).tobytes() == want.tobytes()
    # Squares written into a caller's buffer: the norms never alias it.
    buffer = np.empty(x.size)
    got = _row_norms(x, center, lambda s: buffer[: int(np.prod(s))].reshape(s))
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, buffer)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 110, 130, 1000, 4097])
def test_count_over_size_is_the_boolean_mean(n):
    rng = np.random.default_rng(n)
    mask = rng.random((9, n)) < rng.random((9, 1))
    mask[0] = False
    mask[1] = True
    got = np.count_nonzero(mask, axis=1) / n
    assert got.tobytes() == np.mean(mask, axis=1).tobytes()
    sizes = rng.integers(1, n + 1, size=9)
    ragged = np.count_nonzero(mask & (np.arange(n) < sizes[:, None]), axis=1) / sizes
    for row, size, value in zip(mask, sizes, ragged, strict=True):
        alone = row[:size]
        want = np.float64(np.mean(alone))
        assert np.float64(np.count_nonzero(alone) / alone.size).tobytes() == want.tobytes()
        assert value.tobytes() == want.tobytes()

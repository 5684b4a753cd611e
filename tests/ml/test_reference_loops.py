"""The SVM and SOM fits against their sequential reference loops.

``_pegasos_lanes`` trains every Pegasos model as a lane of one lockstep
loop, and ``SelfOrganizingMap.fit`` draws its samples in chunks and
reuses buffers.  Both must reproduce, bit for bit, the plain
one-sample-per-step loops below, which are the fits as first written.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import LinearSVM, OneVsRestSVM, SelfOrganizingMap
from repro.ml.som import _CHUNK as SOM_CHUNK
from repro.ml.svm import _CHUNK as SVM_CHUNK

LAMS = (1e-6, 1e-4, 1e-2, 1.0)
DIMS = (1, 2, 60)


def reference_pegasos(x, y, lam, n_iter, seed, project):
    """Sequential Pegasos: one scalar draw, margin and norm per step."""
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    w = np.zeros(x.shape[1])
    b = 0.0
    radius = 1.0 / np.sqrt(lam)

    for t in range(1, n_iter + 1):
        i = rng.integers(n)
        eta = 1.0 / (lam * t)
        margin = y[i] * (x[i] @ w + b)
        w *= 1.0 - eta * lam
        if margin < 1.0:
            w += eta * y[i] * x[i]
            b += eta * y[i]
        if project:
            norm = np.linalg.norm(w)
            if norm > radius:
                w *= radius / norm
    return w, float(b)


def reference_one_vs_rest(x, labels, lam, n_iter, seed):
    """Standardize, then one sequential Pegasos fit per class."""
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    xs = (x - mean) / std
    return [
        reference_pegasos(
            xs, np.where(labels == cls, 1.0, -1.0), lam, n_iter, seed + idx, True
        )
        for idx, cls in enumerate(np.unique(labels))
    ]


def reference_som(x, rows, cols, n_iter, learning_rate, sigma, seed):
    """Online Kohonen rule: one scalar draw and fresh temporaries per step."""
    coords = np.indices((rows, cols)).reshape(2, -1).T.astype(float)
    sigma0 = float(sigma) if sigma is not None else max(rows, cols) / 2.0
    rng = np.random.default_rng(seed)
    lo, hi = x.min(axis=0), x.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    weights = lo + rng.random((rows * cols, x.shape[1])) * span

    decay = n_iter / 4.6
    for t in range(n_iter):
        sample = x[rng.integers(x.shape[0])]
        factor = np.exp(-t / decay)
        lr = learning_rate * factor
        sigma_t = max(sigma0 * factor, 0.5)

        bmu = int(np.argmin(np.sum((weights - sample) ** 2, axis=1)))
        grid_d2 = np.sum((coords - coords[bmu]) ** 2, axis=1)
        influence = np.exp(-grid_d2 / (2.0 * sigma_t * sigma_t))
        weights += lr * influence[:, None] * (sample - weights)
    return weights


def _steps(chunk):
    return (1, chunk - 1, chunk, chunk + 1, 3000)


def _binary_problem(seed, n, d, scale=1.0):
    """Noisy linearly separable ±1 labels, so some steps hinge and some not."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * scale
    y = np.where(x @ rng.normal(size=d) + rng.normal(0.0, 0.5, n) >= 0.0, 1.0, -1.0)
    return x, y


def _assert_same_model(got_w, got_b, want_w, want_b):
    assert got_w.tobytes() == want_w.tobytes()
    assert got_b == want_b


class TestLinearSVM:
    @pytest.mark.parametrize("n_iter", _steps(SVM_CHUNK))
    @pytest.mark.parametrize("lam", LAMS)
    def test_matches_reference(self, lam, n_iter):
        for d in DIMS:
            x, y = _binary_problem(seed=d, n=40, d=d)
            for project in (True, False):
                model = LinearSVM(lam=lam, n_iter=n_iter, seed=d, project=project)
                model.fit(x, y)
                _assert_same_model(
                    model.weights,
                    model.bias,
                    *reference_pegasos(x, y, lam, n_iter, d, project),
                )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        d=st.sampled_from((1, 2, 3, 60)),
        lam=st.sampled_from(LAMS),
        n_iter=st.integers(1, 3 * SVM_CHUNK + 5),
        project=st.booleans(),
        scale=st.sampled_from((1e-3, 1.0, 1e3)),
    )
    def test_random_problems_match_reference(
        self, seed, n, d, lam, n_iter, project, scale
    ):
        x, y = _binary_problem(seed, n, d, scale)
        model = LinearSVM(lam=lam, n_iter=n_iter, seed=seed, project=project)
        model.fit(x, y)
        _assert_same_model(
            model.weights,
            model.bias,
            *reference_pegasos(x, y, lam, n_iter, seed, project),
        )


class TestOneVsRestSVM:
    @pytest.mark.parametrize("n_iter", _steps(SVM_CHUNK))
    @pytest.mark.parametrize("lam", LAMS)
    def test_every_class_lane_matches_reference(self, lam, n_iter):
        for d in DIMS:
            rng = np.random.default_rng(100 + d)
            n_classes = 2 + d % 5
            centers = rng.normal(0.0, 3.0, size=(n_classes, d))
            labels = rng.integers(0, n_classes, size=50)
            x = centers[labels] + rng.normal(size=(50, d))
            model = OneVsRestSVM(lam=lam, n_iter=n_iter, seed=d).fit(x, labels)
            expected = reference_one_vs_rest(x, labels, lam, n_iter, d)
            assert len(model._models) == len(expected) == np.unique(labels).size
            for lane, (want_w, want_b) in zip(model._models, expected, strict=True):
                _assert_same_model(lane.weights, lane.bias, want_w, want_b)

    def test_control_lanes_match_reference(self, control_data):
        data, labels = control_data
        model = OneVsRestSVM(lam=1e-4, n_iter=2000, seed=0).fit(data, labels)
        expected = reference_one_vs_rest(data, labels, 1e-4, 2000, 0)
        for lane, (want_w, want_b) in zip(model._models, expected, strict=True):
            _assert_same_model(lane.weights, lane.bias, want_w, want_b)


class TestSelfOrganizingMap:
    @pytest.mark.parametrize("n_iter", _steps(SOM_CHUNK))
    @pytest.mark.parametrize("grid", [(1, 5), (3, 7), (6, 2), (4, 4)])
    @pytest.mark.parametrize("sigma", [None, 0.7])
    def test_matches_reference(self, grid, sigma, n_iter):
        rows, cols = grid
        for d in DIMS:
            x = np.random.default_rng(d).normal(size=(30, d))
            som = SelfOrganizingMap(
                rows, cols, n_iter=n_iter, learning_rate=0.4, sigma=sigma, seed=d
            ).fit(x)
            want = reference_som(x, rows, cols, n_iter, 0.4, sigma, d)
            assert som.weights.tobytes() == want.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        n=st.integers(1, 30),
        d=st.sampled_from((1, 2, 3, 31)),
        n_iter=st.integers(1, 3 * SOM_CHUNK + 5),
        learning_rate=st.floats(0.01, 1.0),
        sigma=st.one_of(st.none(), st.floats(0.05, 6.0)),
        scale=st.sampled_from((1e-3, 1.0, 1e3)),
    )
    def test_random_maps_match_reference(
        self, seed, rows, cols, n, d, n_iter, learning_rate, sigma, scale
    ):
        x = np.random.default_rng(seed).normal(size=(n, d)) * scale
        som = SelfOrganizingMap(
            rows, cols, n_iter=n_iter, learning_rate=learning_rate, sigma=sigma,
            seed=seed,
        ).fit(x)
        want = reference_som(x, rows, cols, n_iter, learning_rate, sigma, seed)
        assert som.weights.tobytes() == want.tobytes()

"""The SVM and SOM fits against their sequential reference loops.

``_pegasos_lanes`` trains every Pegasos model as a lane of one lockstep
loop, and ``SelfOrganizingMap.fit`` draws its samples in chunks and
reuses buffers.  Both must reproduce, bit for bit, the plain
one-sample-per-step loops below, which are the fits as first written.
Models fit together as a cohort (``fit(..., peers=...)``) share one
loop, and every member must end bit-identical to its own solo fit and
to the reference loop.
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


def _cohort_steps(chunk):
    """(members, n_iter): Fig. 7/8's seven-member cohort at every chunk
    edge, and the long run at two members (the reference loops are slow)."""
    steps = _steps(chunk)
    return [(7, n) for n in steps[:-1]] + [(2, n) for n in steps]


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


def _labeled_cohort(seed, n_members, d):
    """Training sets that differ in row count, scale and class set.

    Member 1 (when present) lacks class 1, and member 2 names its
    classes by other values, so the members' lane counts and label
    codes differ.
    """
    rng = np.random.default_rng(seed)
    n_classes = 3 + seed % 2
    centers = rng.normal(0.0, 3.0, size=(n_classes, d))
    sets = []
    for m in range(n_members):
        n = 20 + 9 * m
        labels = rng.integers(0, n_classes, size=n)
        labels[:n_classes] = np.arange(n_classes)  # every class present
        if m == 1:
            labels[labels == 1] = 0
        x = (centers[labels] + rng.normal(size=(n, d))) * (1.0 + m)
        if m == 2:
            labels = labels * 7 + 3
        sets.append((x, labels))
    return sets


def _fit_ovr_cohort(sets, lam, n_iter, seeds):
    models = [OneVsRestSVM(lam=lam, n_iter=n_iter, seed=seed) for seed in seeds]
    (lead_x, lead_y), *rest = sets
    models[0].fit(
        lead_x,
        lead_y,
        peers=[(model, x, y) for model, (x, y) in zip(models[1:], rest, strict=True)],
    )
    return models


def _assert_ovr_member(model, x, y, lam, n_iter, seed):
    """A cohort member equals its solo fit and the reference loops."""
    solo = OneVsRestSVM(lam=lam, n_iter=n_iter, seed=seed).fit(x, y)
    assert model.classes_.tobytes() == solo.classes_.tobytes()
    assert model._mean.tobytes() == solo._mean.tobytes()
    assert model._std.tobytes() == solo._std.tobytes()
    expected = reference_one_vs_rest(x, y, lam, n_iter, seed)
    assert len(model._models) == len(solo._models) == len(expected)
    for lane, solo_lane, (want_w, want_b) in zip(
        model._models, solo._models, expected, strict=True
    ):
        _assert_same_model(lane.weights, lane.bias, solo_lane.weights, solo_lane.bias)
        _assert_same_model(lane.weights, lane.bias, want_w, want_b)
        assert lane.seed == solo_lane.seed


class TestOneVsRestCohort:
    @pytest.mark.parametrize("n_members, n_iter", _cohort_steps(SVM_CHUNK))
    def test_every_member_matches_solo_and_reference(self, n_members, n_iter):
        for i, d in enumerate(DIMS):
            lam = LAMS[(i + n_members) % len(LAMS)]
            sets = _labeled_cohort(seed=d + n_members, n_members=n_members, d=d)
            seeds = [10 * m + d for m in range(n_members)]
            models = _fit_ovr_cohort(sets, lam, n_iter, seeds)
            for model, (x, y), seed in zip(models, sets, seeds, strict=True):
                _assert_ovr_member(model, x, y, lam, n_iter, seed)

    def test_shared_seed_members_stay_independent(self, control_data):
        """Fig. 7's cohort: one seed, six classes, one member per set."""
        data, labels = control_data
        rng = np.random.default_rng(3)
        sets = [(data, labels)] + [
            (data[keep], labels[keep])
            for keep in (rng.random(data.shape[0]) < 0.8 for _ in range(2))
        ]
        models = _fit_ovr_cohort(sets, 1e-4, 2 * SVM_CHUNK + 1, [0, 0, 0])
        for model, (x, y) in zip(models, sets, strict=True):
            _assert_ovr_member(model, x, y, 1e-4, 2 * SVM_CHUNK + 1, 0)

    def test_nan_label_matches_no_class(self):
        """A lane labels a row +1 when ``y == class``: never for NaN."""
        sets = [
            (x, y.astype(float)) for x, y in _labeled_cohort(seed=4, n_members=2, d=2)
        ]
        sets[1][1][[3, 8]] = np.nan
        models = _fit_ovr_cohort(sets, 1e-2, 2 * SVM_CHUNK, [1, 2])
        assert np.isnan(models[1].classes_[-1])
        for model, (x, y), seed in zip(models, sets, [1, 2], strict=True):
            _assert_ovr_member(model, x, y, 1e-2, 2 * SVM_CHUNK, seed)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_members=st.integers(1, 5),
        d=st.sampled_from((1, 2, 3, 60)),
        lam=st.sampled_from(LAMS),
        n_iter=st.integers(1, 3 * SVM_CHUNK + 5),
    )
    def test_random_cohorts_match_solo_and_reference(self, seed, n_members, d, lam, n_iter):
        rng = np.random.default_rng(seed)
        sets = []
        for _ in range(n_members):
            n = int(rng.integers(2, 25))
            n_classes = int(rng.integers(2, min(n, 4) + 1))
            labels = rng.integers(0, n_classes, size=n)
            labels[:2] = (0, 1)  # at least two classes
            x = rng.normal(size=(n, d)) * rng.choice((1e-3, 1.0, 1e3))
            sets.append((x, labels))
        seeds = rng.integers(0, 2**31, size=n_members).tolist()
        models = _fit_ovr_cohort(sets, lam, n_iter, seeds)
        for model, (x, y), member_seed in zip(models, sets, seeds, strict=True):
            _assert_ovr_member(model, x, y, lam, n_iter, member_seed)


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


def _fit_som_cohort(sets, rows, cols, n_iter, learning_rate, sigma, seeds):
    soms = [
        SelfOrganizingMap(
            rows, cols, n_iter=n_iter, learning_rate=learning_rate, sigma=sigma, seed=seed
        )
        for seed in seeds
    ]
    soms[0].fit(
        sets[0], peers=[(som, x) for som, x in zip(soms[1:], sets[1:], strict=True)]
    )
    return soms


def _assert_som_member(som, x, rows, cols, n_iter, learning_rate, sigma, seed):
    """A cohort member equals its solo fit and the reference loop."""
    solo = SelfOrganizingMap(
        rows, cols, n_iter=n_iter, learning_rate=learning_rate, sigma=sigma, seed=seed
    ).fit(x)
    want = reference_som(x, rows, cols, n_iter, learning_rate, sigma, seed)
    assert som.weights.tobytes() == solo.weights.tobytes()
    assert som.weights.tobytes() == want.tobytes()


class TestSelfOrganizingMapCohort:
    @pytest.mark.parametrize("n_members, n_iter", _cohort_steps(SOM_CHUNK))
    def test_every_member_matches_solo_and_reference(self, n_members, n_iter):
        for d in DIMS:
            rng = np.random.default_rng(d + n_members)
            sets = [
                rng.normal(size=(12 + 7 * m, d)) * (1.0 + m) + m for m in range(n_members)
            ]
            seeds = [10 * m + d for m in range(n_members)]
            sigma = None if d % 2 else 0.7
            soms = _fit_som_cohort(sets, 3, 4, n_iter, 0.4, sigma, seeds)
            for som, x, seed in zip(soms, sets, seeds, strict=True):
                _assert_som_member(som, x, 3, 4, n_iter, 0.4, sigma, seed)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_members=st.integers(1, 5),
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        d=st.sampled_from((1, 2, 3, 31)),
        n_iter=st.integers(1, 3 * SOM_CHUNK + 5),
        learning_rate=st.floats(0.01, 1.0),
        sigma=st.one_of(st.none(), st.floats(0.05, 6.0)),
    )
    def test_random_cohorts_match_solo_and_reference(
        self, seed, n_members, rows, cols, d, n_iter, learning_rate, sigma
    ):
        rng = np.random.default_rng(seed)
        sets = [
            rng.normal(size=(int(rng.integers(1, 25)), d)) * rng.choice((1e-3, 1.0, 1e3))
            for _ in range(n_members)
        ]
        seeds = rng.integers(0, 2**31, size=n_members).tolist()
        soms = _fit_som_cohort(sets, rows, cols, n_iter, learning_rate, sigma, seeds)
        for som, x, member_seed in zip(soms, sets, seeds, strict=True):
            _assert_som_member(som, x, rows, cols, n_iter, learning_rate, sigma, member_seed)

"""Tests for repro.ml.svm — Pegasos linear SVM."""

import numpy as np
import pytest

from repro.ml import LinearSVM, OneVsRestSVM


@pytest.fixture()
def linearly_separable(rng):
    pos = rng.normal(loc=[3.0, 3.0], scale=0.5, size=(60, 2))
    neg = rng.normal(loc=[-3.0, -3.0], scale=0.5, size=(60, 2))
    data = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(60), -np.ones(60)])
    return data, labels


class TestLinearSVM:
    def test_separable_problem_solved(self, linearly_separable):
        data, labels = linearly_separable
        model = LinearSVM(lam=1e-3, n_iter=5000, seed=0).fit(data, labels)
        assert np.mean(model.predict(data) == labels) == 1.0

    def test_decision_function_sign_matches_predict(self, linearly_separable):
        data, labels = linearly_separable
        model = LinearSVM(lam=1e-3, n_iter=3000, seed=0).fit(data, labels)
        scores = model.decision_function(data)
        np.testing.assert_array_equal(
            np.sign(scores) >= 0, model.predict(data) > 0
        )

    def test_non_pm1_labels_rejected(self, linearly_separable):
        data, _ = linearly_separable
        with pytest.raises(ValueError):
            LinearSVM().fit(data, np.zeros(data.shape[0]))

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            LinearSVM().predict(np.zeros((2, 2)))

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            LinearSVM(lam=0.0)
        with pytest.raises(ValueError):
            LinearSVM(n_iter=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, linearly_separable, bad):
        data, labels = linearly_separable
        data = data.copy()
        data[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            LinearSVM(n_iter=10, seed=0).fit(data, labels)

    def test_projection_bounds_weight_norm(self, linearly_separable):
        data, labels = linearly_separable
        model = LinearSVM(lam=1.0, n_iter=2000, seed=0, project=True)
        model.fit(data, labels)
        assert np.linalg.norm(model.weights) <= 1.0 / np.sqrt(1.0) + 1e-9

    def test_deterministic_given_seed(self, linearly_separable):
        data, labels = linearly_separable
        m1 = LinearSVM(n_iter=1000, seed=5).fit(data, labels)
        m2 = LinearSVM(n_iter=1000, seed=5).fit(data, labels)
        np.testing.assert_array_equal(m1.weights, m2.weights)


class TestOneVsRestSVM:
    def test_multiclass_separable(self, small_gaussian):
        data, labels = small_gaussian
        model = OneVsRestSVM(lam=1e-3, n_iter=6000, seed=0).fit(data, labels)
        assert model.score(data, labels) > 0.95

    def test_decision_matrix_shape(self, small_gaussian):
        data, labels = small_gaussian
        model = OneVsRestSVM(n_iter=2000, seed=0).fit(data, labels)
        assert model.decision_matrix(data).shape == (data.shape[0], 3)

    def test_predict_returns_original_labels(self, rng):
        data = np.vstack(
            [rng.normal(-5, 0.3, (30, 2)), rng.normal(5, 0.3, (30, 2))]
        )
        labels = np.array([7] * 30 + [42] * 30)
        model = OneVsRestSVM(n_iter=3000, seed=0).fit(data, labels)
        assert set(np.unique(model.predict(data))) <= {7, 42}

    @pytest.mark.parametrize(
        "kwargs", [{"lam": 0.0}, {"lam": -1e-3}, {"n_iter": 0}, {"lam": 0.0, "n_iter": 0}]
    )
    def test_invalid_hyperparameters_rejected_at_construction(self, kwargs):
        # The same checks as LinearSVM, before any fit is attempted.
        with pytest.raises(ValueError, match="lam|n_iter"):
            OneVsRestSVM(**kwargs)

    def test_single_class_rejected(self, rng):
        data = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            OneVsRestSVM().fit(data, np.zeros(10))

    def test_unseeded_fit_trains_every_class(self, small_gaussian):
        data, labels = small_gaussian
        model = OneVsRestSVM(n_iter=3000).fit(data, labels)
        assert len(model._models) == 3
        assert model.score(data, labels) > 0.9

    def test_all_nan_data_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            OneVsRestSVM(n_iter=10, seed=0).fit(
                np.full((6, 2), np.nan), np.array([0, 1, 2] * 2)
            )

    def test_infinite_value_rejected(self, small_gaussian):
        data, labels = small_gaussian
        data = data.copy()
        data[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            OneVsRestSVM(n_iter=10, seed=0).fit(data, labels)

    def test_constant_feature_handled(self, rng):
        data = np.hstack(
            [rng.normal(size=(60, 1)), np.ones((60, 1))]
        )
        data[:30, 0] += 8.0
        labels = np.array([0] * 30 + [1] * 30)
        model = OneVsRestSVM(n_iter=3000, seed=0).fit(data, labels)
        assert model.score(data, labels) > 0.9

    def test_control_dataset_accuracy(self, control_data):
        data, labels = control_data
        model = OneVsRestSVM(lam=1e-4, n_iter=20_000, seed=0).fit(data, labels)
        # The Fig. 6a ballpark: the paper reports 96.8% on Control.
        assert model.score(data, labels) > 0.93


def _svm_state(model):
    """Everything a fit sets, as bytes (None while unfitted)."""
    if model.classes_ is None:
        assert model._models == [] and model._mean is None and model._std is None
        return None
    return (
        model.classes_.tobytes(),
        model._mean.tobytes(),
        model._std.tobytes(),
        [(lane.weights.tobytes(), lane.bias) for lane in model._models],
    )


def _bad_svm_member(case, data, labels, fitted):
    """One cohort member that must make the whole cohort fit fail."""
    nan_data = data.copy()
    nan_data[4, 1] = np.nan
    return {
        "lam": (OneVsRestSVM(lam=2e-3, n_iter=200, seed=5), data, labels),
        "n_iter": (OneVsRestSVM(n_iter=201, seed=5), data, labels),
        "width": (OneVsRestSVM(n_iter=200, seed=5), data[:, :1], labels),
        "named_twice": (fitted, data[::-1], labels[::-1]),
        "empty": (OneVsRestSVM(n_iter=200, seed=5), data[:0], labels[:0]),
        "non_finite": (OneVsRestSVM(n_iter=200, seed=5), nan_data, labels),
        "one_class": (OneVsRestSVM(n_iter=200, seed=5), data, np.zeros_like(labels)),
    }[case]


class TestCohortRejection:
    """A cohort fit checks every member before any member's state moves."""

    @pytest.mark.parametrize("bad_leads", [False, True])
    @pytest.mark.parametrize(
        "case", ["lam", "n_iter", "width", "named_twice", "empty", "non_finite", "one_class"]
    )
    def test_rejected_cohort_moves_no_state(self, small_gaussian, case, bad_leads):
        data, labels = small_gaussian
        fitted = OneVsRestSVM(n_iter=200, seed=1).fit(data, labels)
        unfitted = OneVsRestSVM(n_iter=200, seed=2)
        members = [(fitted, data, labels), (unfitted, data[::2], labels[::2])]
        bad = _bad_svm_member(case, data, labels, fitted)
        members = [bad, *members] if bad_leads else [*members, bad]
        before = [_svm_state(model) for model, _, _ in members]
        (lead, lead_data, lead_labels), *peers = members
        with pytest.raises(ValueError):
            lead.fit(lead_data, lead_labels, peers=peers)
        assert [_svm_state(model) for model, _, _ in members] == before
        assert unfitted.classes_ is None

    def test_lead_named_as_its_own_peer_rejected(self, small_gaussian):
        data, labels = small_gaussian
        model = OneVsRestSVM(n_iter=200, seed=1)
        with pytest.raises(ValueError, match="twice"):
            model.fit(data, labels, peers=[(model, data, labels)])
        assert _svm_state(model) is None

    def test_non_model_peer_rejected(self, small_gaussian):
        data, labels = small_gaussian
        model = OneVsRestSVM(n_iter=200, seed=1)
        with pytest.raises(TypeError):
            model.fit(data, labels, peers=[(LinearSVM(n_iter=200), data, labels)])
        assert _svm_state(model) is None

    def test_solo_one_class_rejection_moves_no_state(self, rng):
        model = OneVsRestSVM(n_iter=50, seed=0)
        with pytest.raises(ValueError):
            model.fit(rng.normal(size=(10, 2)), np.zeros(10))
        assert _svm_state(model) is None

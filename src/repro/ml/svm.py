"""Linear SVM trained with Pegasos SGD (evaluation substrate, §VI-C).

A from-scratch linear support vector machine: binary hinge-loss + L2
training via the Pegasos projected-subgradient schedule, lifted to
multiclass by one-vs-rest voting on decision margins.  Features are
standardized internally (fit on the training data) so the regularization
behaves uniformly across datasets.

Every fit runs the same loop, :func:`_pegasos_lanes`, which trains a
stack of binary models ("lanes") in lockstep, each on its own span of
rows of one training matrix.  The one-vs-rest models of
:class:`OneVsRestSVM` are its lanes: those of one model, or those of a
cohort of models fit together by ``fit(data, labels, peers=...)``, each
on its own training set.  :class:`LinearSVM` is the one-lane case.
Each lane is bit-identical to a sequential Pegasos loop over its own
generator, so a cohort member ends bit-identical to its solo fit.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["LinearSVM", "OneVsRestSVM"]

#: Steps whose sample indices are drawn, and whose rows are gathered, at
#: once.  ``Generator.integers(n, size=k)`` returns the same values, and
#: leaves the same generator state, as ``k`` scalar draws.  Tens of steps
#: keep the gathered ``(chunk, lanes, d)`` block small.
_CHUNK = 64


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("data must be finite")


def _pegasos_lanes(
    x: np.ndarray,
    y: np.ndarray,
    lane_classes: np.ndarray,
    spans: Sequence[tuple[int, int]],
    lam: float,
    n_iter: int,
    seeds: Sequence[Optional[int]],
    project: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Train one binary Pegasos model per entry of ``lane_classes``, in lockstep.

    Lane ``k`` trains on the ``spans[k] = (start, size)`` rows
    ``x[start:start + size]``: it draws ``start + integers(size)`` from
    ``default_rng(seeds[k])`` and labels a row +1 when its ``y`` equals
    ``lane_classes[k]`` and -1 otherwise.  Returns the ``(lanes, d)``
    weights and the ``(lanes,)`` biases.  Each lane performs the
    floating-point operations of a sequential one-sample-per-step loop
    over its own rows, in the same order:

    * margins and norms use a stacked ``(1, d) @ (d, 1)`` ``np.matmul``,
      which calls the BLAS dot that ``x[i] @ w`` and ``np.linalg.norm(w)``
      call;
    * the hinge step and the projection touch only the lanes that take
      them (``where=`` masks), so no other lane gets a ``+ 0`` or ``* 1``.
    """
    n_lanes = lane_classes.size
    d = x.shape[1]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    starts = np.array([start for start, _ in spans], dtype=np.intp)
    sizes = [size for _, size in spans]
    # Per-lane scalars are (lanes, 1) columns: they broadcast against
    # ``weights`` and mask its rows.  ``weights`` is only ever updated in
    # place, so its (lanes, d, 1) and (lanes, 1, d) views stay valid.
    weights = np.zeros((n_lanes, d))
    biases = np.zeros((n_lanes, 1))
    w_col = weights[:, :, None]
    w_row = weights[:, None, :]
    scale = np.empty((n_lanes, 1))
    radius = 1.0 / np.sqrt(lam)

    for start in range(1, n_iter + 1, _CHUNK):
        steps = np.arange(start, min(start + _CHUNK, n_iter + 1))
        draws = [
            rng.integers(size, size=steps.size)
            for rng, size in zip(rngs, sizes, strict=True)
        ]
        rows = np.stack(draws, axis=1) + starts
        xs = x[rows][:, :, None, :]  # (chunk, lanes, 1, d)
        ys = np.where(y[rows] == lane_classes, 1.0, -1.0)[:, :, None]  # (chunk, lanes, 1)
        etas = 1.0 / (lam * steps)
        gains = etas[:, None, None] * ys  # eta * y: the bias step
        pushes = gains * xs[:, :, 0]  # eta * y * x: the weight step
        for j, shrink in enumerate((1.0 - etas * lam).tolist()):
            margins = ys[j] * ((xs[j] @ w_col)[:, 0] + biases)
            weights *= shrink
            hinge = margins < 1.0
            n_hinge = np.count_nonzero(hinge)
            if not n_hinge:
                # No lane took a hinge step, so each w only shrank by
                # 1 - 1/t and the sequential loop's ``norm > radius`` test
                # is false for every lane: after the last step each w had
                # a computed norm <= radius or had just been scaled onto
                # the ball, so its true norm is at most
                # radius * (1 + O(d * 2**-53)).  The shrink takes off a
                # relative 1/t >= 1/n_iter, far more than the dot and
                # sqrt rounding (about d * 2**-53 relative) can add back
                # while n_iter * d stays well below 2**50.  So the norms
                # are not computed here.
                continue
            # ``where=True`` (no mask) is the cheaper loop when every
            # lane steps, as the single lane of LinearSVM does.
            mask = True if n_hinge == n_lanes else hinge
            np.add(weights, pushes[j], out=weights, where=mask)
            np.add(biases, gains[j], out=biases, where=mask)
            if project:
                norms = np.sqrt((w_row @ w_col)[:, 0])
                over = norms > radius
                n_over = np.count_nonzero(over)
                if n_over:
                    mask = True if n_over == n_lanes else over
                    np.divide(radius, norms, out=scale, where=mask)
                    np.multiply(weights, scale, out=weights, where=mask)
    return weights, biases.ravel()


class _TrainingSet(NamedTuple):
    """One checked one-vs-rest training set, standardized."""

    classes: np.ndarray
    #: Index of each row's class in ``classes``, or -1 for a label that
    #: equals no class (NaN): a lane's label test is ``y == class``.
    codes: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    scaled: np.ndarray


def _training_set(data, labels) -> _TrainingSet:
    x = np.asarray(data, dtype=float)
    y = np.asarray(labels).ravel()
    if x.ndim != 2 or x.shape[0] != y.size or x.shape[0] == 0:
        raise ValueError("data must be 2-D with one label per row")
    _check_finite(x)
    classes, codes = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ValueError("need at least two classes")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return _TrainingSet(
        classes, np.where(classes[codes] == y, codes, -1), mean, std, (x - mean) / std
    )


class LinearSVM:
    """Binary linear SVM: ``min λ/2 ||w||² + mean hinge(y (w·x + b))``.

    Labels must be ±1.  Pegasos: at step ``t`` the learning rate is
    ``1 / (λ t)``; the update uses a single random sample, followed by the
    optional ``1/sqrt(λ)``-ball projection that gives the classic
    convergence guarantee.
    """

    def __init__(
        self,
        lam: float = 1e-3,
        n_iter: int = 20_000,
        seed: Optional[int] = None,
        project: bool = True,
    ):
        if lam <= 0.0:
            raise ValueError("regularization lam must be positive")
        if n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        self.lam = float(lam)
        self.n_iter = int(n_iter)
        self.seed = seed
        self.project = bool(project)
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0

    def fit(self, data, labels) -> "LinearSVM":
        """Train on ±1 labels."""
        x = np.asarray(data, dtype=float)
        y = np.asarray(labels, dtype=float).ravel()
        if x.ndim != 2 or x.shape[0] != y.size or x.shape[0] == 0:
            raise ValueError("data must be 2-D with one label per row")
        _check_finite(x)
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("binary labels must be -1/+1")
        weights, biases = _pegasos_lanes(
            x, y, np.ones(1), [(0, y.size)], self.lam, self.n_iter, [self.seed], self.project
        )
        self.weights = weights[0]
        self.bias = float(biases[0])
        return self

    def decision_function(self, data) -> np.ndarray:
        """Signed margins ``w·x + b``."""
        if self.weights is None:
            raise RuntimeError("model must be fit before scoring")
        x = np.asarray(data, dtype=float)
        return x @ self.weights + self.bias

    def predict(self, data) -> np.ndarray:
        """±1 predictions."""
        return np.where(self.decision_function(data) >= 0.0, 1.0, -1.0)


class OneVsRestSVM:
    """Multiclass linear SVM by one-vs-rest margin voting.

    One binary :class:`LinearSVM` per class, all trained in lockstep
    (with those of any ``peers`` passed to :meth:`fit`); prediction
    takes the argmax of the per-class decision margins.  Inputs are
    standardized with the training mean/std, matching common practice
    for margin-based models.
    """

    def __init__(
        self,
        lam: float = 1e-3,
        n_iter: int = 20_000,
        seed: Optional[int] = None,
    ):
        if lam <= 0.0:
            raise ValueError("regularization lam must be positive")
        if n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        self.lam = float(lam)
        self.n_iter = int(n_iter)
        self.seed = seed
        self.classes_: Optional[np.ndarray] = None
        self._models: list = []
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self._mean) / self._std

    def fit(self, data, labels, *, peers=()) -> "OneVsRestSVM":
        """Train one binary model per distinct label.

        ``peers`` are ``(model, data, labels)`` triples: other
        ``OneVsRestSVM`` models with this one's ``lam`` and ``n_iter``
        (seeds may differ), each with its own training set of this one's
        feature width.  All members then train as lanes of one loop, and
        each ends bit-identical to its own solo fit.  Every member is
        checked before any member's state changes.
        """
        members = [(self, data, labels), *peers]
        models = [model for model, _, _ in members]
        for i, model in enumerate(models):
            if not isinstance(model, OneVsRestSVM):
                raise TypeError("cohort members must be OneVsRestSVM models")
            if (model.lam, model.n_iter) != (self.lam, self.n_iter):
                raise ValueError("cohort members must share lam and n_iter")
            if any(model is other for other in models[:i]):
                raise ValueError("a model appears twice in the cohort")
        sets = [_training_set(x, y) for _, x, y in members]
        if len({s.scaled.shape[1] for s in sets}) > 1:
            raise ValueError("cohort members must share the feature width")
        lanes = [
            [
                LinearSVM(
                    lam=self.lam,
                    n_iter=self.n_iter,
                    seed=None if model.seed is None else model.seed + idx,
                )
                for idx in range(s.classes.size)
            ]
            for model, s in zip(models, sets, strict=True)
        ]

        # Member m's K_m class lanes all draw from its own rows.
        spans = []
        start = 0
        for s in sets:
            spans += [(start, s.scaled.shape[0])] * s.classes.size
            start += s.scaled.shape[0]
        weights, biases = _pegasos_lanes(
            np.concatenate([s.scaled for s in sets]),
            np.concatenate([s.codes for s in sets]),
            np.concatenate([np.arange(s.classes.size) for s in sets]),
            spans,
            self.lam,
            self.n_iter,
            [lane.seed for member_lanes in lanes for lane in member_lanes],
            True,
        )
        k = 0
        for model, s, member_lanes in zip(models, sets, lanes, strict=True):
            for lane in member_lanes:
                lane.weights = weights[k]
                lane.bias = float(biases[k])
                k += 1
            model.classes_ = s.classes
            model._mean = s.mean
            model._std = s.std
            model._models = member_lanes
        return self

    def decision_matrix(self, data) -> np.ndarray:
        """Margins per class, shape ``(n, n_classes)``."""
        if self.classes_ is None:
            raise RuntimeError("model must be fit before scoring")
        xs = self._standardize(np.asarray(data, dtype=float))
        return np.column_stack([m.decision_function(xs) for m in self._models])

    def predict(self, data) -> np.ndarray:
        """Class labels by margin argmax."""
        margins = self.decision_matrix(data)
        return self.classes_[np.argmax(margins, axis=1)]

    def score(self, data, labels) -> float:
        """Mean accuracy on the given data."""
        y = np.asarray(labels).ravel()
        return float(np.mean(self.predict(data) == y))

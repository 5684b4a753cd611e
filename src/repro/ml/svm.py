"""Linear SVM trained with Pegasos SGD (evaluation substrate, §VI-C).

A from-scratch linear support vector machine: binary hinge-loss + L2
training via the Pegasos projected-subgradient schedule, lifted to
multiclass by one-vs-rest voting on decision margins.  Features are
standardized internally (fit on the training data) so the regularization
behaves uniformly across datasets.

Every fit runs the same loop, :func:`_pegasos_lanes`, which trains a
stack of binary models ("lanes") in lockstep: the one-vs-rest models of
:class:`OneVsRestSVM` are its lanes, and :class:`LinearSVM` is the
one-lane case.  Each lane is bit-identical to a sequential Pegasos loop
over its own generator.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    lam: float,
    n_iter: int,
    seeds: Sequence[Optional[int]],
    project: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Train one binary Pegasos model per entry of ``lane_classes``, in lockstep.

    Lane ``k`` labels a sample +1 when its ``y`` equals ``lane_classes[k]``
    and -1 otherwise, and draws its samples from ``default_rng(seeds[k])``.
    Returns the ``(lanes, d)`` weights and the ``(lanes,)`` biases.  Each
    lane performs the floating-point operations of a sequential
    one-sample-per-step loop, in the same order:

    * margins and norms use a stacked ``(1, d) @ (d, 1)`` ``np.matmul``,
      which calls the BLAS dot that ``x[i] @ w`` and ``np.linalg.norm(w)``
      call;
    * the hinge step and the projection touch only the lanes that take
      them (``where=`` masks), so no other lane gets a ``+ 0`` or ``* 1``.
    """
    n_lanes = lane_classes.size
    n, d = x.shape
    rngs = [np.random.default_rng(seed) for seed in seeds]
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
        rows = np.stack([rng.integers(n, size=steps.size) for rng in rngs], axis=1)
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
            x, y, np.ones(1), self.lam, self.n_iter, [self.seed], self.project
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

    One binary :class:`LinearSVM` per class, all trained in lockstep;
    prediction takes the argmax of the per-class decision margins.
    Inputs are standardized with the training mean/std, matching common
    practice for margin-based models.
    """

    def __init__(
        self,
        lam: float = 1e-3,
        n_iter: int = 20_000,
        seed: Optional[int] = None,
    ):
        self.lam = float(lam)
        self.n_iter = int(n_iter)
        self.seed = seed
        self.classes_: Optional[np.ndarray] = None
        self._models: list = []
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self._mean) / self._std

    def fit(self, data, labels) -> "OneVsRestSVM":
        """Train one binary model per distinct label."""
        x = np.asarray(data, dtype=float)
        y = np.asarray(labels).ravel()
        if x.ndim != 2 or x.shape[0] != y.size or x.shape[0] == 0:
            raise ValueError("data must be 2-D with one label per row")
        _check_finite(x)
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise ValueError("need at least two classes")
        self._mean = x.mean(axis=0)
        self._std = x.std(axis=0)
        self._std = np.where(self._std > 0.0, self._std, 1.0)
        xs = self._standardize(x)

        models = [
            LinearSVM(
                lam=self.lam,
                n_iter=self.n_iter,
                seed=None if self.seed is None else self.seed + idx,
            )
            for idx in range(self.classes_.size)
        ]
        weights, biases = _pegasos_lanes(
            xs, y, self.classes_, self.lam, self.n_iter, [m.seed for m in models], True
        )
        for model, w, b in zip(models, weights, biases, strict=False):
            model.weights = w
            model.bias = float(b)
        self._models = models
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

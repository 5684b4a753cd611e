"""Evaluation metrics shared by the experiments.

Implements exactly what the paper's figures report: SSE (Fig. 4/5),
centroid 'Distance' to ground truth under optimal matching (Fig. 4/5),
classification accuracy and the per-class PPV/FDR panels of the SVM
confusion charts (Fig. 6a/7), and MSE for the LDP study (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "sse",
    "centroid_distance",
    "accuracy",
    "confusion_matrix",
    "ConfusionSummary",
    "confusion_summary",
    "mse",
]


def sse(data, centroids) -> float:
    """Sum of squared errors of ``data`` against its nearest centroids."""
    arr = np.asarray(data, dtype=float)
    cents = np.asarray(centroids, dtype=float)
    if arr.ndim != 2 or cents.ndim != 2:
        raise ValueError("data and centroids must be 2-D")
    d2 = (
        np.sum(arr**2, axis=1)[:, None]
        - 2.0 * arr @ cents.T
        + np.sum(cents**2, axis=1)[None, :]
    )
    return float(np.sum(np.maximum(d2, 0.0).min(axis=1)))


def centroid_distance(estimated, reference) -> float:
    """Total Euclidean distance between optimally matched centroid sets.

    The 'Distance' series of Fig. 4/5: centroids are matched one-to-one by
    the Hungarian algorithm (so label permutations do not matter) and the
    matched distances are summed.  Requires equal counts.
    """
    est = np.asarray(estimated, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if est.shape != ref.shape:
        raise ValueError("centroid sets must have identical shapes")
    cost = np.linalg.norm(est[:, None, :] - ref[None, :, :], axis=2)
    from scipy.optimize import linear_sum_assignment  # imported where used, as in core.game

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def accuracy(y_true, y_pred) -> float:
    """Fraction of matching labels."""
    t = np.asarray(y_true).ravel()
    p = np.asarray(y_pred).ravel()
    if t.size != p.size or t.size == 0:
        raise ValueError("label vectors must be non-empty and equal-length")
    return float(np.mean(t == p))


def _class_indices(labels) -> np.ndarray:
    """Labels as a flat int array, refusing to truncate non-integral ones."""
    values = np.asarray(labels)
    if values.dtype.kind not in "biu":
        # ``astype(int)`` would silently count 1.7 as class 1.
        as_float = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(as_float) & (np.trunc(as_float) == as_float)):
            raise ValueError("labels must be integral class indices")
        values = as_float
    return values.astype(int).ravel()


def confusion_matrix(y_true, y_pred, n_classes=None) -> np.ndarray:
    """Counts matrix ``C[i, j]`` = actual class i predicted as class j.

    Labels are class indices in ``[0, n_classes)``; ``n_classes`` defaults
    to one more than the largest label.  Float labels must be integral
    (``1.0`` counts as class 1, ``1.7`` raises ``ValueError``).
    """
    t = _class_indices(y_true)
    p = _class_indices(y_pred)
    if t.size != p.size or t.size == 0:
        raise ValueError("label vectors must be non-empty and equal-length")
    if n_classes is None:
        k = int(max(t.max(), p.max())) + 1
    else:
        k = int(n_classes)
        if k < 1:
            raise ValueError("n_classes must be >= 1")
    # ``np.add.at`` would wrap a negative label into the last row/column.
    if min(t.min(), p.min()) < 0 or max(t.max(), p.max()) >= k:
        raise ValueError(f"labels must be class indices in [0, {k})")
    matrix = np.zeros((k, k), dtype=int)
    np.add.at(matrix, (t, p), 1)
    return matrix


@dataclass(frozen=True)
class ConfusionSummary:
    """The Fig. 6a/7 panel: confusion matrix with PPV and FDR per class.

    ``ppv[j]`` (positive predictive value, the bottom green row of the
    MATLAB charts) is the fraction of predictions of class ``j`` that are
    correct; ``fdr[j] = 1 - ppv[j]`` is the false discovery rate.
    """

    matrix: np.ndarray
    ppv: np.ndarray
    fdr: np.ndarray
    accuracy: float


def confusion_summary(y_true, y_pred, n_classes=None) -> ConfusionSummary:
    """Build the confusion panel of Fig. 6a/7."""
    matrix = confusion_matrix(y_true, y_pred, n_classes)
    predicted_totals = matrix.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ppv = np.where(
            predicted_totals > 0, np.diag(matrix) / predicted_totals, np.nan
        )
    fdr = 1.0 - ppv
    acc = float(np.trace(matrix)) / float(matrix.sum())
    return ConfusionSummary(matrix=matrix, ppv=ppv, fdr=fdr, accuracy=acc)


def mse(estimates, truth) -> float:
    """Mean squared error of scalar estimates against a ground truth."""
    est = np.asarray(estimates, dtype=float).ravel()
    if est.size == 0:
        raise ValueError("estimates must be non-empty")
    return float(np.mean((est - float(truth)) ** 2))

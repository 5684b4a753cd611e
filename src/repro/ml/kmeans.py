"""k-means clustering with k-means++ seeding (evaluation substrate, §VI-B).

A from-scratch Lloyd's-algorithm implementation: k-means++ initialization,
vectorized assignment/update steps, empty-cluster repair (re-seeding an
empty cluster at the point farthest from its centroid), and the SSE
objective the paper's Fig. 4/5 report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["KMeansResult", "kmeans_plus_plus_init", "kmeans"]


@dataclass(frozen=True)
class KMeansResult:
    """Fitted k-means model."""

    centroids: np.ndarray
    labels: np.ndarray
    sse: float
    n_iter: int

    @property
    def n_clusters(self) -> int:
        """Number of centroids."""
        return self.centroids.shape[0]


def _row_terms(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The per-point terms of :func:`_pairwise_sq_dists`: ``‖x‖²`` as a
    column and ``2x``.  A fit computes them once; each seeding step and
    Lloyd iteration reuses them in the kernel's own expression order."""
    return np.sum(data**2, axis=1)[:, None], 2.0 * data


def _pairwise_sq_dists(
    terms: Tuple[np.ndarray, np.ndarray], centers: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, n_centers)."""
    sq_norms, twice = terms
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, clipped for rounding noise.
    d2 = sq_norms - twice @ centers.T + np.sum(centers**2, axis=1)[None, :]
    return np.maximum(d2, 0.0)


def _seed_centers(
    data: np.ndarray,
    terms: Tuple[np.ndarray, np.ndarray],
    n_clusters: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """:func:`kmeans_plus_plus_init` on precomputed :func:`_row_terms`."""
    n = data.shape[0]
    centers = np.empty((n_clusters, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    closest = _pairwise_sq_dists(terms, centers[:1]).ravel()
    for i in range(1, n_clusters):
        total = closest.sum()
        if total <= 0.0:
            # All points coincide with chosen centers; fall back to uniform.
            centers[i] = data[rng.integers(n)]
            continue
        probs = closest / total
        centers[i] = data[rng.choice(n, p=probs)]
        closest = np.minimum(
            closest, _pairwise_sq_dists(terms, centers[i : i + 1]).ravel()
        )
    return centers


def kmeans_plus_plus_init(
    data: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: D²-weighted sequential center selection."""
    return _seed_centers(data, _row_terms(data), n_clusters, rng)


def kmeans(
    data,
    n_clusters: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: Optional[int] = None,
    init: Optional[np.ndarray] = None,
    n_init: int = 1,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Parameters mirror the common convention; ``init`` may supply explicit
    starting centroids (used by tests and by experiments that want
    deterministic comparisons), and ``n_init`` restarts the algorithm
    from fresh k-means++ seeds keeping the lowest-SSE fit (ignored when
    ``init`` is given).  Returns a :class:`KMeansResult` whose ``sse`` is
    the within-cluster sum of squared errors
    ``Σ ||x_i - c_{label(i)}||²`` — the SSE of Fig. 4/5.
    """
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if init is None and n_init > 1:
        base = 0 if seed is None else seed
        best: Optional[KMeansResult] = None
        for restart in range(n_init):
            candidate = kmeans(
                data, n_clusters, max_iter, tol, seed=base + restart, n_init=1
            )
            if best is None or candidate.sse < best.sse:
                best = candidate
        return best
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("data must be a non-empty 2-D array")
    if n_clusters < 1 or n_clusters > arr.shape[0]:
        raise ValueError("need 1 <= n_clusters <= n_points")
    rng = np.random.default_rng(seed)
    terms = _row_terms(arr)

    if init is not None:
        centers = np.array(init, dtype=float, copy=True)
        if centers.shape != (n_clusters, arr.shape[1]):
            raise ValueError("init has the wrong shape")
    else:
        centers = _seed_centers(arr, terms, n_clusters, rng)

    labels = np.zeros(arr.shape[0], dtype=int)
    for iteration in range(1, max_iter + 1):
        d2 = _pairwise_sq_dists(terms, centers)
        labels = np.argmin(d2, axis=1)

        new_centers = centers.copy()
        for c in range(n_clusters):
            members = arr[labels == c]
            if members.shape[0] == 0:
                # Empty-cluster repair: grab the globally farthest point.
                farthest = int(np.argmax(np.min(d2, axis=1)))
                new_centers[c] = arr[farthest]
            else:
                new_centers[c] = members.mean(axis=0)

        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if shift < tol:
            break

    d2 = _pairwise_sq_dists(terms, centers)
    labels = np.argmin(d2, axis=1)
    sse = float(np.sum(d2[np.arange(arr.shape[0]), labels]))
    return KMeansResult(centroids=centers, labels=labels, sse=sse, n_iter=iteration)

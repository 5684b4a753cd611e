"""Self-Organizing Map with U-matrix (evaluation substrate, §VI-C).

A rectangular-grid SOM (the paper uses 20 x 20 = 400 neurons) trained by
the classic online Kohonen rule with exponentially decaying learning rate
and Gaussian neighborhood.  The U-matrix — the average distance between a
neuron's weight vector and its grid neighbors', the quantity rendered as
"color depth between adjacent neurons" in Figs. 6b/8 — plus quantization
and topographic errors and a BMU-based cluster count give the quantitative
handles the SOM comparison benchmark reports.

Maps of one configuration fit together by ``fit(data, peers=...)`` train
as lanes of one loop over a stacked ``(maps, neurons, d)`` weight array,
each on its own data and generator; a solo fit is the one-map cohort.
Every lane is bit-identical to the plain one-sample-per-step loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["SelfOrganizingMap"]

#: Training steps whose sample indices are drawn at once.
_CHUNK = 64


def _neg_sq_gaps(size: int) -> np.ndarray:
    """``-(i - j) ** 2`` for every pair of positions along one grid axis."""
    pos = np.arange(size, dtype=float)
    return -((pos[:, None] - pos[None, :]) ** 2)


def _training_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("data must be a non-empty 2-D array")
    if not np.isfinite(x).all():
        raise ValueError("data must be finite")
    return x


def _initial_weights(x: np.ndarray, rng: np.random.Generator, n_neurons: int) -> np.ndarray:
    """Weights drawn uniformly from the data's bounding box."""
    lo, hi = x.min(axis=0), x.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return lo + rng.random((n_neurons, x.shape[1])) * span


class SelfOrganizingMap:
    """Kohonen SOM on a rectangular grid.

    Parameters
    ----------
    rows, cols:
        Grid shape (paper: 20 x 20).
    n_iter:
        Number of online updates (samples drawn with replacement).
    learning_rate:
        Initial learning rate, decayed exponentially to ~1% of itself.
    sigma:
        Initial neighborhood radius (defaults to half the larger grid
        dimension), decayed on the same schedule.
    seed:
        RNG seed for weight init and sample order.
    """

    def __init__(
        self,
        rows: int = 20,
        cols: int = 20,
        n_iter: int = 10_000,
        learning_rate: float = 0.5,
        sigma: Optional[float] = None,
        seed: Optional[int] = None,
    ):
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        if n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.n_iter = int(n_iter)
        self.learning_rate = float(learning_rate)
        self.sigma0 = float(sigma) if sigma is not None else max(rows, cols) / 2.0
        if self.sigma0 <= 0.0:
            raise ValueError("sigma must be positive")
        self.seed = seed
        self.weights: Optional[np.ndarray] = None  # (rows*cols, d)
        coords = np.indices((self.rows, self.cols)).reshape(2, -1).T
        self._coords = coords.astype(float)  # grid positions of neurons

    # ------------------------------------------------------------------ #
    @property
    def n_neurons(self) -> int:
        """Total number of neurons on the grid."""
        return self.rows * self.cols

    def _check_fitted(self) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("SOM must be fit before use")
        return self.weights

    def fit(self, data, *, peers=()) -> "SelfOrganizingMap":
        """Train the map with the online Kohonen rule.

        ``peers`` are ``(som, data)`` pairs: other maps with this one's
        grid, ``n_iter``, ``learning_rate`` and ``sigma`` (seeds may
        differ), each with its own training set of this one's feature
        width.  All members then train as lanes of one loop over an
        ``(L, neurons, d)`` weight stack, and each ends bit-identical to
        its own solo fit.  Every member is checked before any member's
        state changes.
        """
        members = [(self, data), *peers]
        maps = [som for som, _ in members]
        for i, som in enumerate(maps):
            if not isinstance(som, SelfOrganizingMap):
                raise TypeError("cohort members must be SelfOrganizingMap models")
            if som._schedule() != self._schedule():
                raise ValueError(
                    "cohort members must share the grid, n_iter, learning_rate and sigma"
                )
            if any(som is other for other in maps[:i]):
                raise ValueError("a map appears twice in the cohort")
        sets = [_training_data(x) for _, x in members]
        if len({x.shape[1] for x in sets}) > 1:
            raise ValueError("cohort members must share the feature width")

        # Each member draws its initial weights, then its samples, from
        # its own generator, as a solo fit does.  Lane l samples rows
        # ``starts[l] + integers(n_l)`` of the concatenated data.
        rngs = [np.random.default_rng(som.seed) for som in maps]
        weights = np.stack(
            [_initial_weights(x, rng, self.n_neurons) for x, rng in zip(sets, rngs, strict=True)]
        )
        stacked = np.concatenate(sets)
        sizes = [x.shape[0] for x in sets]
        starts = np.cumsum([0, *sizes[:-1]])

        # Negated squared grid distances from each neuron along each axis,
        # built once: ``neg_row_d2[b]`` is a (rows, 1) column and
        # ``neg_col_d2[b]`` a (1, cols) row.  Neuron b's distances to the
        # whole grid are their outer sum: small integers, so exact however
        # they are summed.
        row_of, col_of = np.divmod(np.arange(self.n_neurons), self.cols)
        neg_row_d2 = _neg_sq_gaps(self.rows)[row_of][:, :, None]
        neg_col_d2 = _neg_sq_gaps(self.cols)[col_of][:, None, :]
        n_lanes = len(maps)
        diff = np.empty_like(weights)
        sq = np.empty_like(weights)
        d2 = np.empty((n_lanes, self.n_neurons))
        influence = np.empty((n_lanes, self.n_neurons))
        influence_grid = influence.reshape(n_lanes, self.rows, self.cols)
        influence_col = influence[:, :, None]

        decay = self.n_iter / 4.6  # rate/sigma shrink to ~1% at the end
        for start in range(0, self.n_iter, _CHUNK):
            # One draw per chunk: ``integers(n, size=k)`` returns the same
            # values, and leaves the same state, as ``k`` scalar draws.
            size = min(_CHUNK, self.n_iter - start)
            draws = [rng.integers(n, size=size) for rng, n in zip(rngs, sizes, strict=True)]
            samples = stacked[np.stack(draws, axis=1) + starts][:, :, None, :]
            for t, sample in enumerate(samples, start):
                factor = np.exp(-t / decay)
                lr = self.learning_rate * factor
                sigma = max(self.sigma0 * factor, 0.5)

                # Every step below is elementwise per lane, or reduces
                # each lane's own rows along the last axis, so each lane
                # computes what a solo fit computes.
                np.subtract(weights, sample, out=diff)
                np.square(diff, out=sq)
                bmu = np.add.reduce(sq, axis=2, out=d2).argmin(axis=1)
                np.add(neg_row_d2.take(bmu, 0), neg_col_d2.take(bmu, 0), out=influence_grid)
                influence /= 2.0 * sigma * sigma
                np.exp(influence, out=influence)
                # ``w += lr * h * (x - w)``, written as ``w -= lr * h * (w - x)``
                # to reuse ``diff``; the two agree bit for bit.  IEEE
                # negation is exact, so ``w - x`` is ``-(x - w)`` unless
                # both are +0, and subtracting +0 changes no weight but -0.
                # No weight is ever -0: ``lo + r * span`` is not, and
                # ``w - v`` is -0 only when ``w`` already is.
                influence *= lr
                diff *= influence_col
                weights -= diff

        for som, lane_weights in zip(maps, weights, strict=True):
            som.weights = lane_weights
        return self

    def _schedule(self) -> tuple:
        """What cohort members must share: grid and training schedule."""
        return (self.rows, self.cols, self.n_iter, self.learning_rate, self.sigma0)

    # ------------------------------------------------------------------ #
    def best_matching_units(self, data) -> np.ndarray:
        """Flat BMU index per sample."""
        weights = self._check_fitted()
        x = np.asarray(data, dtype=float)
        d2 = (
            np.sum(x**2, axis=1)[:, None]
            - 2.0 * x @ weights.T
            + np.sum(weights**2, axis=1)[None, :]
        )
        return np.argmin(d2, axis=1)

    def u_matrix(self) -> np.ndarray:
        """Average distance from each neuron's weights to grid neighbors'.

        The inter-neuron "color depth" of Figs. 6b/8: large values mark
        cluster boundaries, small values cluster interiors.
        Shape ``(rows, cols)``.
        """
        weights = self._check_fitted().reshape(self.rows, self.cols, -1)
        out = np.zeros((self.rows, self.cols))
        counts = np.zeros((self.rows, self.cols))
        for dr, dc in ((0, 1), (1, 0)):
            a = weights[: self.rows - dr, : self.cols - dc]
            b = weights[dr:, dc:]
            dist = np.linalg.norm(a - b, axis=2)
            out[: self.rows - dr, : self.cols - dc] += dist
            out[dr:, dc:] += dist
            counts[: self.rows - dr, : self.cols - dc] += 1
            counts[dr:, dc:] += 1
        return out / counts

    def quantization_error(self, data) -> float:
        """Mean distance of samples to their BMU weights."""
        weights = self._check_fitted()
        x = np.asarray(data, dtype=float)
        bmus = self.best_matching_units(x)
        return float(np.mean(np.linalg.norm(x - weights[bmus], axis=1)))

    def topographic_error(self, data) -> float:
        """Fraction of samples whose two best units are not grid-adjacent."""
        weights = self._check_fitted()
        x = np.asarray(data, dtype=float)
        d2 = (
            np.sum(x**2, axis=1)[:, None]
            - 2.0 * x @ weights.T
            + np.sum(weights**2, axis=1)[None, :]
        )
        order = np.argsort(d2, axis=1)[:, :2]
        first = self._coords[order[:, 0]]
        second = self._coords[order[:, 1]]
        grid_dist = np.abs(first - second).sum(axis=1)
        return float(np.mean(grid_dist > 1.0))

    def cluster_count(self, data, labels=None) -> int:
        """Number of distinct data groups visible on the trained map.

        Counts connected components of *occupied* neurons (BMUs of at
        least one sample), merging grid-adjacent occupied neurons whose
        weight distance is below the U-matrix median — a simple watershed
        that approximates "how many classes does the map display"
        (Fig. 8's qualitative comparison).  ``labels`` is accepted for
        API symmetry but unused.
        """
        self._check_fitted()
        x = np.asarray(data, dtype=float)
        occupied = np.zeros(self.n_neurons, dtype=bool)
        occupied[np.unique(self.best_matching_units(x))] = True

        u = self.u_matrix().ravel()
        threshold = float(np.median(u))

        # Union-find over occupied, similar, grid-adjacent neurons.
        parent = np.arange(self.n_neurons)

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        for r in range(self.rows):
            for c in range(self.cols):
                i = r * self.cols + c
                if not occupied[i]:
                    continue
                for dr, dc in ((0, 1), (1, 0)):
                    rr, cc = r + dr, c + dc
                    if rr >= self.rows or cc >= self.cols:
                        continue
                    j = rr * self.cols + cc
                    if not occupied[j]:
                        continue
                    gap = float(
                        np.linalg.norm(self.weights[i] - self.weights[j])
                    )
                    if gap <= threshold:
                        union(i, j)

        roots = {find(i) for i in range(self.n_neurons) if occupied[i]}
        return len(roots)

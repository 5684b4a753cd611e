"""Poison-value materialization (Fig. 3, step ②).

Adversary strategies decide a *percentile position*; this module turns the
position into concrete poison points relative to the round's benign batch.
Two placement modes are provided:

* ``mode="quantile"`` — 1-D batches receive the empirical quantile of the
  batch at the chosen percentile; 2-D batches receive the per-feature
  quantile *corner* (every feature at its own q-quantile).
* ``mode="radial"`` (default for 2-D) — the poison is placed along the
  upper-tail corner *direction* but scaled so its **radial score**
  (distance from the coordinate-wise median — exactly what
  :class:`~repro.core.trimming.RadialTrimmer` measures) equals the batch's
  radial-score quantile at the chosen percentile.  This makes injection
  percentiles and trimming percentiles live on the same scale in any
  dimension, so the game-theoretic percentile algebra of §VI-A carries
  over exactly (see DESIGN.md §4).  For 1-D input it reduces to the plain
  quantile placement on the upper tail.

A thin uniform jitter band spreads colluding Sybil values over
``[q, q + jitter]`` so they do not collapse onto a single tied value,
which would make percentile trimming degenerate.

The number of poison points follows the attack ratio: ``round(ratio · n)``
poison values accompany ``n`` benign ones, i.e. the adversary controls a
``ratio/(1+ratio)`` fraction of the round's traffic.

A fitted injector places poison against the public reference instead
of the batch, reading the :class:`~repro.core.domain.ReferenceFit` it
shares with the trimmer fit on the same reference: the value or score
quantile table, the center and the corner direction.

Lockstep games keep one :class:`PoisonInjector` per lane; their round
program is :class:`~repro.core.fusion.InjectorLanes`, which converts
positions to values in vectorized quantile passes and draws the jitter
positions of all lanes through one :class:`LanePositionServer`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from ..core.arrays import Array, ArrayLike
from ..core.domain import ReferenceFit, _corner_direction
from ..core.strategies.base import rng_state, set_rng_state

__all__ = ["PoisonInjector", "LanePositionServer"]

_MODES = ("quantile", "radial")


class PoisonInjector:
    """Materializes poison batches at percentile positions.

    Parameters
    ----------
    attack_ratio:
        Poison-to-benign count ratio per round (``0.2`` = one poison value
        per five benign).
    jitter:
        Width of the percentile band the poison is spread over, e.g.
        ``0.01`` spreads Sybil values uniformly over ``[q, q + 0.01]``
        (clipped at 1.0).  ``0.0`` places all poison exactly at the
        quantile.
    mode:
        ``"radial"`` (default) or ``"quantile"`` — see module docstring.
        The modes coincide for 1-D data.
    seed:
        RNG seed for the jitter draws.
    """

    def __init__(
        self,
        attack_ratio: float,
        jitter: float = 0.01,
        mode: str = "radial",
        seed: Optional[int] = None,
    ):
        if attack_ratio < 0.0:
            raise ValueError("attack_ratio must be non-negative")
        if jitter < 0.0:
            raise ValueError("jitter must be non-negative")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        self.attack_ratio = float(attack_ratio)
        self.jitter = float(jitter)
        self.mode = mode
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._fit: Optional[ReferenceFit] = None

    def fit_reference(self, reference: ArrayLike) -> "PoisonInjector":
        """Calibrate percentile positions on the public reference.

        The white-box adversary knows the collector's public quality
        standard (§III-A), so it can place poison against the *reference*
        score quantiles instead of the noisy per-batch estimates — making
        the percentile coordinates of injection and (reference-anchored)
        trimming exactly commensurable.
        """
        arr = np.asarray(reference, dtype=float)
        self._fit = ReferenceFit.of(arr, "value" if arr.ndim == 1 else "radial")
        return self

    def reset(self) -> None:
        """Rewind the jitter stream so a reused injector replays identically."""
        self._rng = np.random.default_rng(self._seed)

    def export_state(self) -> dict[str, Any]:
        """The jitter Generator's bit-state (session snapshot contract)."""
        return {"rng": rng_state(self._rng)}

    def poison_count(self, n_benign: int) -> int:
        """Number of poison points injected alongside ``n_benign`` rows."""
        return int(round(self.attack_ratio * n_benign))

    def _positions(self, percentile: float, count: int) -> Array:
        low = min(1.0, max(0.0, percentile))
        high = min(1.0, low + self.jitter)
        if high <= low:
            return np.full(count, low)
        return self._rng.uniform(low, high, size=count)

    def _materialize_1d(self, benign: Array, positions: Array) -> Array:
        if self._fit is not None and self._fit.kind == "value":
            return self._fit.table.quantile(positions)
        return np.quantile(benign, positions)

    def _materialize_corner(
        self, benign: Array, positions: Array
    ) -> Array:
        # np.quantile with axis=0 over a (count,) position vector gives
        # shape (count, d): one per-feature quantile corner per position.
        return np.quantile(benign, positions, axis=0)

    def _materialize_radial(
        self, benign: Array, positions: Array
    ) -> Array:
        fit = self._fit
        if fit is not None and fit.center is not None and fit.direction is not None:
            center, direction = fit.center, fit.direction
            targets = fit.table.quantile(positions)
        else:
            center = np.median(benign, axis=0)
            scores = np.linalg.norm(benign - center, axis=1)
            targets = np.quantile(scores, positions)
            direction = _corner_direction(benign, center)
        # Colluding placement: along the direction toward the upper-tail
        # quantile corner, at the target radial score.
        return center[None, :] + targets[:, None] * direction[None, :]

    def _place(self, benign: Array, positions: Array) -> Array:
        """Poison rows at the given jitter positions of ``benign``."""
        if benign.ndim == 1:
            return self._materialize_1d(benign, positions)
        if self.mode == "radial":
            return self._materialize_radial(benign, positions)
        return self._materialize_corner(benign, positions)

    def materialize(self, benign: Array, percentile: float) -> Array:
        """Poison rows for one round, at a percentile of ``benign``.

        Returns an array shaped like ``benign`` rows: ``(m,)`` for 1-D
        input, ``(m, d)`` for 2-D, with ``m = poison_count(len(benign))``.
        """
        arr = np.asarray(benign, dtype=float)
        if arr.ndim not in (1, 2):
            raise ValueError("benign batches must be 1-D or 2-D")
        count = self.poison_count(arr.shape[0])
        if count == 0:
            return arr[:0].copy()
        return self._place(arr, self._positions(percentile, count))


class LanePositionServer:
    """Blocked jitter-position draws for L per-lane injectors.

    ``PoisonInjector._positions`` costs one ``Generator.uniform`` call
    per lane per round; across a fused cohort that is the last per-lane
    RNG floor in the hot loop.  The server pre-draws *blocks* of
    standard uniforms from per-lane **shadow** Generators (bit-state
    copies of each lane's own jitter Generator) and converts them per
    round with ``low + (high - low) * u`` — elementwise the exact
    expression ``Generator.uniform`` evaluates per double — so served
    positions are bit-identical to the solo draws.  :meth:`sync`
    advances each lane's *real* Generator wholesale (``PCG64.advance``
    by the number of doubles actually consumed), which keeps
    snapshot/restore and solo escapes bit-exact: the real Generator is
    only ever observed at a position it would have reached drawing
    solo.

    Rounds where a lane's jitter band is empty (``high <= low``)
    consume no doubles, exactly like the solo path.  Lanes whose bit
    generator is not :class:`numpy.random.PCG64` (no ``advance``) are
    served through their own ``_positions`` — correct, just not
    batched.
    """

    _BLOCK = 256

    def __init__(self, injectors: Sequence[PoisonInjector]) -> None:
        self.injectors = list(injectors)
        n = len(self.injectors)
        self._jitters = np.array(
            [float(inj.jitter) for inj in self.injectors]
        )
        self._shadows: List[Optional[np.random.Generator]] = [None] * n
        self._eligible = np.zeros(n, dtype=bool)
        for r, inj in enumerate(self.injectors):
            if isinstance(inj._rng.bit_generator, np.random.PCG64):
                shadow = np.random.Generator(np.random.PCG64())
                set_rng_state(shadow, rng_state(inj._rng))
                self._shadows[r] = shadow
                self._eligible[r] = True
        self._matrix: Optional[Array] = None  # (L, B) pre-drawn doubles
        self._cursors = np.zeros(n, dtype=np.int64)
        self._pending = np.zeros(n, dtype=np.int64)

    def _refill(self, lanes: Array, count: int) -> None:
        """Top up the pre-drawn blocks of ``lanes`` to serve ``count``.

        Unused tail doubles are always carried over — the doubles a lane
        consumes must stay contiguous with its shadow stream, or served
        positions would skip draws the solo game takes.
        """
        width = 0 if self._matrix is None else self._matrix.shape[1]
        if count > width:
            new_width = max(self._BLOCK, 4 * count)
            fresh = np.empty((len(self.injectors), new_width))
            for r in np.flatnonzero(self._eligible):
                tail = (
                    self._matrix[r, self._cursors[r]:]
                    if self._matrix is not None
                    else np.empty(0)
                )
                fresh[r, : tail.size] = tail
                fresh[r, tail.size:] = self._shadows[r].random(
                    new_width - tail.size
                )
            self._matrix = fresh
            self._cursors[:] = 0
            return
        for r in lanes:
            cursor = int(self._cursors[r])
            if cursor + count <= width:
                continue
            row = self._matrix[r]
            tail = row[cursor:].copy()
            row[: tail.size] = tail
            row[tail.size:] = self._shadows[r].random(width - tail.size)
            self._cursors[r] = 0

    def positions(
        self, lanes: Array, percentiles: Array, count: int
    ) -> Array:
        """(rows, count) jitter positions; row ``j`` serves lane ``lanes[j]``."""
        lanes = np.asarray(lanes, dtype=np.intp)
        rows = lanes.shape[0]
        p = np.asarray(percentiles, dtype=float)
        low = np.minimum(1.0, np.maximum(0.0, p))
        high = np.minimum(1.0, low + self._jitters[lanes])
        out = np.empty((rows, count))
        draw = high > low
        if not np.all(draw):
            flat = np.flatnonzero(~draw)
            out[flat] = low[flat][:, None]  # np.full(count, low), batched
        eligible = self._eligible[lanes]
        for j in np.flatnonzero(draw & ~eligible):
            out[j] = self.injectors[lanes[j]]._positions(float(p[j]), count)
        active = np.flatnonzero(draw & eligible)
        if active.size:
            served = lanes[active]
            self._refill(served, count)
            gather = self._cursors[served][:, None] + np.arange(count)
            u = self._matrix[served[:, None], gather]
            out[active] = (
                low[active][:, None]
                + (high[active] - low[active])[:, None] * u
            )
            self._cursors[served] += count
            self._pending[served] += count
        return out

    def sync(self) -> None:
        """Advance each real Generator past the doubles served so far."""
        for r in np.flatnonzero(self._pending):
            self.injectors[r]._rng.bit_generator.advance(
                int(self._pending[r])
            )
        self._pending[:] = 0

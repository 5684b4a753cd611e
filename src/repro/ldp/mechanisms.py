"""The Piecewise Mechanism: numeric ε-LDP reports on [-1, 1] (§V, §VI-E).

The case study's non-deterministic utility comes from local differential
privacy: each user perturbs their value before reporting, so even a fully
honest round has probabilistic quality.  Fig. 9's trimming defenses run
on Wang et al.'s piecewise mechanism, implemented here from scratch.  Its
reports are continuous in ``[-C, C]`` with
``C = (e^{ε/2} + 1)/(e^{ε/2} - 1)`` and concentrate near the true value,
so percentile *trimming* of reports is meaningful on its output domain.
It is unbiased: ``E[perturb(x)] = x`` for ``x ∈ [-1, 1]``.

The EMF baseline's Square-Wave mechanism is in :mod:`.square_wave`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["PiecewiseMechanism"]


class PiecewiseMechanism:
    """Wang et al.'s piecewise mechanism with continuous reports.

    Output domain ``[-C, C]`` with ``C = (e^{ε/2} + 1)/(e^{ε/2} - 1)``.
    With probability ``e^{ε/2}/(e^{ε/2} + 1)`` the report is uniform on
    the high-density band ``[l(x), r(x)]`` of width ``C - 1`` centered
    (affinely) on ``x``; otherwise uniform on the complement of the band.
    """

    def __init__(self, epsilon: float, seed: Optional[int] = None):
        # Checked as "in range", not as "out of range": NaN compares false.
        if not 0.0 < epsilon < np.inf:
            raise ValueError("privacy budget epsilon must be positive and finite")
        self.epsilon = float(epsilon)
        self._rng = np.random.default_rng(seed)

    @staticmethod
    def _check_inputs(values) -> np.ndarray:
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("cannot perturb an empty batch")
        # "All in range", not "any out of range", so a NaN input fails.
        if not np.all(np.abs(arr) <= 1.0 + 1e-12):
            raise ValueError("inputs must lie in [-1, 1]")
        return np.clip(arr, -1.0, 1.0)

    @property
    def c_bound(self) -> float:
        """The output bound ``C``: every report lies in ``[-C, C]``."""
        t = np.exp(self.epsilon / 2.0)
        return float((t + 1.0) / (t - 1.0))

    def _band(self, arr: np.ndarray):
        c = self.c_bound
        left = (c + 1.0) / 2.0 * arr - (c - 1.0) / 2.0
        right = left + c - 1.0
        return left, right

    def perturb(self, values) -> np.ndarray:
        """Perturb a batch of values; one independent report each."""
        arr = self._check_inputs(values)
        t = np.exp(self.epsilon / 2.0)
        c = self.c_bound
        left, right = self._band(arr)
        in_band = self._rng.random(arr.size) < t / (t + 1.0)

        out = np.empty(arr.size)
        # High-density band: uniform on [l, r].
        u = self._rng.random(arr.size)
        out[in_band] = left[in_band] + u[in_band] * (right[in_band] - left[in_band])

        # Tails: uniform on [-C, l) ∪ (r, C], weighted by segment length.
        tails = ~in_band
        if np.any(tails):
            l_t, r_t = left[tails], right[tails]
            left_len = l_t + c  # length of [-C, l)
            right_len = c - r_t  # length of (r, C]
            total = left_len + right_len
            pick_left = self._rng.random(tails.sum()) < left_len / total
            v = self._rng.random(tails.sum())
            tail_out = np.where(
                pick_left,
                -c + v * left_len,
                r_t + v * right_len,
            )
            out[tails] = tail_out
        return out

    def variance(self, x: float = 0.0) -> float:
        """Exact per-report variance of the piecewise mechanism.

        ``Var = x²/(e^{ε/2} - 1) + (e^{ε/2} + 3)/(3 (e^{ε/2} - 1)²) ``
        (Wang et al. 2019, Eq. for the PM).
        """
        t = np.exp(self.epsilon / 2.0)
        return float(x) ** 2 / (t - 1.0) + (t + 3.0) / (3.0 * (t - 1.0) ** 2)

    def density(self, y, x: float):
        """Piecewise-constant density: high inside ``[l(x), r(x)]``.

        The in-band density is ``p = (e^ε - e^{ε/2}) / (2 e^{ε/2} + 2)``
        and the out-of-band density ``p / e^ε`` — their ratio is exactly
        ``e^ε``, the mechanism's privacy guarantee.
        """
        y = np.asarray(y, dtype=float)
        x_arr = np.full_like(y, np.clip(float(x), -1.0, 1.0))
        left, right = self._band(x_arr)
        t = np.exp(self.epsilon / 2.0)
        e = np.exp(self.epsilon)
        high = (e - t) / (2.0 * t + 2.0)
        low = high / e
        c = self.c_bound
        in_domain = (y >= -c) & (y <= c)
        in_band = (y >= left) & (y <= right)
        return np.where(in_domain, np.where(in_band, high, low), 0.0)

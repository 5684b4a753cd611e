"""Square Wave mechanism and EM reconstruction (distribution estimation).

The EMF baseline of §VI-E ([8]) operates on LDP distribution-estimation
reports; the Square Wave (SW) mechanism of Li et al. is the standard
numeric mechanism for that task and the one the EMF pipeline builds on
here.  For input ``x ∈ [0, 1]`` and budget ε, SW reports ``y ∈ [-b, 1+b]``
with density ``p`` inside the window ``|y - x| ≤ b`` and ``q`` outside,
where

    ``b = (ε e^ε - e^ε + 1) / (2 e^ε (e^ε - 1 - ε))``,
    ``p = e^ε q``,  ``q = 1 / (2 b e^ε + 1)``  (window mass ``2bp`` plus
    the unit-length outside mass ``q`` integrate to 1).

Reconstruction discretizes inputs and outputs into histograms and runs
expectation-maximization, optionally with the smoothing step (EMS) that
regularizes the recovered density.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["SquareWaveMechanism", "em_reconstruct"]


class SquareWaveMechanism:
    """SW mechanism over inputs in [0, 1]."""

    def __init__(self, epsilon: float, seed: Optional[int] = None):
        # Checked as "in range", not as "out of range": NaN compares false.
        if not 0.0 < epsilon < np.inf:
            raise ValueError("privacy budget epsilon must be positive and finite")
        self.epsilon = float(epsilon)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    @property
    def b(self) -> float:
        """Half-width of the high-density reporting window."""
        eps = self.epsilon
        e = np.exp(eps)
        return float((eps * e - e + 1.0) / (2.0 * e * (e - 1.0 - eps)))

    @property
    def q_density(self) -> float:
        """Low (outside-window) report density."""
        b = self.b
        e = np.exp(self.epsilon)
        return float(1.0 / (2.0 * b * e + 1.0))

    @property
    def p_density(self) -> float:
        """High (inside-window) report density ``p = e^ε q``."""
        return float(np.exp(self.epsilon) * self.q_density)

    # ------------------------------------------------------------------ #
    def perturb(self, values) -> np.ndarray:
        """Perturb inputs in [0, 1]; reports lie in ``[-b, 1 + b]``."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("cannot perturb an empty batch")
        # "All in range", not "any out of range", so a NaN input fails.
        if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):
            raise ValueError("SW inputs must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)

        b = self.b
        p, q = self.p_density, self.q_density
        window_mass = 2.0 * b * p
        in_window = self._rng.random(arr.size) < window_mass

        out = np.empty(arr.size)
        u = self._rng.random(arr.size)
        out[in_window] = arr[in_window] - b + 2.0 * b * u[in_window]

        outside = ~in_window
        if np.any(outside):
            # Outside region is [-b, x - b) ∪ (x + b, 1 + b], total length
            # (1 + 2b) - 2b = 1; pick a segment weighted by its length.
            x = arr[outside]
            left_len = x  # length of [-b, x - b)
            right_len = 1.0 - x  # length of (x + b, 1 + b]
            pick_left = self._rng.random(outside.sum()) < left_len / (
                left_len + right_len
            )
            v = self._rng.random(outside.sum())
            out[outside] = np.where(
                pick_left,
                -b + v * left_len,
                x + b + v * right_len,
            )
        return out

    def density(self, y, x: float):
        """Report density ``p(y|x)``: ``p`` inside the window, ``q`` outside.

        Zero outside the output domain ``[-b, 1 + b]``; the in/out ratio
        is exactly ``e^ε`` — the privacy guarantee the tests verify.
        """
        y = np.asarray(y, dtype=float)
        x = float(np.clip(x, 0.0, 1.0))
        b = self.b
        in_domain = (y >= -b) & (y <= 1.0 + b)
        in_window = np.abs(y - x) <= b
        return np.where(
            in_domain, np.where(in_window, self.p_density, self.q_density), 0.0
        )

    def transition_matrix(self, n_input_bins: int, n_output_bins: int) -> np.ndarray:
        """Discretized channel ``M[j, i] = P(report bin j | input bin i)``.

        Inputs are binned uniformly on [0, 1], outputs on ``[-b, 1+b]``.
        Computed by integrating the piecewise-constant SW density over
        each (input center, output bin) pair.
        """
        if n_input_bins < 1 or n_output_bins < 1:
            raise ValueError("bin counts must be >= 1")
        b, p, q = self.b, self.p_density, self.q_density
        in_centers = (np.arange(n_input_bins) + 0.5) / n_input_bins
        out_edges = np.linspace(-b, 1.0 + b, n_output_bins + 1)

        matrix = np.empty((n_output_bins, n_input_bins))
        for i, x in enumerate(in_centers):
            lo, hi = x - b, x + b
            # Mass of [edge_j, edge_j+1] = q*len + (p - q)*overlap_with_window
            seg_len = out_edges[1:] - out_edges[:-1]
            overlap = np.clip(
                np.minimum(out_edges[1:], hi) - np.maximum(out_edges[:-1], lo),
                0.0,
                None,
            )
            matrix[:, i] = q * seg_len + (p - q) * overlap
        # Normalize columns against discretization drift.
        matrix /= matrix.sum(axis=0, keepdims=True)
        return matrix


def em_reconstruct(
    report_hist,
    transition: np.ndarray,
    n_iter: int = 200,
    tol: float = 1e-9,
    smoothing: bool = True,
) -> np.ndarray:
    """EM / EMS estimation of the input histogram from report counts.

    Standard missing-data EM for a discrete channel: with input histogram
    ``f`` and channel ``M``, iterate

        ``f_i ← f_i · Σ_j  w_j M[j, i] / (M f)_j``  (normalized),

    where ``w`` is the observed report histogram.  With
    ``smoothing=True`` each iterate is convolved with the [1, 2, 1]/4
    kernel (the EMS variant), which suppresses the spiky solutions plain
    EM is known to produce for SW.
    Returns the estimated input distribution (sums to 1).
    """
    w = np.asarray(report_hist, dtype=float).ravel()
    if w.sum() <= 0:
        raise ValueError("report histogram must contain observations")
    w = w / w.sum()
    n_out, n_in = transition.shape
    if w.size != n_out:
        raise ValueError("histogram length must match transition rows")

    f = np.full(n_in, 1.0 / n_in)
    for _ in range(n_iter):
        mixture = transition @ f
        mixture = np.maximum(mixture, 1e-300)
        f_new = f * (transition.T @ (w / mixture))
        f_new = np.maximum(f_new, 0.0)
        total = f_new.sum()
        if total <= 0:
            raise RuntimeError("EM iterate collapsed to zero mass")
        f_new /= total
        if smoothing and n_in >= 3:
            smoothed = f_new.copy()
            smoothed[1:-1] = 0.25 * f_new[:-2] + 0.5 * f_new[1:-1] + 0.25 * f_new[2:]
            smoothed[0] = 0.75 * f_new[0] + 0.25 * f_new[1]
            smoothed[-1] = 0.75 * f_new[-1] + 0.25 * f_new[-2]
            f_new = smoothed / smoothed.sum()
        if np.max(np.abs(f_new - f)) < tol:
            f = f_new
            break
        f = f_new
    return f

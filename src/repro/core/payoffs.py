"""Payoff functions of the trimming game (Section III-B of the paper).

The game between a data collector and an adversary is zero-sum in the
poisoning payoff ``P`` — whatever deviation the adversary manages to inject
is utility lost by the collector — while the collector additionally pays a
trimming overhead ``T`` for the honest values she removes.  Working in
percentile coordinates ``x`` of the benign distribution:

* ``P(x)`` — payoff of a poison value injected at percentile ``x`` that
  *survives* trimming.  Increasing in ``x``: the further into the upper tail
  a surviving poison value sits, the more it skews the estimate.
* ``T(x)`` — overhead of trimming *at* percentile ``x``: the mass of benign
  data removed is ``1 - x``, so ``T`` decreases in ``x``.

The balance point ``x_L`` solves ``P(x_L) = T(x_L)`` (Fig. 1a): below it
trimming costs more than the poison it prevents, so a rational collector
never trims below ``x_L``.  The right boundary ``x_R`` (Fig. 2) is the
largest injection position a rational adversary would use, because beyond
it the collector trims unconditionally.  Together ``[x_L, x_R]`` is the
complete strategy space of Definition 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple, Union

import numpy as np

from .arrays import Array, ArrayLike
from .domain import clip_percentile

__all__ = ["PayoffModel", "power_poison_gain", "power_trim_cost"]


@dataclass(frozen=True)
class _PowerGain:
    """``P(x) = scale * x**exponent`` as a picklable callable."""

    scale: float
    exponent: float

    def __call__(self, x: ArrayLike) -> Union[float, Array]:
        value = self.scale * np.power(np.asarray(x, dtype=float), self.exponent)
        if np.ndim(x) == 0:
            return float(value)
        return value


@dataclass(frozen=True)
class _PowerCost:
    """``T(x) = scale * (1 - x)**exponent`` as a picklable callable."""

    scale: float
    exponent: float

    def __call__(self, x: ArrayLike) -> Union[float, Array]:
        value = self.scale * np.power(
            1.0 - np.asarray(x, dtype=float), self.exponent
        )
        if np.ndim(x) == 0:
            return float(value)
        return value


def power_poison_gain(scale: float = 1.0, exponent: float = 2.0) -> Callable[[float], float]:
    """A convex poison-gain family ``P(x) = scale * x**exponent``.

    The default quadratic growth encodes that deviation impact accelerates
    toward the tail of the distribution (extreme values move means,
    centroids and separating hyperplanes superlinearly).  The returned
    callable is ndarray-aware: scalar in, float out; array in, array out —
    scalar and vectorized evaluations share the same :func:`numpy.power`
    kernel, so they agree bit-for-bit.  It is a plain frozen-dataclass
    callable, so payoff models pickle (session snapshots carry them).
    """
    if scale <= 0 or exponent <= 0:
        raise ValueError("scale and exponent must be positive")
    return _PowerGain(float(scale), float(exponent))


def power_trim_cost(scale: float = 1.0, exponent: float = 1.0) -> Callable[[float], float]:
    """A trimming-overhead family ``T(x) = scale * (1 - x)**exponent``.

    ``1 - x`` is exactly the benign mass removed when trimming at
    percentile ``x``; the exponent models how quickly accuracy loss grows
    with removed mass.  Ndarray-aware and picklable like
    :func:`power_poison_gain`.
    """
    if scale <= 0 or exponent <= 0:
        raise ValueError("scale and exponent must be positive")
    return _PowerCost(float(scale), float(exponent))


@dataclass
class PayoffModel:
    """Payoff structure of the single-round trimming game.

    Parameters
    ----------
    poison_gain:
        ``P(x)`` — payoff of a surviving poison value at percentile ``x``.
        Must be non-decreasing on [0, 1].
    trim_cost:
        ``T(x)`` — collector overhead for trimming at percentile ``x``.
        Must be non-increasing on [0, 1].
    tolerance:
        Tail-mass tolerance used to place the right boundary ``x_R``: the
        collector definitely trims once the remaining benign tail mass is
        at most ``tolerance``, so no rational adversary injects beyond
        ``x_R = 1 - tolerance``.
    """

    poison_gain: Callable[[float], float] = field(default_factory=power_poison_gain)
    trim_cost: Callable[[float], float] = field(default_factory=power_trim_cost)
    tolerance: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.tolerance < 0.5:
            raise ValueError("tolerance must lie in (0, 0.5)")

    # ------------------------------------------------------------------ #
    # elementary payoffs
    # ------------------------------------------------------------------ #
    @staticmethod
    def _eval_kernel(fn: Callable[[Array], Any], grid: Array) -> Array:
        """Evaluate a payoff kernel over a percentile grid, vectorized.

        Tries one ndarray call first; when the user supplied a
        scalar-only callable (raises on arrays, or returns something of
        the wrong shape) falls back to a per-point Python loop.  Even the
        fallback is O(n) in the grid size — never O(n²) — because both
        payoff components depend on a single coordinate each.
        """
        try:
            value = np.asarray(fn(grid), dtype=float)
        except (TypeError, ValueError):
            value = None
        if value is not None and value.shape == grid.shape:
            return value
        return np.array([float(fn(float(x))) for x in grid])

    def poison_payoff(self, x: ArrayLike) -> Union[float, Array]:
        """``P(x)``: adversary gain from a surviving poison value at ``x``.

        Scalar ``x`` yields a float; an ndarray yields the elementwise
        gains (clipped into [0, 1] first), falling back to a scalar loop
        for non-vectorizable user kernels.
        """
        if np.ndim(x) == 0:
            return float(self.poison_gain(clip_percentile(x)))
        grid = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return self._eval_kernel(self.poison_gain, grid)

    def trim_overhead(self, x: ArrayLike) -> Union[float, Array]:
        """``T(x)``: collector loss from trimming benign mass above ``x``.

        Ndarray-aware like :meth:`poison_payoff`.
        """
        if np.ndim(x) == 0:
            return float(self.trim_cost(clip_percentile(x)))
        grid = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return self._eval_kernel(self.trim_cost, grid)

    # ------------------------------------------------------------------ #
    # the strategy-space boundaries of Definition 1
    # ------------------------------------------------------------------ #
    def balance_point(self) -> float:
        """The balance point ``x_L`` with ``P(x_L) = T(x_L)`` (Fig. 1a).

        Found by bracketed root finding on ``P - T``, which is monotone
        increasing under the model assumptions (P up, T down), hence the
        root is unique when it exists.
        """

        def diff(x: float) -> float:
            return self.poison_payoff(x) - self.trim_overhead(x)

        lo, hi = 0.0, 1.0
        d_lo, d_hi = diff(lo), diff(hi)
        if d_lo > 0.0:
            # Poison beats overhead everywhere: trimming always pays.
            return lo
        if d_hi < 0.0:
            # Overhead dominates everywhere: never worth trimming.
            return hi
        from scipy.optimize import brentq  # imported where used, as in core.game

        return float(brentq(diff, lo, hi, xtol=1e-12))

    def right_boundary(self) -> float:
        """The right boundary ``x_R = 1 - tolerance`` (Fig. 2).

        Beyond ``x_R`` the benign tail mass is within the collector's
        tolerance, so she trims unconditionally and a rational adversary
        gains nothing by injecting there.
        """
        return 1.0 - self.tolerance

    def strategy_interval(self) -> Tuple[float, float]:
        """The complete strategy space ``[x_L, x_R]`` of Definition 1."""
        x_l = self.balance_point()
        x_r = self.right_boundary()
        if x_l >= x_r:
            raise ValueError(
                "degenerate strategy space: balance point "
                f"{x_l:.4f} >= right boundary {x_r:.4f}"
            )
        return x_l, x_r

    # ------------------------------------------------------------------ #
    # strategy-profile payoffs
    # ------------------------------------------------------------------ #
    def profile_payoffs(self, x_a: float, x_c: float) -> Tuple[float, float]:
        """Payoffs ``(adversary, collector)`` for profile ``(x_a, x_c)``.

        ``x_a`` is the adversary's injection percentile and ``x_c`` the
        collector's trimming percentile.  A poison value at or above the
        trimming point is removed, so the adversary gains only when
        ``x_a < x_c``.  The collector always pays the trimming overhead
        ``T(x_c)`` and additionally the poisoning loss when the poison
        survives — the zero-sum structure of Section III-B:
        ``payoff_collector = -P·[survives] - T``.
        """
        x_a = clip_percentile(x_a)
        x_c = clip_percentile(x_c)
        survives = x_a < x_c
        p = self.poison_payoff(x_a) if survives else 0.0
        t = self.trim_overhead(x_c)
        return p, -p - t

    def payoff_matrix(
        self, adversary_grid: ArrayLike, collector_grid: ArrayLike
    ) -> Tuple[Array, Array]:
        """Dense payoff matrices over discretized strategy grids.

        Returns ``(A, C)`` where ``A[i, j]`` is the adversary payoff and
        ``C[i, j]`` the collector payoff when the adversary plays
        ``adversary_grid[i]`` against trimming point ``collector_grid[j]``.
        """
        a_grid = np.clip(np.asarray(adversary_grid, dtype=float).ravel(), 0.0, 1.0)
        c_grid = np.clip(np.asarray(collector_grid, dtype=float).ravel(), 0.0, 1.0)
        # One kernel evaluation per grid *point* (vectorized when the
        # kernels allow, scalar fallback otherwise) instead of one
        # Python call per matrix *cell*; the survives-indicator and the
        # zero-sum combination then broadcast.  Matches the scalar
        # ``profile_payoffs`` double loop bit-for-bit, including the
        # ``-0.0 - T`` signed zero of trimmed-poison cells.
        gains = self.poison_payoff(a_grid)[:, np.newaxis]
        overheads = self.trim_overhead(c_grid)[np.newaxis, :]
        survives = a_grid[:, np.newaxis] < c_grid[np.newaxis, :]
        adv = np.where(survives, gains, 0.0)
        col = np.where(survives, -gains, -0.0) - overheads
        return adv, col

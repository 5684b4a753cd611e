"""Synthetic NYC-Taxi-like pickup-time generator (stand-in for [25]).

The paper's Taxi dataset records pick-up times of a day — 1,048,575
integers in [0, 86340] normalized to [-1, 1].  The LDP experiment (Fig. 9)
needs exactly that: a large, bounded, 1-D numeric distribution with
non-trivial shape.  We synthesize seconds-of-day from a mixture of a
morning rush peak, an evening rush peak, a broad midday component and a
uniform night floor, quantize to the same integer grid and normalize to
[-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["SECONDS_MAX", "generate_taxi", "taxi_batch_factory"]

#: Largest pickup second of the original dataset's domain.
SECONDS_MAX = 86_340

_COMPONENTS = (
    # (weight, mean hour, std hours)
    (0.25, 8.5, 1.2),   # morning rush
    (0.30, 18.5, 1.5),  # evening rush
    (0.30, 13.0, 2.5),  # midday
)
_UNIFORM_WEIGHT = 0.15  # night floor


def _draw_seconds(rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample pickup seconds-of-day from the rush-hour mixture."""
    weights = np.array([w for w, _, _ in _COMPONENTS] + [_UNIFORM_WEIGHT])
    weights = weights / weights.sum()
    choices = rng.choice(len(weights), size=size, p=weights)
    out = np.empty(size, dtype=float)
    for idx, (_, mean_h, std_h) in enumerate(_COMPONENTS):
        mask = choices == idx
        out[mask] = rng.normal(mean_h * 3600.0, std_h * 3600.0, size=mask.sum())
    uniform_mask = choices == len(_COMPONENTS)
    out[uniform_mask] = rng.uniform(0.0, SECONDS_MAX, size=uniform_mask.sum())
    # Wrap out-of-day Gaussian tails around midnight, then quantize.
    out = np.mod(out, SECONDS_MAX + 1)
    return np.floor(out)


def generate_taxi(
    n_samples: int = 1_048_575, seed: Optional[int] = 17, normalized: bool = True
) -> np.ndarray:
    """Generate the Taxi stand-in dataset.

    Returns pickup times in [-1, 1] (the paper's normalization) or raw
    integer seconds when ``normalized=False``.  Default size matches the
    original (1,048,575 values).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    seconds = _draw_seconds(rng, n_samples)
    if not normalized:
        return seconds
    return 2.0 * seconds / SECONDS_MAX - 1.0


@dataclass(frozen=True)
class _TaxiBatches:
    """``factory(rng, batch_size)`` drawing taxi batches, as a picklable callable."""

    normalized: bool

    def __call__(self, rng: np.random.Generator, batch_size: int) -> np.ndarray:
        seconds = _draw_seconds(rng, batch_size)
        if not self.normalized:
            return seconds
        return 2.0 * seconds / SECONDS_MAX - 1.0


def taxi_batch_factory(
    normalized: bool = True,
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """A ``factory(rng, batch_size)`` for :class:`~repro.streams.GeneratorStream`.

    Lets the collection game stream taxi-like batches without
    materializing the million-value dataset.  The factory is a plain
    frozen-dataclass callable, so a session streaming from it snapshots.
    """
    return _TaxiBatches(bool(normalized))

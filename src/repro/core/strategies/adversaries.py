"""Adversary strategies (§III-A threat model, §VI-A schemes, §VI-D).

The threat model is colluding (Sybil poison mass is coordinated),
opportunistic (positions chosen to maximize deviation) and evasive
(positions adapt to the observed defense).  Each class below realizes one
of the attack behaviours used in the experiments:

* :class:`NullAdversary` — no injection (the Groundtruth scheme).
* :class:`FixedAdversary` — always inject at one percentile (the Ostrich
  opponent injects at the 99th).
* :class:`UniformRangeAdversary` — inject uniformly in a percentile range
  (the Baseline 0.9 opponent uses [0.9, 1]).
* :class:`JustBelowAdversary` — the *ideal attack* of Baseline static:
  perfectly evades a known static threshold by injecting at
  ``T_th - 1%``, always just under the knife.
* :class:`MixedAdversary` — the §VI-D evasion family: play the
  equilibrium position with probability ``p`` and the greedy position
  with ``1 - p`` (a mixed strategy over the two basis points of
  §III-C2).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .base import AdversaryStrategy, RoundObservation, rng_state

__all__ = [
    "NullAdversary",
    "FixedAdversary",
    "UniformRangeAdversary",
    "JustBelowAdversary",
    "MixedAdversary",
]


class NullAdversary(AdversaryStrategy):
    """Injects nothing — the Groundtruth scenario."""

    name = "groundtruth"

    def first(self) -> Optional[float]:
        return None

    def react(self, last: RoundObservation) -> Optional[float]:
        return None


class FixedAdversary(AdversaryStrategy):
    """Always inject at a fixed percentile (Ostrich's opponent: 0.99)."""

    def __init__(self, percentile: float = 0.99):
        if not 0.0 <= percentile <= 1.0:
            raise ValueError("percentile must lie in [0, 1]")
        self.percentile = float(percentile)
        self.name = f"fixed@{self.percentile:.2f}"

    def first(self) -> float:
        return self.percentile

    def react(self, last: RoundObservation) -> float:
        return self.percentile


class UniformRangeAdversary(AdversaryStrategy):
    """Inject uniformly at random inside a percentile range.

    The Baseline 0.9 opponent randomizes over [0.9, 1] — an unsophisticated
    randomized evasion against a static defense.
    """

    def __init__(self, low: float = 0.9, high: float = 1.0, seed: Optional[int] = None):
        if not 0.0 <= low < high <= 1.0:
            raise ValueError("need 0 <= low < high <= 1")
        self.low = float(low)
        self.high = float(high)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self.name = f"uniform[{self.low:.2f},{self.high:.2f}]"

    def reset(self) -> None:
        # Rewind the position stream: the engine resets every component
        # at the start of run(), so a reused seeded instance replays the
        # identical game.  Sweeps wanting fresh positions per repetition
        # build fresh instances with per-cell derived seeds.
        self._rng = np.random.default_rng(self._seed)

    def export_state(self) -> dict[str, Any]:
        return {"rng": rng_state(self._rng)}

    def _draw(self) -> float:
        return float(self._rng.uniform(self.low, self.high))

    def first(self) -> float:
        return self._draw()

    def react(self, last: RoundObservation) -> float:
        return self._draw()


class JustBelowAdversary(AdversaryStrategy):
    """The ideal evasive attack: inject just below the observed threshold.

    Baseline static (§VI-A): the adversary "has the ability to accurately
    determine the data collector's T_th for each round and always adds
    poison values at the location that benefits itself the most" —
    ``T_th - margin`` with margin 1%.
    """

    name = "just-below"

    def __init__(self, initial_threshold: float, margin: float = 0.01):
        if not 0.0 < initial_threshold <= 1.0:
            raise ValueError("initial_threshold must be a percentile")
        if margin <= 0.0:
            raise ValueError("margin must be positive")
        self.initial_threshold = float(initial_threshold)
        self.margin = float(margin)

    def _position(self, threshold: float) -> float:
        return max(0.0, min(1.0, threshold - self.margin))

    def first(self) -> float:
        return self._position(self.initial_threshold)

    def react(self, last: RoundObservation) -> float:
        return self._position(last.trim_percentile)


class MixedAdversary(AdversaryStrategy):
    """The §VI-D two-point mixed strategy, parameterized by ``p``.

    Each round, play the *equilibrium* position (99th percentile — the
    Stackelberg-compliant behaviour) with probability ``p`` and the
    *greedy* position (90th percentile — short-sighted betrayal that slips
    under the soft trim) with probability ``1 - p``.  ``p = 1`` is the
    fully rational equilibrium adversary; ``p = 0`` the greedy and
    shortsighted one; every evasion strategy in between is a mixture
    (§III-C2).
    """

    def __init__(
        self,
        p: float,
        equilibrium_position: float = 0.99,
        greedy_position: float = 0.90,
        seed: Optional[int] = None,
    ):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        if not 0.0 <= greedy_position < equilibrium_position <= 1.0:
            raise ValueError("need 0 <= greedy < equilibrium <= 1")
        self.p = float(p)
        self.equilibrium_position = float(equilibrium_position)
        self.greedy_position = float(greedy_position)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self.name = f"mixed(p={self.p:g})"
        self.last_was_greedy = False

    def reset(self) -> None:
        self.last_was_greedy = False
        # Rewind the draw stream so a reused seeded instance replays
        # identically (see UniformRangeAdversary.reset).
        self._rng = np.random.default_rng(self._seed)

    def export_state(self) -> dict[str, Any]:
        return {
            "rng": rng_state(self._rng),
            "last_was_greedy": self.last_was_greedy,
        }

    def _draw(self) -> float:
        if self._rng.random() < self.p:
            self.last_was_greedy = False
            return self.equilibrium_position
        self.last_was_greedy = True
        return self.greedy_position

    def first(self) -> float:
        return self._draw()

    def react(self, last: RoundObservation) -> float:
        return self._draw()

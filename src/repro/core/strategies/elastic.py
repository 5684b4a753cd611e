"""The Elastic trigger strategy (Algorithm 2, Definition 2, §VI-A).

Instead of terminating cooperation, the Elastic collector applies a
*forgiving, proportional penalty*: the next round's threshold responds to
the observed deviation with strength ``k`` — the spring constant of the
interaction term ``U = k (u_a - u_c)² / 2`` whose Euler–Lagrange dynamics
oscillate (Theorem 4) instead of collapsing.

Two update rules are implemented (see DESIGN.md §4):

* ``rule="paper"`` — the §VI-A experimental rule, anchored at ``T_th``:

      ``T(i+1) = T_th + k · (A(i) - T_th - 1%)``

  where ``A(i)`` is the adversary's previous injection percentile (known
  under the white-box model).  The coupled collector/adversary map
  contracts at rate ``k`` per round.

* ``rule="relaxation"`` — an exponentially smoothed variant of the same
  target with smoothing weight ``k`` (the response-strength reading of
  Algorithm 2): the *stronger* the response, the *faster* the system
  reaches the interactive equilibrium — the behaviour Table IV reports
  (k = 0.5 converging quicker and cheaper than k = 0.1).

When the adversary's position is unobservable in a round (no injection),
the collector falls back to the quality-proportional rule of Algorithm 2:
``T = (1 - k·QE) · T_soft + k·QE · T_hard``.
"""

from __future__ import annotations

from typing import Any

from .base import AdversaryStrategy, CollectorStrategy, RoundObservation

__all__ = ["ElasticCollector", "ElasticAdversary"]

_RULES = ("paper", "relaxation")


class ElasticCollector(CollectorStrategy):
    """Algorithm 2: elastic proportional-response trimming.

    Parameters
    ----------
    t_th:
        Headline threshold ``T_th``.
    k:
        Response strength / spring constant in (0, 1).
    rule:
        ``"paper"`` or ``"relaxation"`` (see module docstring).
    init_offset:
        Initial trim position offset: §VI-A starts Elastic at
        ``T_th - 3%``.
    target_offset:
        The ``-1%`` in the paper rule: the collector aims just below the
        observed injection position.
    soft_offset / hard_offset:
        The lenient/punitive endpoints ``T̄``, ``T̲`` used by the
        quality-based fallback (Algorithm 2's convex combination).
    """

    def __init__(
        self,
        t_th: float,
        k: float,
        rule: str = "paper",
        init_offset: float = -0.03,
        target_offset: float = -0.01,
        soft_offset: float = 0.01,
        hard_offset: float = -0.03,
    ):
        if not 0.0 < t_th < 1.0:
            raise ValueError("t_th must be a percentile in (0, 1)")
        if not 0.0 < k < 1.0:
            raise ValueError("k must lie in (0, 1) for a contracting response")
        if rule not in _RULES:
            raise ValueError(f"rule must be one of {_RULES}")
        self.t_th = float(t_th)
        self.k = float(k)
        self.rule = rule
        self.init_offset = float(init_offset)
        self.target_offset = float(target_offset)
        self.soft_offset = float(soft_offset)
        self.hard_offset = float(hard_offset)
        self.name = f"elastic{self.k:g}"
        # Initialize through reset() so construction and game-over-game
        # reuse share one state path (the engine replays reset + first).
        self.reset()

    def _clip(self, q: float) -> float:
        return min(1.0, max(0.0, q))

    def reset(self) -> None:
        self._current = self.first()

    def export_state(self) -> dict[str, Any]:
        return {"current": self._current}

    def first(self) -> float:
        """Initial trim position ``T_th - 3%`` (§VI-A)."""
        return self._clip(self.t_th + self.init_offset)

    def _paper_target(self, injection: float) -> float:
        """``T_th + k (A(i) - T_th + target_offset)``."""
        return self.t_th + self.k * (injection - self.t_th + self.target_offset)

    def _quality_fallback(self, quality_normalized: float) -> float:
        """Algorithm 2 verbatim: ``(1 - k·QE)·T̄ + k·QE·T̲``."""
        qe = min(1.0, max(0.0, quality_normalized))
        soft = self.t_th + self.soft_offset
        hard = self.t_th + self.hard_offset
        weight = self.k * qe
        return (1.0 - weight) * soft + weight * hard

    def react(self, last: RoundObservation) -> float:
        if last.injection_percentile is None:
            new = self._quality_fallback(last.quality)
        else:
            target = self._paper_target(last.injection_percentile)
            if self.rule == "paper":
                new = target
            else:  # relaxation: EMA toward the target with weight k
                new = (1.0 - self.k) * self._current + self.k * target
        self._current = self._clip(new)
        return self._current


class ElasticAdversary(AdversaryStrategy):
    """The adversary side of the §VI-A interactive Elastic dynamics.

    Opens at ``T_th + 1%`` and then responds to the collector's previous
    threshold with

        ``A(i+1) = T_th - 3% + k · (T(i) - T_th)``

    (rule ``"paper"``), or its exponentially smoothed counterpart
    (``"relaxation"``), mirroring :class:`ElasticCollector`.
    """

    def __init__(
        self,
        t_th: float,
        k: float,
        rule: str = "paper",
        init_offset: float = 0.01,
        base_offset: float = -0.03,
    ):
        if not 0.0 < t_th < 1.0:
            raise ValueError("t_th must be a percentile in (0, 1)")
        if not 0.0 < k < 1.0:
            raise ValueError("k must lie in (0, 1)")
        if rule not in _RULES:
            raise ValueError(f"rule must be one of {_RULES}")
        self.t_th = float(t_th)
        self.k = float(k)
        self.rule = rule
        self.init_offset = float(init_offset)
        self.base_offset = float(base_offset)
        self.name = f"elastic-adversary{self.k:g}"
        self.reset()

    def _clip(self, q: float) -> float:
        return min(1.0, max(0.0, q))

    def reset(self) -> None:
        self._current = self.first()

    def export_state(self) -> dict[str, Any]:
        return {"current": self._current}

    def first(self) -> float:
        """Initial injection position ``T_th + 1%`` (§VI-A)."""
        return self._clip(self.t_th + self.init_offset)

    def react(self, last: RoundObservation) -> float:
        target = self.t_th + self.base_offset + self.k * (
            last.trim_percentile - self.t_th
        )
        if self.rule == "paper":
            new = target
        else:
            new = (1.0 - self.k) * self._current + self.k * target
        self._current = self._clip(new)
        return self._current

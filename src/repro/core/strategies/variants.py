"""Tit-for-tat variants (§V: "numerous variants of Tit-for-tat exist").

The paper's Algorithm 1 is a *grim trigger* — one judged betrayal ends
cooperation permanently.  §V notes the classic variants — the original
mirroring Tit-for-tat, Tit-for-two-tats [2] and Generous Tit-for-tat
[23] — "can also be adapted through Elastic strategies for repeated games
with uncertainty".  This module provides those adaptations in trimming
space, all reusing the per-round betrayal judgement of the engine:

* :class:`MirrorCollector` — true Tit-for-tat: punish exactly one round
  after a judged betrayal (hard trim), then return to soft trimming.
* :class:`GenerousCollector` — Generous Tit-for-tat: mirror, but forgive
  a judged betrayal with probability ``generosity``, which breaks the
  echo chains that noisy judgements otherwise sustain.
* :class:`TitForTwoTatsCollector` — only punish after two *consecutive*
  judged betrayals, absorbing isolated false positives entirely.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .base import CollectorStrategy, RoundObservation, rng_state

__all__ = ["MirrorCollector", "GenerousCollector", "TitForTwoTatsCollector"]


class _TwoLevelCollector(CollectorStrategy):
    """Shared soft/hard position plumbing for the variants."""

    def __init__(
        self,
        t_th: float,
        soft_offset: float = 0.01,
        hard_offset: float = -0.03,
    ):
        if not 0.0 < t_th < 1.0:
            raise ValueError("t_th must be a percentile in (0, 1)")
        self.t_th = float(t_th)
        self.soft_offset = float(soft_offset)
        self.hard_offset = float(hard_offset)

    @property
    def soft_percentile(self) -> float:
        """The lenient position ``T_th + soft_offset``, clipped."""
        return min(1.0, max(0.0, self.t_th + self.soft_offset))

    @property
    def hard_percentile(self) -> float:
        """The punitive position ``T_th + hard_offset``, clipped."""
        return min(1.0, max(0.0, self.t_th + self.hard_offset))

    def first(self) -> float:
        return self.soft_percentile


class MirrorCollector(_TwoLevelCollector):
    """True Tit-for-tat: echo the opponent's last judged action.

    Hard trim exactly in the round following a judged betrayal; soft trim
    otherwise.  Cooperation is never terminated — but under noisy
    judgements the strategy echoes false positives one-for-one, which is
    the §V motivation for redundancy and the Elastic relaxation.
    """

    name = "mirror"

    def react(self, last: RoundObservation) -> float:
        return self.hard_percentile if last.betrayal else self.soft_percentile


class GenerousCollector(_TwoLevelCollector):
    """Generous Tit-for-tat: mirror, but forgive with probability g.

    Forgiveness probabilistically breaks retaliation chains; Nowak &
    Sigmund's analysis puts the optimal ``g`` near
    ``min(1 - (T-R)/(R-S), (R-P)/(T-P))`` for prisoner's-dilemma payoffs
    — here it is simply a parameter.
    """

    def __init__(
        self,
        t_th: float,
        generosity: float = 0.3,
        soft_offset: float = 0.01,
        hard_offset: float = -0.03,
        seed: Optional[int] = None,
    ):
        super().__init__(t_th, soft_offset, hard_offset)
        if not 0.0 <= generosity <= 1.0:
            raise ValueError("generosity must be a probability")
        self.generosity = float(generosity)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self.name = f"generous{self.generosity:g}"

    def reset(self) -> None:
        # Rewind the forgiveness stream so a reused (seeded) instance
        # replays identically game over game.
        self._rng = np.random.default_rng(self._seed)

    def export_state(self) -> dict[str, Any]:
        return {"rng": rng_state(self._rng)}

    def react(self, last: RoundObservation) -> float:
        if last.betrayal and self._rng.random() >= self.generosity:
            return self.hard_percentile
        return self.soft_percentile


class TitForTwoTatsCollector(_TwoLevelCollector):
    """Punish only after two consecutive judged betrayals.

    A single (possibly spurious) judgement is absorbed; two in a row
    trigger one punitive round.  With per-round false-positive rate α the
    spurious-punishment rate drops from α to roughly α², the cheap route
    to noise tolerance Axelrod & Hamilton's variant embodies.
    """

    name = "tit-for-two-tats"

    def __init__(
        self,
        t_th: float,
        soft_offset: float = 0.01,
        hard_offset: float = -0.03,
    ):
        super().__init__(t_th, soft_offset, hard_offset)
        self._previous_betrayal = False

    def reset(self) -> None:
        self._previous_betrayal = False

    def export_state(self) -> dict[str, Any]:
        return {"previous_betrayal": self._previous_betrayal}

    def react(self, last: RoundObservation) -> float:
        punish = last.betrayal and self._previous_betrayal
        self._previous_betrayal = last.betrayal
        return self.hard_percentile if punish else self.soft_percentile

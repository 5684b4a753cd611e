"""The Tit-for-tat collector strategy (Algorithm 1, §V-A, §VI-A, §VI-D).

Tit-for-tat is a rigid trigger strategy: the collector opens with a
*soft* (lenient) trimming position and, upon the first judged betrayal,
permanently switches to a *hard* (aggressive) position — the grim-trigger
flavour of the classic strategy adapted to trimming.

Two trigger policies are provided:

* :class:`QualityTrigger` — Algorithm 1 verbatim: fire when the round's
  ``Quality_Evaluation`` score exceeds the clean-reference score plus a
  redundancy ``Red``.  Redundancy protects against benign jitter when
  utility is non-deterministic (§V).
* :class:`MixedStrategyTrigger` — the §VI-D experimental trigger: both
  parties acknowledge a declared mixed strategy with equilibrium
  probability ``p``; the collector tracks the running fraction of judged
  betrayals and fires when it exceeds the expectation ``1 - p`` plus the
  redundancy.  With noisy per-round judgements this reproduces the
  Table III termination behaviour (earlier termination for larger ``p``,
  never for ``p = 0``).
"""

from __future__ import annotations

from typing import Any, Optional

from .base import CollectorStrategy, RoundObservation

__all__ = ["QualityTrigger", "MixedStrategyTrigger", "TitForTatCollector"]


class QualityTrigger:
    """Fire when the quality score exceeds ``reference + redundancy``.

    Scores follow the library convention *higher = worse quality*, so the
    Algorithm 1 comparison ``QE(X_i) < QE(X_0) + Red`` (stated for a
    goodness metric) becomes ``score > reference + redundancy`` here.
    """

    def __init__(self, reference_score: float, redundancy: float):
        if redundancy < 0.0:
            raise ValueError("redundancy must be non-negative")
        self.reference_score = float(reference_score)
        self.redundancy = float(redundancy)

    def reset(self) -> None:
        """Stateless; present for interface uniformity."""

    def export_state(self) -> dict[str, Any]:
        """Stateless: nothing survives :meth:`reset`."""
        return {}

    def fired(self, last: RoundObservation) -> bool:
        """True when the observed quality breaches the tolerance band."""
        return last.quality > self.reference_score + self.redundancy


class MixedStrategyTrigger:
    """Running-betrayal-ratio trigger against a declared mixed strategy.

    The adversary declares playing the equilibrium position with
    probability ``p`` (and betraying with ``1 - p``); the collector
    tolerates an observed betrayal *rate* up to ``1 - p + redundancy``
    (§VI-D: the stopping condition is the first observation where the
    betrayal ratio exceeds ``1 - p + 0.05``).

    The per-round betrayal judgement comes from the observation and may be
    noisy — false positives are what terminate even fully compliant play
    in the long run (the "probability of termination converges to 1"
    remark of §V-B).  The running *ratio* is only tested after ``warmup``
    judged rounds, realizing the Algorithm 1 role of redundancy "to
    ensure that the termination round is not too small": a single early
    judgement would otherwise swing the ratio across any tolerance.
    """

    def __init__(
        self,
        equilibrium_probability: float,
        redundancy: float = 0.05,
        warmup: int = 10,
    ):
        if not 0.0 <= equilibrium_probability <= 1.0:
            raise ValueError("equilibrium_probability must be a probability")
        if redundancy < 0.0:
            raise ValueError("redundancy must be non-negative")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.equilibrium_probability = float(equilibrium_probability)
        self.redundancy = float(redundancy)
        self.warmup = int(warmup)
        self._rounds = 0
        self._betrayals = 0

    @property
    def tolerance(self) -> float:
        """The trigger threshold ``1 - p + Red`` on the betrayal rate."""
        return 1.0 - self.equilibrium_probability + self.redundancy

    @property
    def betrayal_ratio(self) -> float:
        """The current running betrayal ratio."""
        if self._rounds == 0:
            return 0.0
        return self._betrayals / self._rounds

    def reset(self) -> None:
        self._rounds = 0
        self._betrayals = 0

    def export_state(self) -> dict[str, Any]:
        """The running betrayal counters (see base ``export_state``)."""
        return {"rounds": self._rounds, "betrayals": self._betrayals}

    def fired(self, last: RoundObservation) -> bool:
        """Update the running ratio with ``last`` and test the threshold."""
        self._rounds += 1
        if last.betrayal:
            self._betrayals += 1
        if self._rounds < self.warmup:
            return False
        return self.betrayal_ratio > self.tolerance


class TitForTatCollector(CollectorStrategy):
    """Algorithm 1: soft trimming until triggered, then hard forever.

    Parameters
    ----------
    t_th:
        The headline threshold ``T_th`` of §VI-A (e.g. 0.9 or 0.97).
    trigger:
        A trigger policy (:class:`QualityTrigger` or
        :class:`MixedStrategyTrigger`); ``None`` disables triggering —
        the "assumed not to experience early terminations" setting of the
        equilibrium experiments (§VI-B).
    soft_offset / hard_offset:
        Percentile offsets of the two positions: untriggered trims at
        ``T_th + 1%`` and triggered at ``T_th - 3%`` per §VI-A.
    """

    name = "titfortat"

    def __init__(
        self,
        t_th: float,
        trigger: Any = None,
        soft_offset: float = 0.01,
        hard_offset: float = -0.03,
    ):
        if not 0.0 < t_th < 1.0:
            raise ValueError("t_th must be a percentile in (0, 1)")
        self.t_th = float(t_th)
        self.trigger = trigger
        self.soft_offset = float(soft_offset)
        self.hard_offset = float(hard_offset)
        self._triggered = False
        self._terminated_round: Optional[int] = None
        self.reset()

    # ------------------------------------------------------------------ #
    @property
    def soft_percentile(self) -> float:
        """The lenient position ``T_th + soft_offset``, clipped to [0, 1]."""
        return min(1.0, max(0.0, self.t_th + self.soft_offset))

    @property
    def hard_percentile(self) -> float:
        """The punitive position ``T_th + hard_offset``, clipped to [0, 1]."""
        return min(1.0, max(0.0, self.t_th + self.hard_offset))

    @property
    def triggered(self) -> bool:
        """Whether the grim trigger has fired in this game."""
        return self._triggered

    @property
    def terminated_round(self) -> Optional[int]:
        """Round index at which cooperation terminated (None = never).

        ``Round_terminate`` of Algorithm 1: the round whose observation
        fired the trigger.
        """
        return self._terminated_round

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        self._triggered = False
        self._terminated_round = None
        if self.trigger is not None:
            self.trigger.reset()

    def export_state(self) -> dict[str, Any]:
        state = {
            "triggered": self._triggered,
            "terminated_round": self._terminated_round,
        }
        if self.trigger is not None:
            exporter = getattr(self.trigger, "export_state", None)
            state["trigger"] = exporter() if callable(exporter) else {}
        return state

    def first(self) -> float:
        return self.soft_percentile

    def react(self, last: RoundObservation) -> float:
        if not self._triggered and self.trigger is not None:
            if self.trigger.fired(last):
                self._triggered = True
                self._terminated_round = last.index
        return self.hard_percentile if self._triggered else self.soft_percentile

"""Finite- vs infinite-horizon cooperation analysis (§IV-A).

The paper stresses that a *limited-round* collection game unravels: "when
dealing with a limited-round scenario ... adversaries may be tempted to
defect in the final round, triggering a domino effect of defections from
the second-to-last round backwards", so the game "must be ingeniously
designed to encompass an infinite number of rounds".

This module makes both halves of the argument computational:

* :func:`backward_induction` solves the finitely repeated stage game by
  backward induction; with a unique stage equilibrium (the Table I
  ultimatum game) every round plays it — cooperation is impossible for
  any finite horizon.
* :class:`InfiniteHorizonAnalysis` gives the grim-trigger folk-theorem
  condition for the infinite game: cooperation is sustainable exactly
  when the discount factor is large enough that the one-shot temptation
  is outweighed by the lost cooperative stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from .game import BimatrixGame

__all__ = ["backward_induction", "InfiniteHorizonAnalysis"]


def backward_induction(stage: BimatrixGame, rounds: int) -> List[Tuple[int, int]]:
    """Subgame-perfect path of the finitely repeated ``stage`` game.

    Backward induction over a finite repetition without state: in the
    last round only a stage Nash equilibrium is playable; since the
    continuation is then fixed and additive, the same argument applies to
    every earlier round — the domino effect of §IV-A.  The stage game
    must possess at least one pure equilibrium; with several, the first
    (lexicographically) is selected in every round, which is the standard
    selection for this textbook construction.

    Returns the per-round action profile list, length ``rounds``.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    equilibria = stage.pure_nash_equilibria()
    if not equilibria:
        raise ValueError(
            "stage game has no pure equilibrium; backward induction over "
            "pure profiles is undefined"
        )
    terminal = equilibria[0]
    return [terminal] * rounds


@dataclass(frozen=True)
class InfiniteHorizonAnalysis:
    """Grim-trigger cooperation analysis of the infinite collection game.

    Parameters are the adversary's stage payoffs in prisoner's-dilemma
    terms: ``reward`` for mutual cooperation (soft/soft), ``temptation``
    for defecting against a cooperator (hard/soft), and ``punishment``
    for the mutual-defection equilibrium (hard/hard).  The paper's
    ultimatum game instantiates these as ``p_low``, ``p_high`` and ``0``.
    """

    reward: float
    temptation: float
    punishment: float

    def __post_init__(self) -> None:
        if not self.temptation > self.reward > self.punishment:
            raise ValueError(
                "prisoner's-dilemma structure requires "
                "temptation > reward > punishment"
            )

    @property
    def critical_discount(self) -> float:
        """The folk-theorem threshold ``d* = (T - R) / (T - P)``.

        Grim trigger sustains cooperation iff the discounted cooperative
        stream beats the one-shot temptation followed by permanent
        punishment:  ``R / (1-d) >= T + d P / (1-d)``, i.e.
        ``d >= (T - R) / (T - P)``.
        """
        return (self.temptation - self.reward) / (self.temptation - self.punishment)

    def cooperation_sustainable(self, discount: float) -> bool:
        """Whether grim trigger sustains cooperation at ``discount``."""
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        return discount >= self.critical_discount

    def cooperation_value(self, discount: float) -> float:
        """Discounted value of permanent cooperation ``R / (1 - d)``."""
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        return self.reward / (1.0 - discount)

    def defection_value(self, discount: float) -> float:
        """Value of defecting now against a grim trigger.

        ``T + d P / (1 - d)``: grab the temptation once, then live at the
        punishment point forever.
        """
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        return self.temptation + discount * self.punishment / (1.0 - discount)

    def horizon_comparison(self, discount: float, rounds: int) -> dict[str, Any]:
        """Summary dict contrasting the two horizons at ``discount``.

        Used by the theory example and the ablation bench: the finite
        game's per-round play is the stage equilibrium regardless of
        ``rounds``, while the infinite game cooperates iff the discount
        clears the critical threshold.
        """
        return {
            "rounds": int(rounds),
            "finite_cooperates": False,  # unique stage NE -> unravels
            "infinite_cooperates": self.cooperation_sustainable(discount),
            "critical_discount": self.critical_discount,
            "cooperation_value": self.cooperation_value(discount),
            "defection_value": self.defection_value(discount),
        }

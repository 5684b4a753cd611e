"""The input manipulation attack against LDP data collection ([7], §VI-E).

Cheu, Smith & Ullman's input manipulation: attackers counterfeit their
*input* (here: the domain value that maximizes the estimated-mean
deviation) and then follow the perturbation protocol honestly.  The
attack is deniable and evasive: each attacker's report is individually
indistinguishable from an honest user who truly holds that input.  It is
the "potent evasion strategy against detection mechanisms" that Fig. 9
uses as its adversary.
"""

from __future__ import annotations

import numpy as np

__all__ = ["InputManipulationAttack"]


class InputManipulationAttack:
    """Poison inputs, then perturb honestly (deniable evasion).

    Parameters
    ----------
    target:
        The counterfeit input value every colluding attacker uses; for
        mean estimation on ``[-1, 1]`` the opportunistic choice is the
        domain maximum ``+1`` (or the value the adversary strategy's
        percentile position maps to).
    """

    name = "input-manipulation"

    def __init__(self, target: float = 1.0):
        self.target = float(target)

    def reports(self, mechanism, n_attackers: int) -> np.ndarray:
        """Generate attacker reports through the honest mechanism."""
        if n_attackers < 0:
            raise ValueError("n_attackers must be non-negative")
        if n_attackers == 0:
            return np.empty(0)
        inputs = np.full(n_attackers, self.target)
        return mechanism.perturb(inputs)

"""Stackelberg (leader-follower) analysis of the trimming game (§III-D, §IV).

In the online collection game the collector moves first each round (she
publishes last round's threshold on the public board), so the repeated
interaction is a Stackelberg game: the collector is the *leader*, the
adversary the *follower* who best-responds to the observed threshold.

This module solves the discretized Stackelberg problem exactly and also
exposes the best-response *dynamics* — the iterated interaction whose fixed
point is the interactive equilibrium the Elastic strategy converges to
(§VI-A, Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .arrays import Array
from .domain import percentile_grid
from .payoffs import PayoffModel

__all__ = [
    "StackelbergSolution",
    "solve_stackelberg",
    "BestResponseDynamics",
    "linear_response_fixed_point",
]


@dataclass(frozen=True)
class StackelbergSolution:
    """Solution of the discretized Stackelberg trimming game.

    ``leader_action`` is the collector's optimal trimming percentile,
    ``follower_action`` the adversary's best-response injection percentile,
    and the payoffs are evaluated at that profile.
    """

    leader_action: float
    follower_action: float
    leader_payoff: float
    follower_payoff: float


def solve_stackelberg(
    model: PayoffModel,
    grid_size: int = 201,
    tie_break: str = "pessimistic",
) -> StackelbergSolution:
    """Solve the collector-leads Stackelberg game over a percentile grid.

    For every candidate trimming percentile the adversary's best response
    is computed (the injection maximizing his payoff); the collector then
    selects the threshold whose induced profile maximizes her own payoff.

    ``tie_break`` resolves follower indifference: ``"pessimistic"`` assumes
    the adversary breaks ties against the collector (the standard strong
    Stackelberg/pessimistic mix used for robust defenses), ``"optimistic"``
    assumes ties break in the collector's favor.
    """
    if tie_break not in ("pessimistic", "optimistic"):
        raise ValueError("tie_break must be 'pessimistic' or 'optimistic'")

    x_l, x_r = model.strategy_interval()
    grid = percentile_grid(x_l, x_r, grid_size)
    adv_payoffs, col_payoffs = model.payoff_matrix(grid, grid)

    # Vectorized best-response selection over all columns at once.  Per
    # column: the follower set is every row within isclose() of the
    # column max; the tie-break picks the leader-worst (pessimistic) or
    # leader-best (optimistic) member.  Masked argmin/argmax return the
    # *first* extremal row, exactly like flatnonzero + argmin over the
    # follower subset, so this matches the per-column loop bit-for-bit.
    follower_mask = np.isclose(adv_payoffs, adv_payoffs.max(axis=0, keepdims=True))
    if tie_break == "pessimistic":
        masked = np.where(follower_mask, col_payoffs, np.inf)
        follower_rows = masked.argmin(axis=0)
    else:
        masked = np.where(follower_mask, col_payoffs, -np.inf)
        follower_rows = masked.argmax(axis=0)
    columns = np.arange(grid.size)
    leader_payoffs = col_payoffs[follower_rows, columns]
    j = int(np.argmax(leader_payoffs))
    idx = int(follower_rows[j])
    return StackelbergSolution(
        leader_action=float(grid[j]),
        follower_action=float(grid[idx]),
        leader_payoff=float(leader_payoffs[j]),
        follower_payoff=float(adv_payoffs[idx, j]),
    )


@dataclass
class BestResponseDynamics:
    """Iterated best-response interaction between collector and adversary.

    Each round the collector responds to the adversary's *previous*
    position and vice versa — the alternating-response structure of the
    experimental Elastic scheme (§VI-A):

    ``collector_response``: maps last adversary position -> new threshold.
    ``adversary_response``: maps last collector threshold -> new injection.

    :meth:`run` iterates from initial positions and records the trajectory;
    :meth:`fixed_point` solves for the interactive equilibrium by direct
    iteration with a convergence tolerance.
    """

    collector_response: Callable[[float], float]
    adversary_response: Callable[[float], float]

    def run(
        self, collector_init: float, adversary_init: float, rounds: int
    ) -> Tuple[Array, Array]:
        """Iterate the coupled responses for ``rounds`` rounds.

        Returns arrays ``(collector_path, adversary_path)`` of length
        ``rounds`` whose first entries are the initial positions.
        """
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        collector = np.empty(rounds)
        adversary = np.empty(rounds)
        collector[0] = collector_init
        adversary[0] = adversary_init
        for i in range(1, rounds):
            collector[i] = self.collector_response(adversary[i - 1])
            adversary[i] = self.adversary_response(collector[i - 1])
        return collector, adversary

    def fixed_point(
        self,
        collector_init: float,
        adversary_init: float,
        tol: float = 1e-10,
        max_iter: int = 10_000,
    ) -> Tuple[float, float]:
        """Iterate to the interactive equilibrium ``(T*, A*)``.

        Raises ``RuntimeError`` when the map fails to contract within
        ``max_iter`` iterations (e.g. response gain >= 1).
        """
        t, a = float(collector_init), float(adversary_init)
        for _ in range(max_iter):
            t_next = self.collector_response(a)
            a_next = self.adversary_response(t)
            if abs(t_next - t) < tol and abs(a_next - a) < tol:
                return t_next, a_next
            t, a = t_next, a_next
        raise RuntimeError("best-response dynamics did not converge")


def linear_response_fixed_point(
    t_th: float,
    k: float,
    collector_offset: float = -0.01,
    adversary_offset: float = -0.03,
) -> Tuple[float, float]:
    """Closed-form fixed point of the paper's linear Elastic responses.

    §VI-A specifies ``T(i+1) = T_th + k(A(i) - T_th - 1%)`` and
    ``A(i+1) = T_th - 3% + k(T(i) - T_th)``.  In offset coordinates
    ``t = T - T_th``, ``a = A - T_th`` the fixed point solves

        ``t* = k (a* + collector_offset)``,
        ``a* = adversary_offset + k t*``,

    giving ``t* = k (adversary_offset + collector_offset·(1/k)… )`` — solved
    here exactly:  ``t* = k(adversary_offset + k·t* + collector_offset)``
    hence ``t* = k(adversary_offset + collector_offset) / (1 - k²)``.

    Returns the *absolute* percentiles ``(T*, A*)``.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError("the linear response contracts only for 0 <= k < 1")
    t_star = k * (adversary_offset + collector_offset) / (1.0 - k * k)
    a_star = adversary_offset + k * t_star
    return t_th + t_star, t_th + a_star

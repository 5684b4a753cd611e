"""Table IV runner: roundwise cost of the Elastic scheme.

The Elastic dynamics start away from the interactive equilibrium (the
collector at ``T_th - 3%``, the adversary at ``T_th + 1%``) and converge
toward the fixed point of the coupled responses.  The *cost* of a round
is the remaining distance from equilibrium — how far the collector's soft
trim and the adversary's injection still are from their converged
positions — and the *roundwise cost* is its average over ``Round_no``
rounds.  Because the transient's total cost is finite, the roundwise cost
decays like ``C(k)/Round_no``; with the relaxation update rule a stronger
response ``k`` converges faster, so ``k = 0.5`` is cheaper per round than
``k = 0.1`` — the Table IV finding (see DESIGN.md §4 for the update-rule
discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.stackelberg import linear_response_fixed_point
from ..core.strategies import ElasticAdversary, ElasticCollector
from ..core.strategies.base import RoundObservation
from ..runtime import ComponentSpec, SweepRunner, TaskSpec

__all__ = [
    "CostConfig",
    "CostRow",
    "aggregate_cost",
    "cost_specs",
    "elastic_trajectory",
    "run_cost_analysis",
]


@dataclass(frozen=True)
class CostRow:
    """One Table IV row: roundwise cost for each response strength."""

    round_no: int
    cost_k_high: float
    cost_k_low: float


@dataclass(frozen=True)
class CostConfig:
    """Parameters of the Table IV sweep."""

    t_th: float = 0.9
    k_high: float = 0.5
    k_low: float = 0.1
    round_numbers: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
    rule: str = "relaxation"


def elastic_trajectory(
    t_th: float, k: float, rounds: int, rule: str = "relaxation"
):
    """Threshold/injection percentile paths of the coupled Elastic play.

    Returns ``(thresholds, injections)`` arrays of length ``rounds``,
    produced by iterating the two §VI-A response rules against each other
    (each side reacting to the other's previous position).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    collector = ElasticCollector(t_th, k, rule=rule)
    adversary = ElasticAdversary(t_th, k, rule=rule)
    collector.reset()
    adversary.reset()

    thresholds = np.empty(rounds)
    injections = np.empty(rounds)
    thresholds[0] = collector.first()
    injections[0] = adversary.first()
    for i in range(1, rounds):
        obs = RoundObservation(
            index=i,
            trim_percentile=float(thresholds[i - 1]),
            injection_percentile=float(injections[i - 1]),
            quality=0.0,
            observed_poison_ratio=0.0,
            betrayal=False,
        )
        thresholds[i] = collector.react(obs)
        injections[i] = adversary.react(obs)
    return thresholds, injections


def roundwise_cost(
    t_th: float, k: float, rounds: int, rule: str = "relaxation"
) -> float:
    """Mean distance-from-equilibrium over ``rounds`` rounds.

    ``cost_i = |T(i) - T*| + |A(i) - A*|`` against the closed-form fixed
    point of the linear responses; the average decays like
    ``total_transient / rounds``.
    """
    t_star, a_star = linear_response_fixed_point(t_th, k)
    thresholds, injections = elastic_trajectory(t_th, k, rounds, rule)
    costs = np.abs(thresholds - t_star) + np.abs(injections - a_star)
    return float(np.mean(costs))


def cost_specs(config: CostConfig) -> List[TaskSpec]:
    """The Table IV sweep as declarative cells: round_numbers × {k_high, k_low}.

    Each cell is a :class:`~repro.runtime.spec.TaskSpec` wrapping
    :func:`roundwise_cost` — deterministic (seedless), so the cell key
    depends only on the ``(t_th, k, rounds, rule)`` recipe and the
    result store can replay Table IV without recomputing a single
    trajectory.
    """
    specs: List[TaskSpec] = []
    for n in config.round_numbers:
        for which, k in (("k_high", config.k_high), ("k_low", config.k_low)):
            specs.append(
                TaskSpec(
                    task=ComponentSpec(
                        roundwise_cost,
                        {
                            "t_th": float(config.t_th),
                            "k": float(k),
                            "rounds": int(n),
                            "rule": config.rule,
                        },
                    ),
                    tags={"round_no": int(n), "which": which, "k": float(k)},
                )
            )
    return specs


def aggregate_cost(config: CostConfig, records: Sequence[float]) -> List[CostRow]:
    """Fold grid-order cell records back into the Table IV rows.

    ``records`` must be in the :func:`cost_specs` expansion order —
    ``(k_high, k_low)`` pairs per round number — which is what
    :class:`~repro.runtime.runner.SweepRunner` guarantees.
    """
    expected = 2 * len(config.round_numbers)
    if len(records) != expected:
        raise ValueError(f"expected {expected} records, got {len(records)}")
    rows: List[CostRow] = []
    for i, n in enumerate(config.round_numbers):
        rows.append(
            CostRow(
                round_no=int(n),
                cost_k_high=float(records[2 * i]),
                cost_k_low=float(records[2 * i + 1]),
            )
        )
    return rows


def run_cost_analysis(
    config: CostConfig, store: Optional[object] = None
) -> List[CostRow]:
    """Produce the Table IV rows (on the sweep runtime).

    The hand-rolled per-row loop this replaces called
    :func:`roundwise_cost` twice per round number; the cells now flow
    through :class:`~repro.runtime.runner.SweepRunner` — numerically
    identical, with result-store caching.
    """
    runner = SweepRunner(store=store)
    return aggregate_cost(config, runner.run(cost_specs(config)))

"""Table III runner: utility of adversaries deviating from equilibrium.

The adversary plays the two-point mixed strategy of §VI-D: the
equilibrium position (99th percentile) with probability ``p`` and the
greedy sub-threshold position (90th) with ``1 - p``.  The Tit-for-tat
collector uses the running-betrayal-ratio trigger with 5% redundancy;
once triggered, trimming permanently hardens.  Reported per ``p``:

* the average termination round of Tit-for-tat (non-terminating games
  are recorded as ``rounds + 5``, matching the paper's ``p = 0`` row of
  25 for a 20-round game);
* the proportion of untrimmed poison in the remaining data, for both
  Tit-for-tat and Elastic.

The (p × scheme × repetition) grid runs on the :mod:`repro.runtime`
sweep runner with ``SeedSequence``-derived per-cell seeds; the default
:class:`~repro.runtime.runner.GameRecord` reducer already carries the
termination round and poison fraction, so no custom reducer is needed
and ``run_scenario(..., workers=N)`` parallelizes the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.engine import NoisyPositionJudge
from ..core.quality import TailMassEvaluator
from ..core.strategies import (
    ElasticCollector,
    MixedAdversary,
    MixedStrategyTrigger,
    TitForTatCollector,
)
from ..runtime import ComponentSpec, StrategyPair, SweepGrid, SweepRunner

__all__ = [
    "NonEquilibriumConfig",
    "NonEquilibriumRow",
    "aggregate_nonequilibrium",
    "nonequilibrium_plan",
    "run_nonequilibrium",
]


@dataclass(frozen=True)
class NonEquilibriumRow:
    """One Table III row."""

    p: float
    average_termination_rounds: float
    titfortat_poison_fraction: float
    elastic_poison_fraction: float


@dataclass(frozen=True)
class NonEquilibriumConfig:
    """Parameters of the Table III experiment (§VI-D defaults)."""

    dataset: str = "control"
    t_th: float = 0.9
    attack_ratio: float = 0.2
    rounds: int = 20
    repetitions: int = 5
    batch_size: int = 100
    redundancy: float = 0.05
    elastic_k: float = 0.5
    judge_miss_rate: float = 0.15
    judge_false_positive_rate: float = 0.075
    p_values: Sequence[float] = (
        0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
    )
    seed: int = 0


def _pairs(config: NonEquilibriumConfig) -> tuple:
    """Two pairs per ``p``: the triggered Tit-for-tat and the Elastic."""
    pairs = []
    for p in config.p_values:
        adversary = ComponentSpec(MixedAdversary, {"p": float(p)}, seeded=True)
        pairs.append(
            StrategyPair(
                name=f"titfortat@p={p:g}",
                collector=ComponentSpec(
                    TitForTatCollector,
                    {
                        "t_th": config.t_th,
                        "trigger": ComponentSpec(
                            MixedStrategyTrigger,
                            {
                                "equilibrium_probability": float(p),
                                "redundancy": config.redundancy,
                            },
                        ),
                    },
                ),
                adversary=adversary,
                collector_name="titfortat",
                adversary_name=f"mixed(p={p:g})",
                tags={"p": float(p), "scheme": "titfortat"},
            )
        )
        pairs.append(
            StrategyPair(
                name=f"elastic@p={p:g}",
                collector=ComponentSpec(
                    ElasticCollector,
                    {"t_th": config.t_th, "k": config.elastic_k},
                ),
                adversary=adversary,
                collector_name="elastic",
                adversary_name=f"mixed(p={p:g})",
                tags={"p": float(p), "scheme": "elastic"},
            )
        )
    return tuple(pairs)


def nonequilibrium_plan(config: NonEquilibriumConfig) -> List:
    """The §VI-D sweep as grid-order specs (default reducer applies)."""
    grid = SweepGrid(
        pairs=_pairs(config),
        datasets=(config.dataset,),
        attack_ratios=(config.attack_ratio,),
        repetitions=config.repetitions,
        rounds=config.rounds,
        batch_size=config.batch_size,
        anchor="batch",
        # The default GameRecord reducer is summary-only: lean boards.
        store_retained=False,
        quality=ComponentSpec(TailMassEvaluator),
        judge=ComponentSpec(
            NoisyPositionJudge,
            {
                # greedy (0.90) is below the boundary, equilibrium (0.99)
                # above it
                "boundary": config.t_th + 0.005,
                "miss_rate": config.judge_miss_rate,
                "false_positive_rate": config.judge_false_positive_rate,
            },
            seeded=True,
        ),
        seed=config.seed,
    )
    return grid.expand()


def aggregate_nonequilibrium(
    config: NonEquilibriumConfig, records: Sequence
) -> List[NonEquilibriumRow]:
    """Fold grid-order :class:`GameRecord` cells into the Table III rows."""
    cap = config.rounds + 5  # the paper's never-terminated bookkeeping value
    grouped: dict = {}
    for record in records:
        grouped.setdefault((record["p"], record["scheme"]), []).append(record)

    rows: List[NonEquilibriumRow] = []
    for p in config.p_values:
        tft = grouped[(float(p), "titfortat")]
        elastic = grouped[(float(p), "elastic")]
        terminations = [
            cap if r.termination_round is None else r.termination_round
            for r in tft
        ]
        rows.append(
            NonEquilibriumRow(
                p=float(p),
                average_termination_rounds=float(np.mean(terminations)),
                titfortat_poison_fraction=float(
                    np.mean([r.poison_retained_fraction for r in tft])
                ),
                elastic_poison_fraction=float(
                    np.mean([r.poison_retained_fraction for r in elastic])
                ),
            )
        )
    return rows


def run_nonequilibrium(
    config: NonEquilibriumConfig, store: Optional[object] = None
) -> List[NonEquilibriumRow]:
    """Run the §VI-D sweep over the mixed-strategy parameter ``p``."""
    runner = SweepRunner(store=store)
    return aggregate_nonequilibrium(config, runner.run(nonequilibrium_plan(config)))

"""Empirical meta-game analysis: simulate the strategy tournament.

The paper's analytical model predicts the interactive equilibrium; this
module closes the loop empirically.  Every collector strategy is played
against every adversary strategy in full collection games; each cell of
the resulting *empirical payoff matrix* is scored the way §III-B defines
payoffs — the adversary earns the surviving poison mass (weighted by its
position, the ``P(x)`` reading) and the collector loses that plus the
trimming overhead (the benign mass she removed).

Solving the matrix as a zero-sum game with the minimax LP then yields an
*empirical* Stackelberg/minimax profile, which the tests compare against
the analytic expectations: tolerant collectors are exploited by evasive
adversaries, the grim trigger dominates against extreme play, and the
empirical equilibrium concentrates on the adaptive schemes.

Execution goes through the :mod:`repro.runtime` sweep runner: the
(collector × adversary × repetition) grid expands into self-contained
:class:`~repro.runtime.spec.GameSpec` cells with collision-free
``SeedSequence``-derived seeds (the previous ``seed + 101*rep + 13*i +
7*j`` arithmetic collided across cells, silently correlating
repetitions), and ``run_scenario(..., workers=N)`` plays the grid on a
process pool — byte-identical to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.game import solve_zero_sum
from ..core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    JustBelowAdversary,
    MixedAdversary,
    OstrichCollector,
    StaticCollector,
    TitForTatCollector,
)
from ..runtime import ComponentSpec, SweepGrid, SweepRunner, cross_pairs

__all__ = [
    "TournamentConfig",
    "TournamentResult",
    "aggregate_tournament",
    "run_tournament",
    "tournament_plan",
]


def _default_collectors(t_th: float) -> Dict[str, ComponentSpec]:
    return {
        "ostrich": ComponentSpec(OstrichCollector),
        "static": ComponentSpec(StaticCollector, {"threshold": t_th}),
        "titfortat": ComponentSpec(
            TitForTatCollector, {"t_th": t_th, "trigger": None}
        ),
        "elastic0.5": ComponentSpec(ElasticCollector, {"t_th": t_th, "k": 0.5}),
    }


def _default_adversaries(t_th: float) -> Dict[str, ComponentSpec]:
    return {
        "extreme@0.99": ComponentSpec(FixedAdversary, {"percentile": 0.99}),
        "just-below": ComponentSpec(
            JustBelowAdversary, {"initial_threshold": t_th}
        ),
        "mixed(p=0.5)": ComponentSpec(MixedAdversary, {"p": 0.5}, seeded=True),
        "elastic0.5": ComponentSpec(ElasticAdversary, {"t_th": t_th, "k": 0.5}),
    }


@dataclass(frozen=True)
class TournamentConfig:
    """Parameters of the empirical meta-game."""

    dataset: str = "control"
    t_th: float = 0.9
    attack_ratio: float = 0.2
    rounds: int = 10
    repetitions: int = 2
    batch_size: int = 100
    overhead_weight: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class TournamentResult:
    """Empirical payoff matrices and the solved meta-game."""

    collector_names: Tuple[str, ...]
    adversary_names: Tuple[str, ...]
    adversary_payoffs: np.ndarray  # (n_adversaries, n_collectors)
    collector_payoffs: np.ndarray
    adversary_mixture: np.ndarray
    collector_mixture: np.ndarray
    game_value: float

    def best_collector(self) -> str:
        """Collector with the largest mass in the minimax mixture."""
        return self.collector_names[int(np.argmax(self.collector_mixture))]


def _score_game(result, overhead_weight: float) -> Tuple[float, float]:
    """(adversary, collector) payoffs of one finished game.

    Adversary payoff: surviving poison mass per round, weighted by the
    injection percentile (a surviving extreme value deviates more —
    the increasing-``P(x)`` reading of §III-B).  Collector payoff: the
    zero-sum negation minus the trimming overhead (benign mass removed).

    Works off the board's column arrays — no per-round entry objects are
    materialized, which keeps rep-batched results cheap to reduce.  The
    per-round terms are accumulated left to right (``sum`` over the term
    list), preserving the exact float sequence of the original
    entry-loop accumulation.
    """
    cols = result.board.columns
    weight = np.where(
        np.isnan(cols.injection_percentile), 0.0, cols.injection_percentile
    )
    n_benign = cols.n_collected - cols.n_poison_injected
    n_benign_kept = cols.n_retained - cols.n_poison_retained
    denom = np.maximum(1, n_benign)
    poison_gain = float(sum((weight * cols.n_poison_retained / denom).tolist()))
    benign_trimmed = float(sum(((n_benign - n_benign_kept) / denom).tolist()))
    n = cols.rounds
    adversary = poison_gain / n
    collector = -adversary - overhead_weight * benign_trimmed / n
    return adversary, collector


def _payoff_reduce(spec, result, overhead_weight: float) -> dict:
    """In-worker reducer: tags plus the two §III-B payoffs."""
    adversary, collector = _score_game(result, overhead_weight)
    return {
        "collector": spec.tags["collector"],
        "adversary": spec.tags["adversary"],
        "rep": spec.tags["rep"],
        "adversary_payoff": adversary,
        "collector_payoff": collector,
    }


def tournament_plan(config: TournamentConfig) -> Tuple[List, Callable]:
    """The meta-game's declarative half: grid-order specs plus reducer."""
    collectors = _default_collectors(config.t_th)
    adversaries = _default_adversaries(config.t_th)

    grid = SweepGrid(
        pairs=cross_pairs(collectors, adversaries),
        datasets=(config.dataset,),
        attack_ratios=(config.attack_ratio,),
        repetitions=config.repetitions,
        rounds=config.rounds,
        batch_size=config.batch_size,
        anchor="reference",
        # The payoff reducer only reads per-round counts, so the games
        # run on lean boards — no per-round retained arrays are kept.
        store_retained=False,
        seed=config.seed,
    )
    reduce = partial(_payoff_reduce, overhead_weight=config.overhead_weight)
    return grid.expand(), reduce


def aggregate_tournament(
    config: TournamentConfig, records: Sequence[dict]
) -> TournamentResult:
    """Build and solve the empirical payoff matrices from cell records."""
    collector_names = tuple(_default_collectors(config.t_th))
    adversary_names = tuple(_default_adversaries(config.t_th))

    # Aggregate repetitions in grid order: the per-cell means are summed
    # in a fixed sequence, so the matrices are byte-identical for any
    # worker count.
    cells: Dict[Tuple[str, str], list] = {}
    for record in records:
        key = (record["adversary"], record["collector"])
        cells.setdefault(key, []).append(record)

    adv_matrix = np.zeros((len(adversary_names), len(collector_names)))
    col_matrix = np.zeros_like(adv_matrix)
    for i, aname in enumerate(adversary_names):
        for j, cname in enumerate(collector_names):
            reps = cells[(aname, cname)]
            adv_matrix[i, j] = float(
                np.mean([r["adversary_payoff"] for r in reps])
            )
            col_matrix[i, j] = float(
                np.mean([r["collector_payoff"] for r in reps])
            )

    # Solve the zero-sum reading of the meta-game (adversary maximizes
    # surviving weighted poison; the overhead enters the collector's own
    # matrix but not the adversarial part).
    adv_mix, col_mix, value = solve_zero_sum(adv_matrix)
    return TournamentResult(
        collector_names=collector_names,
        adversary_names=adversary_names,
        adversary_payoffs=adv_matrix,
        collector_payoffs=col_matrix,
        adversary_mixture=adv_mix,
        collector_mixture=col_mix,
        game_value=float(value),
    )


def run_tournament(
    config: TournamentConfig, store: Optional[object] = None
) -> TournamentResult:
    """Play the full strategy cross-product and solve the meta-game."""
    specs, reduce = tournament_plan(config)
    runner = SweepRunner(reduce=reduce, store=store)
    return aggregate_tournament(config, runner.run(specs))

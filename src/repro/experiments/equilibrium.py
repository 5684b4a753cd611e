"""Fig. 4 / Fig. 5 runner: k-means quality under equilibrium play.

For each dataset, attack ratio and scheme, play the 20-round collection
game, cluster the retained data with k-means, and report the two series
the figures plot: the clustering SSE and the Distance between the fitted
centroids and the clean ground-truth centroids (Hungarian-matched).

The (scheme × attack ratio × repetition) grid runs on the
:mod:`repro.runtime` sweep runner: per-cell seeds are derived with
``SeedSequence`` spawn keys (the previous ``hash(scheme)``-based mixing
was not even stable across interpreter runs), the k-means fit happens
*inside* the worker so only the two scalars cross the process boundary,
and ``run_scenario(..., workers=N)`` parallelizes the panel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.quality import TailMassEvaluator
from ..datasets.registry import DATASETS
from ..ml.kmeans import kmeans
from ..ml.metrics import centroid_distance, sse as metric_sse
from ..runtime import (
    USER_CHANNEL,
    ComponentSpec,
    StrategyPair,
    SweepGrid,
    SweepRunner,
    load_reference,
)
from .schemes import SCHEMES, scheme_specs

__all__ = [
    "EquilibriumConfig",
    "EquilibriumCell",
    "aggregate_kmeans",
    "kmeans_plan",
    "run_kmeans_experiment",
]


@dataclass(frozen=True)
class EquilibriumConfig:
    """Parameters of one Fig. 4/5 panel.

    Defaults are scaled for benchmark runtime; the paper's settings are
    20 rounds averaged over 100 repetitions — raise ``repetitions`` to
    match.
    """

    dataset: str = "control"
    t_th: float = 0.9
    attack_ratios: Sequence[float] = (0.0, 0.002, 0.004, 0.006, 0.008, 0.01)
    schemes: Sequence[str] = tuple(s for s in SCHEMES if s != "groundtruth")
    rounds: int = 20
    repetitions: int = 3
    batch_size: int = 100
    dataset_size: Optional[int] = None
    seed: int = 0


@dataclass(frozen=True)
class EquilibriumCell:
    """One (scheme, attack ratio) measurement: mean SSE and Distance."""

    scheme: str
    attack_ratio: float
    sse: float
    distance: float


def _ground_truth_centroids(data: np.ndarray, n_clusters: int, seed: int):
    result = kmeans(data, n_clusters, seed=seed, n_init=10)
    return result.centroids


def _kmeans_reduce(
    spec,
    result,
    n_clusters: int,
    reference_centroids: np.ndarray,
) -> dict:
    """In-worker reducer: fit k-means on the retained data, score it.

    The fitted model is initialized from the clean ground-truth centroids
    (a warm start), so the reported SSE and Distance measure how far the
    poisoned-and-trimmed data *pulls* the clustering away from the truth
    rather than k-means' own restart noise.  SSE is evaluated on the
    clean dataset against the fitted centroids — this is what makes both
    effects visible: surviving poison drags centroids (SSE up) and
    over-trimming shrinks the represented tail (SSE up).
    """
    data = load_reference(spec.dataset, spec.dataset_size)
    fit = kmeans(
        result.retained_data(),
        n_clusters,
        seed=spec.child_seed(USER_CHANNEL),
        init=reference_centroids,
    )
    return {
        "scheme": spec.tags["pair"],
        "attack_ratio": spec.tags["attack_ratio"],
        "rep": spec.tags["rep"],
        "sse": metric_sse(data, fit.centroids),
        "distance": centroid_distance(fit.centroids, reference_centroids),
    }


def kmeans_plan(config: EquilibriumConfig) -> Tuple[List, Callable]:
    """The panel's declarative half: grid-order specs plus the reducer.

    The ground-truth centroids are fitted here (once, on the clean
    dataset) and bound into the picklable reducer partial; the scenario
    layer and :func:`run_kmeans_experiment` both execute this plan
    through a :class:`~repro.runtime.runner.SweepRunner`.
    """
    data = load_reference(config.dataset, config.dataset_size)
    n_clusters = DATASETS[config.dataset].clusters
    reference_centroids = _ground_truth_centroids(data, n_clusters, config.seed)

    grid = SweepGrid(
        pairs=tuple(
            StrategyPair(scheme, *scheme_specs(scheme, config.t_th))
            for scheme in config.schemes
        ),
        datasets=(config.dataset,),
        dataset_size=config.dataset_size,
        attack_ratios=tuple(config.attack_ratios),
        repetitions=config.repetitions,
        rounds=config.rounds,
        batch_size=config.batch_size,
        anchor="reference",
        quality=ComponentSpec(TailMassEvaluator),
        seed=config.seed,
    )
    reduce = partial(
        _kmeans_reduce,
        n_clusters=n_clusters,
        reference_centroids=reference_centroids,
    )
    return grid.expand(), reduce


def aggregate_kmeans(
    config: EquilibriumConfig, records: Sequence[dict]
) -> List[EquilibriumCell]:
    """Average repetitions per (scheme, ratio) in grid order.

    Cells are emitted in the scheme-major order the figures plot.
    """
    grouped: dict = {}
    for record in records:
        grouped.setdefault(
            (record["scheme"], record["attack_ratio"]), []
        ).append(record)
    cells: List[EquilibriumCell] = []
    for scheme in config.schemes:
        for ratio in config.attack_ratios:
            reps = grouped[(scheme, float(ratio))]
            cells.append(
                EquilibriumCell(
                    scheme=scheme,
                    attack_ratio=float(ratio),
                    sse=float(np.mean([r["sse"] for r in reps])),
                    distance=float(np.mean([r["distance"] for r in reps])),
                )
            )
    return cells


def run_kmeans_experiment(
    config: EquilibriumConfig, store: Optional[object] = None
) -> List[EquilibriumCell]:
    """Run one full panel and return all (scheme, ratio) cells."""
    specs, reduce = kmeans_plan(config)
    runner = SweepRunner(reduce=reduce, store=store)
    return aggregate_kmeans(config, runner.run(specs))

"""Collector and adversary strategies of the online trimming game."""

from .adversaries import (
    FixedAdversary,
    JustBelowAdversary,
    MixedAdversary,
    NullAdversary,
    UniformRangeAdversary,
)
from .base import (
    AdversaryStrategy,
    CollectorStrategy,
    RoundObservation,
    RoundObservationBatch,
)
from .baselines import OstrichCollector, StaticCollector
from .batched import (
    AdversaryLanes,
    CollectorLanes,
    FallbackAdversaryLanes,
    FallbackCollectorLanes,
)
from .elastic import ElasticAdversary, ElasticCollector
from .titfortat import MixedStrategyTrigger, QualityTrigger, TitForTatCollector
from .variants import GenerousCollector, MirrorCollector, TitForTwoTatsCollector

__all__ = [
    "AdversaryStrategy",
    "CollectorStrategy",
    "RoundObservation",
    "RoundObservationBatch",
    "CollectorLanes",
    "AdversaryLanes",
    "FallbackCollectorLanes",
    "FallbackAdversaryLanes",
    "OstrichCollector",
    "StaticCollector",
    "TitForTatCollector",
    "QualityTrigger",
    "MixedStrategyTrigger",
    "ElasticCollector",
    "ElasticAdversary",
    "NullAdversary",
    "FixedAdversary",
    "UniformRangeAdversary",
    "JustBelowAdversary",
    "MixedAdversary",
    "MirrorCollector",
    "GenerousCollector",
    "TitForTwoTatsCollector",
]

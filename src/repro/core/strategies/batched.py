"""Vectorized strategy lanes: L lockstep games react in one array op.

A lockstep game (:class:`~repro.core.session.BatchedGameSession`) steps
L games ("lanes") through one round of shared kernels.  Strategies are
the only per-round Python it cannot vectorize generically — each lane
carries its own instance (own parameters, own RNG seeded with that
lane's derivation-channel child, own diverging state once the games
differ).  This module closes that gap with the **lane** protocol:

* :class:`CollectorLanes` / :class:`AdversaryLanes` — the vectorized
  strategy protocol: ``first_many() -> (L,)`` and
  ``react_many(observation_batch) -> (L,)`` percentile arrays (adversary
  lanes use ``NaN`` for "no injection").
* the exact-type registries ``_COLLECTOR_LANES`` / ``_ADVERSARY_LANES``
  map every shipped strategy (tit-for-tat, elastic, the baselines, the
  adversary family, the tit-for-tat variants) to its array-native lane
  class.  The fusion planner
  (:func:`~repro.core.fusion.fused_collector_lanes` /
  :func:`~repro.core.fusion.fused_adversary_lanes`) reads them to build
  one program per strategy family; anything unregistered — including
  *subclasses* of shipped strategies, which may override ``react`` —
  lands on the documented per-lane fallback loop
  (:class:`FallbackCollectorLanes` / :class:`FallbackAdversaryLanes`)
  that simply calls each instance round by round.

Lane programs start from their instances' current state, so a game
built from freshly reset instances starts at round 1.

Byte-identity contract: lane outputs equal, bit for bit, what the L solo
instances would have returned — vector implementations use the same
elementwise float64 expressions as the scalar ``react`` bodies, and any
per-lane RNG draw (mixed/uniform adversaries, generous forgiveness) is
taken from that lane's own Generator under exactly the solo call
conditions.  After the game, :meth:`CollectorLanes.finalize` writes
diverged state (grim-trigger flags, elastic positions) back onto the
instances so post-game inspection matches solo play.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..arrays import Array
from .adversaries import (
    FixedAdversary,
    JustBelowAdversary,
    MixedAdversary,
    NullAdversary,
    UniformRangeAdversary,
)
from .base import RoundObservationBatch
from .baselines import OstrichCollector, StaticCollector
from .elastic import ElasticAdversary, ElasticCollector
from .titfortat import MixedStrategyTrigger, QualityTrigger, TitForTatCollector
from .variants import (
    GenerousCollector,
    MirrorCollector,
    TitForTwoTatsCollector,
)

__all__ = [
    "CollectorLanes",
    "AdversaryLanes",
    "FallbackCollectorLanes",
    "FallbackAdversaryLanes",
]


def _column(instances: Sequence[Any], attr: str) -> Array:
    """(L,) float64 parameter column packed from per-lane attributes."""
    return np.array([float(getattr(inst, attr)) for inst in instances])


class _Lanes:
    """Shared plumbing: per-rep instances plus the lockstep lifecycle."""

    #: Whether this implementation is a vectorized fast path (False for
    #: the per-rep fallback loops) — surfaced for tests and diagnostics.
    vectorized = True

    #: Fusion contract (audited by conformance rule CONF006): the
    #: strategy *family* this lane vectorizes — instances of one family
    #: fuse into a single lane group even when their parameters differ —
    #: and the names of the per-lane parameters the lane packs into
    #: ``(L,)`` columns.  Empty family means "never fuses" (the
    #: fallback loops); registered lane classes must declare both.
    #: ``fusion_params`` lists *constants* only — packed at build and
    #: never mutated (audited statically by REP006); running per-lane
    #: state columns (EMAs, betrayal latches) are declared separately
    #: in ``fusion_state``.
    fusion_family: str = ""
    fusion_params: Tuple[str, ...] = ()
    fusion_state: Tuple[str, ...] = ()

    @classmethod
    def group_key(cls, inst: Any) -> object:
        """Sub-family key: instances fuse only within one key.

        ``None`` (the default) means every instance of the strategy
        class fuses together.  Lanes whose vector program depends on a
        structural property (e.g. the tit-for-tat *trigger kind*)
        return that property so the planner splits on it.
        """
        return None

    def __init__(self, instances: Sequence[Any]) -> None:
        self.instances = list(instances)
        if not self.instances:
            raise ValueError("lanes need at least one instance")

    @property
    def n_reps(self) -> int:
        """Number of repetition lanes."""
        return len(self.instances)

    def finalize(self) -> None:
        """Write diverged lane state back onto the instances (optional)."""


class CollectorLanes(_Lanes):
    """Vectorized collector protocol across R repetition lanes."""

    def first_many(self) -> Array:
        """(R,) trimming percentiles for round 1."""
        raise NotImplementedError

    def react_many(self, last: RoundObservationBatch) -> Array:
        """(R,) trimming percentiles for the round after ``last``."""
        raise NotImplementedError


class AdversaryLanes(_Lanes):
    """Vectorized adversary protocol; ``NaN`` marks "no injection"."""

    def first_many(self) -> Array:
        """(R,) injection percentiles for round 1 (NaN = none)."""
        raise NotImplementedError

    def react_many(self, last: RoundObservationBatch) -> Array:
        """(R,) injection percentiles for the round after ``last``."""
        raise NotImplementedError


# --------------------------------------------------------------------- #
# fallback loops (any strategy, unconditionally byte-identical)
# --------------------------------------------------------------------- #
class FallbackCollectorLanes(CollectorLanes):
    """Per-rep loop for collectors without an array-native lane.

    Each round, rep ``r``'s instance receives the scalar
    :class:`~repro.core.strategies.base.RoundObservation` sliced from the
    observation batch — exactly the object its solo game would have seen
    — so arbitrary user strategies (stateful, randomized, anything)
    batch correctly at the cost of R Python calls per round.
    """

    vectorized = False
    fusion_family = "fallback"
    fusion_params = ()

    def first_many(self) -> Array:
        return np.array([float(inst.first()) for inst in self.instances])

    def react_many(self, last: RoundObservationBatch) -> Array:
        return np.array(
            [
                float(inst.react(last.rep(r)))
                for r, inst in enumerate(self.instances)
            ]
        )


class FallbackAdversaryLanes(AdversaryLanes):
    """Per-rep loop for adversaries without an array-native lane."""

    vectorized = False
    fusion_family = "fallback"
    fusion_params = ()

    @staticmethod
    def _as_position(value: Optional[float]) -> float:
        return np.nan if value is None else float(value)

    def first_many(self) -> Array:
        return np.array(
            [self._as_position(inst.first()) for inst in self.instances]
        )

    def react_many(self, last: RoundObservationBatch) -> Array:
        return np.array(
            [
                self._as_position(inst.react(last.rep(r)))
                for r, inst in enumerate(self.instances)
            ]
        )


# --------------------------------------------------------------------- #
# collectors
# --------------------------------------------------------------------- #
class _ConstantCollectorLanes(CollectorLanes):
    """Ostrich / static: the same position every round, per rep."""

    fusion_family = "constant"
    fusion_params = ("threshold",)

    @classmethod
    def build(cls, instances: Sequence[Any]) -> Optional["_ConstantCollectorLanes"]:
        return cls(instances)

    def __init__(self, instances: Sequence[Any]) -> None:
        super().__init__(instances)
        self._values = np.array([float(inst.first()) for inst in instances])

    def first_many(self) -> Array:
        return self._values

    def react_many(self, last: RoundObservationBatch) -> Array:
        return self._values


class _TitForTatLanes(CollectorLanes):
    """Algorithm 1 vectorized: per-rep grim-trigger state as arrays.

    Supports the shipped triggers: ``None`` (never fires),
    :class:`QualityTrigger` (stateless vector comparison) and
    :class:`MixedStrategyTrigger` (per-rep running betrayal counters).
    Mirroring the solo path, a rep's trigger stops updating once fired.
    Per-lane parameters (thresholds, trigger levels, counters) are
    packed into ``(L,)`` columns, so lanes with *different* parameters
    fuse as long as they share a trigger kind (the ``group_key``).
    """

    fusion_family = "titfortat"
    fusion_params = (
        "soft_percentile",
        "hard_percentile",
        "fire_level",
        "tolerance",
        "warmup",
    )

    @classmethod
    def group_key(cls, inst: Any) -> object:
        return type(inst.trigger)

    @classmethod
    def build(cls, instances: Sequence[Any]) -> Optional["_TitForTatLanes"]:
        triggers = [inst.trigger for inst in instances]
        kinds = {type(t) for t in triggers}
        if len(kinds) != 1:
            return None
        kind = kinds.pop()
        if kind is type(None):
            return cls(instances, mode="none")
        if kind is QualityTrigger:
            return cls(instances, mode="quality")
        if kind is MixedStrategyTrigger:
            return cls(instances, mode="mixed")
        return None  # user trigger: per-rep fallback

    def __init__(self, instances: Sequence[Any], mode: str) -> None:
        super().__init__(instances)
        self._mode = mode
        self._soft = _column(instances, "soft_percentile")
        self._hard = _column(instances, "hard_percentile")
        # Lane state seeds from the instances' *current* state (not a
        # fresh game), so lanes built mid-game — the DefenseService
        # multiplexing live sessions — continue each lane exactly where
        # its solo instance stands.
        self._triggered = np.array(
            [bool(inst._triggered) for inst in instances]
        )
        self._terminated: List[Optional[int]] = [
            inst._terminated_round for inst in instances
        ]
        if mode == "quality":
            # Precomputing the scalar sum per lane reproduces the solo
            # trigger's `quality > reference_score + redundancy` bytes.
            self._fire_level = np.array(
                [
                    float(inst.trigger.reference_score)
                    + float(inst.trigger.redundancy)
                    for inst in instances
                ]
            )
        elif mode == "mixed":
            self._tolerance = np.array(
                [float(inst.trigger.tolerance) for inst in instances]
            )
            self._warmup = np.array(
                [int(inst.trigger.warmup) for inst in instances],
                dtype=np.int64,
            )
            self._rounds = np.array(
                [inst.trigger._rounds for inst in instances], dtype=np.int64
            )
            self._betrayals = np.array(
                [inst.trigger._betrayals for inst in instances],
                dtype=np.int64,
            )

    def _fired(self, last: RoundObservationBatch, active: Array) -> Array:
        if self._mode == "none":
            return np.zeros(self.n_reps, dtype=bool)
        if self._mode == "quality":
            return last.quality > self._fire_level
        # mixed: counters only advance while the rep is untriggered,
        # matching the solo short-circuit in TitForTatCollector.react.
        self._rounds[active] += 1
        self._betrayals[active] += last.betrayal[active]
        with np.errstate(invalid="ignore"):
            ratio = self._betrayals / np.maximum(self._rounds, 1)
        return (self._rounds >= self._warmup) & (ratio > self._tolerance)

    def react_many(self, last: RoundObservationBatch) -> Array:
        active = ~self._triggered
        if active.any() and self._mode != "none":
            newly = active & self._fired(last, active)
            for r in np.flatnonzero(newly):
                self._terminated[r] = last.index
            self._triggered |= newly
        return np.where(self._triggered, self._hard, self._soft)

    def first_many(self) -> Array:
        return self._soft.copy()

    def finalize(self) -> None:
        for r, inst in enumerate(self.instances):
            inst._triggered = bool(self._triggered[r])
            inst._terminated_round = self._terminated[r]
            if self._mode == "mixed":
                # Restore the per-rep trigger counters so post-game
                # inspection (betrayal_ratio etc.) matches solo play.
                inst.trigger._rounds = int(self._rounds[r])
                inst.trigger._betrayals = int(self._betrayals[r])


class _ElasticCollectorLanes(CollectorLanes):
    """Algorithm 2 vectorized: the proportional response as array math.

    Every parameter is an ``(L,)`` column, the update rule a boolean
    mask — lanes with different ``t_th``/``k``/offsets and even
    different rules (`paper` vs `relaxation`) fuse into one program.
    """

    fusion_family = "elastic"
    fusion_params = (
        "t_th",
        "k",
        "rule",
        "target_offset",
        "soft_offset",
        "hard_offset",
    )
    fusion_state = ("current",)

    @classmethod
    def build(cls, instances: Sequence[Any]) -> Optional["_ElasticCollectorLanes"]:
        return cls(instances)

    def __init__(self, instances: Sequence[Any]) -> None:
        super().__init__(instances)
        self._t_th = _column(instances, "t_th")
        self._k = _column(instances, "k")
        self._target_offset = _column(instances, "target_offset")
        # Precomputed per lane exactly as the scalar body sums them.
        self._soft = np.array(
            [float(inst.t_th + inst.soft_offset) for inst in instances]
        )
        self._hard = np.array(
            [float(inst.t_th + inst.hard_offset) for inst in instances]
        )
        self._paper = np.array(
            [inst.rule == "paper" for inst in instances], dtype=bool
        )
        self._first = np.array([float(inst.first()) for inst in instances])
        # Seed from current instance positions (mid-game lane builds).
        self._current = np.array([float(inst._current) for inst in instances])

    def first_many(self) -> Array:
        return self._first.copy()

    def react_many(self, last: RoundObservationBatch) -> Array:
        injection = last.injection_percentile
        observed = ~np.isnan(injection)
        # Algorithm 2's quality fallback, elementwise identical to the
        # scalar `_quality_fallback`.
        qe = np.minimum(1.0, np.maximum(0.0, last.quality))
        weight = self._k * qe
        fallback = (1.0 - weight) * self._soft + weight * self._hard
        target = self._t_th + self._k * (
            injection - self._t_th + self._target_offset
        )
        # Both rules evaluate elementwise; the mask selects per lane.
        ema = (1.0 - self._k) * self._current + self._k * target
        responded = np.where(self._paper, target, ema)
        new = np.where(observed, responded, fallback)
        self._current = np.minimum(1.0, np.maximum(0.0, new))
        return self._current

    def finalize(self) -> None:
        for r, inst in enumerate(self.instances):
            inst._current = float(self._current[r])


class _MirrorLanes(CollectorLanes):
    """True tit-for-tat: echo the judged betrayal one round."""

    fusion_family = "mirror"
    fusion_params = ("soft_percentile", "hard_percentile")

    @classmethod
    def build(cls, instances: Sequence[Any]) -> Optional["_MirrorLanes"]:
        return cls(instances)

    def __init__(self, instances: Sequence[Any]) -> None:
        super().__init__(instances)
        self._soft = _column(instances, "soft_percentile")
        self._hard = _column(instances, "hard_percentile")

    def first_many(self) -> Array:
        return self._soft.copy()

    def react_many(self, last: RoundObservationBatch) -> Array:
        return np.where(last.betrayal, self._hard, self._soft)


class _GenerousLanes(_MirrorLanes):
    """Generous tit-for-tat: the forgiveness draw stays per rep.

    The solo path draws from the forgiveness stream **only on judged
    betrayals** (Python short-circuit), so the lanes replicate exactly
    that: rep ``r``'s Generator advances iff ``betrayal[r]``.
    """

    fusion_family = "generous"
    fusion_params = ("soft_percentile", "hard_percentile", "generosity")

    @classmethod
    def build(cls, instances: Sequence[Any]) -> Optional["_GenerousLanes"]:
        return cls(instances)

    def react_many(self, last: RoundObservationBatch) -> Array:
        out = self._soft.copy()
        for r in np.flatnonzero(last.betrayal):
            inst = self.instances[r]
            if inst._rng.random() >= inst.generosity:
                out[r] = self._hard[r]
        return out


class _TwoTatsLanes(_MirrorLanes):
    """Tit-for-two-tats: punish only two consecutive judged betrayals."""

    fusion_family = "two-tats"
    fusion_params = ("soft_percentile", "hard_percentile")
    fusion_state = ("previous_betrayal",)

    def __init__(self, instances: Sequence[Any]) -> None:
        super().__init__(instances)
        # Seed from current instance state (mid-game lane builds).
        self._previous = np.array(
            [bool(inst._previous_betrayal) for inst in instances]
        )

    def react_many(self, last: RoundObservationBatch) -> Array:
        punish = last.betrayal & self._previous
        self._previous = last.betrayal.copy()
        return np.where(punish, self._hard, self._soft)

    def finalize(self) -> None:
        for r, inst in enumerate(self.instances):
            inst._previous_betrayal = bool(self._previous[r])


# --------------------------------------------------------------------- #
# adversaries
# --------------------------------------------------------------------- #
class _NullAdversaryLanes(AdversaryLanes):
    """No injection in any lane, ever."""

    fusion_family = "null"
    fusion_params = ()

    @classmethod
    def build(cls, instances: Sequence[Any]) -> "_NullAdversaryLanes":
        return cls(instances)

    def first_many(self) -> Array:
        return np.full(self.n_reps, np.nan)

    def react_many(self, last: RoundObservationBatch) -> Array:
        return np.full(self.n_reps, np.nan)


class _FixedAdversaryLanes(AdversaryLanes):
    """One fixed percentile per lane."""

    fusion_family = "fixed"
    fusion_params = ("percentile",)

    @classmethod
    def build(cls, instances: Sequence[Any]) -> "_FixedAdversaryLanes":
        return cls(instances)

    def __init__(self, instances: Sequence[Any]) -> None:
        super().__init__(instances)
        self._values = np.array([float(inst.percentile) for inst in instances])

    def first_many(self) -> Array:
        return self._values

    def react_many(self, last: RoundObservationBatch) -> Array:
        return self._values


class _DrawAdversaryLanes(AdversaryLanes):
    """Uniform-range / mixed adversaries: per-rep Generator draws.

    The draw itself cannot be shared (each rep owns an independent
    stream), but a draw is O(1); the lanes just skip the observation
    slicing the fallback loop would pay.
    """

    fusion_family = "draw"
    fusion_params = ("draw",)

    @classmethod
    def build(cls, instances: Sequence[Any]) -> "_DrawAdversaryLanes":
        return cls(instances)

    def _draw_many(self) -> Array:
        return np.array([float(inst._draw()) for inst in self.instances])

    def first_many(self) -> Array:
        return self._draw_many()

    def react_many(self, last: RoundObservationBatch) -> Array:
        return self._draw_many()


class _JustBelowLanes(AdversaryLanes):
    """The ideal evasive attack, vectorized over the observed thresholds."""

    fusion_family = "just-below"
    fusion_params = ("initial_threshold", "margin")

    @classmethod
    def build(cls, instances: Sequence[Any]) -> Optional["_JustBelowLanes"]:
        return cls(instances)

    def __init__(self, instances: Sequence[Any]) -> None:
        super().__init__(instances)
        self._margin = _column(instances, "margin")
        self._first = np.array([float(inst.first()) for inst in instances])

    def first_many(self) -> Array:
        return self._first.copy()

    def react_many(self, last: RoundObservationBatch) -> Array:
        return np.maximum(
            0.0, np.minimum(1.0, last.trim_percentile - self._margin)
        )


class _ElasticAdversaryLanes(AdversaryLanes):
    """The elastic responder, vectorized like its collector twin."""

    fusion_family = "elastic-adversary"
    fusion_params = ("t_th", "k", "rule", "base_offset")
    fusion_state = ("current",)

    @classmethod
    def build(cls, instances: Sequence[Any]) -> Optional["_ElasticAdversaryLanes"]:
        return cls(instances)

    def __init__(self, instances: Sequence[Any]) -> None:
        super().__init__(instances)
        self._t_th = _column(instances, "t_th")
        self._k = _column(instances, "k")
        self._base = np.array(
            [float(inst.t_th + inst.base_offset) for inst in instances]
        )
        self._paper = np.array(
            [inst.rule == "paper" for inst in instances], dtype=bool
        )
        self._first = np.array([float(inst.first()) for inst in instances])
        # Seed from current instance positions (mid-game lane builds).
        self._current = np.array([float(inst._current) for inst in instances])

    def first_many(self) -> Array:
        return self._first.copy()

    def react_many(self, last: RoundObservationBatch) -> Array:
        # Same association as the scalar body: (t_th + base_offset) is
        # precomputed, then the response term is added.
        target = self._base + self._k * (last.trim_percentile - self._t_th)
        ema = (1.0 - self._k) * self._current + self._k * target
        new = np.where(self._paper, target, ema)
        self._current = np.minimum(1.0, np.maximum(0.0, new))
        return self._current

    def finalize(self) -> None:
        for r, inst in enumerate(self.instances):
            inst._current = float(self._current[r])


# --------------------------------------------------------------------- #
# registries
# --------------------------------------------------------------------- #
#: Exact-type lane registries.  Keyed on the concrete class (``type(x)
#: is cls``), *not* ``isinstance``: a user subclass may override
#: ``react`` with arbitrary logic, so it must land on the fallback loop.
_COLLECTOR_LANES = {
    OstrichCollector: _ConstantCollectorLanes,
    StaticCollector: _ConstantCollectorLanes,
    TitForTatCollector: _TitForTatLanes,
    ElasticCollector: _ElasticCollectorLanes,
    MirrorCollector: _MirrorLanes,
    GenerousCollector: _GenerousLanes,
    TitForTwoTatsCollector: _TwoTatsLanes,
}

_ADVERSARY_LANES = {
    NullAdversary: _NullAdversaryLanes,
    FixedAdversary: _FixedAdversaryLanes,
    UniformRangeAdversary: _DrawAdversaryLanes,
    MixedAdversary: _DrawAdversaryLanes,
    JustBelowAdversary: _JustBelowLanes,
    ElasticAdversary: _ElasticAdversaryLanes,
}

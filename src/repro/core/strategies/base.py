"""Strategy protocols for the online collection game.

Both parties play in percentile coordinates (§VI-A).  After every round the
public board (Fig. 3) exposes a :class:`RoundObservation` to both sides —
the complete-information / white-box setting of the threat model: each
party knows the other's previous-round position and the public quality
standard's verdict.

Collector strategies map the last observation to the next trimming
percentile; adversary strategies map it to the next injection percentile
(or ``None`` for no injection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ..arrays import Array, ArrayLike

__all__ = [
    "RoundObservation",
    "RoundObservationBatch",
    "observation_from_row",
    "CollectorStrategy",
    "AdversaryStrategy",
    "rng_state",
    "set_rng_state",
    "generator_from_state",
]

#: numpy's bit generators, by the name their state documents carry.
_BIT_GENERATORS = {
    cls.__name__: cls
    for cls in (
        np.random.PCG64,
        np.random.PCG64DXSM,
        np.random.MT19937,
        np.random.Philox,
        np.random.SFC64,
    )
}


class _NoSeedSequence(ISeedSequence):
    """A seed sequence that hashes nothing and cannot spawn.

    :func:`generator_from_state` builds its bit generator on this one,
    whose all-zero words are overwritten at once, instead of paying
    :class:`~numpy.random.SeedSequence` hashing for them.  A Generator
    rebuilt without its seed sequence keeps it, so its ``spawn()``
    raises ``TypeError`` rather than spawning from a made-up seed.
    """

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> Array:
        return np.zeros(n_words, dtype=dtype)


_NO_SEED = _NoSeedSequence()


def rng_state(rng: np.random.Generator) -> dict[str, Any]:
    """The exact bit-state of a :class:`numpy.random.Generator`.

    The returned dict is ``rng.bit_generator.state`` — a plain-data
    document that fully determines every future draw.  numpy's getter
    builds a fresh document on every read (array fields included), so
    mutating it never moves ``rng``.  The session snapshot's pickler
    (:mod:`repro.core.session`) writes a Generator as this document
    wherever :func:`generator_from_state` can rebuild it, so a restored
    game replays byte-identically.
    """
    state: dict[str, Any] = rng.bit_generator.state
    return state


def set_rng_state(rng: np.random.Generator, state: dict[str, Any]) -> None:
    """Restore a Generator to a bit-state captured by :func:`rng_state`.

    numpy's setter copies what it is given, so mutating ``state``
    afterwards never moves ``rng``.
    """
    rng.bit_generator.state = state


def generator_from_state(
    state: dict[str, Any], seed_seq: Optional[ISeedSequence] = None
) -> np.random.Generator:
    """A new Generator at the bit-state :func:`rng_state` exported.

    ``seed_seq`` is the original's ``bit_generator.seed_seq``; given, the
    rebuild spawns the same children as the original.  Both are seated
    through numpy's own pickle protocol (``BitGenerator.__setstate__``)
    on a bit generator built without seeding, so this costs a fraction
    of unpickling a Generator, which seeds from OS entropy first.
    """
    # numpy's stubs admit only a SeedSequence seed and declare no
    # __setstate__; at run time every bit generator takes both.
    bit_generator_class: Any = _BIT_GENERATORS[state["bit_generator"]]
    bit_generator = bit_generator_class(_NO_SEED)
    bit_generator.__setstate__((state, _NO_SEED if seed_seq is None else seed_seq))
    return np.random.Generator(bit_generator)


@dataclass(frozen=True)
class RoundObservation:
    """Public-board record of one completed round.

    Attributes
    ----------
    index:
        1-based round number.
    trim_percentile:
        The trimming position the collector used this round.
    injection_percentile:
        The adversary's injection position (``None`` when no poison was
        injected).  Visible under the white-box/complete-information
        model — both parties can reconstruct it from the board.
    quality:
        ``Quality_Evaluation()`` score of the round's batch (higher =
        worse quality).
    observed_poison_ratio:
        The collector's (noisy) estimate of the fraction of the batch
        that was poisoned, as measured by the public quality standard.
    betrayal:
        The round-level compliance judgement: True when the observed
        behaviour deviated from the agreed standard.  Under
        non-deterministic utility this judgement is itself noisy (§V).
    """

    index: int
    trim_percentile: float
    injection_percentile: Optional[float]
    quality: float
    observed_poison_ratio: float
    betrayal: bool


def observation_from_row(
    index: Any,
    trim_percentile: Any,
    injection_percentile: Any,
    quality: Any,
    observed_poison_ratio: Any,
    betrayal: Any,
) -> RoundObservation:
    """The :class:`RoundObservation` of one column row.

    The one conversion from the column form of a round (numpy or plain
    scalars, ``NaN`` = no injection) to the observation object; board
    views and lockstep lanes all build their observations through it,
    so every path hands the strategies the same Python scalars.
    """
    return RoundObservation(
        index=int(index),
        trim_percentile=float(trim_percentile),
        injection_percentile=(
            None if np.isnan(injection_percentile)
            else float(injection_percentile)
        ),
        quality=float(quality),
        observed_poison_ratio=float(observed_poison_ratio),
        betrayal=bool(betrayal),
    )


@dataclass(frozen=True)
class RoundObservationBatch:
    """One completed round observed across R lockstep repetitions.

    The column-array counterpart of :class:`RoundObservation`: every
    public field is an ``(R,)`` array indexed by repetition, with
    ``injection_percentile`` using ``NaN`` where that rep's adversary
    injected nothing.  Vectorized strategy lanes
    (:mod:`repro.core.strategies.batched`) react to these columns in one
    array expression; :meth:`rep` slices out the scalar observation rep
    ``r``'s solo game would have seen — byte-identical field for field —
    which is what the per-rep fallback loop hands to non-vectorizable
    user strategies.
    """

    index: int
    trim_percentile: Array        # (R,) float
    injection_percentile: Array   # (R,) float, NaN = no injection
    quality: Array                # (R,) float
    observed_poison_ratio: Array  # (R,) float
    betrayal: Array               # (R,) bool

    @property
    def n_reps(self) -> int:
        """Number of repetition lanes."""
        return int(self.trim_percentile.shape[0])

    def rep(self, r: int) -> RoundObservation:
        """The scalar :class:`RoundObservation` of repetition ``r``."""
        return observation_from_row(
            self.index,
            self.trim_percentile[r],
            self.injection_percentile[r],
            self.quality[r],
            self.observed_poison_ratio[r],
            self.betrayal[r],
        )

    def take(self, indices: ArrayLike) -> "RoundObservationBatch":
        """The sub-batch of the given lane indices, in the given order.

        A fused cohort scatters one round's columns into per-family
        sub-groups; each value is the same float64 the lane's solo game
        observed, so downstream lane arithmetic stays byte-identical.
        """
        idx = np.asarray(indices, dtype=np.intp)
        return RoundObservationBatch(
            index=self.index,
            trim_percentile=self.trim_percentile[idx],
            injection_percentile=self.injection_percentile[idx],
            quality=self.quality[idx],
            observed_poison_ratio=self.observed_poison_ratio[idx],
            betrayal=self.betrayal[idx],
        )


class CollectorStrategy:
    """A trimming policy for the data collector.

    Lifecycle: :meth:`reset` at the start of a game, :meth:`first` for the
    opening round's threshold, then :meth:`react` once per subsequent
    round with the previous round's observation.
    """

    #: Human-readable scheme name used by experiment reports.
    name: str = "collector"

    def reset(self) -> None:
        """Clear internal state before a new game."""

    def first(self) -> float:
        """Trimming percentile for round 1."""
        raise NotImplementedError

    def react(self, last: RoundObservation) -> float:
        """Trimming percentile for the round after ``last``."""
        raise NotImplementedError

    def export_state(self) -> dict[str, Any]:
        """The strategy's *mutable* mid-game state as a plain-data dict.

        Everything :meth:`reset` would clear — and nothing else: static
        configuration (thresholds, offsets, seeds) stays on the object.
        It is the audit view, not the transport: a session snapshot
        pickles the strategy itself, while ``GameSession.state_dict()``
        and the golden transcript of ``repro lint`` (CONF007) read this
        document, and CONF002 demands that it carry every Generator's
        bit-state.  Stateless strategies inherit this empty default.
        """
        return {}


class AdversaryStrategy:
    """A poison-injection policy for the adversary.

    Mirrors :class:`CollectorStrategy`; returning ``None`` from
    :meth:`first`/:meth:`react` means no poison is injected that round
    (the Groundtruth scenario).
    """

    #: Human-readable scheme name used by experiment reports.
    name: str = "adversary"

    def reset(self) -> None:
        """Clear internal state before a new game."""

    def first(self) -> Optional[float]:
        """Injection percentile for round 1 (``None`` = no injection)."""
        raise NotImplementedError

    def react(self, last: RoundObservation) -> Optional[float]:
        """Injection percentile for the round after ``last``."""
        raise NotImplementedError

    def export_state(self) -> dict[str, Any]:
        """Mutable mid-game state (see ``CollectorStrategy.export_state``)."""
        return {}

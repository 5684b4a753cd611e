"""Push-driven game sessions: the engine's round transition, inverted.

:class:`~repro.core.engine.CollectionGame.run` owns a pull loop — it
drains a pre-materialized stream and returns only when the horizon ends.
That shape cannot serve live traffic: a deployable defense is a *reactive
transition function* whose caller owns the loop, supplies the data, and
may stop, pause or migrate at any round.  This module extracts that
transition:

* :class:`GameSession` — one tenant's live game.  ``submit(batch)`` plays
  exactly one round of the §IV collection game (adversary reaction,
  poison materialization, trimming, quality evaluation, compliance
  judgement, board recording) and returns a :class:`RoundDecision`;
  ``close()`` seals the session into the familiar
  :class:`~repro.core.engine.GameResult`.  ``CollectionGame.run()`` is
  now a thin driver over this transition — byte-identical to the
  historical loop, pinned by the test suite.
* :meth:`GameSession.snapshot` / :meth:`GameSession.restore` — complete
  mid-game state capture: strategy state, every RNG consumer's
  ``Generator`` bit-state and the board's columns (plus one retained
  array per round on a full board).  The board's length is the session's
  round position.  A session suspended in one process resumes
  byte-identically in another.
* :class:`BatchedGameSession` — the lockstep round program: one
  ``submit((L, batch, ...))`` call steps L solo sessions ("lanes")
  through one round of shared array kernels.  It is built from the
  lanes' component instances and compiles its own lane programs
  (:mod:`repro.core.fusion`), so there is one lane builder and one
  lockstep round body, which runs once per poison-count segment (a
  round where every lane injects the same count is one segment).
* :func:`lockstep_cohort` — the one place that builds it.  It seats
  L :class:`GameSession` objects in a :class:`BatchedGameSession` plus
  a :class:`~repro.streams.board.ColumnarBoard` sink that records every
  lockstep round and flushes each lane's rows into its own session.
  Both lockstep loops use it: ``BatchedCollectionGame.run()``
  (repetitions and fused sweep cells, from freshly reset sessions) and
  the :class:`~repro.serving.DefenseService` multiplexer (live tenants,
  from their current state).

Snapshot format
---------------
``snapshot()`` returns a pickled envelope tagged :data:`SNAPSHOT_FORMAT`
that carries (a) the calibrated components themselves and (b) the
structured ``state_dict()`` — each stateful component's
``export_state()`` document.  ``restore()`` rebuilds the components,
``reset()``s every one that exports authoritative state, and replays the
state document through ``import_state()``; the byte-identity of the
continued game (tested across the full shipped strategy matrix) is the
proof that the exported state is complete.  Snapshots are a *process
migration* format, not an archival one: they are tied to the package
version that wrote them and to pickle availability (see README,
"Serving live streams").
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .arrays import Array, ArrayLike

if TYPE_CHECKING:
    from .engine import GameResult
    from .payoffs import PayoffModel

from ..streams.board import ColumnarBoard, PublicBoard
from ..streams.injection import PoisonInjector
from ..streams.source import StreamSource
from .fusion import (
    InjectorLanes,
    JudgeLanes,
    QualityLanes,
    TrimLanes,
    fused_adversary_lanes,
    fused_collector_lanes,
)
from .strategies.base import (
    AdversaryStrategy,
    CollectorStrategy,
    RoundObservation,
    RoundObservationBatch,
    observation_from_row,
)
from .trimming import Trimmer

__all__ = [
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "RoundPayoffs",
    "RoundDecision",
    "BatchedRoundDecision",
    "LaneRoundDecision",
    "GameSession",
    "BatchedGameSession",
    "lockstep_cohort",
    "round_payoffs",
    "stack_observations",
]

#: Snapshot envelope tag; bumped when the layout changes incompatibly.
SNAPSHOT_FORMAT = "repro.session/1"


class SnapshotError(ValueError):
    """A session snapshot blob could not be restored.

    Raised for every failure mode of :meth:`GameSession.restore` —
    corrupt or truncated bytes, a foreign/stale envelope format, a
    structurally broken payload, or pickled components referencing code
    that no longer exists — so callers (notably the
    :class:`~repro.serving.DefenseService` tenant quarantine) get one
    typed failure path instead of raw ``pickle`` internals.  Subclasses
    :class:`ValueError` for backward compatibility with callers that
    caught the old untyped error.
    """


# --------------------------------------------------------------------- #
# per-round outputs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RoundPayoffs:
    """Realized §III-B payoffs of one round.

    ``adversary`` is the poison gain ``P(x_a)`` scaled by the fraction
    of injected poison that survived trimming; ``collector`` is the
    zero-sum mirror minus the trimming overhead ``T(x_c)``.
    """

    adversary: float
    collector: float


def round_payoffs(
    model: "PayoffModel",
    threshold: float,
    injection_percentile: Optional[float],
    n_poison_injected: int,
    n_poison_retained: int,
) -> RoundPayoffs:
    """Realized payoffs of one round under a :class:`PayoffModel`.

    A deterministic function of the round's public record — evaluating
    it never advances any RNG, so sessions with and without a payoff
    model play byte-identical games.
    """
    overhead = float(model.trim_overhead(float(threshold)))
    if injection_percentile is None or n_poison_injected == 0:
        gain = 0.0
    else:
        gain = float(model.poison_payoff(float(injection_percentile))) * (
            int(n_poison_retained) / int(n_poison_injected)
        )
    return RoundPayoffs(adversary=gain, collector=-(gain + overhead))


@dataclass(frozen=True)
class RoundDecision:
    """Everything one :meth:`GameSession.submit` call decided.

    ``accept_mask`` is the boolean trim verdict over the round's
    *combined* batch (submitted rows followed by any materialized
    poison) — the actionable output a live collector applies to the
    round's traffic.  ``observation`` is the public-board record both
    strategies will react to next round; the ``n_*`` counts are the
    ground-truth bookkeeping (the trim report in summary form), and
    ``payoffs`` is present when the session carries a payoff model.
    """

    index: int
    threshold: float
    injection_percentile: Optional[float]
    accept_mask: Array
    quality: float
    observed_poison_ratio: float
    betrayal: bool
    n_collected: int
    n_retained: int
    n_poison_injected: int
    n_poison_retained: int
    observation: RoundObservation
    retained: Optional[Array] = None
    payoffs: Optional[RoundPayoffs] = None

    @property
    def n_trimmed(self) -> int:
        """Rows of the combined batch the trim rejected."""
        return self.n_collected - self.n_retained

    @property
    def trimmed_fraction(self) -> float:
        """Fraction of the combined batch the trim rejected."""
        if self.n_collected == 0:
            return 0.0
        return 1.0 - self.n_retained / self.n_collected


@dataclass(frozen=True)
class BatchedRoundDecision:
    """One lockstep round across R rep lanes (column form).

    The ``(R,)`` column counterpart of :class:`RoundDecision`:
    ``injection_percentile`` uses NaN for "no injection",
    ``accept_masks`` holds one boolean mask per lane (lanes may disagree
    on batch width in the ragged mixed-injection case), and ``retained``
    carries the per-lane retained rows on full (non-lean) sessions.
    """

    index: int
    threshold: Array
    injection_percentile: Array
    quality: Array
    observed_poison_ratio: Array
    betrayal: Array
    n_collected: Array
    n_retained: Array
    n_poison_injected: Array
    n_poison_retained: Array
    accept_masks: List[Array]
    retained: Optional[List[Array]] = None

    @property
    def n_reps(self) -> int:
        """Number of rep lanes the round stepped."""
        return int(self.threshold.shape[0])

    def rep_observation(self, r: int) -> RoundObservation:
        """Lane ``r``'s public observation, scalar form."""
        return observation_from_row(
            self.index,
            self.threshold[r],
            self.injection_percentile[r],
            self.quality[r],
            self.observed_poison_ratio[r],
            self.betrayal[r],
        )


class LaneRoundDecision:
    """One lane of a lockstep round, viewed through column arrays.

    Duck-types :class:`RoundDecision` — same attribute surface, same
    values — but holds only a reference into the round's
    :class:`BatchedRoundDecision` columns plus the lane index.  Scalars,
    the :class:`RoundObservation` and the payoffs materialize lazily on
    first access, so the multiplexer's steady state never pays the
    per-lane object construction a solo round does.
    """

    __slots__ = ("_decision", "_rep", "_session", "_obs", "_pay")

    def __init__(
        self, decision: BatchedRoundDecision, rep: int, session: Any
    ) -> None:
        self._decision = decision
        self._rep = int(rep)
        self._session = session
        self._obs: Optional[RoundObservation] = None
        self._pay = False  # sentinel: payoffs not yet computed

    @property
    def index(self) -> int:
        return self._decision.index

    @property
    def threshold(self) -> float:
        return float(self._decision.threshold[self._rep])

    @property
    def injection_percentile(self) -> Optional[float]:
        inj = self._decision.injection_percentile[self._rep]
        return None if np.isnan(inj) else float(inj)

    @property
    def accept_mask(self) -> Array:
        return self._decision.accept_masks[self._rep]

    @property
    def quality(self) -> float:
        return float(self._decision.quality[self._rep])

    @property
    def observed_poison_ratio(self) -> float:
        return float(self._decision.observed_poison_ratio[self._rep])

    @property
    def betrayal(self) -> bool:
        return bool(self._decision.betrayal[self._rep])

    @property
    def n_collected(self) -> int:
        return int(self._decision.n_collected[self._rep])

    @property
    def n_retained(self) -> int:
        return int(self._decision.n_retained[self._rep])

    @property
    def n_poison_injected(self) -> int:
        return int(self._decision.n_poison_injected[self._rep])

    @property
    def n_poison_retained(self) -> int:
        return int(self._decision.n_poison_retained[self._rep])

    @property
    def observation(self) -> RoundObservation:
        if self._obs is None:
            self._obs = self._decision.rep_observation(self._rep)
        return self._obs

    @property
    def retained(self) -> Optional[Array]:
        if self._decision.retained is None or not self._session.store_retained:
            return None
        return self._decision.retained[self._rep]

    @property
    def payoffs(self) -> Optional[RoundPayoffs]:
        if self._pay is False:
            self._pay = self._session._payoffs(
                self.observation, self.n_poison_injected,
                self.n_poison_retained,
            )
        return self._pay

    @property
    def n_trimmed(self) -> int:
        """Rows of the combined batch the trim rejected."""
        return self.n_collected - self.n_retained

    @property
    def trimmed_fraction(self) -> float:
        """Fraction of the combined batch the trim rejected."""
        if self.n_collected == 0:
            return 0.0
        return 1.0 - self.n_retained / self.n_collected


def stack_observations(
    observations: Sequence[RoundObservation],
) -> RoundObservationBatch:
    """Stack per-session observations into one rep-lane column batch.

    All observations must share a round index (the lockstep grouping
    invariant the :class:`~repro.serving.DefenseService` enforces).
    """
    indices = {obs.index for obs in observations}
    if len(indices) != 1:
        raise ValueError(
            f"cannot stack observations from different rounds: {sorted(indices)}"
        )
    return RoundObservationBatch(
        index=observations[0].index,
        trim_percentile=np.array(
            [obs.trim_percentile for obs in observations], dtype=float
        ),
        injection_percentile=np.array(
            [
                np.nan if obs.injection_percentile is None
                else obs.injection_percentile
                for obs in observations
            ],
            dtype=float,
        ),
        quality=np.array([obs.quality for obs in observations], dtype=float),
        observed_poison_ratio=np.array(
            [obs.observed_poison_ratio for obs in observations], dtype=float
        ),
        betrayal=np.array([obs.betrayal for obs in observations], dtype=bool),
    )


def _reference_rows(trimmers: Iterable[Any]) -> FrozenSet[Tuple[int, ...]]:
    """The trimmers' recorded ``reference_row_shape`` values (None skipped)."""
    shapes = (getattr(t, "reference_row_shape", None) for t in trimmers)
    return frozenset(shape for shape in shapes if shape is not None)


def _check_batch(
    batch: Array, reference_rows: FrozenSet[Tuple[int, ...]], stacked: bool = False
) -> None:
    """Reject round traffic no round may score.

    That is an empty or non-finite batch, or one whose rows (after the
    lane axis of a ``stacked`` lockstep batch) are shaped unlike a
    calibrated reference's.  Both round bodies call this before any
    strategy reacts, so a rejected batch moves no state; the
    multiplexer runs it on explicit batches in its pre-flight.
    """
    if batch.size == 0:
        raise ValueError("round batch is empty")
    rows = batch.shape[2:] if stacked else batch.shape[1:]
    for shape in reference_rows:
        if rows != shape:
            raise ValueError(
                f"round batch rows are shaped {rows}, but the trimmer's "
                f"reference rows are shaped {shape}"
            )
    if not np.isfinite(batch).all():
        raise ValueError("round batch holds non-finite values (NaN or inf)")


# --------------------------------------------------------------------- #
# the solo session
# --------------------------------------------------------------------- #
class GameSession:
    """One live, step-driven collection game.

    The caller owns the loop: every :meth:`submit` plays exactly one
    round with the supplied benign batch (or one pulled from the
    attached ``source``) and returns the :class:`RoundDecision`;
    :meth:`close` seals the game into a
    :class:`~repro.core.engine.GameResult`.  Construction normally goes
    through :meth:`CollectionGame.session`,
    :meth:`GameSpec.session <repro.runtime.spec.GameSpec.session>` or
    :meth:`GameSession.open` — all of which hand over *calibrated*
    components (fitted trimmer/evaluator/judge).

    Parameters
    ----------
    collector:
        The trimming policy.  Required.
    adversary / injector:
        The simulated attack side.  ``adversary=None`` selects *live
        mode*: the submitted batch is treated as the round's full
        (possibly already-manipulated) traffic, nothing is injected, and
        the optional ``poison_mask`` argument of :meth:`submit` supplies
        ground-truth bookkeeping when the caller knows it.
    trimmer / quality_evaluator / judge:
        Calibrated round components, exactly as wired by
        :class:`~repro.core.engine.CollectionGame`.
    share_scores:
        Whether the evaluator may reuse the trimmer's batch scores
        (resolved automatically when ``None``).
    horizon:
        Maximum number of rounds, or ``None`` for an open-ended session
        (partial horizons are first-class: :meth:`close` at any round).
    payoff_model:
        Optional :class:`~repro.core.payoffs.PayoffModel`; when present
        every decision carries the round's realized :class:`RoundPayoffs`.
    source:
        Optional attached :class:`~repro.streams.source.StreamSource`;
        lets :meth:`submit` be called without a batch and is included in
        snapshots so a suspended spec-driven session resumes its own
        traffic byte-identically.
    """

    def __init__(
        self,
        *,
        collector: CollectorStrategy,
        adversary: Optional[AdversaryStrategy] = None,
        injector: Optional[PoisonInjector] = None,
        trimmer: Trimmer,
        quality_evaluator: Any,
        judge: Any,
        share_scores: Optional[bool] = None,
        horizon: Optional[int] = None,
        store_retained: bool = True,
        payoff_model: "Optional[PayoffModel]" = None,
        source: Optional[StreamSource] = None,
        reset: bool = True,
    ):
        if adversary is not None and injector is None:
            raise ValueError(
                "an adversary needs an injector to materialize its poison; "
                "pass adversary=None for live (externally manipulated) traffic"
            )
        if horizon is not None and horizon < 1:
            raise ValueError("horizon must be >= 1 (or None for open-ended)")
        self.collector = collector
        self.adversary = adversary
        self.injector = injector
        self.trimmer = trimmer
        self.quality_evaluator = quality_evaluator
        self.judge = judge
        self.horizon = None if horizon is None else int(horizon)
        self.store_retained = bool(store_retained)
        self.payoff_model = payoff_model
        self.source = source
        if share_scores is None:
            share_scores = quality_evaluator.accepts_scores(
                getattr(trimmer, "score_kind", None)
            )
        self._share_scores = bool(share_scores)
        if reset:
            for component in (collector, adversary, injector, judge, source):
                component_reset = getattr(component, "reset", None)
                if callable(component_reset):
                    component_reset()
        self._board = PublicBoard(store_retained=self.store_retained)
        self._last: Optional[RoundObservation] = None
        self._closed = False
        self._superseded = False
        # Deferred lockstep rounds: while attached to a cohort sink the
        # lockstep loop records this session's rounds as (L,)
        # row-batches there; every authoritative access flushes them
        # wholesale.
        self._sink: Optional[ColumnarBoard] = None
        self._sink_base = 0

    def _supersede(self) -> None:
        """Mark the session dead because its components were re-reset.

        Engine-backed sessions share the engine's live component
        instances; a later ``session()``/``run()`` on the same engine
        resets those components underneath this session, so continuing
        (or snapshotting) it would silently diverge.  The engine marks
        the previous session instead, turning the hazard into a loud
        error.
        """
        self._superseded = True

    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        *,
        collector: CollectorStrategy,
        trimmer: Trimmer,
        reference: ArrayLike,
        adversary: Optional[AdversaryStrategy] = None,
        injector: Optional[PoisonInjector] = None,
        quality_evaluator: Any = None,
        judge: Any = None,
        horizon: Optional[int] = None,
        anchor: str = "reference",
        store_retained: bool = True,
        payoff_model: "Optional[PayoffModel]" = None,
        source: Optional[StreamSource] = None,
    ) -> "GameSession":
        """Calibrate components on ``reference`` and open a session.

        The standalone constructor for callers who do not already hold a
        :class:`~repro.core.engine.CollectionGame`: performs exactly the
        engine's calibration (trimmer/injector reference fit, evaluator
        fit, judge fit on the shared reference scores) and returns the
        opened session.
        """
        from .engine import BandExcessJudge, _calibrate
        from .quality import TailMassEvaluator

        quality_evaluator = quality_evaluator or TailMassEvaluator()
        judge = judge or BandExcessJudge(noise_sigma=0.0)
        _calibrate(
            reference,
            [trimmer],
            [injector],
            [quality_evaluator],
            [judge],
            anchor,
        )
        return cls(
            collector=collector,
            adversary=adversary,
            injector=injector,
            trimmer=trimmer,
            quality_evaluator=quality_evaluator,
            judge=judge,
            horizon=horizon,
            store_retained=store_retained,
            payoff_model=payoff_model,
            source=source,
        )

    # ------------------------------------------------------------------ #
    # deferred lockstep rounds (cohort sink)
    # ------------------------------------------------------------------ #
    def _attach_sink(self, sink: Any, lane: int) -> None:
        """Route subsequent lockstep rounds through a cohort sink.

        While attached, the lockstep loop records fused rounds as one
        ``(L,)`` row-batch on ``sink`` (a
        :class:`~repro.streams.board.ColumnarBoard`) instead of
        materializing this session's per-round board objects.  Any
        authoritative access — a solo submit, ``result``/``close``,
        ``snapshot``, or reading the board — flushes the whole cohort
        first, so callers never observe a stale session.
        """
        if self._sink is not None:
            raise RuntimeError(
                "session is already attached to a deferred cohort sink; "
                "flush it before re-attaching"
            )
        self._sink = sink
        self._sink_base = sink.n_rounds
        sink.attach(self, lane)

    def _flush_deferred(self) -> None:
        """Make any deferred lockstep rounds authoritative (whole cohort)."""
        if self._sink is not None:
            self._sink.flush_all()

    def _absorb_sink_rows(self, sink: Any, lane: int, base: int) -> None:
        """Adopt this session's pending sink rows (sink flush callback)."""
        self._sink = None
        if sink.n_rounds <= base:
            return
        columns, retained = sink.lane_rows(lane, base)
        self._board.extend_columns(columns, retained)
        self._last = observation_from_row(
            columns["index"][-1],
            columns["trim_percentile"][-1],
            columns["injection_percentile"][-1],
            columns["quality"][-1],
            columns["observed_poison_ratio"][-1],
            columns["betrayal"][-1],
        )

    # ------------------------------------------------------------------ #
    @property
    def round_index(self) -> int:
        """Number of completed rounds (deferred lockstep rounds included)."""
        if self._sink is None:
            return len(self._board)
        return len(self._board) + (self._sink.n_rounds - self._sink_base)

    @property
    def last_observation(self) -> Optional[RoundObservation]:
        """The most recent public observation, or ``None`` before round 1."""
        self._flush_deferred()
        return self._last

    @property
    def board(self) -> PublicBoard:
        """The session's public board (append-only, live)."""
        self._flush_deferred()
        return self._board

    @property
    def is_closed(self) -> bool:
        """Whether :meth:`close` has sealed the session."""
        return self._closed

    @property
    def done(self) -> bool:
        """True when closed or the horizon is exhausted."""
        return self._closed or (
            self.horizon is not None and self.round_index >= self.horizon
        )

    @property
    def collector_name(self) -> str:
        """The collector strategy's display name."""
        return self.collector.name

    @property
    def adversary_name(self) -> str:
        """The adversary's display name (``"live"`` in live mode)."""
        return "live" if self.adversary is None else self.adversary.name

    # ------------------------------------------------------------------ #
    def _decide_positions(self) -> Tuple[float, Optional[float]]:
        """Both parties' positions for the upcoming round."""
        if self._last is None:
            trim_q = self.collector.first()
            inject_q = (
                self.adversary.first() if self.adversary is not None else None
            )
        else:
            trim_q = self.collector.react(self._last)
            inject_q = (
                self.adversary.react(self._last)
                if self.adversary is not None
                else None
            )
        return trim_q, inject_q

    def _check_submittable(self) -> None:
        if self._superseded:
            raise RuntimeError(
                "session superseded: its state authority moved on (a newer "
                "session()/run() on the same engine, or a service "
                "eviction); this handle can no longer play"
            )
        if self._closed:
            raise RuntimeError("session is closed")
        if self.horizon is not None and self.round_index >= self.horizon:
            raise RuntimeError(
                f"horizon of {self.horizon} rounds exhausted; close() the "
                "session to obtain its GameResult"
            )

    def submit(
        self,
        batch: Optional[ArrayLike] = None,
        poison_mask: Optional[ArrayLike] = None,
    ) -> RoundDecision:
        """Play one round with ``batch`` and return the decision.

        ``batch`` is the round's benign data (adversarial sessions) or
        the full incoming traffic (live mode); omit it to pull from the
        attached source.  ``poison_mask`` is live-mode-only ground truth
        marking which submitted rows are manipulated — bookkeeping for
        the board, never visible to the strategies.  The batch (empty or
        non-finite ones raise ``ValueError``) and the mask are checked
        before either strategy reacts: a call rejected for them leaves
        the strategies, injector, judge and round index untouched (a
        batch pulled from the attached source is drawn first, because
        it is checked).  So does a batch whose rows are shaped unlike
        the trimmer's calibrated reference.
        """
        self._check_submittable()
        if poison_mask is not None and self.adversary is not None:
            raise ValueError(
                "poison_mask is only accepted in live mode "
                "(adversary=None); adversarial sessions track poison "
                "themselves"
            )
        self._flush_deferred()
        if batch is None:
            if self.source is None:
                raise ValueError(
                    "submit() needs a batch: this session has no attached "
                    "stream source"
                )
            batch = self.source.next_batch()
        benign = np.asarray(batch, dtype=float)
        # The caller's traffic and ground truth are checked before
        # either strategy reacts, so a rejected call leaves the game
        # where it was.
        _check_batch(benign, _reference_rows([self.trimmer]))
        if self.adversary is None:
            if poison_mask is None:
                mask = np.zeros(benign.shape[0], dtype=bool)
            else:
                mask = np.asarray(poison_mask, dtype=bool)
                if mask.shape != (benign.shape[0],):
                    raise ValueError(
                        f"poison_mask must be shaped ({benign.shape[0]},), "
                        f"got {mask.shape}"
                    )
        index = len(self._board) + 1
        trim_q, inject_q = self._decide_positions()

        if self.adversary is not None:
            if inject_q is None:
                poison = benign[:0]
            else:
                poison = self.injector.materialize(benign, inject_q)
            if poison.shape[0] == 0:
                combined = benign
            else:
                combined = np.concatenate([benign, poison], axis=0)
            mask = np.zeros(combined.shape[0], dtype=bool)
            mask[benign.shape[0]:] = True
            n_poison_injected = int(poison.shape[0])
        else:
            combined = benign
            n_poison_injected = int(np.count_nonzero(mask))

        report = self.trimmer.trim(combined, trim_q)
        # Single-pass scoring, exactly as the historical engine loop: the
        # judge reuses the trim report's batch scores, and the evaluator
        # shares them when the score families are commensurable.
        if report.scores is not None:
            retained_scores = report.kept_scores
            shared_scores = report.scores if self._share_scores else None
        else:
            retained_scores = self.trimmer.scores(combined)[report.kept]
            shared_scores = None

        observed_ratio, quality = self.quality_evaluator.evaluate(
            combined, scores=shared_scores
        )
        betrayal = self.judge.judge_round(inject_q, retained_scores)

        observation = RoundObservation(
            index=index,
            trim_percentile=float(trim_q),
            injection_percentile=None if inject_q is None else float(inject_q),
            quality=quality,
            observed_poison_ratio=float(observed_ratio),
            betrayal=bool(betrayal),
        )
        retained = combined[report.kept] if self.store_retained else None
        n_poison_retained = int(np.count_nonzero(report.kept & mask))
        self._board.record(
            observation,
            retained,
            n_collected=combined.shape[0],
            n_poison_injected=n_poison_injected,
            n_poison_retained=n_poison_retained,
            n_retained=report.n_kept,
        )
        self._last = observation
        return RoundDecision(
            index=index,
            threshold=float(trim_q),
            injection_percentile=observation.injection_percentile,
            accept_mask=report.kept,
            quality=float(quality),
            observed_poison_ratio=float(observed_ratio),
            betrayal=bool(betrayal),
            n_collected=int(combined.shape[0]),
            n_retained=int(report.n_kept),
            n_poison_injected=n_poison_injected,
            n_poison_retained=n_poison_retained,
            observation=observation,
            retained=retained,
            payoffs=self._payoffs(
                observation, n_poison_injected, n_poison_retained
            ),
        )

    def _payoffs(
        self,
        observation: RoundObservation,
        n_poison_injected: int,
        n_poison_retained: int,
    ) -> Optional[RoundPayoffs]:
        if self.payoff_model is None:
            return None
        return round_payoffs(
            self.payoff_model,
            observation.trim_percentile,
            observation.injection_percentile,
            n_poison_injected,
            n_poison_retained,
        )

    # ------------------------------------------------------------------ #
    def result(self) -> "GameResult":
        """The game-so-far as a :class:`~repro.core.engine.GameResult`."""
        from .engine import GameResult

        self._flush_deferred()
        return GameResult(
            board=self._board,
            collector_name=self.collector_name,
            adversary_name=self.adversary_name,
            termination_round=getattr(self.collector, "terminated_round", None),
        )

    def close(self) -> "GameResult":
        """Seal the session and return its final ``GameResult``."""
        self._closed = True
        return self.result()

    # ------------------------------------------------------------------ #
    # snapshot / restore
    # ------------------------------------------------------------------ #
    def _stateful_components(self) -> Tuple[Tuple[str, Any], ...]:
        return (
            ("collector", self.collector),
            ("adversary", self.adversary),
            ("injector", self.injector),
            ("trimmer", self.trimmer),
            ("quality", self.quality_evaluator),
            ("judge", self.judge),
            ("source", self.source),
        )

    def state_dict(self) -> Dict[str, dict]:
        """Every component's exported mutable state, keyed by role.

        The structured half of a snapshot: plain-data documents from
        each component's ``export_state()`` (empty for stateless
        components).  Restoring replays these through
        ``import_state()`` after a ``reset()`` — completeness is what
        the cross-process byte-identity tests assert.
        """
        self._flush_deferred()
        state: Dict[str, dict] = {}
        for name, component in self._stateful_components():
            if component is None:
                continue
            exporter = getattr(component, "export_state", None)
            state[name] = exporter() if callable(exporter) else {}
        return state

    def snapshot(self) -> bytes:
        """Serialize the complete mid-game state to a portable blob.

        The envelope carries the calibrated components, the structured
        :meth:`state_dict`, the board's column arrays (plus retained
        payloads on full boards) and the round position, which a restore
        checks against the board.  See the module docstring for the
        format contract.
        """
        from .. import __version__

        if self._superseded:
            raise RuntimeError(
                "session superseded: its state authority moved on (a newer "
                "session()/run() on the same engine, or a service "
                "eviction), so a snapshot here would not capture the "
                "live game"
            )
        self._flush_deferred()

        payload = {
            "format": SNAPSHOT_FORMAT,
            "package_version": __version__,
            "components": {
                name: component
                for name, component in self._stateful_components()
            },
            "payoff_model": self.payoff_model,
            "state": self.state_dict(),
            "board": {
                "columns": self._board.columns,
                "retained": self._board.retained,
            },
            "session": {
                "horizon": self.horizon,
                "store_retained": self.store_retained,
                "share_scores": self._share_scores,
                "round": len(self._board),
                "closed": self._closed,
                "last_observation": self._last,
            },
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, blob: bytes) -> "GameSession":
        """Rebuild a session from a :meth:`snapshot` blob.

        Components that export authoritative state are ``reset()`` and
        re-imported from the structured state document; components with
        nothing to export (stateless strategies, custom user objects)
        keep their deserialized attributes untouched.  The restored
        session continues byte-identically to the uninterrupted
        original — in this process or any other.

        Every failure mode — corrupt bytes, a foreign envelope, a
        structurally broken payload, a board that does not fit its
        round position — raises :class:`SnapshotError`.
        """
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            # pickle raises a zoo here (UnpicklingError, EOFError,
            # AttributeError, ModuleNotFoundError, plain ValueError...);
            # none of it is actionable beyond "this blob is bad".
            raise SnapshotError(
                f"corrupt session snapshot: {type(exc).__name__}: {exc}"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != SNAPSHOT_FORMAT
        ):
            raise SnapshotError(
                f"not a {SNAPSHOT_FORMAT} session snapshot"
            )
        try:
            components = payload["components"]
            state = payload["state"]
            for name, component in components.items():
                if component is None:
                    continue
                component_state = state.get(name)
                if not component_state:
                    # Nothing exported: the pickled object already carries
                    # whatever state it has; resetting would destroy it.
                    continue
                component_reset = getattr(component, "reset", None)
                if callable(component_reset):
                    component_reset()
                importer = getattr(component, "import_state", None)
                if callable(importer):
                    importer(component_state)

            doc = payload["session"]
            session = cls(
                collector=components["collector"],
                adversary=components["adversary"],
                injector=components["injector"],
                trimmer=components["trimmer"],
                quality_evaluator=components["quality"],
                judge=components["judge"],
                share_scores=doc["share_scores"],
                horizon=doc["horizon"],
                store_retained=doc["store_retained"],
                payoff_model=payload["payoff_model"],
                source=components["source"],
                reset=False,
            )
            board_doc = payload["board"]
            session._board = PublicBoard.from_columns(
                board_doc["columns"],
                retained=board_doc["retained"],
                store_retained=doc["store_retained"],
            )
            if int(doc["round"]) != len(session._board):
                raise SnapshotError(
                    f"snapshot session is at round {int(doc['round'])}, but "
                    f"its board records {len(session._board)} rounds"
                )
            session._last = doc["last_observation"]
            session._closed = bool(doc["closed"])
        except SnapshotError:
            raise
        except (
            KeyError, TypeError, AttributeError, IndexError, ValueError
        ) as exc:
            raise SnapshotError(
                "malformed session snapshot payload: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return session


# --------------------------------------------------------------------- #
# the lockstep session
# --------------------------------------------------------------------- #
class BatchedGameSession:
    """L lockstep games as one step-driven round program.

    Every :meth:`submit` steps all L lanes through one vectorized round
    and returns the full column decision; the caller records it, lane
    by lane, on the :class:`~repro.streams.board.ColumnarBoard` sink
    that :func:`lockstep_cohort` pairs the program with.  The lanes'
    horizons and lifecycles belong to their own :class:`GameSession`
    objects.

    The session takes one component instance per lane and compiles its
    lane programs from them: fused strategy lanes, a
    :class:`~repro.core.fusion.TrimLanes`,
    :class:`~repro.core.fusion.InjectorLanes`,
    :class:`~repro.core.fusion.QualityLanes` and
    :class:`~repro.core.fusion.JudgeLanes` program.  The components must
    already be calibrated.  Strategy lanes initialize from their
    instances' current state, so with ``start_index`` and ``last`` the
    session can be seated mid-game, not just at round 1.
    """

    def __init__(
        self,
        *,
        collectors: Sequence[CollectorStrategy],
        adversaries: Sequence[Any],
        injectors: Sequence[Any],
        trimmers: Sequence[Trimmer],
        quality_evaluators: Sequence[Any],
        judges: Sequence[Any],
        store_retained: bool = True,
        start_index: int = 0,
        last: Optional[RoundObservationBatch] = None,
    ):
        n_reps = len(collectors)
        if any(
            len(lane) != n_reps
            for lane in (
                adversaries, injectors, trimmers, quality_evaluators, judges
            )
        ):
            raise ValueError(
                "need one collector, adversary, injector, trimmer, quality "
                "evaluator and judge per lane"
            )
        self.n_reps = n_reps
        self._collectors = fused_collector_lanes(collectors)
        self._adversaries = fused_adversary_lanes(adversaries)
        self.injector = InjectorLanes(injectors)
        self._trim_lanes = TrimLanes(trimmers)
        self._quality = QualityLanes(quality_evaluators, self._trim_lanes)
        self._judges = JudgeLanes(judges)
        self._reference_rows = _reference_rows(trimmers)
        self.store_retained = bool(store_retained)
        self._round = int(start_index)
        self._last = last

    # ------------------------------------------------------------------ #
    @property
    def round_index(self) -> int:
        """Number of completed lockstep rounds."""
        return self._round

    # ------------------------------------------------------------------ #
    def submit(self, batches: ArrayLike) -> BatchedRoundDecision:
        """Step every lane through one lockstep round.

        ``batches`` is the round's benign stack ``(R, batch[, d])`` —
        one row per lane, e.g. one ``next_batch()`` of each lane's
        :class:`~repro.streams.source.StreamSource`, stacked.  A
        misshapen, empty or non-finite stack, or one whose rows are
        shaped unlike the trimmers' calibrated references, raises
        ``ValueError`` before any lane reacts.
        """
        benign = np.asarray(batches, dtype=float)
        if benign.ndim not in (2, 3) or benign.shape[0] != self.n_reps:
            raise ValueError(
                f"benign stack must be shaped ({self.n_reps}, batch[, d]), "
                f"got {benign.shape}"
            )
        _check_batch(benign, self._reference_rows, stacked=True)
        index = self._round + 1
        if self._last is None:
            trim = np.asarray(self._collectors.first_many(), dtype=float)
            inject = np.asarray(self._adversaries.first_many(), dtype=float)
        else:
            trim = np.asarray(self._collectors.react_many(self._last), dtype=float)
            inject = np.asarray(self._adversaries.react_many(self._last), dtype=float)

        observed = ~np.isnan(inject)
        # (R,) per-lane poison counts: 0 where the lane injects nothing
        # this round.
        counts = np.where(
            observed, self.injector.poison_counts(benign.shape[1]), 0
        )
        decision = self._play_segments(index, benign, trim, inject, counts)
        self._last = RoundObservationBatch(
            index=index,
            trim_percentile=decision.threshold,
            injection_percentile=decision.injection_percentile,
            quality=np.asarray(decision.quality, dtype=float),
            observed_poison_ratio=np.asarray(
                decision.observed_poison_ratio, dtype=float
            ),
            betrayal=np.asarray(decision.betrayal, dtype=bool),
        )
        self._round = index
        return decision

    def _play_segments(
        self,
        index: int,
        benign: Array,
        trim: Array,
        inject: Array,
        counts: Array,
    ) -> BatchedRoundDecision:
        """The lockstep round body, one pass per poison-count segment.

        Lanes partition by their round poison count (a round where every
        lane injects the same count is one segment); the stacked kernels
        run once per segment over that segment's ``(rows, batch)``
        sub-stack, drawing each lane's RNG from its own Generator.  Per
        lane this is the same stage order (inject -> trim -> evaluate ->
        judge) as the solo body, so the outputs are byte-identical
        regardless of segmentation.
        """
        n_reps = self.n_reps
        quality = np.empty(n_reps)
        observed_ratio = np.empty(n_reps)
        betrayal = np.empty(n_reps, dtype=bool)
        n_collected = np.empty(n_reps, dtype=np.int64)
        n_poison_retained = np.empty(n_reps, dtype=np.int64)
        n_kept = np.empty(n_reps, dtype=np.int64)
        accept_masks: List[Optional[Array]] = [None] * n_reps
        retained: Optional[List[Optional[Array]]] = (
            [None] * n_reps if self.store_retained else None
        )

        for count in np.unique(counts):
            idx = np.flatnonzero(counts == count)
            # A segment of every lane takes the stack as is, uncopied.
            seg = benign if idx.size == n_reps else benign[idx]
            if count:
                poison = self.injector.materialize_many(
                    seg, inject[idx], idx=idx
                )
                combined = np.concatenate([seg, poison], axis=1)
            else:
                combined = seg
            report = self._trim_lanes.trim_stack(combined, trim[idx], idx)
            scores = report.scores
            if scores is None:
                scores = self._trim_lanes.scores_stack(combined, idx)
                shared = None
            else:
                shared = scores
            seg_ratio, seg_quality = self._quality.evaluate_many(
                combined, shared, idx=idx
            )
            seg_betrayal = self._judges.judge_round_many(
                inject[idx], scores, report.kept, idx=idx
            )
            quality[idx] = seg_quality
            observed_ratio[idx] = seg_ratio
            betrayal[idx] = seg_betrayal
            n_collected[idx] = combined.shape[1]
            n_kept[idx] = report.n_kept
            n_poison_retained[idx] = np.count_nonzero(
                report.kept[:, seg.shape[1]:], axis=1
            )
            for j, r in enumerate(idx):
                accept_masks[r] = report.kept[j]
                if retained is not None:
                    retained[r] = combined[j][report.kept[j]]

        return BatchedRoundDecision(
            index=index,
            threshold=trim,
            injection_percentile=inject,
            quality=quality,
            observed_poison_ratio=observed_ratio,
            betrayal=betrayal,
            n_collected=n_collected,
            n_retained=n_kept,
            n_poison_injected=counts.astype(np.int64),
            n_poison_retained=n_poison_retained,
            accept_masks=accept_masks,
            retained=retained,
        )

    # ------------------------------------------------------------------ #
    def sync_lanes(self) -> None:
        """Write diverged lane state back onto the strategy instances.

        The cohort sink calls this once, when its deferred rounds are
        flushed, so the per-session instances become authoritative
        again — a tenant may step solo or be evicted between lockstep
        rounds, and a finished sweep game is inspected through its
        sessions.  Covers the strategy lane programs and, when the
        injector batches its RNG position draws, the per-lane
        ``Generator`` bit-states.
        """
        self._collectors.finalize()
        self._adversaries.finalize()
        self.injector.finalize()


def lockstep_cohort(
    sessions: Sequence[GameSession],
) -> Tuple[BatchedGameSession, ColumnarBoard]:
    """Seat L solo sessions in one lockstep round program and its sink.

    The one place that builds a :class:`BatchedGameSession`: it compiles the
    lane programs from the sessions' live component instances (strategy
    lanes fuse by family, heterogeneous specs pack into per-lane
    parameter columns), and every lane still draws from its own
    components' Generators, byte-identically to its solo session.

    Any deferred rounds a session still carries from a previous cohort
    are flushed first (the build reads live strategy state and round
    positions), then every session is attached to a fresh
    :class:`~repro.streams.board.ColumnarBoard` sink.  The caller
    records each lockstep round there (``sink.record_decision``); the
    sink's flush writes the lane state back once (``sync_lanes``) and
    every session absorbs its rows.
    """
    for session in sessions:
        session._flush_deferred()
    lead = sessions[0]
    last = None
    if lead.last_observation is not None:
        last = stack_observations(
            [session.last_observation for session in sessions]
        )
    lockstep = BatchedGameSession(
        collectors=[session.collector for session in sessions],
        adversaries=[session.adversary for session in sessions],
        injectors=[session.injector for session in sessions],
        trimmers=[session.trimmer for session in sessions],
        quality_evaluators=[
            session.quality_evaluator for session in sessions
        ],
        judges=[session.judge for session in sessions],
        store_retained=lead.store_retained,
        start_index=lead.round_index,
        last=last,
    )
    sink = ColumnarBoard(
        len(sessions),
        store_retained=lead.store_retained,
        start_index=lead.round_index,
        sync=lockstep.sync_lanes,
    )
    for lane, session in enumerate(sessions):
        session._attach_sink(sink, lane)
    return lockstep, sink

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
  mid-game state capture: the components as they stand (strategy
  state, every RNG consumer's ``Generator`` bit-state, the stream
  position) and the public board.  The board's length is the session's
  round position, and its last row the observation both strategies
  react to next.  A session suspended in one process resumes
  byte-identically in another.
* :class:`BatchedGameSession` — one lockstep *cohort*:
  ``BatchedGameSession(sessions)`` seats L :class:`GameSession` objects
  ("lanes"), compiles their lane programs (:mod:`repro.core.fusion`)
  and owns a :class:`~repro.streams.board.ColumnarBoard` sink.  One
  ``submit()`` call draws the round from the lanes' own sources (or
  takes an explicit ``(L, batch, ...)`` stack) and steps every lane
  through one round of shared array kernels — once per poison-count
  segment (a round where every lane injects the same count is one
  segment) — and records it on the sink, which flushes each lane's
  rows into its own session.  A seated session links to its cohort
  until that flush.  Both lockstep loops seat their sessions this way:
  ``BatchedCollectionGame.run()`` (the freshly reset sessions of L
  ``CollectionGame`` objects: repetitions and fused sweep cells) and the
  :class:`~repro.serving.DefenseService` multiplexer (live tenants,
  from their current state).

Snapshot format
---------------
``snapshot()`` returns a pickled envelope tagged :data:`SNAPSHOT_FORMAT`
that carries each fact once: the calibrated components as they stand,
the :class:`~repro.streams.board.PublicBoard` itself (which pickles as
its own column lists) and a ``session`` document of the horizon, the
score-sharing flag and the closed flag.  ``restore()`` unpickles and
seats them; it calls no component's ``reset()``, and the byte-identity
of the continued game (tested across the full shipped strategy matrix,
and per component by ``repro lint``'s CONF002 audit of this pickler) is
the proof that the pickled components are complete.  What a spec's
dataset already determines is named, not carried: a fit or stream
built on a keyed array
(:func:`~repro.core.domain.key_reference`, e.g. every ``load_reference``
dataset) pickles its key, and restores onto the live array and shared
fit.  The snapshot's own pickler writes each Generator as a rebuild
from its state document and seed sequence, and a stream's epoch order
in the smallest unsigned dtype.  Snapshots are a *process migration*
format, not an archival one: they are tied to the package version that
wrote them and to pickle availability (see README, "Serving live
streams").
"""

from __future__ import annotations

import copyreg
import io
import pickle
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
    SourceLanes,
    TrimLanes,
    _ReusedBuffer,
    fused_adversary_lanes,
    fused_collector_lanes,
)
from .strategies.base import (
    _BIT_GENERATORS,
    AdversaryStrategy,
    CollectorStrategy,
    RoundObservation,
    RoundObservationBatch,
    generator_from_state,
    rng_state,
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
    "round_payoffs",
    "stack_observations",
]

#: Snapshot envelope tag; bumped when the layout changes incompatibly.
SNAPSHOT_FORMAT = "repro.session/2"


class SnapshotError(ValueError):
    """A session snapshot could not be taken or restored.

    Raised for every failure mode of :meth:`GameSession.restore` —
    corrupt or truncated bytes, a foreign/stale envelope format, a
    structurally broken payload, pickled components referencing code
    that no longer exists, or a keyed reference whose loader no longer
    returns the same content — and by :meth:`GameSession.snapshot` when
    the session holds something pickle cannot serialize (the session is
    left untouched), so callers (notably the
    :class:`~repro.serving.DefenseService` tenant quarantine and
    eviction) get one typed failure path instead of raw ``pickle``
    internals.  Subclasses :class:`ValueError` for backward
    compatibility with callers that caught the old untyped error.
    """


#: Unsigned dtypes a snapshot stores an index vector in, smallest first.
_INDEX_DTYPES = tuple((int(np.iinfo(t).max), t) for t in (np.uint8, np.uint16, np.uint32))
#: Shorter vectors (a board's count columns) save less than compacting costs.
_COMPACT_MIN_SIZE = 256


def _widened(compact: Array) -> Array:
    """Unpickle a compacted index vector: int64 and read-only again."""
    wide = compact.astype(np.int64)
    wide.setflags(write=False)
    return wide


def _reduce_array(array: Array) -> Any:
    # A read-only, non-negative int64 vector (a stream's epoch order)
    # travels in the smallest unsigned dtype that holds it.
    if (
        array.ndim == 1
        and array.dtype == np.int64
        and array.size >= _COMPACT_MIN_SIZE
        and not array.flags.writeable
    ):
        top = int(array.view(np.uint64).max())  # a negative entry reads huge
        for limit, dtype in _INDEX_DTYPES:
            if top <= limit:
                return (_widened, (array.astype(dtype),))
    return array.__reduce_ex__(pickle.HIGHEST_PROTOCOL)


def _reduce_generator(rng: np.random.Generator) -> Any:
    # numpy's five bit generators rebuild from their state document and
    # seed sequence without the OS-entropy seeding numpy's own
    # unpickling does first.  The seed sequence is often the object the
    # component holds as its seed, which the pickle memo writes once.
    state = rng_state(rng)
    bit_generator = rng.bit_generator
    if _BIT_GENERATORS.get(state["bit_generator"]) is type(bit_generator):
        return (generator_from_state, (state, bit_generator.seed_seq))
    return rng.__reduce__()


def _snapshot_bytes(payload: Dict[str, Any]) -> bytes:
    """Pickle a snapshot payload with the snapshot's own reducers.

    A Generator is written as a rebuild from its state document and
    seed sequence (:func:`_reduce_generator`) and an index vector
    compactly (:func:`_reduce_array`).  Everything else pickles as
    ``pickle.dumps`` would, and no class-level pickling changes, so a
    standalone ``pickle`` or ``copy.deepcopy`` of a component is whole.
    """
    table: Dict[type, Callable[[Any], Any]] = dict(copyreg.dispatch_table)
    table[np.random.Generator] = _reduce_generator
    table[np.ndarray] = _reduce_array
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = table
    pickler.dump(payload)
    return buffer.getvalue()


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
    ``observation`` is the round's public record for every lane (its
    ``injection_percentile`` uses NaN for "no injection"), which the
    cohort's strategies react to next round; ``accept_masks`` holds one
    boolean mask per lane (lanes may disagree on batch width in the
    ragged mixed-injection case), and ``retained`` carries the per-lane
    retained rows on full (non-lean) sessions.
    """

    observation: RoundObservationBatch
    n_collected: Array
    n_retained: Array
    n_poison_injected: Array
    n_poison_retained: Array
    accept_masks: List[Array]
    retained: Optional[List[Array]] = None

    @property
    def n_reps(self) -> int:
        """Number of rep lanes the round stepped."""
        return self.observation.n_reps


class LaneRoundDecision:
    """One lane of a lockstep round, viewed through column arrays.

    Duck-types :class:`RoundDecision` — same attribute surface, same
    values — but holds only a reference into the round's
    :class:`BatchedRoundDecision` columns plus the lane index.  Scalars,
    the :class:`RoundObservation` and the payoffs materialize lazily on
    first access, so the multiplexer's steady state never pays the
    per-lane object construction a solo round does.  The session is
    held for its payoff model only.
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
        return self._decision.observation.index

    @property
    def threshold(self) -> float:
        return float(self._decision.observation.trim_percentile[self._rep])

    @property
    def injection_percentile(self) -> Optional[float]:
        inj = self._decision.observation.injection_percentile[self._rep]
        return None if np.isnan(inj) else float(inj)

    @property
    def accept_mask(self) -> Array:
        return self._decision.accept_masks[self._rep]

    @property
    def quality(self) -> float:
        return float(self._decision.observation.quality[self._rep])

    @property
    def observed_poison_ratio(self) -> float:
        return float(
            self._decision.observation.observed_poison_ratio[self._rep]
        )

    @property
    def betrayal(self) -> bool:
        return bool(self._decision.observation.betrayal[self._rep])

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
            self._obs = self._decision.observation.rep(self._rep)
        return self._obs

    @property
    def retained(self) -> Optional[Array]:
        retained = self._decision.retained
        return None if retained is None else retained[self._rep]

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
        self._board = PublicBoard(store_retained=store_retained)
        self._closed = False
        self._superseded = False
        # Deferred lockstep rounds: while seated in a cohort, its round
        # program records this session's rounds as (L,) row-batches on
        # the cohort's sink; every authoritative access flushes them
        # wholesale.
        self._cohort: Optional[BatchedGameSession] = None

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
        from .engine import _calibrate, _default_judge
        from .quality import TailMassEvaluator

        quality_evaluator = quality_evaluator or TailMassEvaluator()
        judge = judge or _default_judge()
        _calibrate(
            reference,
            trimmer,
            injector,
            quality_evaluator,
            judge,
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
    def _flush_deferred(self) -> None:
        """Make any deferred lockstep rounds authoritative (whole cohort).

        Any authoritative access — a solo submit, ``result``/``close``,
        ``snapshot``, or reading the board — calls this first, so
        callers never observe a stale session.
        """
        if self._cohort is not None:
            self._cohort.sink.flush_all()

    def _absorb_sink_rows(self, sink: ColumnarBoard, lane: int) -> None:
        """Adopt this session's pending sink rows (sink flush callback)."""
        self._cohort = None
        if sink.n_rounds == 0:
            return
        self._board.extend_columns(*sink.lane_rows(lane))

    # ------------------------------------------------------------------ #
    @property
    def round_index(self) -> int:
        """Number of completed rounds (deferred lockstep rounds included)."""
        if self._cohort is None:
            return len(self._board)
        return self._cohort.round_index

    @property
    def last_observation(self) -> Optional[RoundObservation]:
        """The most recent public observation, or ``None`` before round 1.

        The board's own last record: the session keeps no copy of it.
        """
        self._flush_deferred()
        return self._board.last_observation

    @property
    def board(self) -> PublicBoard:
        """The session's public board (append-only, live)."""
        self._flush_deferred()
        return self._board

    @property
    def store_retained(self) -> bool:
        """Whether the board keeps each round's retained rows (full mode)."""
        return self._board.store_retained

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
        """Both parties' positions for the upcoming round.

        An adversary position of NaN means no injection, as it does in
        the lockstep lanes and in the board's injection column.
        """
        last = self._board.last_observation
        if last is None:
            trim_q = self.collector.first()
            inject_q = (
                self.adversary.first() if self.adversary is not None else None
            )
        else:
            trim_q = self.collector.react(last)
            inject_q = (
                self.adversary.react(last)
                if self.adversary is not None
                else None
            )
        if inject_q is not None and np.isnan(inject_q):
            inject_q = None
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

        Plain-data documents from each component's ``export_state()``
        (empty for stateless components): the audit view that the
        conformance checks and the golden transcript read.  A snapshot
        does not carry them; it is the pickle of the components
        themselves.
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

        The envelope carries each fact once: the calibrated components
        as they stand, the payoff model, the board (its own column
        lists, plus one retained array per round on a full board) and a
        ``session`` document of ``horizon``, ``share_scores`` and
        ``closed``.  The round position, the board mode and the last
        observation are the board's.  See the module docstring for the
        format contract.  Raises :class:`SnapshotError` (chained to
        pickle's error) when the payload cannot be pickled; the session
        stays live.
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
            "board": self._board,
            "session": {
                "horizon": self.horizon,
                "share_scores": self._share_scores,
                "closed": self._closed,
            },
        }
        try:
            return _snapshot_bytes(payload)
        except Exception as exc:
            # A component holding a lambda, a lock, an open file...:
            # the session stays live and untouched, only unparkable.
            raise SnapshotError(
                f"session cannot be snapshot: {type(exc).__name__}: {exc}"
            ) from exc

    @classmethod
    def restore(cls, blob: bytes) -> "GameSession":
        """Rebuild a session from a :meth:`snapshot` blob.

        The unpickled components and board are seated as they are: no
        component is ``reset()``.  The restored session continues
        byte-identically to the uninterrupted original — in this process
        or any other.

        Every failure mode — corrupt bytes, a foreign envelope, a
        structurally broken payload, a board whose columns or retained
        arrays do not fit together — raises :class:`SnapshotError`.
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
            board = payload["board"]
            if not isinstance(board, PublicBoard):
                raise SnapshotError(
                    "snapshot board is a "
                    f"{type(board).__name__}, not a PublicBoard"
                )
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
                payoff_model=payload["payoff_model"],
                source=components["source"],
                reset=False,
            )
            session._board = board
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
    """L solo sessions stepped in lockstep as one round program.

    ``BatchedGameSession(sessions)`` seats L :class:`GameSession`
    objects ("lanes") as one lockstep *cohort*.  Every :meth:`submit`
    steps all L lanes through one vectorized round, records it on the
    cohort's own :class:`~repro.streams.board.ColumnarBoard` sink and
    returns the full column decision.  The sink flushes each lane's
    rows into its session; any authoritative access to a member (a solo
    submit, ``result``/``close``, ``snapshot``, reading the board)
    flushes the whole cohort first, and a flushed cohort plays no more.

    The cohort compiles its lane programs from the members' live
    component instances: fused strategy lanes (by family, heterogeneous
    specs packed into per-lane parameter columns), a
    :class:`~repro.core.fusion.TrimLanes`,
    :class:`~repro.core.fusion.InjectorLanes`,
    :class:`~repro.core.fusion.QualityLanes`,
    :class:`~repro.core.fusion.JudgeLanes` and
    :class:`~repro.core.fusion.SourceLanes` program.  Every lane still
    draws from its own components' Generators and its own stream,
    byte-identically to its solo session.  Members may be seated
    mid-game: strategy lanes start from their instances' current state
    and the cohort from the members' round.  Each round writes its
    joined benign-and-poison stacks into a buffer the cohort owns and
    reuses (its trim program does the same with its radial
    differences); nothing a round returns aliases either.

    Seating checks every member before it touches any: duplicates and
    members that disagree on round position or board mode raise
    ``ValueError``; a closed, superseded or exhausted member raises its
    own ``RuntimeError``.  Deferred rounds a member still owes an
    earlier cohort are flushed before the lanes are built.
    """

    def __init__(self, sessions: Sequence[GameSession]):
        sessions = list(sessions)
        if not sessions:
            raise ValueError("a lockstep cohort needs at least one session")
        if len({id(session) for session in sessions}) != len(sessions):
            raise ValueError("a session is seated twice in one cohort")
        for session in sessions:
            session._check_submittable()
        lead = sessions[0]
        start = lead.round_index
        if any(session.round_index != start for session in sessions):
            raise ValueError(
                "cohort members sit at different rounds: "
                f"{sorted({session.round_index for session in sessions})}"
            )
        if any(
            session.store_retained != lead.store_retained
            for session in sessions
        ):
            raise ValueError("cohort members mix full and lean boards")
        # The build reads live strategy state: earlier cohorts write
        # theirs back first.
        for session in sessions:
            session._flush_deferred()
        self.n_reps = len(sessions)
        self._collectors = fused_collector_lanes(
            [session.collector for session in sessions]
        )
        self._adversaries = fused_adversary_lanes(
            [session.adversary for session in sessions]
        )
        self.injector = InjectorLanes([session.injector for session in sessions])
        trimmers = [session.trimmer for session in sessions]
        self._trim_lanes = TrimLanes(trimmers)
        self._quality = QualityLanes(
            [session.quality_evaluator for session in sessions],
            [session._share_scores for session in sessions],
        )
        self._judges = JudgeLanes([session.judge for session in sessions])
        self.sources = SourceLanes([session.source for session in sessions])
        self._join = _ReusedBuffer()
        self._reference_rows = _reference_rows(trimmers)
        self.store_retained = lead.store_retained
        self._horizon = min(
            (session.horizon for session in sessions if session.horizon is not None),
            default=None,
        )
        self._last: Optional[RoundObservationBatch] = None
        if lead.last_observation is not None:
            self._last = stack_observations(
                [session.last_observation for session in sessions]
            )
        self.sink = ColumnarBoard(
            sessions,
            store_retained=self.store_retained,
            start_index=start,
            sync=self.sync_lanes,
        )
        for session in sessions:
            session._cohort = self

    # ------------------------------------------------------------------ #
    @property
    def round_index(self) -> int:
        """The members' round: completed lockstep rounds included."""
        return self.sink.start_index + self.sink.n_rounds

    @property
    def done(self) -> bool:
        """True when flushed or the smallest member horizon is reached."""
        return self.sink.flushed or (
            self._horizon is not None and self.round_index >= self._horizon
        )

    def seats(self, sessions: Sequence[GameSession]) -> bool:
        """Whether the cohort seats exactly ``sessions``, in this order."""
        seated = self.sink.sessions
        return len(seated) == len(sessions) and all(
            mine is theirs for mine, theirs in zip(seated, sessions, strict=True)
        )

    # ------------------------------------------------------------------ #
    def submit(self, batches: Optional[ArrayLike] = None) -> BatchedRoundDecision:
        """Step every lane through one lockstep round and record it.

        ``batches`` is the round's benign stack ``(R, batch[, d])``, one
        row per lane.  Omitted, the cohort draws the round itself: its
        :class:`~repro.core.fusion.SourceLanes` program returns exactly
        the stack of each lane's own ``source.next_batch()``, gathered
        in one indexed pass per dataset, and leaves every stream where
        those calls would.  Before any lane reacts (and before any
        draw), a flushed cohort, or a round past the smallest member
        horizon, raises ``RuntimeError``, and a lane without a source
        raises ``ValueError``.  A misshapen, empty or non-finite stack,
        or one whose rows are shaped unlike the trimmers' calibrated
        references, raises ``ValueError`` before any lane reacts.
        """
        if self.sink.flushed:
            raise RuntimeError(
                "lockstep cohort flushed: a member was accessed or played "
                "on its own, so seat the sessions in a new cohort"
            )
        index = self.round_index + 1
        if self._horizon is not None and index > self._horizon:
            raise RuntimeError(
                f"horizon of {self._horizon} rounds exhausted; close() the "
                "member sessions to obtain their GameResults"
            )
        if batches is None:
            benign = self.sources.draw()
        else:
            benign = np.asarray(batches, dtype=float)
        if benign.ndim not in (2, 3) or benign.shape[0] != self.n_reps:
            raise ValueError(
                f"benign stack must be shaped ({self.n_reps}, batch[, d]), "
                f"got {benign.shape}"
            )
        _check_batch(benign, self._reference_rows, stacked=True)
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
        self._last = decision.observation
        self.sink.record_decision(decision)
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
                width = seg.shape[1]
                combined = self._join.view(
                    (idx.size, width + poison.shape[1]) + seg.shape[2:]
                )
                combined[:, :width] = seg
                combined[:, width:] = poison
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
            observation=RoundObservationBatch(
                index=index,
                trim_percentile=trim,
                injection_percentile=inject,
                quality=quality,
                observed_poison_ratio=observed_ratio,
                betrayal=betrayal,
            ),
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

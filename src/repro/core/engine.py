"""The multi-round collection game engine (Fig. 3).

Each round the engine

1. draws a benign batch from the stream (step ③),
2. asks the adversary strategy for an injection percentile and
   materializes the poison (step ②),
3. asks the collector strategy for a trimming percentile and trims the
   combined batch (step ④),
4. evaluates the public quality standard and the compliance judgement,
5. records everything on the public board (steps ① ⑥), which both
   strategies observe when choosing the next round's positions (step ⑤).

The engine also keeps ground-truth bookkeeping (which retained points are
poison) that strategies never see but experiments report on.

Both engines are thin loops over :mod:`repro.core.session`:
:class:`CollectionGame` submits one round at a time to a solo
:class:`~repro.core.session.GameSession`, and
:class:`BatchedCollectionGame` takes L calibrated ``CollectionGame``
objects, opens each one's session and seats them in one
:class:`~repro.core.session.BatchedGameSession` cohort, so lane ``r``'s
result is ``games[r]``'s own session's ``close()``.

A game (and ``GameSession.open``) calibrates through one routine,
``_calibrate``: it freezes a writable reference into one read-only copy
and fits the game's trimmer, injector, evaluator and judge on it, so
the trimmer and injector hold one shared
:class:`~repro.core.domain.ReferenceFit` per score family — as do all
the games built on one read-only reference, such as every lane
:class:`~repro.runtime.spec.GameSpec` builds on a dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .arrays import Array, ArrayLike

if TYPE_CHECKING:
    from .payoffs import PayoffModel
    from .session import GameSession

from ..streams.board import PublicBoard
from ..streams.injection import PoisonInjector
from ..streams.source import StreamSource
from .domain import QuantileTable
from .quality import QualityEvaluator, TailMassEvaluator
from .strategies.base import AdversaryStrategy, CollectorStrategy, rng_state
from .trimming import Trimmer

__all__ = [
    "BandExcessJudge",
    "NoisyPositionJudge",
    "GameResult",
    "CollectionGame",
    "BatchedCollectionGame",
]


class BandExcessJudge:
    """Noisy per-round compliance judgement (§V, §VI-D).

    Betrayal in the §VI-D sense is *sub-threshold* poisoning: mass parked
    just under the soft trim position where it survives.  The judge
    measures the retained batch's score mass inside a reference band
    (default: between the 85th and 95th reference percentiles — the
    corridor between the balance point and the soft threshold), compares
    it against the clean band mass, and adds Gaussian noise modeling the
    non-deterministic utility of §V.  The false-positive rate this noise
    induces is what eventually terminates even fully compliant play
    (§V-B).
    """

    def __init__(
        self,
        band: Tuple[float, float] = (0.85, 0.95),
        margin: float = 0.04,
        noise_sigma: float = 0.02,
        seed: Optional[int] = None,
    ):
        lo, hi = band
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("band must satisfy 0 <= lo < hi <= 1")
        if margin < 0.0 or noise_sigma < 0.0:
            raise ValueError("margin and noise_sigma must be non-negative")
        self.band = (float(lo), float(hi))
        self.margin = float(margin)
        self.noise_sigma = float(noise_sigma)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._band_values: Optional[Tuple[float, float]] = None
        self._clean_mass = hi - lo

    def reset(self) -> None:
        """Rewind the noise stream so a reused judge replays identically."""
        self._rng = np.random.default_rng(self._seed)

    def export_state(self) -> dict[str, Any]:
        """The noise Generator's bit-state (session snapshot contract)."""
        return {"rng": rng_state(self._rng)}

    def fit(self, reference_scores: Any) -> "BandExcessJudge":
        """Calibrate the band value cutoffs on clean reference scores.

        Accepts either the raw scores or an already-built
        :class:`~repro.core.domain.QuantileTable` over them — the engine
        passes the trimmer's table so the shared reference is sorted
        exactly once per game.
        """
        if isinstance(reference_scores, QuantileTable):
            table = reference_scores
        else:
            scores = np.asarray(reference_scores, dtype=float).ravel()
            if scores.size == 0:
                raise ValueError("reference scores must be non-empty")
            table = QuantileTable(scores)
        lo_v, hi_v = table.quantile(np.asarray(self.band))
        self._band_values = (float(lo_v), float(hi_v))
        return self

    def judge(self, retained_scores: Array) -> bool:
        """True when the retained band mass exceeds clean mass + margin."""
        if self._band_values is None:
            raise RuntimeError("judge must be fit on reference scores first")
        scores = np.asarray(retained_scores, dtype=float).ravel()
        if scores.size == 0:
            return False
        lo_v, hi_v = self._band_values
        in_band = (scores > lo_v) & (scores <= hi_v)
        # The 0/1 count is exact, so this is np.mean's one division.
        mass = np.count_nonzero(in_band) / in_band.size
        excess = mass - self._clean_mass
        if self.noise_sigma > 0.0:
            excess += float(self._rng.normal(0.0, self.noise_sigma))
        return excess > self.margin

    def judge_round(
        self, injection_percentile: Optional[float], retained_scores: Array
    ) -> bool:
        """Engine entry point; the band judge only inspects the scores."""
        return self.judge(retained_scores)


class NoisyPositionJudge:
    """Noisy compliance judgement on the observed injection position (§V).

    Under the white-box / complete-information model both parties can
    reconstruct the previous round's positions from the public board, so
    the collector can in principle *see* whether the adversary betrayed —
    injected below the agreed boundary where poison survives the soft
    trim.  Non-deterministic utility (LDP noise, §V) makes the judgement
    probabilistic: a true betrayal is missed with ``miss_rate`` (the
    paper's "judges compliance with probability p" when the adversary
    defects), and compliant play is falsely flagged with
    ``false_positive_rate`` (the benign jitter that eventually terminates
    even honest cooperation, §V-B).
    """

    def __init__(
        self,
        boundary: float,
        miss_rate: float = 0.15,
        false_positive_rate: float = 0.075,
        seed: Optional[int] = None,
    ):
        if not 0.0 < boundary < 1.0:
            raise ValueError("boundary must be a percentile in (0, 1)")
        for rate in (miss_rate, false_positive_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must be probabilities")
        self.boundary = float(boundary)
        self.miss_rate = float(miss_rate)
        self.false_positive_rate = float(false_positive_rate)
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        """Rewind the noise stream so a reused judge replays identically."""
        self._rng = np.random.default_rng(self._seed)

    def export_state(self) -> dict[str, Any]:
        """The noise Generator's bit-state (session snapshot contract)."""
        return {"rng": rng_state(self._rng)}

    def fit(self, reference_scores: Any) -> "NoisyPositionJudge":
        """Stateless; present for engine-interface uniformity."""
        return self

    def judge_round(
        self, injection_percentile: Optional[float], retained_scores: Array
    ) -> bool:
        """Noisy verdict on whether the round's injection was a betrayal."""
        if injection_percentile is None:
            truly_betrayed = False
        else:
            truly_betrayed = float(injection_percentile) < self.boundary
        if truly_betrayed:
            return bool(self._rng.random() >= self.miss_rate)
        return bool(self._rng.random() < self.false_positive_rate)


@dataclass
class GameResult:
    """Outcome of one full collection game."""

    board: PublicBoard
    collector_name: str
    adversary_name: str
    termination_round: Optional[int]

    @property
    def rounds(self) -> int:
        """Number of completed rounds."""
        return len(self.board)

    def retained_data(self) -> Array:
        """All data surviving trimming, across every round."""
        return self.board.retained_data()

    def poison_retained_fraction(self) -> float:
        """Fraction of retained points that are poison (Table III metric)."""
        return self.board.poison_retained_fraction()

    def trimmed_fraction(self) -> float:
        """Fraction of all collected points that were trimmed."""
        return self.board.trimmed_fraction()

    def threshold_path(self) -> Array:
        """Per-round trimming percentiles the collector played.

        Served straight from the board's append-only column arrays —
        O(1) after the first access, no per-observation iteration.  The
        returned array is read-only (it aliases the board's cache).
        """
        return self.board.columns.trim_percentile

    def injection_path(self) -> Array:
        """Per-round injection percentiles (NaN where no injection).

        Column-backed and read-only, like :meth:`threshold_path`.
        """
        return self.board.columns.injection_percentile

    def to_records(self) -> List[Dict[str, Any]]:
        """Per-round summary dicts for external analysis/plotting.

        One dict per round with the public observation fields plus the
        ground-truth bookkeeping (counts of collected/retained/poison) —
        ready for ``csv.DictWriter`` or a dataframe constructor.  Built
        from the board's column arrays, never from observation objects.
        """
        cols = self.board.columns
        records = []
        for t in range(cols.rounds):
            injection = cols.injection_percentile[t]
            records.append(
                {
                    "round": int(cols.index[t]),
                    "trim_percentile": float(cols.trim_percentile[t]),
                    "injection_percentile": (
                        None if np.isnan(injection) else float(injection)
                    ),
                    "quality": float(cols.quality[t]),
                    "observed_poison_ratio": float(
                        cols.observed_poison_ratio[t]
                    ),
                    "betrayal": bool(cols.betrayal[t]),
                    "n_collected": int(cols.n_collected[t]),
                    "n_retained": int(cols.n_retained[t]),
                    "n_poison_injected": int(cols.n_poison_injected[t]),
                    "n_poison_retained": int(cols.n_poison_retained[t]),
                }
            )
        return records


def _default_judge() -> BandExcessJudge:
    """The judge a game takes when none is given: a noiseless band judge.

    It never draws from its Generator (``noise_sigma=0``), but the
    Generator still rides in every snapshot, so it is seeded: two
    sessions of one game snapshot to the same bytes.
    """
    return BandExcessJudge(noise_sigma=0.0, seed=0)


def _calibrate(
    reference: ArrayLike,
    trimmer: Any,
    injector: Optional[Any],
    evaluator: Any,
    judge: Any,
    anchor: str = "reference",
) -> Array:
    """Fit one game's round components on the clean reference.

    The white-box adversary knows the public quality standard, so the
    injector calibrates on the same reference as the trimmer and the
    evaluator.  The score center always comes from the reference (a
    batch-local center is evadable — see :mod:`repro.core.trimming`);
    ``anchor`` only selects the cutoff-quantile source.  The trimmer is
    fit first, then the injector (skipped when ``None``, as in
    live-mode sessions) and the evaluator; the judge then reuses the
    trimmer's reference scores, and a :class:`BandExcessJudge` takes
    the trimmer's quantile table outright.

    A writable reference is first frozen into one read-only copy, so
    the trimmer and injector share one
    :class:`~repro.core.domain.ReferenceFit` per score family — as do
    all live components fit on one read-only (e.g. process-cached)
    reference.  Returns the read-only reference.
    """
    if anchor not in ("reference", "batch"):
        raise ValueError("anchor must be 'reference' or 'batch'")
    arr = np.asarray(reference, dtype=float)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    trimmer.anchor = anchor
    trimmer.fit_reference(arr)
    if injector is not None:
        injector.fit_reference(arr)
    evaluator.fit(arr)
    reference_scores = getattr(trimmer, "reference_scores", None)
    if reference_scores is None:
        reference_scores = trimmer.scores(arr)
    table = getattr(trimmer, "reference_table", None)
    if isinstance(judge, BandExcessJudge) and table is not None:
        judge.fit(table)
    else:
        judge.fit(reference_scores)
    return arr


class CollectionGame:
    """Orchestrates the repeated trimming game between two strategies.

    Parameters
    ----------
    source:
        Benign stream (one batch per round).
    collector / adversary:
        The two strategies.
    injector:
        Poison materializer carrying the attack ratio.
    trimmer:
        Trimming operator.  If ``reference`` is given and the trimmer has
        not been fitted yet, the engine fits it (reference anchoring);
        pass a plain unfitted trimmer and ``anchor="batch"`` for
        batch-percentile trimming.
    reference:
        Clean calibration data ``X0`` for the quality standard, the
        trimmer (under reference anchoring) and the judge.
    quality_evaluator:
        The public ``Quality_Evaluation()``; defaults to a
        :class:`~repro.core.quality.TailMassEvaluator` at the 0.9
        reference quantile.
    judge:
        Per-round compliance judge; defaults to a noiseless, fixed-seed
        :class:`BandExcessJudge`.
    rounds:
        Number of rounds to play.
    anchor:
        ``"reference"`` (default) or ``"batch"`` trimming anchoring, see
        :mod:`repro.core.trimming`.
    store_retained:
        ``True`` (default) keeps every round's retained array on the
        public board; ``False`` plays the game on a lean board that
        keeps only running counts — callers that consume the result
        through summary records (sweep reducers in particular) save the
        O(rounds × batch) retained storage.  ``retained_data()`` is
        unavailable on a lean result.
    """

    def __init__(
        self,
        source: StreamSource,
        collector: CollectorStrategy,
        adversary: AdversaryStrategy,
        injector: PoisonInjector,
        trimmer: Trimmer,
        reference: ArrayLike,
        quality_evaluator: Optional[QualityEvaluator] = None,
        judge: Optional[BandExcessJudge] = None,
        rounds: int = 20,
        anchor: str = "reference",
        store_retained: bool = True,
    ) -> None:
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.source = source
        self.collector = collector
        self.adversary = adversary
        self.injector = injector
        self.trimmer = trimmer
        self.rounds = int(rounds)
        self.store_retained = bool(store_retained)
        self.quality_evaluator = quality_evaluator or TailMassEvaluator()
        self.judge = judge or _default_judge()
        self.reference = _calibrate(
            reference,
            self.trimmer,
            self.injector,
            self.quality_evaluator,
            self.judge,
            anchor,
        )
        # Whether the evaluator can score rounds straight off the trim
        # report's batch scores (commensurable score families) instead
        # of running its own sweep over the combined batch.
        self._share_scores = self.quality_evaluator.accepts_scores(
            getattr(self.trimmer, "score_kind", None)
        )

    # ------------------------------------------------------------------ #
    def session(
        self,
        horizon: Union[int, str, None] = "rounds",
        payoff_model: "Optional[PayoffModel]" = None,
        attach_source: bool = False,
    ) -> "GameSession":
        """Open a push-driven :class:`~repro.core.session.GameSession`.

        Hands the engine's calibrated components to a session whose
        *caller* owns the loop: ``submit(batch)`` plays one round,
        ``close()`` returns the :class:`GameResult`.  Every stochastic
        component is rewound first — exactly the :meth:`run` contract —
        so a fresh session replays the identical game.

        ``horizon`` defaults to the engine's ``rounds``; pass ``None``
        for an open-ended session.  ``attach_source=True`` hands the
        engine's stream to the session so ``submit()`` may be called
        without a batch (and the stream's position rides along in
        snapshots).

        Sessions share the engine's live component instances, so only
        one can be active per engine: opening a new session (or calling
        :meth:`run`) resets those components and *supersedes* any
        previous session, whose further ``submit``/``snapshot`` calls
        raise instead of silently diverging.
        """
        from .session import GameSession

        previous = getattr(self, "_active_session", None)
        if previous is not None:
            previous._supersede()
        if not attach_source:  # an attached stream is rewound by the session
            self.source.reset()
        self._active_session = session = GameSession(
            collector=self.collector,
            adversary=self.adversary,
            injector=self.injector,
            trimmer=self.trimmer,
            quality_evaluator=self.quality_evaluator,
            judge=self.judge,
            share_scores=self._share_scores,
            horizon=self.rounds if horizon == "rounds" else horizon,
            store_retained=self.store_retained,
            payoff_model=payoff_model,
            source=self.source if attach_source else None,
        )
        return session

    def run(self) -> GameResult:
        """Play all rounds and return the game outcome.

        Every stochastic component is rewound first, so calling ``run``
        again on the same engine replays the identical game — the
        contract sweep repetitions and regression tests rely on.  The
        loop itself is a thin driver over the session transition: one
        :meth:`GameSession.submit <repro.core.session.GameSession.submit>`
        per round, byte-identical to the historical in-engine loop.
        """
        session = self.session()
        for _ in range(self.rounds):
            session.submit(self.source.next_batch())
        return session.close()


class BatchedCollectionGame:
    """Plays L calibrated collection games in lockstep.

    ``BatchedCollectionGame(games)`` takes L :class:`CollectionGame`
    objects that share one ``rounds``.  :meth:`run` opens each game's
    session with its stream attached, seats the L sessions in one
    :class:`~repro.core.session.BatchedGameSession` cohort and submits
    ``rounds`` times: one Python loop over the T rounds total, in which
    the cohort draws each round from the games' own streams and every
    later step (strategy reactions, poison materialization, trimming,
    quality evaluation, compliance judgement) operates on ``(L, batch)``
    stacks through the lane programs of :mod:`repro.core.fusion`; the
    cohort records the round as one ``(L,)`` row-batch on its
    :class:`~repro.streams.board.ColumnarBoard` sink.  The games may be
    repetitions of one sweep cell or different cells: strategies,
    attack ratios, jitters and component parameters may all differ game
    to game.  Shipped classes run array-native; user strategies and
    custom ``trim`` overrides fall back to a per-lane loop.

    Reproducibility contract (asserted by the test suite and the
    ``bench_batched_engine`` gate): lane ``r`` of :meth:`run` is
    **byte-identical** to ``games[r].run()``.  Each lane is that game's
    own session over its own components, so this holds wherever the
    lane programs match the solo round, which they do: every lane draws
    from its own streams and Generators (strategies, injector jitter,
    judge noise), games built on one read-only reference hold one
    :class:`~repro.core.domain.ReferenceFit`, and the vectorized kernels'
    per-lane rows are elementwise-identical to the scalar paths.  After
    :meth:`run`, each game's components hold its lane's end state, as
    after ``games[r].run()``.
    """

    def __init__(self, games: Sequence[CollectionGame]) -> None:
        games = list(games)
        if not games:
            raise ValueError("a lockstep game needs at least one game")
        if len({id(game) for game in games}) != len(games):
            raise ValueError("a game is seated twice in one lockstep game")
        horizons = sorted({game.rounds for game in games})
        if len(horizons) > 1:
            raise ValueError(
                f"lockstep games must share one horizon, got rounds {horizons}"
            )
        self.games = games
        self.rounds = horizons[0]

    # ------------------------------------------------------------------ #
    def run(self) -> List[GameResult]:
        """Play all rounds for every game; one result per game, in order.

        Each game's ``session(attach_source=True)`` rewinds its
        stochastic components and stream, so running the same engine
        twice replays all L games identically.  The sessions step
        together as one :class:`~repro.core.session.BatchedGameSession`
        cohort — the round program and deferred sink the
        :class:`~repro.serving.DefenseService` multiplexes live tenants
        through — and the first ``close()`` flushes the cohort's sink
        into every game's session.
        """
        from .session import BatchedGameSession

        sessions = [game.session(attach_source=True) for game in self.games]
        lockstep = BatchedGameSession(sessions)
        for _ in range(self.rounds):
            lockstep.submit()
        return [session.close() for session in sessions]

"""The multi-tenant defense multiplexer.

A deployment serves *many* concurrent collection games — one per tenant
feed — and most of them run the same defense configuration.  Playing
each round tenant-by-tenant wastes exactly the Python-loop overhead the
lockstep engine already eliminated for sweep repetitions, so
:class:`DefenseService` reuses that machinery across *live sessions*:

* tenants are opened from :class:`~repro.runtime.spec.GameSpec` recipes
  and grouped by :func:`~repro.runtime.spec.fusion_group_key` — the
  lockstep *family* relation: strategies, datasets, attack ratios and
  seeds may all differ, as long as the cohort shares one injection
  mode, one trimmer/quality/judge class and one batch geometry;
* :meth:`DefenseService.submit_many` steps every same-family,
  same-round cohort through one fused
  :class:`~repro.core.session.BatchedGameSession` round — strategy
  lanes fused per family with heterogeneous parameters packed into
  ``(L,)`` columns (:mod:`repro.core.fusion`), trims, quality scores
  and judge verdicts computed on ``(L, n)`` stacks.  The cohort records
  the round on its :class:`~repro.streams.board.ColumnarBoard` sink,
  which flushes each lane's rows into the tenant's own board.  A
  cohort lives on its members across rounds, and the service finds it
  again through the lead member; any out-of-band touch of a member
  flushes the cohort, which ends it.  A call that names one live
  cohort whole is one ``cohort.submit()``: the cohort draws the round
  through its :class:`~repro.core.fusion.SourceLanes` program, with no
  per-tenant pre-flight.  The sweep engine's lockstep
  games seat their sessions the same way.  Tenants that
  cannot join a cohort (odd round position, odd batch shape), and
  same-round, same-shape runs of fewer than ``_MIN_COHORT`` (four)
  tenants, whose solo rounds cost less than one lockstep round, play
  their solo :meth:`~repro.core.session.GameSession.submit`,
  byte-identically;
* idle tenants are evicted to snapshots — in memory, or persisted in a
  :class:`~repro.runtime.store.ResultStore` — and transparently
  restored on their next submit, so resident memory is bounded by
  ``max_resident`` rather than by the tenant count.  Eviction takes
  the idle tenant with the fewest aged uses (rounds served, halved
  every ``10 * max_resident`` uses), so tenants that keep coming back
  stay resident.  Live tenants on one dataset and size share one
  :class:`~repro.core.domain.ReferenceFit`.  A tenant's snapshot names
  that fit and its stream's dataset by key (``load_reference``'s name
  and size plus a content digest) instead of carrying their rows, so a
  restored tenant rejoins the live shared fit and its lane group.

The byte-identity contract of the lockstep path (every multiplexed
round equals the tenant's solo round, bit for bit) is asserted by the
test suite and re-asserted on every run of
``benchmarks/bench_service.py``.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..core.session import (
    BatchedGameSession,
    GameSession,
    LaneRoundDecision,
    RoundDecision,
    SnapshotError,
    _check_batch,
    _reference_rows,
)
from ..runtime.spec import GameSpec, fusion_group_key, rep_keys_equal

if TYPE_CHECKING:  # annotation-only imports
    from ..core.engine import GameResult
    from ..runtime.store import ResultStore

__all__ = ["DefenseService", "ServiceStats", "TenantFailure"]

#: What one tenant's slot of a ``submit_many`` round resolves to: a full
#: :class:`RoundDecision` on the solo path, a lazily-materialized
#: :class:`LaneRoundDecision` column view on the lockstep path (same
#: attribute surface, same values).
AnyRoundDecision = Union[RoundDecision, LaneRoundDecision]

#: The smallest same-shape run that plays as a lockstep cohort; shorter
#: runs play solo.  It is the smallest L at which one round of a
#: *reused* cohort beats L solo rounds on single-configuration taxi
#: tenants (batch 100), so below it solo wins whether or not the cohort
#: would be reused.  One ``submit_many`` tick, median (range) of 7 runs
#: on a 2-CPU container:
#:
#:   L   L solo rounds       reused cohort round
#:   2   139 (137-141) us    213 (199-228) us
#:   3   199 (197-207) us    209 (198-252) us
#:   4   264 (258-275) us    207 (201-214) us
#:
#: (L = 2 is 3 runs.  A fresh cohort, built, played and flushed, costs
#: 411 (406-419) us at L = 2 over 5 runs.)  Mixes of several
#: configurations cross later (nine-configuration hetero-taxi near
#: L = 8); the constant does not tell mixes apart.
_MIN_COHORT = 4

#: Under a ``max_resident`` cap every tenant's use count halves once per
#: ``_AGING_PERIOD * max_resident`` uses served: TinyLFU's reset period,
#: ten times the cache size (Einziger, Friedman and Manes, ACM TOS
#: 2017), so a tenant that was hot and went cold still leaves.
_AGING_PERIOD = 10


@dataclass
class ServiceStats:
    """Running operation counters of one :class:`DefenseService`.

    ``lane_builds`` counts the lockstep cohorts the service seated;
    ``lane_cache_hits`` counts the lockstep rounds that reused the
    members' live cohort instead.  ``solo_rounds`` counts every solo
    round: :meth:`DefenseService.submit` calls, and the ``submit_many``
    tenants that could not fuse or whose same-round, same-shape run
    was shorter than ``_MIN_COHORT``.

    The ``*_seconds`` fields are cumulative wall-clock phase timers of
    the lockstep path: ``lane_build_seconds`` covers cohort compilation
    (including the wholesale flush of any deferred rounds a rebuild
    forces), ``kernel_seconds`` the fused round kernels and the
    cohort's sink append, and ``absorb_seconds`` the per-round lane
    decision views.
    """

    opened: int = 0
    closed: int = 0
    solo_rounds: int = 0
    lockstep_rounds: int = 0
    lockstep_lanes: int = 0
    lane_builds: int = 0
    lane_cache_hits: int = 0
    evictions: int = 0
    restores: int = 0
    quarantined: int = 0
    lane_build_seconds: float = 0.0
    kernel_seconds: float = 0.0
    absorb_seconds: float = 0.0


@dataclass(frozen=True)
class TenantFailure:
    """Why one tenant was quarantined out of a :meth:`submit_many` call.

    ``kind`` classifies the failure stage: ``"snapshot"`` (the tenant's
    persisted snapshot would not restore — :class:`SnapshotError`),
    ``"lifecycle"`` (closed / superseded / missing source / unknown id),
    ``"input"`` (its explicit batch is empty, holds a non-finite value
    or has rows shaped unlike its calibrated reference) or ``"round"``
    (its solo round raised).  ``error`` is the rendered exception.
    """

    session_id: str
    kind: str
    error: str


class DefenseService:
    """Holds and multiplexes many concurrent defense sessions.

    Parameters
    ----------
    store:
        Optional :class:`~repro.runtime.store.ResultStore`; evicted
        sessions persist their snapshots there (surviving the process —
        a later service re-attaches them with :meth:`adopt`), otherwise
        snapshots are kept in memory.
    namespace:
        Key prefix isolating this service's snapshots inside a shared
        store.  Two services sharing one store must use distinct
        namespaces (or distinct session ids); a restore additionally
        verifies that the stored snapshot belongs to this session id
        and spec, so a collision fails loudly instead of silently
        resuming another tenant's game.
    max_resident:
        Soft cap on live (non-evicted) sessions.  When an ``open`` or
        restore pushes the resident count above it, the idle sessions
        with the fewest aged uses are evicted automatically.  A use is
        one round a tenant plays through the service; every count
        halves once per ``10 * max_resident`` uses, so a tenant that
        went cold loses its standing, and ties go to the least recently
        used tenant (with no history, eviction is LRU).  A tenant that
        cannot be snapshot (:class:`SnapshotError`) is passed over and
        stays resident; if no tenant can go, the count stays above the
        cap and the call succeeds anyway.

    Same-round, same-shape cohorts of ``_MIN_COHORT`` (four) or more
    tenants play in lockstep, each as one whole ``(L, batch)`` stack;
    shorter runs take the solo path, tenant by tenant.
    A cohort lives on its members: while the lead member's cohort seats
    exactly the round's sessions, in order, the round reuses its
    compiled lane programs, however many cohorts are live.  Any
    out-of-band touch of a member (solo round, eviction, ``session()``
    access …) flushes the cohort's deferred sink, which ends it; a
    restored tenant is a new session object.

    A ``submit_many`` call whose ids are exactly one live cohort's
    seats, in order, all resident and all pulling from their sources,
    is a *cohort-native tick*: one ``cohort.submit()``, which draws the
    round itself, plus one use recorded per tenant in call order.  The
    per-tenant pre-flight is skipped because an unflushed cohort
    already proves it passes.  Every other call takes the per-tenant
    path, with the same decisions, errors and quarantines.
    """

    def __init__(
        self,
        store: Optional["ResultStore"] = None,
        namespace: str = "default",
        max_resident: Optional[int] = None,
    ):
        if max_resident is not None and max_resident < 1:
            raise ValueError("max_resident must be >= 1 (or None)")
        self._store = store
        self.namespace = str(namespace)
        self.max_resident = max_resident
        #: Resident sessions, least recently used first: a round moves
        #: the id to the end, and eviction breaks ties at the front.
        self._sessions: OrderedDict[str, GameSession] = OrderedDict()
        #: Use counts under a ``max_resident`` cap: id -> (count, epoch
        #: of its last update).  An epoch ends every ``_AGING_PERIOD *
        #: max_resident`` uses, and a count is shifted right once per
        #: epoch passed when it is next read or bumped: the numbers of
        #: halving every count each epoch, with no pass over the tenants.
        #: Close and quarantine drop a count, so an id that ``open`` or
        #: ``adopt`` accepts starts at zero.
        self._uses: Dict[str, Tuple[int, int]] = {}
        self._epoch = 0
        self._epoch_uses = 0
        self._specs: Dict[str, GameSpec] = {}
        self._group_of: Dict[str, int] = {}
        self._group_keys: List[tuple] = []
        #: Evicted session ids -> in-memory snapshot blob (None when the
        #: blob lives in the result store instead).
        self._evicted: Dict[str, Optional[bytes]] = {}
        #: Tenants restored from the store whose record still holds
        #: their state.  The record goes once the tenant can move past
        #: it (its first round through the service, or a live handle
        #: handed out), so a later ``adopt`` never resumes a stale
        #: round; a tenant quarantined before that keeps its record.
        self._stored_current: Set[str] = set()
        #: Tenants pulled out of service by a quarantining submit_many.
        self._quarantined: Dict[str, TenantFailure] = {}
        self._next_id = 0
        self.stats = ServiceStats()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def open(
        self,
        spec: GameSpec,
        session_id: Optional[str] = None,
        horizon: Union[int, str, None] = "spec",
        payoff_model: Any = None,
    ) -> str:
        """Open a new tenant session from a declarative game recipe.

        Returns the session id (generated ``session-N`` when not
        given).  ``horizon`` defaults to the spec's ``rounds``; pass
        ``None`` for an open-ended tenant.  The spec's stream is
        attached, so ``submit`` calls without a batch serve the spec's
        own traffic.
        """
        if session_id is None:
            # Skip over ids the caller already claimed explicitly, and
            # quarantined ones: their failure record and persisted blob
            # stay until the caller reuses the id on purpose.
            taken = (self._sessions, self._evicted, self._quarantined)
            while any(f"session-{self._next_id}" in ids for ids in taken):
                self._next_id += 1
            session_id = f"session-{self._next_id}"
            self._next_id += 1
        if session_id in self._sessions or session_id in self._evicted:
            raise ValueError(f"session id {session_id!r} already exists")
        session = spec.session(
            horizon=spec.rounds if horizon == "spec" else horizon,
            payoff_model=payoff_model,
        )
        # Reusing a quarantined tenant's id replaces it; the stale
        # failure record must not shadow the healthy newcomer.
        self._quarantined.pop(session_id, None)
        self._sessions[session_id] = session
        self._specs[session_id] = spec
        self._group_of[session_id] = self._group_index(spec)
        self.stats.opened += 1
        self._enforce_residency(protect={session_id})
        return session_id

    def _group_index(self, spec: GameSpec) -> int:
        key = fusion_group_key(spec)
        for index, existing in enumerate(self._group_keys):
            if rep_keys_equal(existing, key):
                return index
        self._group_keys.append(key)
        return len(self._group_keys) - 1

    def session_ids(self) -> List[str]:
        """All known session ids (resident and evicted), oldest first."""
        return list(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    @property
    def resident_ids(self) -> List[str]:
        """Ids of sessions held live in memory, least recently used first.

        Recency only breaks ties: eviction takes the idle tenant with
        the fewest aged uses, so this is not the eviction order.
        """
        return list(self._sessions)

    @property
    def evicted_ids(self) -> List[str]:
        """Ids of sessions currently parked as snapshots."""
        return list(self._evicted)

    @property
    def quarantined_ids(self) -> List[str]:
        """Ids of tenants quarantined by failing ``submit_many`` rounds."""
        return list(self._quarantined)

    def quarantine_reason(self, session_id: str) -> TenantFailure:
        """The :class:`TenantFailure` that quarantined one tenant."""
        return self._quarantined[session_id]

    def session(self, session_id: str) -> GameSession:
        """The live :class:`GameSession` (restoring it if evicted).

        Handing out the live handle flushes any deferred lockstep
        rounds first, so the handle's board and round position are
        authoritative; the flush also ends the tenant's cohort, since
        the caller may step or mutate the session directly.  A restore
        that pushes the resident count above ``max_resident`` evicts the
        other sessions with the fewest aged uses.  Handing out a handle
        is not a use.
        """
        session = self._resident(session_id)
        session._flush_deferred()
        self._drop_stored((session_id,))
        self._enforce_residency(protect={session_id})
        return session

    def _resident(self, session_id: str) -> GameSession:
        session = self._sessions.get(session_id)
        if session is not None:
            return session
        if session_id in self._evicted:
            return self._restore(session_id)
        raise KeyError(f"unknown session id {session_id!r}")

    # ------------------------------------------------------------------ #
    # submit
    # ------------------------------------------------------------------ #
    def submit(
        self,
        session_id: str,
        batch: Optional[Any] = None,
        poison_mask: Optional[Any] = None,
    ) -> RoundDecision:
        """Play one round of one tenant (the solo routing path)."""
        session = self._resident(session_id)
        decision = session.submit(batch, poison_mask=poison_mask)
        self._drop_stored((session_id,))
        self._record_uses((session_id,))
        self.stats.solo_rounds += 1
        self._enforce_residency(protect={session_id})
        return decision

    def submit_many(
        self,
        batches: Union[Mapping[str, object], Sequence[str]],
        on_error: str = "raise",
    ) -> Dict[str, AnyRoundDecision]:
        """Play one round for many tenants, multiplexing where possible.

        ``batches`` maps session ids to their round batches (``None``
        pulls from the tenant's attached source), or is a plain
        sequence of ids (all pulled from their sources).  Four or more
        tenants (``_MIN_COHORT``) that share a configuration group, sit
        at the same round and receive same-shaped batches step through
        one vectorized lockstep round; everyone else, shorter runs
        included, is routed solo.  Either way each tenant's
        decision, board and strategy state are byte-identical to solo
        play.  A call that names one live cohort's seats exactly, in
        order, every tenant resident and pulling from its source, plays
        as one cohort-native tick (see the class docstring); it returns,
        raises and counts exactly what the per-tenant path would.

        ``on_error="raise"`` (default): a tenant failing pre-flight —
        unknown id, closed session, missing source, a snapshot that
        will not restore (:class:`SnapshotError`), an explicit batch
        that is empty, holds a non-finite value or has rows shaped
        unlike the tenant's calibrated reference — fails the whole
        call with no state advanced anywhere.  ``"quarantine"``: the
        failing tenant is pulled out of service (recorded on
        :attr:`quarantined_ids` with a :class:`TenantFailure`, its
        persisted snapshot blob left in the store for forensics) and
        the rest of the cohort plays on, byte-identically to a call
        that never named the broken tenant; quarantined tenants are
        absent from the returned mapping.  Solo rounds that raise are
        quarantined too; an error *inside* a lockstep kernel still
        propagates — mid-round failures cannot be attributed to a
        single lane.
        """
        if on_error not in ("raise", "quarantine"):
            raise ValueError("on_error must be 'raise' or 'quarantine'")
        if not isinstance(batches, Mapping):
            ids = list(batches)
            if len(set(ids)) != len(ids):
                raise ValueError(
                    "duplicate session ids in one submit_many call"
                )
            batches = dict.fromkeys(ids)
        order = list(batches)
        cohort = self._named_cohort(order, batches)
        if cohort is not None:
            return self._submit_cohort(cohort, order)

        # Pre-flight *before* any stream or strategy advances: restore
        # evicted members, check lifecycles, batch availability and the
        # explicit batches themselves (the caller's mapping is left as
        # is).  Under on_error="raise" a tenant failing these checks
        # fails the whole call with no state advanced anywhere; under
        # "quarantine" it is isolated here, before it can touch the
        # cohort.  (A kernel error *during* a lockstep round still
        # aborts the call mid-way: cohorts that already played keep
        # their rounds.)
        sessions: Dict[str, GameSession] = {}
        arrays: Dict[str, np.ndarray] = {}
        for sid in order:
            if sid in self._quarantined and on_error == "quarantine":
                # Already pulled out of service; callers that keep
                # naming it just don't get a decision for it — the
                # original TenantFailure stays authoritative.
                continue
            try:
                session = self._resident(sid)
                session._check_submittable()
                if batches[sid] is None and session.source is None:
                    raise ValueError(
                        f"session {sid!r} has no attached source; "
                        "pass its batch explicitly"
                    )
            except (SnapshotError, KeyError, ValueError, RuntimeError) as exc:
                if on_error == "raise":
                    raise
                kind = "snapshot" if isinstance(exc, SnapshotError) else (
                    "lifecycle"
                )
                self._quarantine(sid, kind, exc)
                continue
            if batches[sid] is not None:
                try:
                    batch = np.asarray(batches[sid], dtype=float)
                    _check_batch(batch, _reference_rows([session.trimmer]))
                except (TypeError, ValueError) as exc:
                    if on_error == "raise":
                        raise
                    self._quarantine(sid, "input", exc)
                    continue
                arrays[sid] = batch
            sessions[sid] = session
        order = [sid for sid in order if sid in sessions]

        cohorts: Dict[tuple, List[str]] = {}
        for sid in order:
            cohorts.setdefault(
                (self._group_of[sid], sessions[sid].round_index), []
            ).append(sid)

        decisions: Dict[str, AnyRoundDecision] = {}
        for members in cohorts.values():
            for sid in members:
                if sid not in arrays:
                    arrays[sid] = np.asarray(
                        sessions[sid].source.next_batch(), dtype=float
                    )
            # Fused cohorts mix datasets, so one family cohort may carry
            # several batch geometries; each same-shape run fuses on its
            # own.
            by_shape: Dict[tuple, List[str]] = {}
            for sid in members:
                by_shape.setdefault(arrays[sid].shape, []).append(sid)
            for shaped in by_shape.values():
                if len(shaped) >= _MIN_COHORT:
                    stack = np.stack([arrays[sid] for sid in shaped])
                    views = self._submit_lockstep(shaped, sessions, stack)
                    self._drop_stored(shaped)
                    decisions.update(zip(shaped, views, strict=True))
                    self.stats.lockstep_rounds += 1
                    self.stats.lockstep_lanes += len(shaped)
                    continue
                for sid in shaped:
                    try:
                        decisions[sid] = sessions[sid].submit(arrays[sid])
                    except Exception as exc:
                        if on_error == "raise":
                            raise
                        self._quarantine(sid, "round", exc)
                        continue
                    self._drop_stored((sid,))
                    self.stats.solo_rounds += 1
            self._record_uses(sid for sid in members if sid in decisions)
        survivors = {sid for sid in order if sid in decisions}
        self._enforce_residency(protect=survivors)
        return {sid: decisions[sid] for sid in order if sid in decisions}

    def _named_cohort(
        self, order: List[str], batches: Mapping[str, object]
    ) -> Optional[BatchedGameSession]:
        """The live cohort a call names whole, or ``None``.

        A call qualifies when its ids are exactly the seats of one live,
        unflushed cohort, in order, with every tenant resident, in one
        configuration group and pulling from the source the cohort
        compiled, and the cohort is short of its horizon and draws from
        exact :class:`~repro.streams.source.ArrayStream` sources of one
        shape.  Then every per-tenant pre-flight check is known to
        pass: an unflushed cohort's members are open, unsuperseded and
        at one round, and their draws stack.  Every other call takes
        the per-tenant path.
        """
        lead = self._sessions.get(order[0]) if order else None
        cohort = None if lead is None else lead._cohort
        if (
            cohort is None
            or cohort.done
            or cohort.sources.shape is None
            or any(batch is not None for batch in batches.values())
        ):
            return None
        seated = cohort.sink.sessions
        if (
            # Identity comparisons: every seat resident under its id...
            tuple(map(self._sessions.get, order)) != seated
            # ...still holding the source its cohort compiled...
            or list(map(attrgetter("source"), seated)) != cohort.sources.sources
            # ...and the call one configuration group.
            or len(set(map(self._group_of.__getitem__, order))) != 1
        ):
            return None
        return cohort

    def _submit_cohort(
        self, cohort: BatchedGameSession, order: List[str]
    ) -> Dict[str, AnyRoundDecision]:
        """One cohort-native tick: the cohort draws and plays its round.

        Bookkeeping matches the per-tenant path exactly: one cache hit
        and one lockstep round, and one use per tenant in call order.
        """
        self.stats.lane_cache_hits += 1
        views = self._play_cohort(cohort, None)
        self._drop_stored(order)
        self.stats.lockstep_rounds += 1
        self.stats.lockstep_lanes += len(order)
        self._record_uses(order)
        self._enforce_residency(protect=set(order))
        return dict(zip(order, views, strict=True))

    def _quarantine(
        self, session_id: str, kind: str, exc: BaseException
    ) -> None:
        """Pull a broken tenant out of service, leaving the rest intact.

        The tenant's live/evicted registration is dropped so later calls
        do not trip over it again; a *persisted* snapshot blob stays in
        the store untouched — it is the forensic artifact (and a fixed
        deployment can :meth:`adopt` it back).  A tenant that played
        since its restore has none: its record went when it moved past
        it.
        """
        self._sessions.pop(session_id, None)
        self._evicted.pop(session_id, None)
        self._specs.pop(session_id, None)
        self._group_of.pop(session_id, None)
        self._uses.pop(session_id, None)
        self._stored_current.discard(session_id)
        self._quarantined[session_id] = TenantFailure(
            session_id=session_id,
            kind=kind,
            error=f"{type(exc).__name__}: {exc}",
        )
        self.stats.quarantined += 1

    def _submit_lockstep(
        self,
        members: List[str],
        sessions: Dict[str, GameSession],
        benign: np.ndarray,
    ) -> List[LaneRoundDecision]:
        """One fused round across same-family, same-round tenants.

        The cohort is the lead member's live
        :class:`~repro.core.session.BatchedGameSession` when that one
        seats exactly these session objects, in this order; otherwise a
        new cohort is seated from the tenants' live instances.  A cohort
        that has not been flushed is at its members' round: every
        out-of-band touch of a member (solo round, ``session()`` access,
        close, an eviction's snapshot) flushes it, and a restored or
        reopened tenant is a new object that no live cohort seats.

        The round itself is *deferred*: the cohort records it on its
        :class:`~repro.streams.board.ColumnarBoard` sink as one ``(L,)``
        row-batch and the tenants receive lazy
        :class:`LaneRoundDecision` views — no per-lane board entries,
        no per-round ``sync_lanes()``.  Diverged lane state is written
        back wholesale when the sink flushes (membership change, solo
        round, eviction, handle exposure, ``result()``), keeping every
        tenant byte-identical to solo play.
        """
        lane_sessions = [sessions[sid] for sid in members]
        lockstep = lane_sessions[0]._cohort
        if lockstep is not None and lockstep.seats(lane_sessions):
            self.stats.lane_cache_hits += 1
        else:
            t0 = time.perf_counter()
            lockstep = BatchedGameSession(lane_sessions)
            self.stats.lane_build_seconds += time.perf_counter() - t0
            self.stats.lane_builds += 1
        return self._play_cohort(lockstep, benign)

    def _play_cohort(
        self, cohort: BatchedGameSession, benign: Optional[np.ndarray]
    ) -> List[LaneRoundDecision]:
        """Play one cohort round and view it per lane, timing both.

        ``benign=None`` lets the cohort draw the round itself.
        """
        t0 = time.perf_counter()
        decision = cohort.submit(benign)
        t1 = time.perf_counter()
        views = [
            LaneRoundDecision(decision, rep, session)
            for rep, session in enumerate(cohort.sink.sessions)
        ]
        t2 = time.perf_counter()
        self.stats.kernel_seconds += t1 - t0
        self.stats.absorb_seconds += t2 - t1
        return views

    # ------------------------------------------------------------------ #
    # close / evict / restore
    # ------------------------------------------------------------------ #
    def close(self, session_id: str) -> "GameResult":
        """Seal a tenant and return its final ``GameResult``.

        Any persisted snapshot blob of the tenant is removed from the
        store — a closed session id leaves nothing behind that a later
        tenant reusing the id could accidentally resurrect.
        """
        session = self._resident(session_id)
        result = session.close()
        del self._sessions[session_id]
        del self._specs[session_id]
        del self._group_of[session_id]
        self._uses.pop(session_id, None)
        self._stored_current.discard(session_id)
        self._unlink_record(session_id)
        self.stats.closed += 1
        return result

    def _session_key(self, session_id: str) -> str:
        """Store key of a session snapshot (namespace + id, hex form)."""
        return hashlib.sha256(
            f"repro-defense-session:{self.namespace}:{session_id}".encode(
                "utf-8"
            )
        ).hexdigest()

    def evict(self, session_id: str) -> None:
        """Park a tenant as a snapshot, freeing its live state.

        With a result store attached, the snapshot blob persists on
        disk (surviving the process); otherwise it is kept in memory.
        The next ``submit`` touching the session restores it
        transparently.  A tenant whose snapshot fails, or whose store
        write fails (:class:`SnapshotError`, chained to the ``OSError``),
        stays resident, unsuperseded and playable.
        """
        session = self._sessions.get(session_id)
        if session is None:
            if session_id in self._evicted:
                return  # already parked
            raise KeyError(f"unknown session id {session_id!r}")
        blob: Optional[bytes] = session.snapshot()
        if self._store is not None:
            try:
                self._store.save(
                    self._session_key(session_id),
                    {
                        "session_id": session_id,
                        "spec_key": self._store.key(self._specs[session_id]),
                        "blob": blob,
                    },
                )
            except OSError as exc:
                raise SnapshotError(
                    f"snapshot of session {session_id!r} could not be "
                    f"written to the store: {exc}"
                ) from exc
            blob = None  # parked in the store
        del self._sessions[session_id]
        # The snapshot is now the authoritative copy; a caller-held
        # handle to the evicted object must die loudly, not silently
        # diverge from its restored twin.
        session._supersede()
        self._evicted[session_id] = blob
        self.stats.evictions += 1

    def adopt(self, spec: GameSpec, session_id: str) -> None:
        """Re-attach a store-persisted tenant to this service.

        The public half of the cross-process persistence story: a
        service that evicted a tenant to the store may have exited;
        a fresh service (same store, same ``namespace``) adopts the
        tenant by re-registering its recipe under its session id.  The
        persisted snapshot is validated to belong to exactly this
        (namespace, session id, spec) before it is accepted; the next
        ``submit`` restores it like any evicted tenant.
        """
        if self._store is None:
            raise RuntimeError("adopt() needs a result store")
        if session_id in self._sessions or session_id in self._evicted:
            raise ValueError(f"session id {session_id!r} already exists")
        missing = object()
        record = self._store.load(self._session_key(session_id), missing)
        if record is missing:
            raise KeyError(
                f"no persisted snapshot of session {session_id!r} in "
                f"namespace {self.namespace!r} under {self._store.root}"
            )
        self._validate_snapshot_record(record, session_id, spec)
        self._quarantined.pop(session_id, None)
        self._specs[session_id] = spec
        self._group_of[session_id] = self._group_index(spec)
        self._evicted[session_id] = None

    def _validate_snapshot_record(
        self, record: Any, session_id: str, spec: GameSpec
    ) -> bytes:
        """Check a persisted snapshot belongs to (session_id, spec)."""
        if (
            not isinstance(record, dict)
            or not isinstance(record.get("blob"), bytes)
        ):
            raise SnapshotError(
                f"stored record for session {session_id!r} is not a "
                "service snapshot"
            )
        if record.get("session_id") != session_id or record.get(
            "spec_key"
        ) != self._store.key(spec):
            raise SnapshotError(
                f"stored snapshot under session id {session_id!r} belongs "
                "to a different tenant or spec — use distinct session ids "
                "or service namespaces when sharing a store"
            )
        return record["blob"]

    def _restore(self, session_id: str) -> GameSession:
        # The session stays parked until the restore fully succeeds, so
        # a failed restore (missing/foreign blob) is retryable.
        blob = self._evicted[session_id]
        if blob is None:
            missing = object()
            record = self._store.load(self._session_key(session_id), missing)
            if record is missing:
                raise KeyError(
                    f"snapshot of evicted session {session_id!r} is missing "
                    f"from the store under {self._store.root}"
                )
            blob = self._validate_snapshot_record(
                record, session_id, self._specs[session_id]
            )
        session = GameSession.restore(blob)
        if self._store is not None:
            self._stored_current.add(session_id)
        del self._evicted[session_id]
        self._sessions[session_id] = session
        self.stats.restores += 1
        return session

    def _record_uses(self, session_ids: Iterable[str]) -> None:
        """Record one round of each tenant, in order.

        Each moves to the recent end of the resident dict, and under a
        ``max_resident`` cap its aged use count goes up by one.
        """
        move_to_end = self._sessions.move_to_end
        if self.max_resident is None:
            for sid in session_ids:
                move_to_end(sid)
            return
        period = _AGING_PERIOD * self.max_resident
        for sid in session_ids:
            move_to_end(sid)
            self._uses[sid] = (self._aged_uses(sid) + 1, self._epoch)
            self._epoch_uses += 1
            if self._epoch_uses >= period:
                self._epoch += 1
                self._epoch_uses = 0

    def _drop_stored(self, session_ids: Iterable[str]) -> None:
        """Remove the store records restored tenants may now move past.

        Each caller runs this right after the tenants' own round (or on
        handing out a live handle), so a later failure in the same call
        cannot leave a played tenant's record behind.  A tenant stays
        marked until its unlink succeeds: an ``OSError`` propagates, and
        the tenant's next round or handle tries again.
        """
        if not self._stored_current:
            return
        for sid in self._stored_current.intersection(session_ids):
            self._unlink_record(sid)
            self._stored_current.discard(sid)

    def _unlink_record(self, session_id: str) -> None:
        if self._store is not None:
            self._store.record_path(self._session_key(session_id)).unlink(
                missing_ok=True
            )

    def _aged_uses(self, session_id: str) -> int:
        """A tenant's use count, halved once per epoch since it was set."""
        entry = self._uses.get(session_id)
        return 0 if entry is None else entry[0] >> (self._epoch - entry[1])

    def _enforce_residency(self, protect: AbstractSet[str] = frozenset()) -> None:
        """Evict down to ``max_resident``, fewest aged uses first.

        One scan of the resident dict, least recently used first, picks
        every victim the excess needs: ``heapq.nsmallest`` is stable, so
        ties go to the least recently used tenant, as successive ``min``
        picks would.  A tenant whose snapshot fails is skipped and stays
        resident, so the cap is soft: the call that pushed the count over
        it never fails for it, and later calls try that tenant again.
        """
        if self.max_resident is None:
            return
        failed: Set[str] = set()
        while len(self._sessions) > self.max_resident:
            victims = heapq.nsmallest(
                len(self._sessions) - self.max_resident,
                (
                    sid
                    for sid in self._sessions
                    if sid not in protect and sid not in failed
                ),
                key=self._aged_uses,
            )
            if not victims:
                return
            for victim in victims:
                try:
                    self.evict(victim)
                except SnapshotError:
                    failed.add(victim)

"""Lane programs: the compiled round kernels every lockstep game runs.

A lockstep game steps L *lanes* — one per repetition, sweep cell or
service tenant — through one round of shared array kernels.
:class:`~repro.core.session.BatchedGameSession` builds its lane programs
from its seated sessions' component instances with the pieces below,
whichever caller seats the lanes
(:class:`~repro.core.engine.BatchedCollectionGame`, one session per
solo game, or the :class:`~repro.serving.DefenseService`):

* **Strategy planner** — :func:`fused_collector_lanes` /
  :func:`fused_adversary_lanes` group live strategy instances by lane
  *family* (the registered lane class, refined by its ``group_key``)
  and build one vector lane program per family, packing heterogeneous
  per-lane parameters into ``(L,)`` columns.  Unregistered or declined
  instances land on the per-lane fallback loop for *their sub-group
  only*; everything else stays vectorized.  The composite lane scatters
  each round's observation columns to the family programs and gathers
  their percentile outputs — O(#families) Python calls per round
  instead of O(L).
* **Trim program** — :class:`TrimLanes` resolves the per-lane trimmer
  dispatch (exact shipped class stack / custom loop) once at build
  time, and lays the lanes' distinct reference tables end to end in
  one :class:`~repro.core.domain.QuantileBank`; per round it runs one
  vector score sweep, one gather for every reference-anchored cutoff
  and one row-wise sort for every batch-anchored lane, byte-identical
  to L solo :meth:`~repro.core.trimming.Trimmer.trim` calls.
* **Poison program** — :class:`InjectorLanes` packs attack ratios into
  a column and banks the reference tables of its
  exact-:class:`~repro.streams.PoisonInjector` lanes at build time,
  grouped by the identity of their shared
  :class:`~repro.core.domain.ReferenceFit`; per round it turns every
  lane's jitter positions into its own count of poison rows in one
  gather, with the positions still drawn from each lane's own
  Generator; subclass lanes call their own ``materialize``.
* **Quality and judge programs** — :class:`QualityLanes` scores
  exact-:class:`~repro.core.quality.TailMassEvaluator` stacks in one
  array sweep and :class:`JudgeLanes` computes the shipped judges'
  verdicts in array expressions; other classes loop per lane.

The round stack is ragged: lanes inject different poison counts, so
lane ``j`` owns the first ``sizes[j]`` entries of its row (its benign
rows, then its poison) and NaN pads the rest.  Each program runs once
a round over every lane; a pad scores NaN, which no cutoff, tail or
band comparison keeps or counts, and every per-lane loop sees the
lane's own entries only.  The radial trim scores and the evaluators'
norms share one kernel (:func:`~repro.core.domain._row_norms`), which
writes its squares into a buffer the program reuses.
* **Source program** — :class:`SourceLanes` draws a round's benign
  stack when the cohort is submitted without one.  Exact
  :class:`~repro.streams.source.ArrayStream` lanes of one draw shape
  are grouped by the identity of their dataset array at build time and
  gather their in-epoch rows in one indexed pass per array, each stream
  handing over its next row indices and advancing its own cursor; a
  lane whose draw crosses its epoch end calls its own ``next_batch``,
  so every reshuffle stays in the stream.  A cohort with any other
  source stacks one ``next_batch`` per lane.

Byte-identity contract: every lane's outputs equal, bit for bit, what
its solo :class:`~repro.core.session.GameSession` would have produced.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..streams.injection import LanePositionServer, PoisonInjector
from ..streams.source import ArrayStream, StreamSource
from .arrays import Array
from .domain import QuantileBank, ReferenceFit, _row_norms, sorted_quantile
from .engine import BandExcessJudge, NoisyPositionJudge
from .quality import QualityEvaluator, TailMassEvaluator
from .strategies.base import RoundObservationBatch
from .strategies.batched import (
    _ADVERSARY_LANES,
    _COLLECTOR_LANES,
    AdversaryLanes,
    CollectorLanes,
    FallbackAdversaryLanes,
    FallbackCollectorLanes,
)
from .trimming import BatchTrimReport, RadialTrimmer, Trimmer, ValueTrimmer

__all__ = [
    "FusedCollectorLanes",
    "FusedAdversaryLanes",
    "fused_collector_lanes",
    "fused_adversary_lanes",
    "TrimLanes",
    "InjectorLanes",
    "QualityLanes",
    "JudgeLanes",
    "SourceLanes",
]


# --------------------------------------------------------------------- #
# fusion planner: group lanes by family, build one program per group
# --------------------------------------------------------------------- #
def _plan_parts(
    instances: Sequence[Any],
    registry: dict[type, type],
    fallback_cls: type,
) -> List[Tuple[Array, Any]]:
    """Partition instances into (lane_indices, lanes) family parts.

    Instances group by ``(registered lane class, group_key(inst))`` —
    unregistered classes share one fallback part.  Build order follows
    first appearance, and each part's index array restores the original
    lane order on scatter/gather.
    """
    order: List[Tuple[Any, Any]] = []
    members: dict[Tuple[Any, Any], Tuple[List[int], List[Any]]] = {}
    for i, inst in enumerate(instances):
        lanes_cls = registry.get(type(inst))
        if lanes_cls is None:
            key = (None, None)
        else:
            key = (lanes_cls, lanes_cls.group_key(inst))
        if key not in members:
            members[key] = ([], [])
            order.append(key)
        members[key][0].append(i)
        members[key][1].append(inst)
    parts = []
    for key in order:
        idx, insts = members[key]
        lanes_cls = key[0]
        lanes = lanes_cls.build(insts) if lanes_cls is not None else None
        if lanes is None:
            # Unregistered strategy, or a registered lane declining the
            # sub-group (e.g. a user-defined tit-for-tat trigger).
            lanes = fallback_cls(insts)
        parts.append((np.asarray(idx, dtype=np.intp), lanes))
    return parts


class _FusedLanes:
    """Shared scatter/gather plumbing of the composite lanes."""

    fusion_family = "fused"
    fusion_params = ()

    def _init_parts(self, parts: List[Tuple[Array, Any]]) -> None:
        self._parts = parts
        self.vectorized = all(lanes.vectorized for _, lanes in parts)

    @property
    def parts(self) -> List[Tuple[Array, Any]]:
        """The (lane_indices, family_lanes) partition, in build order."""
        return list(self._parts)

    def _gather(self, produce: Callable[[Array, Any], Any]) -> Array:
        out = np.empty(self.n_reps)
        for idx, lanes in self._parts:
            out[idx] = produce(idx, lanes)
        return out

    def first_many(self) -> Array:
        return self._gather(lambda idx, lanes: lanes.first_many())

    def react_many(self, last: RoundObservationBatch) -> Array:
        return self._gather(
            lambda idx, lanes: lanes.react_many(last.take(idx))
        )

    def finalize(self) -> None:
        for _, lanes in self._parts:
            lanes.finalize()


class FusedCollectorLanes(_FusedLanes, CollectorLanes):
    """Composite collector: one vector program per strategy family.

    Each round the observation batch is scattered (``take``) to the
    family programs and their percentile outputs gathered back into
    lane order — every value the same float64 the lane's family program
    (and hence its solo game) computes.
    """

    def __init__(
        self, instances: Sequence[Any], parts: List[Tuple[Array, Any]]
    ) -> None:
        CollectorLanes.__init__(self, instances)
        self._init_parts(parts)


class FusedAdversaryLanes(_FusedLanes, AdversaryLanes):
    """Composite adversary: one vector program per strategy family."""

    def __init__(
        self, instances: Sequence[Any], parts: List[Tuple[Array, Any]]
    ) -> None:
        AdversaryLanes.__init__(self, instances)
        self._init_parts(parts)


def fused_collector_lanes(instances: Sequence[Any]) -> CollectorLanes:
    """Family-fused lanes for L heterogeneous collector instances.

    A single-family cohort returns the family's own lane program (no
    composite indirection); mixed cohorts return a
    :class:`FusedCollectorLanes` that multiplexes the family programs.
    """
    instances = list(instances)
    if not instances:
        raise ValueError("need at least one strategy instance")
    parts = _plan_parts(instances, _COLLECTOR_LANES, FallbackCollectorLanes)
    if len(parts) == 1:
        return parts[0][1]
    return FusedCollectorLanes(instances, parts)


def fused_adversary_lanes(instances: Sequence[Any]) -> AdversaryLanes:
    """Family-fused lanes for L heterogeneous adversary instances."""
    instances = list(instances)
    if not instances:
        raise ValueError("need at least one strategy instance")
    parts = _plan_parts(instances, _ADVERSARY_LANES, FallbackAdversaryLanes)
    if len(parts) == 1:
        return parts[0][1]
    return FusedAdversaryLanes(instances, parts)


def _group_by_identity(objects: Sequence[Any]) -> Tuple[Array, List[Any]]:
    """(lane -> group id, distinct objects in first-seen order).

    Lanes holding the same object share a group; ``None`` lanes get id
    ``-1``.  Identity only: a lane build compares no array content.
    """
    gid = np.full(len(objects), -1, dtype=np.intp)
    slots: Dict[int, int] = {}
    distinct: List[Any] = []
    for r, obj in enumerate(objects):
        if obj is None:
            continue
        slot = slots.get(id(obj))
        if slot is None:
            slot = slots[id(obj)] = len(distinct)
            distinct.append(obj)
        gid[r] = slot
    return gid, distinct


class _ReusedBuffer:
    """One flat float buffer a lockstep round writes again every round.

    :meth:`view` hands out a C-contiguous view of the buffer in the
    asked shape.  The buffer grows when a round asks for more than it
    holds and is otherwise reused as it stands, so a steady-state round
    neither allocates its large ``(rows, n, d)`` stack nor page-faults
    on a fresh one.  The next request overwrites a view: nothing a round
    hands out may alias it.
    """

    def __init__(self) -> None:
        self._flat = np.empty(0)

    def view(self, shape: Tuple[int, ...]) -> Array:
        """A writable C-contiguous ``shape`` view of the buffer."""
        size = math.prod(shape)
        if self._flat.size < size:
            self._flat = np.empty(size)
        return self._flat[:size].reshape(shape)


# --------------------------------------------------------------------- #
# compiled trim program
# --------------------------------------------------------------------- #
def _lane_sizes(sizes: Optional[Array], n_rows: int, width: int) -> Array:
    """Checked ``(rows,)`` lane sizes of a ragged stack ``width`` wide.

    ``None`` means every row is full.  The widest lane fills the stack.
    """
    if sizes is None:
        return np.full(n_rows, width)
    sizes = np.asarray(sizes, dtype=np.intp)
    if (
        sizes.shape != (n_rows,)
        or int(sizes.min()) < 1
        or int(sizes.max()) != width
    ):
        raise ValueError(
            f"need one lane size in [1, {width}] per row, the widest "
            f"filling the stack; got {sizes.tolist()}"
        )
    return sizes


class TrimLanes:
    """Per-lane trimmers compiled into one round program.

    Row ``j`` of a stack is lane ``j``.  A ragged round's stack is
    ``(L, width[, d])``: lane ``j`` owns its first ``sizes[j]`` entries
    and NaN pads the rest, so a pad scores NaN, sorts last and no
    comparison keeps it.  The dispatch (exact shipped class?  custom
    ``trim`` override?) is resolved once at build time:

    * ``"stacked"`` — one shipped trimmer class (per-lane instances with
      their own anchors/references, or one instance shared by every
      lane): a single vector score sweep, then every reference-anchored
      cutoff from one gather over the lanes' distinct reference tables
      laid end to end (a :class:`~repro.core.domain.QuantileBank`), and
      every batch-anchored cutoff from one row-wise sort of the lanes'
      own scores — the exact expressions of the solo
      :meth:`Trimmer.trim` body.
    * ``"loop"`` — mixed classes or custom ``trim`` overrides: the
      documented per-lane loop through each instance's own ``trim``, on
      the lane's own entries.
    """

    def __init__(self, trimmers: Sequence[Trimmer]):
        self.trimmers = list(trimmers)
        if not self.trimmers:
            raise ValueError("need at least one trimmer")
        lead = self.trimmers[0]
        if type(lead) in (ValueTrimmer, RadialTrimmer) and all(
            type(t) is type(lead) for t in self.trimmers
        ):
            self.mode = "stacked"
        else:
            self.mode = "loop"
        # Stacked reference-anchored lanes read their cutoffs from one
        # bank of their distinct tables; slot -1 marks batch-anchored
        # lanes, whose cutoff depends on the round's own scores.
        self._slot, tables = _group_by_identity(
            [
                t.reference_table
                if self.mode == "stacked" and t.is_reference_anchored
                else None
                for t in self.trimmers
            ]
        )
        self._banked = self._slot >= 0
        self._bank = QuantileBank(tables)
        # Pack radial centers into a column when every lane has a fitted
        # scalar (1-D) or same-dimension center; otherwise the score
        # sweep falls back to a per-lane loop.
        self._centers_1d: Optional[Array] = None
        self._centers_nd: Optional[Array] = None
        if self.mode == "stacked" and type(lead) is RadialTrimmer:
            centers = [
                None if t._fit is None else t._fit.center for t in self.trimmers
            ]
            if all(c is not None and np.size(c) == 1 for c in centers):
                self._centers_1d = np.array(
                    [float(np.reshape(c, ())) for c in centers]
                )
            if all(
                c is not None
                and np.ndim(c) == 1
                and c.shape == centers[0].shape
                for c in centers
            ):
                self._centers_nd = np.stack(
                    [np.asarray(c, dtype=float) for c in centers]
                )
        # The radial differences and their squares, rewritten every round.
        self._squares = _ReusedBuffer()

    @property
    def n_reps(self) -> int:
        """Number of trim lanes."""
        return len(self.trimmers)

    def scores_stack(self, stack: Array, sizes: Optional[Array] = None) -> Array:
        """(L, width) per-point scores of a (ragged) round stack.

        Lane ``j`` scores its first ``sizes[j]`` entries (``None``: every
        entry); a pad scores NaN.  The radial differences and their
        squares go into a buffer the program reuses; the scores never
        alias it (a value stack's scores are the stack itself, as solo).
        """
        if self.mode == "stacked" and type(self.trimmers[0]) is ValueTrimmer:
            if stack.ndim != 2:
                raise ValueError("ValueTrimmer expects (R, n) stacks")
            return stack
        if self.mode == "stacked":  # RadialTrimmer
            if stack.ndim == 2 and self._centers_1d is not None:
                return np.abs(stack - self._centers_1d[:, None])
            centers = self._centers_nd
            if (
                stack.ndim == 3
                and centers is not None
                and centers.shape[1] == stack.shape[2]
            ):
                return _row_norms(stack, centers[:, None, :], self._squares.view)
        n_rows, width = stack.shape[:2]
        sizes = _lane_sizes(sizes, n_rows, width)
        scores = np.full((n_rows, width), np.nan)
        for j, size in enumerate(sizes.tolist()):
            scores[j, :size] = self.trimmers[j].scores(stack[j, :size])
        return scores

    def trim_stack(
        self, stack: Array, percentiles: Array, sizes: Optional[Array] = None
    ) -> BatchTrimReport:
        """One compiled trimming pass over a (ragged) round stack.

        Lane ``j`` owns its first ``sizes[j]`` entries (``None``: every
        entry; the widest lane fills the stack), and entries past them
        must be NaN.  On its own entries, row ``j`` of the report is
        byte-identical to ``self.trimmers[j].trim(stack[j, :sizes[j]],
        percentiles[j])``; no pad is kept.
        """
        arr = np.asarray(stack, dtype=float)
        if arr.ndim not in (2, 3):
            raise ValueError("stacks must be (R, n) or (R, n, d)")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("cannot trim an empty stack")
        if arr.shape[0] != self.n_reps:
            raise ValueError(
                f"stack carries {arr.shape[0]} rows for {self.n_reps} lanes"
            )
        q_in = np.asarray(percentiles, dtype=float)
        if q_in.shape != (arr.shape[0],):
            raise ValueError("need one percentile per rep")
        n_rows, width = arr.shape[:2]
        sizes = _lane_sizes(sizes, n_rows, width)
        if self.mode == "loop":
            return BatchTrimReport.from_reports(
                trimmer.trim(arr[j, :size], float(q_in[j]))
                for j, (trimmer, size) in enumerate(
                    zip(self.trimmers, sizes.tolist(), strict=True)
                )
            )
        scores = self.scores_stack(arr, sizes)
        # Identical to clip_percentile, elementwise (incl. NaN -> 0.0).
        q = np.where(
            np.isnan(q_in), 0.0, np.minimum(1.0, np.maximum(0.0, q_in))
        )
        active = q < 1.0
        cutoffs = np.full(n_rows, np.inf)
        # One gather for every reference-anchored cutoff, elementwise
        # identical to each lane's solo `_cutoff` against its own table.
        rows = np.flatnonzero(active & self._banked)
        if rows.size:
            cutoffs[rows] = self._bank.quantile(self._slot[rows], q[rows])
        rows = np.flatnonzero(active & ~self._banked)
        if rows.size:
            # Batch-anchored lanes: each cutoff is a quantile of the
            # lane's own round scores, all rows from one sort, where the
            # pads sort last.  A lane holding NaN sorts it last among its
            # own entries and gets it as its cutoff, as numpy.quantile
            # gives the solo lane.
            ordered = scores[rows]
            ordered.sort(axis=1)
            n = sizes[rows]
            last = ordered[np.arange(rows.size), n - 1]
            cutoffs[rows] = np.where(
                np.isnan(last), last, sorted_quantile(ordered, q[rows], n)
            )
        kept = scores <= cutoffs[:, None]
        rows = np.flatnonzero(~active)
        if rows.size:
            # A lane at q >= 1 keeps every entry of its own, NaN included.
            kept[rows] = np.arange(width) < sizes[rows, None]
        for j in np.flatnonzero(~kept.any(axis=1)):
            # Same degenerate-batch fallback as the solo path.
            kept[j, int(np.argmin(scores[j, : sizes[j]]))] = True
        return BatchTrimReport(
            kept=kept, threshold_scores=cutoffs, percentiles=q, scores=scores
        )


# --------------------------------------------------------------------- #
# compiled poison program
# --------------------------------------------------------------------- #
class InjectorLanes:
    """Per-lane poison injectors compiled into one round program.

    Lanes carry *different* attack ratios, jitters and reference
    datasets; the program packs the ratios into an ``(L,)`` column, and
    every lane injects its own count each round.  At build time it lays
    the distinct reference tables of its exact
    :class:`~repro.streams.PoisonInjector` lanes end to end (a
    :class:`~repro.core.domain.QuantileBank`, lanes grouped by the
    identity of their shared :class:`~repro.core.domain.ReferenceFit`),
    so a round converts every such lane's positions to poison in one
    gather, while each lane's jitter positions still come from its own
    Generator.  A subclass may override ``materialize`` (e.g. to append
    a label column), so its lanes call their own ``materialize`` —
    jitter draws included — exactly as they would solo.  Unfitted lanes
    and corner-mode lanes on 2-D references place per lane, as solo.
    """

    def __init__(self, injectors: Sequence[Any]) -> None:
        self.injectors = list(injectors)
        if not self.injectors:
            raise ValueError("need at least one injector")
        self._ratios = np.array(
            [float(inj.attack_ratio) for inj in self.injectors]
        )
        self._exact = np.array(
            [type(inj) is PoisonInjector for inj in self.injectors]
        )
        # A value fit places 1-D lanes; a radial fit places radial-mode
        # lanes along its direction (corner mode reads the batch).
        fits: List[Optional[ReferenceFit]] = [
            inj._fit
            if exact
            and inj._fit is not None
            and (inj._fit.kind == "value" or inj.mode == "radial")
            else None
            for inj, exact in zip(self.injectors, self._exact, strict=True)
        ]
        self._fit_gid, self._fits = _group_by_identity(fits)
        self._bank = QuantileBank([fit.table for fit in self._fits])
        # The lanes that play their own materialize call.
        self._subclass_lanes = np.flatnonzero(~self._exact).tolist()
        # Which lanes the bank places, by the round stack's rank: value
        # fits on (L, b) stacks, radial fits of one dimension on
        # (L, b, d) stacks.
        kinds = [None if g < 0 else self._fits[g].kind for g in self._fit_gid]
        self._banked_1d = np.array([kind == "value" for kind in kinds])
        dims = {
            fit.direction.shape for fit in self._fits if fit.direction is not None
        }
        dim = dims.pop()[0] if len(dims) == 1 else 0
        self._banked_nd = np.array(
            [dim > 0 and kind == "radial" for kind in kinds]
        )
        # Each radial slot's center and direction, by bank slot.
        self._centers = np.zeros((len(self._fits), dim))
        self._directions = np.zeros((len(self._fits), dim))
        for slot, fit in enumerate(self._fits):
            if dim and fit.center is not None and fit.direction is not None:
                self._centers[slot] = fit.center
                self._directions[slot] = fit.direction
        self._position_server: Optional[LanePositionServer] = None

    @property
    def n_reps(self) -> int:
        """Number of injector lanes."""
        return len(self.injectors)

    def poison_counts(self, n_benign: int) -> Array:
        """(L,) per-lane poison counts for ``n_benign`` benign rows.

        ``np.rint`` rounds half to even — the same rule as the scalar
        ``int(round(...))`` in ``PoisonInjector.poison_count``.
        """
        return np.rint(self._ratios * float(n_benign)).astype(np.int64)

    def finalize(self) -> None:
        """Advance the real jitter Generators past the served draws.

        The deferred-writeback flush (``BatchedGameSession.sync_lanes``)
        calls this so each lane's own ``Generator`` lands exactly where
        its solo game would have left it.
        """
        if self._position_server is not None:
            self._position_server.sync()

    def materialize_many(
        self, benign: Array, percentiles: Array, counts: Array
    ) -> Array:
        """Every lane's poison for one round, ``(L, max(counts)[, d])``.

        ``benign`` is the round's ``(L, b[, d])`` benign stack and lane
        ``j`` injects ``counts[j]`` rows (0: none, and no draw); NaN pads
        each row past its own count.  Row ``j``'s first ``counts[j]``
        rows are byte-identical to lane ``j``'s solo ``materialize``
        call.
        """
        stack = np.asarray(benign, dtype=float)
        if stack.ndim not in (2, 3):
            raise ValueError("benign stacks must be (R, b) or (R, b, d)")
        counts = np.asarray(counts, dtype=np.intp)
        if stack.shape[0] != self.n_reps or counts.shape != (self.n_reps,):
            raise ValueError(
                f"need one benign row and one count per lane for "
                f"{self.n_reps} lanes, got {stack.shape[0]} rows and "
                f"counts shaped {counts.shape}"
            )
        width = int(counts.max(initial=0))
        out = np.full((self.n_reps, width) + stack.shape[2:], np.nan)
        if width == 0:
            return out
        # A subclass may override materialize: its lane plays its own
        # solo call.
        for j in self._subclass_lanes:
            if counts[j]:
                out[j, : counts[j]] = self.injectors[j].materialize(
                    stack[j], float(percentiles[j])
                )
        lanes = np.flatnonzero((counts > 0) & self._exact)
        if lanes.size:
            self._materialize_exact(stack, percentiles, counts, lanes, out)
        return out

    def _materialize_exact(
        self,
        stack: Array,
        percentiles: Array,
        counts: Array,
        lanes: Array,
        out: Array,
    ) -> None:
        """Write the exact-class ``lanes``' poison into ``out``."""
        if self._position_server is None:
            # Built lazily so the shadow Generators copy each lane's
            # bit-state at the moment draws actually start.
            self._position_server = LanePositionServer(self.injectors)
        own = counts[lanes]
        positions = self._position_server.positions(
            lanes, percentiles[lanes], own
        )
        banked = (self._banked_1d if stack.ndim == 2 else self._banked_nd)[lanes]
        if banked.any():
            # One gather over the bank for every row; every position of a
            # row lies in its lane's band, pads included.  A row the bank
            # does not place reads slot 0 and is overwritten below.
            slots = np.maximum(self._fit_gid[lanes], 0)
            targets = self._bank.quantile(slots[:, None], positions)
            # A pad's target is NaN, and so is every coordinate of its row.
            pads = np.arange(positions.shape[1]) >= own[:, None]
            np.copyto(targets, np.nan, where=pads)
            if stack.ndim == 2:
                poison = targets
            else:
                poison = (
                    self._centers[slots][:, None, :]
                    + targets[:, :, None] * self._directions[slots][:, None, :]
                )
            out[lanes, : positions.shape[1]] = poison
        for k in np.flatnonzero(~banked):
            # Same placement as the lane's solo call, on its own row.
            j = lanes[k]
            out[j, : own[k]] = self.injectors[j]._place(
                stack[j], positions[k, : own[k]]
            )


# --------------------------------------------------------------------- #
# compiled quality and judge programs
# --------------------------------------------------------------------- #
class QualityLanes:
    """Per-lane quality evaluators with a vectorized tail-mass fast path.

    Lane ``r`` keeps its own evaluator instance (solo games do too; a
    seeded or stateful user evaluator diverges per lane).  When every
    instance is exactly a :class:`TailMassEvaluator` — *regardless* of
    its reference quantile or calibrated cutoff, which pack into
    per-lane ``(L,)`` columns — the whole (ragged) stack is scored by
    one array sweep; otherwise the documented per-lane loop runs each
    instance on its lane's own entries.  ``share_flags`` says per lane
    whether its evaluator reuses the trimmer's batch scores: the member
    session's own ``share_scores`` decision, so lane and solo round
    agree.
    """

    def __init__(
        self, evaluators: Sequence[QualityEvaluator], share_flags: Sequence[bool]
    ) -> None:
        self.evaluators = list(evaluators)
        self.share_flags = list(share_flags)
        # The vector program needs one shared score-reuse decision; a
        # mixed-flag cohort takes the loop.
        self.vectorized = all(
            type(ev) is TailMassEvaluator for ev in self.evaluators
        ) and len(set(self.share_flags)) == 1
        self._columns: Optional[Tuple[Array, ...]] = None
        # The squares of a multivariate stack's norms, rewritten every
        # round.
        self._squares = _ReusedBuffer()

    def evaluate_many(
        self,
        stacks: Array,
        scores: Optional[Array],
        sizes: Optional[Array] = None,
    ) -> Tuple[Array, Array]:
        """(observed_ratio, quality) ``(L,)`` pairs for one round stack.

        Lane ``j`` owns its first ``sizes[j]`` entries of the stack
        (``None``: every entry); NaN pads the rest.  ``scores`` is the
        trimmer's ``(L, width)`` batch-score stack (or ``None``); each
        lane reuses it only when its own evaluator accepts the trimmer's
        score family — exactly the solo rule.
        """
        n_rows, width = stacks.shape[:2]
        if self.vectorized:
            if self._columns is None:
                cutoffs = [ev._cutoff for ev in self.evaluators]
                if any(cutoff is None for cutoff in cutoffs):
                    raise RuntimeError(
                        "evaluator must be fit on reference data first"
                    )
                self._columns = (
                    np.array([float(cutoff) for cutoff in cutoffs]),
                    np.array(
                        [
                            float(ev.reference_quantile)
                            for ev in self.evaluators
                        ]
                    ),
                )
            cut, ref_q = self._columns
            if scores is not None and self.share_flags[0]:
                batch_scores = scores
            elif stacks.ndim == 2:
                batch_scores = stacks
            else:
                batch_scores = _row_norms(stacks, alloc=self._squares.view)
            # The per-lane cutoff/quantile columns broadcast through the
            # same elementwise expressions as TailMassEvaluator; a pad
            # scores NaN, which no cutoff counts, and the exact 0/1
            # count over the lane's own size is np.mean's division, so
            # bit-identical to L solo evaluate calls.
            above = np.count_nonzero(batch_scores > cut[:, None], axis=1)
            excess = above / (width if sizes is None else sizes) - (
                1.0 - ref_q
            )
            raws = np.maximum(0.0, excess)
            normalized = np.clip(raws / ref_q, 0.0, 1.0)
            return raws, normalized
        sizes = _lane_sizes(sizes, n_rows, width)
        raws = np.empty(n_rows)
        normalized = np.empty(n_rows)
        for j, size in enumerate(sizes.tolist()):
            shared = (
                scores[j, :size]
                if (scores is not None and self.share_flags[j])
                else None
            )
            raws[j], normalized[j] = self.evaluators[j].evaluate(
                stacks[j, :size], scores=shared
            )
        return raws, normalized


class JudgeLanes:
    """Per-lane compliance judges with vector paths for the shipped two.

    Each lane owns its judge instance (own noise Generator).  Exact-type
    stacks of :class:`~repro.core.engine.BandExcessJudge` /
    :class:`~repro.core.engine.NoisyPositionJudge` compute the verdict
    for all lanes in array expressions, drawing each lane's noise from
    that lane's own Generator under the same conditions as the solo
    path; anything else loops ``judge_round`` per lane.  A pad of a
    ragged round is never kept, so no judge sees one.
    """

    def __init__(self, judges: Sequence[Any]):
        self.judges = list(judges)
        lead = self.judges[0]
        cls = type(lead)
        self.mode = "loop"
        if all(type(judge) is cls for judge in self.judges):
            # Heterogeneous bands/margins/noise levels pack into (L,)
            # parameter columns, so exact-type stacks always vectorize.
            if cls is BandExcessJudge:
                self.mode = "band"
            elif cls is NoisyPositionJudge:
                self.mode = "position"
        self._band_columns: Optional[Tuple[Array, ...]] = None
        if self.mode == "position":
            self._boundary = np.array(
                [float(judge.boundary) for judge in self.judges]
            )
            self._miss = np.array(
                [float(judge.miss_rate) for judge in self.judges]
            )
            self._fp = np.array(
                [float(judge.false_positive_rate) for judge in self.judges]
            )

    def judge_round_many(
        self, injections: Array, scores: Array, kept: Array
    ) -> Array:
        """(L,) betrayal verdicts for one lockstep round."""
        if self.mode == "band":
            return self._band_many(scores, kept)
        if self.mode == "position":
            return self._position_many(injections)
        verdicts = np.empty(len(self.judges), dtype=bool)
        for j, judge in enumerate(self.judges):
            injection = injections[j]
            verdicts[j] = judge.judge_round(
                None if np.isnan(injection) else float(injection),
                scores[j][kept[j]],
            )
        return verdicts

    def _band_many(self, scores: Array, kept: Array) -> Array:
        if self._band_columns is None:
            for judge in self.judges:
                if judge._band_values is None:
                    raise RuntimeError(
                        "judge must be fit on reference scores first"
                    )
            self._band_columns = (
                np.array([float(j._band_values[0]) for j in self.judges]),
                np.array([float(j._band_values[1]) for j in self.judges]),
                np.array([float(j._clean_mass) for j in self.judges]),
                np.array([float(j.margin) for j in self.judges]),
                np.array([float(j.noise_sigma) for j in self.judges]),
            )
        lo_v, hi_v, clean, margin, sigma = self._band_columns
        n_kept = np.count_nonzero(kept, axis=1)
        in_band = (scores > lo_v[:, None]) & (scores <= hi_v[:, None]) & kept
        # Exact 0/1 sums: identical to the solo count over kept scores.
        mass = np.count_nonzero(in_band, axis=1) / np.maximum(n_kept, 1)
        excess = mass - clean
        # The solo judge returns early (no draw) on an empty batch and
        # draws only when its own sigma is positive.
        drawing = np.flatnonzero((n_kept > 0) & (sigma > 0.0))
        if drawing.size:
            noise = np.zeros(len(self.judges))
            for j in drawing:
                noise[j] = float(self.judges[j]._rng.normal(0.0, sigma[j]))
            excess = excess + noise
        return (excess > margin) & (n_kept > 0)

    def _position_many(self, injections: Array) -> Array:
        # Exactly one draw per lane per round, as in the solo judge.
        draws = np.array([float(judge._rng.random()) for judge in self.judges])
        betrayed = np.zeros(len(self.judges), dtype=bool)
        observed = ~np.isnan(injections)
        betrayed[observed] = injections[observed] < self._boundary[observed]
        return np.where(betrayed, draws >= self._miss, draws < self._fp)


# --------------------------------------------------------------------- #
# compiled draw program
# --------------------------------------------------------------------- #
class SourceLanes:
    """Per-lane stream sources compiled into one draw program.

    :meth:`draw` returns the round's ``(L, batch[, d])`` benign stack;
    row ``l`` is byte-identical to ``sources[l].next_batch()``, and
    every stream ends where that call would leave it.  When every lane
    is an exact :class:`~repro.streams.source.ArrayStream` of one draw
    shape, the lanes are grouped by the identity of their dataset array
    **once at build time**; per round each in-epoch lane hands over its
    next row indices (``ArrayStream.next_indices``, which advances its
    cursor), and each group's rows are gathered in one indexed pass.  A lane whose draw crosses its epoch
    end calls its own ``next_batch`` -- the reshuffle stays in the
    stream.  The program keeps no cursor or permutation of its own, so
    a draw made outside the cohort between rounds is seen by the next
    one.  Any other cohort (another source class, mixed geometries)
    stacks one ``next_batch`` per lane.
    """

    def __init__(self, sources: Sequence[Optional[StreamSource]]) -> None:
        self.sources = list(sources)
        if not self.sources:
            raise ValueError("need at least one source")
        self._missing = next(
            (lane for lane, source in enumerate(self.sources) if source is None),
            None,
        )
        self._attached = [source for source in self.sources if source is not None]
        streams = [
            source
            for source in self._attached
            # The exact class only: a subclass may draw its own way.
            if isinstance(source, ArrayStream) and type(source) is ArrayStream
        ]
        shapes = {(s.batch_size,) + s._data.shape[1:] for s in streams}
        #: The ``(batch[, d])`` shape every lane draws when each lane is
        #: an exact ArrayStream of one geometry (the gathered case);
        #: ``None`` otherwise.
        self.shape: Optional[Tuple[int, ...]] = (
            shapes.pop()
            if len(streams) == len(self.sources) and len(shapes) == 1
            else None
        )
        # (lane, stream, dataset group) of the gathered case
        self._plan: List[Tuple[int, ArrayStream, int]] = []
        self._datas: List[Array] = []
        if self.shape is not None:
            gids, self._datas = _group_by_identity([s._data for s in streams])
            self._plan = list(
                zip(range(len(streams)), streams, gids.tolist(), strict=True)
            )

    @property
    def n_reps(self) -> int:
        """Number of source lanes."""
        return len(self.sources)

    def draw(self) -> Array:
        """Every lane's next batch, stacked ``(L, batch[, d])``.

        A lane without a source raises ``ValueError`` before any stream
        moves; lanes drawing differently shaped batches raise
        ``ValueError`` after drawing, as stacking them does.
        """
        if self._missing is not None:
            raise ValueError(
                f"lane {self._missing} has no attached stream source; "
                "submit the round's batches explicitly"
            )
        if self.shape is None:
            return np.stack(
                [np.asarray(source.next_batch(), dtype=float) for source in self._attached]
            )
        picks: List[List[Array]] = [[] for _ in self._datas]
        rows: List[List[int]] = [[] for _ in self._datas]
        wrapped: List[Tuple[int, Array]] = []
        for lane, source, gid in self._plan:
            index = source.next_indices()
            if index is None:
                wrapped.append((lane, source.next_batch()))
            else:
                picks[gid].append(index)
                rows[gid].append(lane)
        out = np.empty((self.n_reps,) + self.shape)
        for data, lanes, pieces in zip(self._datas, rows, picks, strict=True):
            if not lanes:
                continue
            gathered = np.take(data, np.concatenate(pieces), axis=0)
            gathered = gathered.reshape((len(lanes),) + self.shape)
            if len(lanes) == self.n_reps:
                return gathered  # one dataset, every lane in its epoch
            out[lanes] = gathered
        for lane, batch in wrapped:
            out[lane] = batch
        return out

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
  time; per round it runs one vector score sweep plus one cutoff pass
  per shared reference fit, byte-identical to L solo
  :meth:`~repro.core.trimming.Trimmer.trim` calls.
* **Poison program** — :class:`InjectorLanes` packs attack ratios into
  a column, groups exact-:class:`~repro.streams.PoisonInjector` lanes
  by the identity of their shared
  :class:`~repro.core.domain.ReferenceFit` at build time, and
  materializes each group's poison in a single vectorized quantile
  pass, with per-lane jitter draws still taken from each lane's own
  Generator; subclass lanes call their own ``materialize``.
* **Quality and judge programs** — :class:`QualityLanes` scores
  exact-:class:`~repro.core.quality.TailMassEvaluator` stacks in one
  array sweep and :class:`JudgeLanes` computes the shipped judges'
  verdicts in array expressions; other classes loop per lane.
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

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..streams.injection import LanePositionServer, PoisonInjector
from ..streams.source import ArrayStream, StreamSource
from .arrays import Array
from .domain import ReferenceFit, empirical_quantile
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


# --------------------------------------------------------------------- #
# compiled trim program
# --------------------------------------------------------------------- #
class TrimLanes:
    """Per-lane trimmers compiled into one round program.

    The dispatch (exact shipped class?  custom ``trim`` override?) is
    resolved once at build time:

    * ``"stacked"`` — one shipped trimmer class (per-lane instances with
      their own anchors/references, or one instance shared by every
      lane): a single vector score sweep, then each lane's scalar cutoff
      from *its own* reference table — the exact expressions of the
      solo :meth:`Trimmer.trim` body.
    * ``"loop"`` — mixed classes or custom ``trim`` overrides: the
      documented per-lane loop through each instance's own ``trim``.
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
        # Cutoff groups: stacked reference-anchored lanes holding one fit
        # share one vectorized QuantileTable.quantile call (group id -1
        # marks batch-anchored lanes, whose cutoff depends on the round's
        # own scores).
        self._cutoff_gid, self._tables = _group_by_identity(
            [
                t.reference_table
                if self.mode == "stacked" and t.is_reference_anchored
                else None
                for t in self.trimmers
            ]
        )
        # Pack radial centers into a column when every lane has a fitted
        # scalar (1-D) or same-dimension center; otherwise the score
        # sweep falls back to a per-lane loop for the odd lanes.
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

    @property
    def n_reps(self) -> int:
        """Number of trim lanes."""
        return len(self.trimmers)

    def scores_stack(self, stack: Array, lanes: Array) -> Array:
        """(rows, n) per-point scores; row ``j`` scored by lane ``lanes[j]``."""
        if self.mode == "stacked" and type(self.trimmers[0]) is ValueTrimmer:
            if stack.ndim != 2:
                raise ValueError("ValueTrimmer expects (R, n) stacks")
            return stack
        if self.mode == "stacked":  # RadialTrimmer
            if stack.ndim == 2 and self._centers_1d is not None:
                return np.abs(stack - self._centers_1d[lanes][:, None])
            if stack.ndim == 3 and self._centers_nd is not None:
                centers = self._centers_nd[lanes]
                if centers.shape[1] == stack.shape[2]:
                    # np.linalg.norm(diff, axis=2) with the squares taken
                    # in place: the solo norm's contiguous-axis sum of
                    # squares, without a second stack-sized temporary.
                    diff = stack - centers[:, None, :]
                    np.multiply(diff, diff, out=diff)
                    return np.sqrt(np.add.reduce(diff, axis=2))
        return np.stack(
            [
                self.trimmers[r].scores(stack[j])
                for j, r in enumerate(lanes)
            ]
        )

    def trim_stack(
        self,
        stack: Array,
        percentiles: Array,
        lanes: Optional[Array] = None,
    ) -> BatchTrimReport:
        """One compiled trimming pass; row ``j`` is lane ``lanes[j]``.

        Row ``j`` of the report is byte-identical to
        ``self.trimmers[lanes[j]].trim(stack[j], percentiles[j])``.
        """
        arr = np.asarray(stack, dtype=float)
        if arr.ndim not in (2, 3):
            raise ValueError("stacks must be (R, n) or (R, n, d)")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("cannot trim an empty stack")
        q_in = np.asarray(percentiles, dtype=float)
        if q_in.shape != (arr.shape[0],):
            raise ValueError("need one percentile per rep")
        if lanes is None:
            lanes = np.arange(self.n_reps)
        if self.mode == "loop":
            return BatchTrimReport.from_reports(
                self.trimmers[r].trim(arr[j], float(q_in[j]))
                for j, r in enumerate(lanes)
            )
        scores = self.scores_stack(arr, lanes)
        n_rows, n = scores.shape
        # Identical to clip_percentile, elementwise (incl. NaN -> 0.0).
        q = np.where(
            np.isnan(q_in), 0.0, np.minimum(1.0, np.maximum(0.0, q_in))
        )
        kept = np.ones((n_rows, n), dtype=bool)
        cutoffs = np.full(n_rows, np.inf)
        active = np.flatnonzero(q < 1.0)
        if active.size:
            # One QuantileTable.quantile sweep per reference fit — the
            # vector path is elementwise identical to the solo scalar
            # `_cutoff` call against each lane's own sorted-once table.
            row_gids = self._cutoff_gid[np.asarray(lanes)[active]]
            for g in np.unique(row_gids[row_gids >= 0]):
                rows = active[row_gids == g]
                cutoffs[rows] = self._tables[g].quantile(q[rows])
            for j in active[row_gids < 0]:
                # Batch-anchored lanes: the cutoff is a quantile of the
                # round's own scores, per lane by construction.
                cutoffs[j] = float(
                    empirical_quantile(scores[j], float(q[j]))
                )
            kept[active] = scores[active] <= cutoffs[active, None]
            for j in active[~kept[active].any(axis=1)]:
                # Same degenerate-batch fallback as the solo path.
                kept[j, int(np.argmin(scores[j]))] = True
        return BatchTrimReport(
            kept=kept, threshold_scores=cutoffs, percentiles=q, scores=scores
        )


# --------------------------------------------------------------------- #
# compiled poison program
# --------------------------------------------------------------------- #
class InjectorLanes:
    """Per-lane poison injectors compiled into one round program.

    Lanes carry *different* attack ratios, jitters and reference
    datasets; the program packs the ratios into an ``(L,)`` column (the
    session segments rounds by poison count) and groups lanes by the
    identity of their :class:`~repro.core.domain.ReferenceFit` **once
    at build time** — lanes fit on one reference share one vectorized
    quantile pass per round, while each lane's jitter positions still
    come from its own Generator.  Only exact
    :class:`~repro.streams.PoisonInjector` lanes are vectorized: a
    subclass may override ``materialize`` (e.g. to append a label
    column), so its lanes call their own ``materialize`` — jitter draws
    included — exactly as they would solo.  Unfitted lanes and
    corner-mode lanes on 2-D references place per lane, as solo.
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
        self,
        benign: Array,
        percentiles: Array,
        idx: Optional[Array] = None,
    ) -> Array:
        """Poison stacks for one count-uniform lane segment.

        ``benign`` is ``(rows, b[, d])`` with row ``j`` belonging to
        lane ``idx[j]`` (``idx=None`` means lane ``j``); all rows must
        share one poison count (the session segments rounds by count).
        Row ``j`` is byte-identical to lane ``j``'s solo
        ``materialize`` call.
        """
        stack = np.asarray(benign, dtype=float)
        if stack.ndim not in (2, 3):
            raise ValueError("benign stacks must be (R, b) or (R, b, d)")
        lanes = np.arange(self.n_reps) if idx is None else np.asarray(idx)
        if stack.shape[0] != lanes.shape[0]:
            raise ValueError(
                f"stack carries {stack.shape[0]} rows for "
                f"{lanes.shape[0]} lanes"
            )
        counts = self.poison_counts(stack.shape[1])[lanes]
        if counts.size == 0 or int(counts.max(initial=0)) == 0:
            return stack[:, :0]
        count = int(counts[0])
        if not np.all(counts == count):
            raise ValueError(
                "materialize_many needs a count-uniform lane segment"
            )
        exact = self._exact[lanes]
        if exact.all():
            return self._materialize_exact(stack, lanes, percentiles, count)
        out = np.empty((lanes.shape[0], count) + stack.shape[2:])
        # A subclass may override materialize: its lane plays its own
        # solo call.
        for j in np.flatnonzero(~exact):
            out[j] = self.injectors[lanes[j]].materialize(
                stack[j], float(percentiles[j])
            )
        if exact.any():
            out[exact] = self._materialize_exact(
                stack[exact], lanes[exact], percentiles[exact], count
            )
        return out

    def _materialize_exact(
        self, stack: Array, lanes: Array, percentiles: Array, count: int
    ) -> Array:
        """:meth:`materialize_many` over exact-class lanes only."""
        if self._position_server is None:
            # Built lazily so the shadow Generators copy each lane's
            # bit-state at the moment draws actually start.
            self._position_server = LanePositionServer(self.injectors)
        positions = self._position_server.positions(lanes, percentiles, count)
        out = np.empty((lanes.shape[0], count) + stack.shape[2:])
        row_gids = self._fit_gid[lanes]
        solo = row_gids < 0
        for g in np.unique(row_gids[~solo]):
            rows = np.flatnonzero(row_gids == g)
            fit = self._fits[g]
            if stack.ndim == 2 and fit.kind == "value":
                out[rows] = fit.table.quantile(
                    positions[rows].ravel()
                ).reshape(rows.size, count)
            elif stack.ndim == 3 and fit.direction is not None:
                targets = fit.table.quantile(
                    positions[rows].ravel()
                ).reshape(rows.size, count)
                out[rows] = (
                    fit.center[None, None, :]
                    + targets[:, :, None] * fit.direction[None, None, :]
                )
            else:
                solo[rows] = True
        for j in np.flatnonzero(solo):
            # Same placement as the lane's solo call, on its own row.
            out[j] = self.injectors[lanes[j]]._place(stack[j], positions[j])
        return out


# --------------------------------------------------------------------- #
# compiled quality and judge programs
# --------------------------------------------------------------------- #
class QualityLanes:
    """Per-lane quality evaluators with a vectorized tail-mass fast path.

    Lane ``r`` keeps its own evaluator instance (solo games do too; a
    seeded or stateful user evaluator diverges per lane).  When every
    instance is exactly a :class:`TailMassEvaluator` — *regardless* of
    its reference quantile or calibrated cutoff, which pack into
    per-lane ``(L,)`` columns — the whole stack is scored by one array
    sweep; otherwise the documented per-lane loop runs each instance on
    its own row.  ``share_flags`` says per lane whether its evaluator
    reuses the trimmer's batch scores: the member session's own
    ``share_scores`` decision, so lane and solo round agree.
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

    def evaluate_many(
        self,
        stacks: Array,
        scores: Optional[Array],
        idx: Optional[Array] = None,
    ) -> Tuple[Array, Array]:
        """(observed_ratio, quality) ``(L,)`` pairs for one round stack.

        ``scores`` is the trimmer's ``(L, n)`` batch-score stack (or
        ``None``); each lane reuses it only when its own evaluator
        accepts the trimmer's score family — exactly the solo rule.
        ``idx`` maps stack rows onto lane indices for segmented rounds.
        """
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
            if idx is not None:
                cut = cut[idx]
                ref_q = ref_q[idx]
            shared = (
                scores if (scores is not None and self.share_flags[0]) else None
            )
            # The per-lane cutoff/quantile columns broadcast through the
            # same elementwise expressions as TailMassEvaluator — exact
            # 0/1 tail sums, so bit-identical to L solo evaluate calls.
            batch_scores = QualityEvaluator._as_scores_many(stacks, shared)
            excess = np.mean(batch_scores > cut[:, None], axis=1) - (
                1.0 - ref_q
            )
            raws = np.maximum(0.0, excess)
            normalized = np.clip(raws / ref_q, 0.0, 1.0)
            return raws, normalized
        lanes = (
            np.arange(len(self.evaluators)) if idx is None else np.asarray(idx)
        )
        raws = np.empty(lanes.shape[0])
        normalized = np.empty(lanes.shape[0])
        for j, r in enumerate(lanes):
            evaluator = self.evaluators[r]
            shared = (
                scores[j]
                if (scores is not None and self.share_flags[r])
                else None
            )
            raws[j], normalized[j] = evaluator.evaluate(
                stacks[j], scores=shared
            )
        return raws, normalized


class JudgeLanes:
    """Per-lane compliance judges with vector paths for the shipped two.

    Each lane owns its judge instance (own noise Generator).  Exact-type
    stacks of :class:`~repro.core.engine.BandExcessJudge` /
    :class:`~repro.core.engine.NoisyPositionJudge` compute the verdict
    for all lanes in array expressions, drawing each lane's noise from
    that lane's own Generator under the same conditions as the solo
    path; anything else loops ``judge_round`` per lane.
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
        self,
        injections: Array,
        scores: Array,
        kept: Array,
        idx: Optional[Array] = None,
    ) -> Array:
        """(L,) betrayal verdicts for one lockstep round (or segment).

        ``idx`` maps stack rows onto lane indices for segmented rounds;
        ``None`` means row ``r`` is lane ``r``.
        """
        if self.mode == "band":
            return self._band_many(scores, kept, idx)
        if self.mode == "position":
            return self._position_many(injections, idx)
        lanes = np.arange(len(self.judges)) if idx is None else np.asarray(idx)
        verdicts = np.empty(lanes.shape[0], dtype=bool)
        for j, r in enumerate(lanes):
            injection = injections[j]
            verdicts[j] = self.judges[r].judge_round(
                None if np.isnan(injection) else float(injection),
                scores[j][kept[j]],
            )
        return verdicts

    def _band_many(
        self, scores: Array, kept: Array, idx: Optional[Array] = None
    ) -> Array:
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
        lanes = np.arange(len(self.judges)) if idx is None else np.asarray(idx)
        if idx is not None:
            lo_v = lo_v[lanes]
            hi_v = hi_v[lanes]
            clean = clean[lanes]
            margin = margin[lanes]
            sigma = sigma[lanes]
        n_kept = np.count_nonzero(kept, axis=1)
        in_band = (scores > lo_v[:, None]) & (scores <= hi_v[:, None]) & kept
        # Exact 0/1 sums: identical to the solo np.mean over kept scores.
        mass = np.count_nonzero(in_band, axis=1) / np.maximum(n_kept, 1)
        excess = mass - clean
        # The solo judge returns early (no draw) on an empty batch and
        # draws only when its own sigma is positive.
        drawing = np.flatnonzero((n_kept > 0) & (sigma > 0.0))
        if drawing.size:
            noise = np.zeros(lanes.shape[0])
            for j in drawing:
                noise[j] = float(
                    self.judges[lanes[j]]._rng.normal(0.0, sigma[j])
                )
            excess = excess + noise
        return (excess > margin) & (n_kept > 0)

    def _position_many(
        self, injections: Array, idx: Optional[Array] = None
    ) -> Array:
        lanes = np.arange(len(self.judges)) if idx is None else np.asarray(idx)
        boundary = self._boundary[lanes]
        miss = self._miss[lanes]
        fp = self._fp[lanes]
        # Exactly one draw per lane per round, as in the solo judge.
        draws = np.array([float(self.judges[r]._rng.random()) for r in lanes])
        betrayed = np.zeros(lanes.shape[0], dtype=bool)
        observed = ~np.isnan(injections)
        betrayed[observed] = injections[observed] < boundary[observed]
        return np.where(betrayed, draws >= miss, draws < fp)


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

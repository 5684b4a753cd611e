"""Distance-based trimming operators (the classic defense of §I, [14]).

Trimming computes a score ``d_i`` per data point and removes every point
whose score exceeds a threshold — here expressed in *percentile*
coordinates, matching §VI-A.  Two score families are provided:

* :class:`ValueTrimmer` — 1-D upper-tail trimming on raw values, the
  natural choice for scalar streams (Taxi, LDP reports) where attacks
  inflate the upper tail;
* :class:`RadialTrimmer` — multivariate trimming on distances from the
  coordinate-wise median, the distance-based sanitization of Kloft &
  Laskov used for the k-means / SVM / SOM experiments.

A fitted trimmer holds a :class:`~repro.core.domain.ReferenceFit` of its
reference (center, reference scores and their sort-once quantile
table), shared with every other live component fit on the same
read-only reference.

The percentile can be *anchored* two ways (see DESIGN.md §4):

* ``reference`` anchoring (after :meth:`Trimmer.fit_reference`): the score
  cutoff is the quantile of a clean public reference — the "publicly
  recognized data quality standard" of §III-B.  Poison inflation of the
  current batch cannot move the cutoff.
* ``batch`` anchoring (default without a reference): the cutoff is the
  quantile of the current batch's own scores, realizing the paper's
  "collects and trims the same amount of data in each round" (Fig. 3 ④).

Both return a :class:`TrimReport` carrying the retained mask so the engine
can track exactly which poison values survived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .arrays import Array, ArrayLike
from .domain import QuantileTable, ReferenceFit, _row_norms, clip_percentile, empirical_quantile

__all__ = [
    "TrimReport",
    "BatchTrimReport",
    "Trimmer",
    "ValueTrimmer",
    "RadialTrimmer",
]


@dataclass(frozen=True)
class TrimReport:
    """Outcome of one trimming pass.

    ``kept`` is a boolean mask over the input batch (True = retained);
    ``threshold_score`` is the score cutoff that realized the percentile;
    ``percentile`` echoes the requested trimming position; ``scores``
    carries the per-point scores the decision was made on, so callers
    (the game engine's hot loop in particular) never need a second
    ``Trimmer.scores`` pass over the same batch.
    """

    kept: Array
    threshold_score: float
    percentile: float
    scores: Optional[Array] = None

    @property
    def kept_scores(self) -> Array:
        """Scores of the retained points (requires ``scores``)."""
        if self.scores is None:
            raise ValueError("this report was built without batch scores")
        return self.scores[self.kept]

    @property
    def n_kept(self) -> int:
        """Number of retained points."""
        return int(np.count_nonzero(self.kept))

    @property
    def n_trimmed(self) -> int:
        """Number of removed points."""
        return int(self.kept.size - self.n_kept)

    @property
    def trimmed_fraction(self) -> float:
        """Fraction of the batch that was removed."""
        if self.kept.size == 0:
            return 0.0
        return self.n_trimmed / self.kept.size


@dataclass(frozen=True)
class BatchTrimReport:
    """Outcome of one rep-batched trimming pass over an ``(R, n)`` stack.

    The rep axis leads everywhere: ``kept`` is the ``(R, n)`` retained
    mask, ``threshold_scores``/``percentiles`` are ``(R,)``, and
    ``scores`` (when the trimmer computes them, which the shipped
    trimmers always do) is the full ``(R, n)`` score stack.  Row ``r``
    is byte-identical to the :class:`TrimReport` a solo
    :meth:`Trimmer.trim` call on rep ``r``'s batch would produce.  In a
    ragged stack, whose rep ``r`` owns only its first entries, that
    holds for the rep's own entries; the padding past them is never
    kept and scores NaN.
    """

    kept: Array              # (R, n) bool
    threshold_scores: Array  # (R,)
    percentiles: Array       # (R,)
    scores: Optional[Array] = None  # (R, n)

    @property
    def n_reps(self) -> int:
        """Number of rep lanes."""
        return int(self.kept.shape[0])

    @property
    def n_kept(self) -> Array:
        """(R,) retained counts."""
        return np.count_nonzero(self.kept, axis=1)

    @classmethod
    def from_reports(cls, reports: Sequence[TrimReport]) -> "BatchTrimReport":
        """Stack per-rep :class:`TrimReport` objects into one batch report.

        Reports of different lengths (a ragged round's lanes) are padded
        to the longest: a pad is never kept and scores NaN.  ``scores``
        is carried only when every rep's report has them (a custom
        trimmer may omit them).
        """
        reports = list(reports)
        shape = (len(reports), max(report.kept.size for report in reports))
        kept = np.zeros(shape, dtype=bool)
        scores: Optional[Array] = None
        if all(report.scores is not None for report in reports):
            scores = np.full(shape, np.nan)
        for row, report in enumerate(reports):
            kept[row, : report.kept.size] = report.kept
            if scores is not None:
                scores[row, : report.kept.size] = report.scores
        return cls(
            kept=kept,
            threshold_scores=np.array(
                [report.threshold_score for report in reports]
            ),
            percentiles=np.array([report.percentile for report in reports]),
            scores=scores,
        )


class Trimmer:
    """Base class: percentile trimming on subclass-defined scores.

    ``anchor`` selects where the cutoff quantile comes from:
    ``"reference"`` uses the fitted clean reference's score distribution
    (requires :meth:`fit_reference`; falls back to the batch before
    fitting), ``"batch"`` always uses the current batch's own scores —
    trimming a fixed *fraction* each round.  Score *centers* (for radial
    trimming) always come from the reference once fitted: a batch-local
    center would let colluding poison drag the center toward itself and
    evade the trim entirely.
    """

    #: Score-family tag (``"value"`` = scores are the raw 1-D values,
    #: ``"radial"`` = distances from a center).  Lets consumers such as
    #: the quality evaluators decide whether a trimmer's batch scores are
    #: commensurable with their own scoring and can be reused.
    score_kind: Optional[str] = None

    #: Shape of one row of the fitted reference (``()`` for scalar
    #: streams, ``(d,)`` for d-feature rows); ``None`` before fitting or
    #: when a subclass's own ``fit_reference`` records none.  The round
    #: bodies reject a batch whose rows are shaped otherwise before any
    #: strategy reacts.
    reference_row_shape: Optional[Tuple[int, ...]] = None

    def __init__(self, anchor: str = "reference") -> None:
        if anchor not in ("reference", "batch"):
            raise ValueError("anchor must be 'reference' or 'batch'")
        self.anchor = anchor
        self._fit: Optional[ReferenceFit] = None

    def scores(self, batch: Array) -> Array:
        """Per-point trimming scores ``d_i`` (higher = more suspicious)."""
        raise NotImplementedError

    def fit_reference(self, reference: ArrayLike) -> "Trimmer":
        """Calibrate score centers/quantiles on a clean reference."""
        arr = np.asarray(reference, dtype=float)
        if arr.size == 0:
            raise ValueError("reference must be non-empty")
        self._fit = self._reference_fit(arr)
        self.reference_row_shape = arr.shape[1:]
        return self

    def _reference_fit(self, reference: Array) -> ReferenceFit:
        # A value fit of the reference's own scores: the reference
        # itself for a ValueTrimmer, a private fit for user scores.
        return ReferenceFit.of(self.scores(reference), "value")

    @property
    def reference_scores(self) -> Optional[Array]:
        """The fitted reference's scores (None before fitting).

        Exposed so consumers calibrated on the same reference (the
        engine's compliance judge in particular) can reuse them instead
        of running a second scoring pass.
        """
        return None if self._fit is None else self._fit.scores

    @property
    def reference_table(self) -> Optional[QuantileTable]:
        """Sort-once quantile table of the reference scores.

        None before fitting.  Consumers calibrated on the same reference
        (the engine's band judge) share it instead of re-sorting.
        """
        return None if self._fit is None else self._fit.table

    @property
    def is_reference_anchored(self) -> bool:
        """Whether cutoffs come from a fitted reference."""
        return self.anchor == "reference" and self._fit is not None

    def _cutoff(self, batch_scores: Array, q: float) -> float:
        if self._fit is not None and self.anchor == "reference":
            # O(1) against the sorted-once reference instead of an
            # O(n) numpy.quantile partition every round (bit-identical).
            return float(self._fit.table.quantile(q))
        return float(empirical_quantile(batch_scores, q))

    def trim(self, batch: ArrayLike, percentile: float) -> TrimReport:
        """Remove points whose score exceeds the percentile cutoff.

        ``percentile`` = 1.0 keeps everything (the Ostrich behaviour);
        smaller values trim scores above the anchored quantile.
        """
        arr = np.asarray(batch, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot trim an empty batch")
        q = clip_percentile(percentile)
        batch_scores = self.scores(arr)
        if q >= 1.0:
            kept = np.ones(batch_scores.shape, dtype=bool)
            return TrimReport(
                kept=kept,
                threshold_score=float("inf"),
                percentile=q,
                scores=batch_scores,
            )
        cutoff = self._cutoff(batch_scores, q)
        kept = batch_scores <= cutoff
        if not kept.any():
            # Degenerate batch (every score above the cutoff); keep the
            # minimum-score point so downstream estimators stay defined.
            kept[int(np.argmin(batch_scores))] = True
        return TrimReport(
            kept=kept,
            threshold_score=cutoff,
            percentile=q,
            scores=batch_scores,
        )

    def apply(self, batch: ArrayLike, percentile: float) -> Array:
        """Convenience: trim and return only the retained rows/values."""
        arr = np.asarray(batch, dtype=float)
        report = self.trim(arr, percentile)
        return arr[report.kept]


class ValueTrimmer(Trimmer):
    """Upper-tail trimming of scalar values (score = value itself)."""

    score_kind = "value"

    def scores(self, batch: Array) -> Array:
        arr = np.asarray(batch, dtype=float)
        if arr.ndim != 1:
            raise ValueError("ValueTrimmer expects 1-D batches")
        return arr


class RadialTrimmer(Trimmer):
    """Distance-from-median trimming for multivariate batches.

    Scores are Euclidean distances from the coordinate-wise median —
    robust to the poisoning itself (tail injections at realistic attack
    ratios barely move the median), so a poison point placed at extreme
    per-feature percentiles receives an extreme score.  When reference
    anchoring is active, the median of the *reference* is used as center
    so batch and reference scores are commensurable.  Accepts 1-D input
    as a single-feature special case.
    """

    score_kind = "radial"

    def _reference_fit(self, reference: Array) -> ReferenceFit:
        # The fit computes the center and radial scores itself; a
        # subclass that scores otherwise overrides this hook too.
        return ReferenceFit.of(reference, "radial")

    def scores(self, batch: Array) -> Array:
        arr = np.asarray(batch, dtype=float)
        center = None if self._fit is None else self._fit.center
        if arr.ndim == 1:
            if center is None:
                return np.abs(arr - np.median(arr))
            if np.size(center) != 1:
                raise ValueError(
                    "dimension mismatch: RadialTrimmer was fit on "
                    f"{np.size(center)}-dimensional reference data but "
                    "received a 1-D batch; refit on 1-D data or pass 2-D "
                    "batches with matching dimensionality"
                )
            return np.abs(arr - float(np.reshape(center, ())))
        if arr.ndim != 2:
            raise ValueError("RadialTrimmer expects 1-D or 2-D batches")
        if center is None:
            center = np.median(arr, axis=0)
        return _row_norms(arr, center)

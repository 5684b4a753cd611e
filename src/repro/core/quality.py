"""Quality_Evaluation() implementations (§III-B, Algorithms 1 and 2).

The game-theoretic model presupposes a *publicly recognized data quality
standard* both parties can evaluate.  The collector uses it to gauge the
intensity of poisoning in a round's batch, the Tit-for-tat strategy uses
it as a trigger, and the Elastic strategy uses its normalized value to set
the next threshold.  Three concrete evaluators are provided; all follow
the convention **higher score = worse quality (more poisoning)** so that
triggers and elastic responses read uniformly.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .arrays import Array, ArrayLike
from .domain import QuantileTable, empirical_quantile

__all__ = [
    "QualityEvaluator",
    "TailMassEvaluator",
    "KolmogorovSmirnovEvaluator",
    "MeanShiftEvaluator",
]


class QualityEvaluator:
    """Interface of a ``Quality_Evaluation()`` standard.

    Subclasses are first fit on clean reference data ``X0`` (the
    "triggering condition" input of Algorithm 1) and then score subsequent
    round batches.  :meth:`normalized` maps scores onto [0, 1] — the
    ``QE_i = QE(X_i)/max(QE(·))`` normalization of Algorithm 2.
    """

    #: Trimmer score families whose per-point scores coincide with
    #: :meth:`_as_scores` and may therefore be reused verbatim.  A
    #: ``"value"`` trimmer's scores *are* the raw 1-D values — exactly
    #: what ``_as_scores`` returns for a 1-D batch.
    _COMPATIBLE_SCORE_KINDS: Tuple[str, ...] = ("value",)

    def fit(self, reference: ArrayLike) -> "QualityEvaluator":
        """Calibrate the evaluator on clean reference data."""
        raise NotImplementedError

    def score(self, batch: ArrayLike, scores: Optional[Array] = None) -> float:
        """Poisoning-intensity score of a batch (higher = worse).

        ``scores`` optionally carries precomputed per-point scores of the
        same batch under a commensurable convention (see
        :meth:`accepts_scores`); implementations may use them to skip
        their own scoring sweep.
        """
        raise NotImplementedError

    def max_score(self) -> float:
        """The maximum attainable score, for normalization."""
        raise NotImplementedError

    def normalize_score(self, score: float) -> float:
        """Map a raw score onto the Algorithm 2 ``QE_i`` scale in [0, 1]."""
        peak = self.max_score()
        if peak <= 0.0:
            raise RuntimeError("evaluator maximum must be positive")
        return float(np.clip(score / peak, 0.0, 1.0))

    def normalized(self, batch: ArrayLike) -> float:
        """``QE_i`` in [0, 1]: score divided by the evaluator's maximum."""
        return self.normalize_score(self.score(batch))

    def evaluate(
        self, batch: ArrayLike, scores: Optional[Array] = None
    ) -> Tuple[float, float]:
        """``(score, normalized)`` of one batch from a single scoring sweep.

        This is the engine's per-round entry point: it replaces the
        previous ``normalized(batch)`` + ``score(batch)`` pair, which
        scored the whole batch twice.  Subclasses that override
        :meth:`normalized` with bespoke logic keep their semantics: the
        override is detected and routed through (at the old two-sweep
        cost); override :meth:`evaluate` itself to regain single-pass.
        """
        if scores is not None:
            raw = float(self.score(batch, scores=scores))
        else:
            raw = float(self.score(batch))
        if type(self).normalized is not QualityEvaluator.normalized:
            return raw, float(self.normalized(batch))
        return raw, self.normalize_score(raw)

    def accepts_scores(self, score_kind: Optional[str]) -> bool:
        """Whether :meth:`evaluate` can reuse a trimmer's batch scores.

        True only when the trimmer's score family (its ``score_kind``
        tag) is commensurable with :meth:`_as_scores` *and* the concrete
        :meth:`score` implementation actually takes the ``scores``
        keyword (user subclasses may predate it).
        """
        if score_kind not in self._COMPATIBLE_SCORE_KINDS:
            return False
        try:
            return "scores" in inspect.signature(self.score).parameters
        except (TypeError, ValueError):  # builtins / exotic callables
            return False

    @staticmethod
    def _as_scores_many(
        stacks: ArrayLike, scores: Optional[Array] = None
    ) -> Array:
        """Rep-batched :meth:`_as_scores`: ``(R, n[, d])`` → ``(R, n)``."""
        arr = np.asarray(stacks, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot evaluate an empty stack")
        if scores is not None:
            pre = np.asarray(scores, dtype=float)
            if pre.shape != arr.shape[:2]:
                raise ValueError(
                    f"precomputed scores shaped {pre.shape} do not match the "
                    f"(R, n) layout {arr.shape[:2]} of the stack"
                )
            return pre
        if arr.ndim == 2:
            return arr
        if arr.ndim == 3:
            return np.linalg.norm(arr, axis=2)
        raise ValueError("stacks must be (R, n) or (R, n, d)")

    @staticmethod
    def _as_scores(batch: ArrayLike, scores: Optional[Array] = None) -> Array:
        """Flatten a batch to 1-D scores (multivariate: row L2 norms).

        ``scores`` short-circuits the computation with precomputed
        commensurable scores (the trimmer's single-pass sweep).
        """
        if scores is not None:
            arr = np.asarray(scores, dtype=float).ravel()
            if arr.size == 0:
                raise ValueError("cannot evaluate an empty batch")
            n_batch = np.asarray(batch).shape[0] if np.ndim(batch) > 0 else 1
            if arr.size != n_batch:
                raise ValueError(
                    f"precomputed scores carry {arr.size} entries for a "
                    f"batch of {n_batch} points — pass the *full* batch "
                    "scores (e.g. TrimReport.scores, not kept_scores)"
                )
            return arr
        arr = np.asarray(batch, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot evaluate an empty batch")
        if arr.ndim == 1:
            return arr
        if arr.ndim == 2:
            return np.linalg.norm(arr, axis=1)
        raise ValueError("batches must be 1-D or 2-D")


@dataclass
class TailMassEvaluator(QualityEvaluator):
    """Excess upper-tail mass relative to the clean reference.

    Measures the fraction of a batch lying above the reference's
    ``reference_quantile`` (default: 0.9) — under tail-injection attacks
    this directly estimates the observed poison ratio, which is the
    quantity the Table III trigger thresholds (``1 - p + Red``) compare
    against.
    """

    reference_quantile: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.reference_quantile < 1.0:
            raise ValueError("reference_quantile must lie in (0, 1)")
        self._cutoff: float | None = None

    def fit(self, reference: ArrayLike) -> "TailMassEvaluator":
        # One-shot single quantile: np.quantile's O(n) partition beats
        # building a throwaway sort-once table.
        self._cutoff = float(
            empirical_quantile(self._as_scores(reference), self.reference_quantile)
        )
        return self

    def score(self, batch: ArrayLike, scores: Optional[Array] = None) -> float:
        if self._cutoff is None:
            raise RuntimeError("evaluator must be fit on reference data first")
        batch_scores = self._as_scores(batch, scores)
        excess = float(np.mean(batch_scores > self._cutoff)) - (
            1.0 - self.reference_quantile
        )
        return max(0.0, excess)

    def max_score(self) -> float:
        return self.reference_quantile  # all mass above the cutoff


@dataclass
class KolmogorovSmirnovEvaluator(QualityEvaluator):
    """Kolmogorov–Smirnov distance between batch and reference scores.

    A distribution-free quality standard: the KS statistic between the
    empirical CDFs, insensitive to where the manipulation sits in the
    domain, with a natural maximum of 1.
    """

    def __init__(self) -> None:
        self._reference: Array | None = None

    def fit(self, reference: ArrayLike) -> "KolmogorovSmirnovEvaluator":
        # The table sorts once; its sorted view doubles as the reference
        # CDF support, so per-round scoring never re-sorts the reference.
        self._reference = QuantileTable(self._as_scores(reference)).values
        return self

    def score(self, batch: ArrayLike, scores: Optional[Array] = None) -> float:
        if self._reference is None:
            raise RuntimeError("evaluator must be fit on reference data first")
        sample = np.sort(self._as_scores(batch, scores))
        grid = np.union1d(self._reference, sample)
        cdf_ref = np.searchsorted(self._reference, grid, side="right") / self._reference.size
        cdf_smp = np.searchsorted(sample, grid, side="right") / sample.size
        return float(np.max(np.abs(cdf_ref - cdf_smp)))

    def max_score(self) -> float:
        return 1.0


@dataclass
class MeanShiftEvaluator(QualityEvaluator):
    """Standardized mean shift of a batch against the reference.

    ``|mean(batch) - mean(reference)| / std(reference)``, clipped by
    ``cap`` for normalization.  Sensitive to exactly the estimator the
    opportunistic attacker of the threat model targets (deviation of the
    aggregate statistic).
    """

    cap: float = 5.0

    def __post_init__(self) -> None:
        if self.cap <= 0.0:
            raise ValueError("cap must be positive")
        self._mean: float | None = None
        self._std: float | None = None

    def fit(self, reference: ArrayLike) -> "MeanShiftEvaluator":
        scores = self._as_scores(reference)
        self._mean = float(np.mean(scores))
        self._std = float(np.std(scores))
        if self._std <= 0.0:
            self._std = 1.0  # degenerate constant reference
        return self

    def score(self, batch: ArrayLike, scores: Optional[Array] = None) -> float:
        if self._mean is None or self._std is None:
            raise RuntimeError("evaluator must be fit on reference data first")
        batch_scores = self._as_scores(batch, scores)
        shift = abs(float(np.mean(batch_scores)) - self._mean) / self._std
        return min(shift, self.cap)

    def max_score(self) -> float:
        return self.cap

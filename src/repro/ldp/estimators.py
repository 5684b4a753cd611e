"""Mean estimation from (possibly trimmed) LDP reports (§VI-E).

Numeric LDP mechanisms are unbiased, so the plain report mean estimates
the population mean.  Trimming reports breaks unbiasedness; the
:class:`TrimmedMeanEstimator` restores calibration by measuring — on a
clean reference pushed through the same public mechanism — how much a
given trim threshold shifts the mean, and adding that shift back.  This
keeps the defense honest under no attack while still removing
upper-tail attack mass.
"""

from __future__ import annotations

import numpy as np

from ..core.domain import QuantileTable

__all__ = ["mean_estimate", "TrimmedMeanEstimator"]


def mean_estimate(reports) -> float:
    """Plain unbiased mean of LDP reports."""
    arr = np.asarray(reports, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot estimate from an empty report batch")
    return float(np.mean(arr))


def _finite_reports(reports) -> np.ndarray:
    """Reports as a flat float array; a NaN or infinite report raises.

    A NaN compares false against every cutoff, so it would be dropped
    from the trimmed mean and from the trimmed fraction without a word.
    """
    arr = np.asarray(reports, dtype=float).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValueError("LDP reports must be finite")
    return arr


class TrimmedMeanEstimator:
    """Percentile-trimmed report mean with reference bias correction.

    Parameters
    ----------
    reference_reports:
        A clean calibration batch pushed through the same mechanism; its
        quantiles anchor the trim cutoffs (the public data quality
        standard applied in the perturbed domain) and its trim-induced
        mean shift provides the bias correction.
    """

    def __init__(self, reference_reports):
        ref = _finite_reports(reference_reports)
        if ref.size < 10:
            raise ValueError("need at least 10 reference reports to calibrate")
        # Sort-once table: cutoffs become O(1) quantile lookups and the
        # bias correction a searchsorted prefix instead of a full scan.
        self._table = QuantileTable(ref)
        self._reference = self._table.values
        self._reference_mean = float(np.mean(ref))

    def cutoff(self, percentile: float) -> float:
        """The report-value cutoff realizing a trim percentile."""
        if percentile >= 1.0:
            return float("inf")
        return float(self._table.quantile(percentile))

    def bias_correction(self, percentile: float) -> float:
        """Mean shift trimming at ``percentile`` induces on clean data.

        ``correction = mean(reference) - mean(reference below cutoff)`` —
        added back to the trimmed estimate so the estimator stays
        calibrated when no attack is present.  The kept mass is a prefix
        of the sorted reference, located by binary search.
        """
        cut = self.cutoff(percentile)
        kept_count = int(np.searchsorted(self._reference, cut, side="right"))
        if kept_count == 0:
            return 0.0
        return self._reference_mean - float(np.mean(self._reference[:kept_count]))

    def estimate(self, reports, percentile: float) -> float:
        """Trim reports above the cutoff, average, and de-bias."""
        arr = _finite_reports(reports)
        if arr.size == 0:
            raise ValueError("cannot estimate from an empty report batch")
        cut = self.cutoff(percentile)
        kept = arr[arr <= cut]
        if kept.size == 0:
            kept = np.array([float(np.min(arr))])
        return float(np.mean(kept)) + self.bias_correction(percentile)

    def trimmed_fraction(self, reports, percentile: float) -> float:
        """Fraction of reports removed at the given threshold."""
        arr = _finite_reports(reports)
        if arr.size == 0:
            return 0.0
        return float(np.mean(arr > self.cutoff(percentile)))

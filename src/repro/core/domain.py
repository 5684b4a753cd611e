"""Input-domain and percentile-coordinate utilities.

The paper expresses every strategy — both the collector's trimming position
and the adversary's injection position — in *percentile coordinates* of the
observed data (Section VI-A).  This module provides the small algebra the
rest of the library builds on: empirical quantiles, the inverse map from a
value back to its percentile, and a bounded :class:`Domain` describing the
input space the game is played on.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union, overload

import numpy as np

from .arrays import Array, ArrayLike

__all__ = [
    "Domain",
    "QuantileTable",
    "ReferenceFit",
    "ReferenceKey",
    "key_reference",
    "reference_key",
    "empirical_quantile",
    "percentile_of",
    "clip_percentile",
    "percentile_grid",
]


@dataclass(frozen=True)
class Domain:
    """A bounded 1-D input domain ``[low, high]``.

    The LDP case study uses ``Domain(-1.0, 1.0)``; percentile positions are
    always relative to observed data, but poison values and perturbed
    reports must remain inside (an enlarged version of) the domain.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.low) or not np.isfinite(self.high):
            raise ValueError("domain bounds must be finite")
        if self.low >= self.high:
            raise ValueError(
                f"domain low ({self.low}) must be < high ({self.high})"
            )

    @property
    def width(self) -> float:
        """Length of the domain interval."""
        return self.high - self.low

    @property
    def center(self) -> float:
        """Midpoint of the domain."""
        return 0.5 * (self.low + self.high)

    def contains(self, values: ArrayLike) -> Array:
        """Elementwise membership test, inclusive of the endpoints."""
        arr = np.asarray(values, dtype=float)
        return (arr >= self.low) & (arr <= self.high)

    def clip(self, values: ArrayLike) -> Array:
        """Clip ``values`` into the domain."""
        return np.clip(np.asarray(values, dtype=float), self.low, self.high)

    def normalize(self, values: ArrayLike) -> Array:
        """Affinely map ``values`` from this domain onto ``[-1, 1]``."""
        arr = np.asarray(values, dtype=float)
        return 2.0 * (arr - self.low) / self.width - 1.0

    def denormalize(self, values: ArrayLike) -> Array:
        """Inverse of :meth:`normalize`."""
        arr = np.asarray(values, dtype=float)
        return (arr + 1.0) * 0.5 * self.width + self.low

    def scale(self, factor: float) -> "Domain":
        """Return a domain enlarged about its center by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        half = 0.5 * self.width * factor
        return Domain(self.center - half, self.center + half)


class QuantileTable:
    """A sort-once quantile / empirical-CDF table over a fixed 1-D sample.

    Components that repeatedly query quantiles of the *same* reference
    data (the per-round trimming cutoff, LDP report cutoffs, judge band
    calibration) previously paid an :func:`numpy.quantile` partition over
    the full sample on every call.  The table sorts once at construction
    and then answers

    * :meth:`quantile` — interpolated quantiles by direct fractional
      indexing into the sorted sample, O(1) per query and bit-identical
      to ``numpy.quantile(values, q)`` with the default linear
      interpolation;
    * :meth:`cdf` / :meth:`tail_mass` — empirical CDF queries via
      :func:`numpy.searchsorted`, O(log n) per query and matching the
      :func:`percentile_of` convention (fraction *strictly* below).
    """

    def __init__(self, values: ArrayLike) -> None:
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("cannot build a quantile table from empty data")
        self._sorted = np.sort(arr)
        self._sorted.setflags(write=False)
        self._n = int(self._sorted.size)

    @property
    def n(self) -> int:
        """Sample size the table was built from."""
        return self._n

    @property
    def values(self) -> Array:
        """The sorted sample (read-only view)."""
        return self._sorted

    @overload
    def quantile(self, q: float) -> float:
        ...

    @overload
    def quantile(self, q: Array) -> Array:
        ...

    def quantile(self, q: ArrayLike) -> Union[float, Array]:
        """Interpolated quantile(s) at fraction(s) ``q`` in [0, 1].

        Scalar ``q`` yields a float, array ``q`` an ndarray.  Replicates
        ``numpy.quantile``'s linear method exactly — the virtual index is
        ``q * (n - 1)`` and interpolation uses numpy's two-sided lerp —
        so switching a caller from :func:`empirical_quantile` onto a
        table changes nothing but the complexity.  A float ``q`` (Python
        or ``np.float64``) in range takes the same expressions in plain
        float arithmetic, a twentieth of the cost of 0-d arrays; NaN or
        out-of-range fractions raise :class:`ValueError`.
        """
        if isinstance(q, float) and 0.0 <= q <= 1.0:
            # The expressions below, in float arithmetic; ``// 1.0`` is
            # np.floor's float floor, signed zero included.
            index = float(q) * (self._n - 1)
            floor = index // 1.0
            weight = index - floor
            i = int(floor)
            below: float = self._sorted.item(i)
            above: float = self._sorted.item(min(i + 1, self._n - 1))
            if weight >= 0.5:
                return above - (above - below) * (1.0 - weight)
            return below + (above - below) * weight
        q_arr = np.asarray(q, dtype=float)
        if not np.all((q_arr >= 0.0) & (q_arr <= 1.0)):
            raise ValueError("quantile fractions must lie in [0, 1]")
        virtual = q_arr * (self._n - 1)
        lower = np.floor(virtual)
        gamma = virtual - lower
        lo = lower.astype(np.intp)
        hi = np.minimum(lo + 1, self._n - 1)
        a = self._sorted[lo]
        b = self._sorted[hi]
        diff = b - a
        # numpy's _lerp: interpolate from whichever endpoint is nearer,
        # which is what makes the result bit-identical to np.quantile.
        out = np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)
        if q_arr.ndim == 0:
            return float(out)
        return out

    def cdf(self, x: ArrayLike) -> Union[float, Array]:
        """Fraction of the sample strictly below ``x`` (left-continuous).

        Matches :func:`percentile_of` on the same sample; scalar ``x``
        yields a float, array ``x`` an ndarray.
        """
        x_arr = np.asarray(x, dtype=float)
        counts = np.searchsorted(self._sorted, x_arr, side="left")
        out = counts / self._n
        if x_arr.ndim == 0:
            return float(out)
        return out

    def tail_mass(self, x: ArrayLike) -> Union[float, Array]:
        """Fraction of the sample strictly above ``x``."""
        x_arr = np.asarray(x, dtype=float)
        counts = np.searchsorted(self._sorted, x_arr, side="right")
        out = 1.0 - counts / self._n
        if x_arr.ndim == 0:
            return float(out)
        return out


def _corner_direction(points: Array, center: Array) -> Array:
    """Unit vector from ``center`` toward the per-feature 0.99 corner.

    The colluding direction of radial poison placement; a degenerate
    spread (zero-length direction) falls back to the first axis.
    """
    direction = np.quantile(points, 0.99, axis=0) - center
    norm = float(np.linalg.norm(direction))
    if norm <= 0.0:
        direction = np.zeros(points.shape[1])
        direction[0] = 1.0
        norm = 1.0
    return direction / norm


def _freeze(arr: Array) -> Array:
    arr.setflags(write=False)
    return arr


class ReferenceFit:
    """The reference-derived arrays of one calibration, computed once.

    The collector's trimmer and the white-box adversary's injector both
    calibrate on the public clean reference (§III), so they need the
    same arrays.  A fit holds them for one score family ``kind`` (the
    trimmers' ``score_kind`` tags):

    * ``"value"`` — ``scores`` is the (1-D) reference itself and
      ``table`` its sort-once :class:`QuantileTable`;
    * ``"radial"`` — ``center`` is the coordinate-wise median (0-d for
      a 1-D reference), ``scores`` the distances from it and ``table``
      their :class:`QuantileTable`.  On a 2-D reference ``direction``
      is also set: the unit vector toward the per-feature 0.99 corner
      that radial poison is placed along.

    A fit is read-only.  :meth:`of` shares one fit among all live
    components fit on the same read-only array, and the lane programs
    group lanes by that identity.  A fit of a keyed array (see
    :func:`key_reference`) pickles as the key and the kind, and
    unpickles as the live shared fit; any other fit pickles whole and
    unpickles private.
    """

    center: Optional[Array] = None
    direction: Optional[Array] = None

    def __init__(self, reference: Array, kind: str) -> None:
        if reference.size == 0:
            raise ValueError("reference must be non-empty")
        # Holding the array keeps its id unique while the fit is shared.
        self._reference: Optional[Array] = reference
        self.kind = kind
        if kind == "value":
            self.scores = reference
        elif kind == "radial" and reference.ndim == 2:
            self.center = _freeze(np.median(reference, axis=0))
            self.scores = _freeze(np.linalg.norm(reference - self.center, axis=1))
            self.direction = _freeze(_corner_direction(reference, self.center))
        elif kind == "radial" and reference.ndim == 1:
            self.center = _freeze(np.asarray(np.median(reference)))
            self.scores = _freeze(np.abs(reference - float(self.center)))
        elif kind == "radial":
            raise ValueError("reference must be 1-D or 2-D")
        else:
            raise ValueError(f"unknown reference fit kind {kind!r}")
        self.table = QuantileTable(self.scores)

    @classmethod
    def of(cls, reference: ArrayLike, kind: str) -> "ReferenceFit":
        """The fit of ``reference`` for ``kind``, shared when read-only.

        A read-only array is taken as unchanging, so every component
        fit on it while an earlier fit is alive gets that same object.
        A writable array gets a private fit.
        """
        arr = np.asarray(reference, dtype=float)
        if arr.flags.writeable:
            return cls(arr, kind)
        key = (id(arr), kind)
        fit = _LIVE_FITS.get(key)
        if fit is None:
            fit = _LIVE_FITS[key] = cls(arr, kind)
        return fit

    def __reduce_ex__(self, protocol: Any) -> Any:
        # A fit of a keyed reference pickles (and copies) as the
        # reference's key and the kind; unpickling resolves the key and
        # takes ReferenceFit.of, so the copy is the live shared fit, and
        # a restored component rejoins its lane group.
        key = reference_key(self._reference)
        if key is None:
            return super().__reduce_ex__(protocol)
        return (_shared_fit, (key, self.kind))

    def __getstate__(self) -> Dict[str, Any]:
        # A fit of an unkeyed reference pickles whole, minus the
        # reference, which only anchors the sharing memo: the copy is a
        # private fit, and a snapshot's components carry the rows they
        # need.
        state = dict(self.__dict__)
        state["_reference"] = None
        return state


def _shared_fit(key: "ReferenceKey", kind: str) -> ReferenceFit:
    """Unpickle (or copy) a keyed fit: the live shared fit of its reference."""
    return ReferenceFit.of(key.resolve(), kind)


#: Live fits of read-only references, keyed by (array id, kind).  An
#: entry dies with the last component holding its fit.
_LIVE_FITS: "weakref.WeakValueDictionary[Tuple[int, str], ReferenceFit]" = (
    weakref.WeakValueDictionary()
)


class ReferenceKey(NamedTuple):
    """How to rebuild one shared read-only array: ``loader(*args)``.

    ``digest`` is a content digest of the array the key was made for.
    An object that pickles a key in place of its array resolves it on
    the way back (:meth:`resolve`), so it holds the loader's
    (process-cached) array again, and a loader whose output changed
    fails loudly instead of resuming on other data.  ``loader`` pickles
    by reference: it must be a module-level function.
    """

    loader: Callable[..., Array]
    args: Tuple[Any, ...]
    digest: str

    def resolve(self) -> Array:
        """The loader's array, checked against the digest."""
        array = self.loader(*self.args)
        key = reference_key(array)
        found = key.digest if key is not None else _content_digest(array)
        if found != self.digest:
            name = getattr(self.loader, "__qualname__", repr(self.loader))
            raise ValueError(
                f"{name}{tuple(self.args)!r} no longer returns the array this "
                "key was made for (content digest differs)"
            )
        return array


def _content_digest(array: Array) -> str:
    arr = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(arr.data)
    return digest.hexdigest()


#: Keyed arrays: array id -> (weak reference to the array, its key).
#: The weak reference checks identity on lookup and drops the entry
#: when the array dies, so the registry keeps no array alive.
_KEYED: Dict[int, Tuple["weakref.ref[Array]", ReferenceKey]] = {}


def key_reference(
    array: Array, loader: Callable[..., Array], args: Tuple[Any, ...]
) -> None:
    """Register a read-only ``array`` as what ``loader(*args)`` returns.

    Objects holding it (a :class:`ReferenceFit`, an
    :class:`~repro.streams.source.ArrayStream`) then pickle its
    :class:`ReferenceKey` instead of its rows.
    """
    if array.flags.writeable:
        raise ValueError("only a read-only array can be keyed")
    array_id = id(array)

    def forget(ref: "weakref.ref[Array]") -> None:
        entry = _KEYED.get(array_id)
        if entry is not None and entry[0] is ref:
            del _KEYED[array_id]

    key = ReferenceKey(loader, tuple(args), _content_digest(array))
    _KEYED[array_id] = (weakref.ref(array, forget), key)


def reference_key(array: Any) -> Optional[ReferenceKey]:
    """The key ``array`` was registered under, or ``None``."""
    entry = _KEYED.get(id(array))
    if entry is None or entry[0]() is not array:
        return None
    return entry[1]


def empirical_quantile(values: ArrayLike, q: ArrayLike) -> Union[float, Array]:
    """Empirical quantile(s) of ``values`` at fraction(s) ``q`` in [0, 1].

    Thin wrapper over :func:`numpy.quantile` with linear interpolation,
    kept in one place so every component of the library agrees on the
    quantile convention.  Scalar ``q`` yields a plain float (every
    threshold-style caller treats the result as one), array ``q`` an
    ndarray of the same shape.  Repeated queries against fixed data
    should go through a :class:`QuantileTable` instead.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot take a quantile of empty data")
    q_arr = np.asarray(q, dtype=float)
    if np.any((q_arr < 0.0) | (q_arr > 1.0)):
        raise ValueError("quantile fractions must lie in [0, 1]")
    result = np.quantile(arr, q)
    if q_arr.ndim == 0:
        return float(result)
    return result


def percentile_of(values: ArrayLike, x: float) -> float:
    """Fraction of ``values`` that are strictly below ``x``.

    This is the (left-continuous) empirical CDF and acts as the inverse of
    :func:`empirical_quantile` up to interpolation: it recovers the
    percentile coordinate of a concrete value, e.g. of an injected poison
    point inside the combined round batch.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot locate a percentile in empty data")
    return float(np.count_nonzero(arr < x)) / float(arr.size)


def clip_percentile(q: float) -> float:
    """Clamp a percentile coordinate into the valid [0, 1] range."""
    return float(min(1.0, max(0.0, q)))


def percentile_grid(low: float, high: float, n: int) -> Array:
    """An inclusive, evenly spaced grid of ``n`` percentile coordinates.

    Used to discretize the strategy space ``[x_L, x_R]`` when solving the
    matrix / Stackelberg games numerically.
    """
    if n < 2:
        raise ValueError("a strategy grid needs at least two points")
    lo, hi = clip_percentile(low), clip_percentile(high)
    if lo >= hi:
        raise ValueError("grid low must be < high after clipping")
    return np.linspace(lo, hi, n)

"""Benign data stream sources (Fig. 3, step ③).

The collection game is played over a data stream with a fixed number of
samples per round.  Sources wrap a dataset (or a generator) and hand the
engine one benign batch per round; users of the stream never mutate the
backing data.  A lockstep game holds one source per lane, exactly as L
solo games would; its :class:`~repro.core.fusion.SourceLanes` program
draws them together, byte-identically to stacking their
:meth:`StreamSource.next_batch` calls.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..core.arrays import Array, ArrayLike
from ..core.domain import ReferenceKey, reference_key
from ..core.strategies.base import rng_state

__all__ = ["StreamSource", "ArrayStream", "GeneratorStream"]


class StreamSource:
    """Interface: one benign batch per call to :meth:`next_batch`."""

    def reset(self) -> None:
        """Rewind the stream to its initial state."""

    def next_batch(self) -> Array:
        """The next round's benign batch (1-D values or 2-D rows)."""
        raise NotImplementedError

    def export_state(self) -> dict[str, Any]:
        """Mutable stream position (cursor/RNG) as a plain-data dict.

        The audit view of the strategy contract
        (``CollectorStrategy.export_state``): a snapshot pickles the
        source itself, and this document is what ``state_dict()`` and
        the conformance checks read.  Sources without mutable state
        inherit this empty default.
        """
        return {}


class ArrayStream(StreamSource):
    """Replayable stream over a fixed array.

    Each round draws ``batch_size`` rows.  With ``shuffle=True`` (the
    default) rows are sampled without replacement per epoch and the
    epoch order is reshuffled when exhausted, so an arbitrary number of
    rounds can be served from a finite dataset — the paper's "streaming
    process with a fixed number of samples gathered in each round"
    (§IV-B).
    """

    def __init__(
        self,
        data: ArrayLike,
        batch_size: int,
        shuffle: bool = True,
        seed: Any = None,
    ) -> None:
        arr = np.asarray(data, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[0] == 0:
            raise ValueError("data must be a non-empty 1-D or 2-D array")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if batch_size > arr.shape[0]:
            raise ValueError("batch_size exceeds the dataset size")
        self._data = arr
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        # The stream starts at an epoch end: its first draw shuffles the
        # identity order with this fresh Generator, exactly as a shuffle
        # here would, and a restore that imports a state draws nothing.
        self._rng = np.random.default_rng(self._seed)
        self._order: Array = np.arange(self._data.shape[0])
        self._order.setflags(write=False)
        self._cursor = self._data.shape[0]

    def __getstate__(self) -> dict[str, Any]:
        # A keyed dataset (a process-cached registry dataset) pickles and
        # copies as its key, resolved back onto the loader's array by
        # __setstate__; any other array pickles whole.
        state = self.__dict__.copy()
        state["_data"] = reference_key(self._data) or self._data
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        data = state["_data"]
        if isinstance(data, ReferenceKey):
            state = {**state, "_data": data.resolve()}
        self.__dict__.update(state)

    def export_state(self) -> dict[str, Any]:
        # The epoch order is read-only and replaced, never shuffled in
        # place, so the state shares it instead of copying it.
        return {
            "rng": rng_state(self._rng),
            "order": self._order,
            "cursor": int(self._cursor),
        }

    def next_indices(self) -> Optional[Array]:
        """The next batch's dataset row indices, if it stays in the epoch.

        Advances the cursor past them, exactly as :meth:`next_batch`
        would.  A draw that would cross the epoch end returns ``None``
        and moves nothing: only :meth:`next_batch` starts a new epoch.
        A lockstep cohort gathers many streams' rows in one pass this
        way (:class:`~repro.core.fusion.SourceLanes`).
        """
        start = self._cursor
        stop = start + self.batch_size
        if stop > self._data.shape[0]:
            return None
        self._cursor = stop
        return self._order[start:stop]

    def next_batch(self) -> Array:
        idx = self.next_indices()
        if idx is None:
            if self.shuffle:
                # Generator.permutation draws exactly as an in-place
                # shuffle of the same order would.
                self._order = self._rng.permutation(self._order)
                self._order.setflags(write=False)
            self._cursor = 0
            idx = self.next_indices()
        # Fancy indexing already materializes a fresh array — callers can
        # never corrupt the backing dataset through the returned batch.
        return self._data[idx]


class GeneratorStream(StreamSource):
    """Stream backed by a callable ``factory(rng, batch_size) -> array``.

    Supports genuinely infinite streams (e.g. the synthetic Taxi
    generator) without materializing the full dataset.
    """

    def __init__(
        self,
        factory: Callable[[np.random.Generator, int], Array],
        batch_size: int,
        seed: Any = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._factory = factory
        self.batch_size = int(batch_size)
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)

    def export_state(self) -> dict[str, Any]:
        return {"rng": rng_state(self._rng)}

    def next_batch(self) -> Array:
        batch = np.asarray(self._factory(self._rng, self.batch_size), dtype=float)
        if batch.shape[0] != self.batch_size:
            raise ValueError(
                f"factory returned {batch.shape[0]} rows, expected {self.batch_size}"
            )
        return batch

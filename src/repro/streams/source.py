"""Benign data stream sources (Fig. 3, step ③).

The collection game is played over a data stream with a fixed number of
samples per round.  Sources wrap a dataset (or a generator) and hand the
engine one benign batch per round; users of the stream never mutate the
backing data.  A lockstep game holds one source per lane, exactly as L
solo games would, and stacks their :meth:`StreamSource.next_batch`
draws.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..core.arrays import Array, ArrayLike
from ..core.strategies.base import rng_state, set_rng_state

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

        Mirrors the strategy state-export contract: ``reset()`` followed
        by ``import_state(state)`` resumes the draw sequence exactly
        where :meth:`export_state` captured it.  Sources without mutable
        state inherit this empty default.
        """
        return {}

    def import_state(self, state: dict[str, Any]) -> None:
        """Restore a stream position captured by :meth:`export_state`."""


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
        self._rng = np.random.default_rng(self._seed)
        self._order: Array = np.arange(self._data.shape[0])
        if self.shuffle:
            self._order = self._rng.permutation(self._order)
        self._order.setflags(write=False)
        self._cursor = 0

    def export_state(self) -> dict[str, Any]:
        # The epoch order is read-only and replaced, never shuffled in
        # place, so the state shares it: a snapshot pickles it once.
        return {
            "rng": rng_state(self._rng),
            "order": self._order,
            "cursor": int(self._cursor),
        }

    def import_state(self, state: dict[str, Any]) -> None:
        set_rng_state(self._rng, state["rng"])
        order = np.asarray(state["order"], dtype=np.int64)
        if order.flags.writeable:
            order = order.copy()
            order.setflags(write=False)
        self._order = order
        self._cursor = int(state["cursor"])

    def next_batch(self) -> Array:
        if self._cursor + self.batch_size > self._data.shape[0]:
            if self.shuffle:
                # Generator.permutation draws exactly as an in-place
                # shuffle of the same order would.
                self._order = self._rng.permutation(self._order)
                self._order.setflags(write=False)
            self._cursor = 0
        idx = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
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

    def import_state(self, state: dict[str, Any]) -> None:
        set_rng_state(self._rng, state["rng"])

    def next_batch(self) -> Array:
        batch = np.asarray(self._factory(self._rng, self.batch_size), dtype=float)
        if batch.shape[0] != self.batch_size:
            raise ValueError(
                f"factory returned {batch.shape[0]} rows, expected {self.batch_size}"
            )
        return batch

"""The public board of the infinite collection game (Fig. 3, steps ① ⑥).

The board is the complete-information channel: the collector records every
round's retained data and the threshold she used, and the adversary can
access and verify them.  Every round leaves one public record — its
:class:`~repro.core.strategies.base.RoundObservation` fields plus the
ground-truth counts — giving both parties (and the experiment harness) a
consistent view of the game's history.

Columns
-------
The board stores rounds as **append-only columns** only: one value per
round for every public observation field and ground-truth count, and on
a full board one retained array per round.  Path queries
(``GameResult.threshold_path()``, ``injection_path()``, ``to_records()``)
and the aggregate fractions read the stacked columns directly;
:attr:`PublicBoard.observations` is the one object view, built row by
row through :func:`~repro.core.strategies.base.observation_from_row`.

Long games and large sweep grids mostly consume the board through
*summary* reducers that never touch the per-round retained arrays; the
lean mode (``PublicBoard(store_retained=False)``) drops those payloads at
record time and keeps only the columns, cutting peak memory from
O(rounds × batch) to O(rounds).

:class:`ColumnarBoard` is the lockstep counterpart: one cohort's sink
records ``(L,)`` column vectors per round for all L lanes at once, and
flushes each lane's rows into its session's :class:`PublicBoard`
wholesale.  Sweep games and service cohorts record and flush through the
same sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.arrays import Array
from ..core.strategies.base import RoundObservation, observation_from_row

if TYPE_CHECKING:
    from ..core.session import BatchedRoundDecision

__all__ = [
    "BoardColumns",
    "ColumnarBoard",
    "PublicBoard",
]


@dataclass(frozen=True)
class BoardColumns:
    """Per-round column arrays of a board (one entry per round).

    ``injection_percentile`` uses ``NaN`` where no poison was injected
    (the ``None`` of the observation object).  Arrays are read-only —
    they are shared with the board's internal cache.
    """

    index: Array                 # (T,) int, 1-based round numbers
    trim_percentile: Array       # (T,) float
    injection_percentile: Array  # (T,) float, NaN = no injection
    quality: Array               # (T,) float
    observed_poison_ratio: Array  # (T,) float
    betrayal: Array              # (T,) bool
    n_collected: Array           # (T,) int
    n_poison_injected: Array     # (T,) int
    n_poison_retained: Array     # (T,) int
    n_retained: Array            # (T,) int

    @property
    def rounds(self) -> int:
        """Number of recorded rounds."""
        return int(self.index.size)


#: The public fields of a round, in :class:`RoundObservation` order.
_OBSERVATION_FIELDS = (
    "index",
    "trim_percentile",
    "injection_percentile",
    "quality",
    "observed_poison_ratio",
    "betrayal",
)

_COLUMN_FIELDS = _OBSERVATION_FIELDS + (
    "n_collected",
    "n_poison_injected",
    "n_poison_retained",
    "n_retained",
)

_COLUMN_DTYPES = {
    "index": np.int64,
    "betrayal": bool,
    "n_collected": np.int64,
    "n_poison_injected": np.int64,
    "n_poison_retained": np.int64,
    "n_retained": np.int64,
}


def _freeze(arr: Array) -> Array:
    arr.setflags(write=False)
    return arr


class PublicBoard:
    """Append-only public record of the collection game.

    The board holds one append-only list per column field and, on a full
    board, one retained array per round; :attr:`columns` stacks the
    lists into (cached, read-only) arrays so path and aggregate queries
    never iterate observation objects.  ``store_retained=False`` selects
    the lean mode: the retained payload is dropped at record time, and
    the per-round counts (``n_retained`` et al.) the aggregate queries
    need stay in the columns — peak memory drops from O(rounds × batch)
    to O(rounds).
    """

    def __init__(self, *, store_retained: bool = True):
        self.store_retained = bool(store_retained)
        self._cols: dict[str, List[Any]] = {name: [] for name in _COLUMN_FIELDS}
        self._retained: Optional[List[Array]] = [] if self.store_retained else None
        self._columns_cache: Optional[BoardColumns] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_columns(
        cls,
        columns: BoardColumns,
        retained: Optional[Sequence[Array]] = None,
        store_retained: bool = True,
    ) -> "PublicBoard":
        """A board born from column arrays (a session snapshot's restore).

        A full board needs ``retained`` to carry one array per round; a
        lean board drops it.
        """
        board = cls(store_retained=store_retained)
        board.extend_columns(
            {name: getattr(columns, name).tolist() for name in _COLUMN_FIELDS},
            retained,
        )
        return board

    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> BoardColumns:
        """Stacked, read-only per-round column arrays (cached per append)."""
        if self._columns_cache is None:
            cols = self._cols
            self._columns_cache = BoardColumns(
                **{
                    name: _freeze(
                        np.asarray(cols[name], dtype=_COLUMN_DTYPES.get(name, float))
                    )
                    for name in _COLUMN_FIELDS
                }
            )
        return self._columns_cache

    @property
    def retained(self) -> Optional[Tuple[Array, ...]]:
        """The per-round retained arrays, or ``None`` on a lean board."""
        return None if self._retained is None else tuple(self._retained)

    def record(
        self,
        observation: RoundObservation,
        retained: Optional[Array],
        *,
        n_collected: int,
        n_poison_injected: int,
        n_poison_retained: int,
        n_retained: int,
    ) -> None:
        """Append a completed round's record.

        ``observation`` is the round's public record, ``retained`` the
        untrimmed (kept) rows the collector published — required on a
        full board, dropped on a lean one — and the ``n_*`` counts the
        ground-truth bookkeeping available to the experiment harness
        (strategies only ever see the observation).
        """
        expected = len(self) + 1
        if observation.index != expected:
            raise ValueError(
                f"round {observation.index} recorded out of order "
                f"(expected {expected})"
            )
        if self._retained is not None:
            if retained is None:
                raise ValueError("a full board needs the round's retained array")
            self._retained.append(retained)
        injection = observation.injection_percentile
        row = (
            observation.index,
            observation.trim_percentile,
            np.nan if injection is None else injection,
            observation.quality,
            observation.observed_poison_ratio,
            observation.betrayal,
            n_collected,
            n_poison_injected,
            n_poison_retained,
            n_retained,
        )
        for name, value in zip(_COLUMN_FIELDS, row, strict=True):
            self._cols[name].append(value)
        self._columns_cache = None

    def extend_columns(
        self,
        columns: dict[str, Sequence[Any]],
        retained: Optional[Sequence[Array]] = None,
    ) -> None:
        """Bulk-append per-round column values (deferred lockstep flush).

        ``columns`` maps every field of the board's column layout to a
        sequence of per-round values (``index`` included, absolute and
        contiguous with the existing log); ``retained`` carries the
        matching per-round retained arrays, required on a full board and
        dropped on a lean one.
        """
        added = len(columns["index"])
        if added == 0:
            return
        if int(columns["index"][0]) != len(self) + 1:
            raise ValueError(
                f"round {int(columns['index'][0])} appended out of order "
                f"(expected {len(self) + 1})"
            )
        for name in _COLUMN_FIELDS:
            if len(columns[name]) != added:
                raise ValueError(
                    f"column {name!r} must carry {added} rows, "
                    f"got {len(columns[name])}"
                )
        if self._retained is not None:
            if retained is None or len(retained) != added:
                raise ValueError(
                    "a full board needs one retained array per appended round"
                )
            self._retained.extend(retained)
        for name in _COLUMN_FIELDS:
            self._cols[name].extend(columns[name])
        self._columns_cache = None

    def __len__(self) -> int:
        return len(self._cols["index"])

    @property
    def observations(self) -> List[RoundObservation]:
        """All public round observations, in order."""
        rows = zip(*(self._cols[name] for name in _OBSERVATION_FIELDS), strict=True)
        return [observation_from_row(*row) for row in rows]

    def retained_data(self) -> Array:
        """All retained data concatenated across rounds.

        This is what downstream analytics (k-means, SVM, SOM, mean
        estimation) consume — the dataset that actually survived the
        game.
        """
        if len(self) == 0:
            raise ValueError("board is empty")
        if self._retained is None:
            raise ValueError(
                "board is lean (store_retained=False): per-round retained "
                "arrays were not stored; replay the game with "
                "store_retained=True to collect them"
            )
        return np.concatenate(self._retained, axis=0)

    def poison_retained_fraction(self) -> float:
        """Ground truth: fraction of retained points that are poison.

        The 'untrimmed poison values in the remaining data' metric of
        Table III.
        """
        cols = self.columns
        kept = int(np.sum(cols.n_retained))
        if kept == 0:
            return 0.0
        return int(np.sum(cols.n_poison_retained)) / kept

    def trimmed_fraction(self) -> float:
        """Overall fraction of collected data that was trimmed away."""
        cols = self.columns
        collected = int(np.sum(cols.n_collected))
        if collected == 0:
            return 0.0
        return 1.0 - int(np.sum(cols.n_retained)) / collected


class ColumnarBoard:
    """Deferred-round sink for one lockstep cohort.

    While a cohort stays in lockstep its round loop records one ``(L,)``
    row-batch per round here (:meth:`record_decision`) instead of
    appending to every member's :class:`PublicBoard` — no per-lane
    Python objects exist during play.  Both lockstep loops record here:
    :meth:`BatchedCollectionGame.run
    <repro.core.engine.BatchedCollectionGame.run>` for sweep games and
    the :class:`~repro.serving.DefenseService` for live tenants.  Member
    sessions :meth:`attach` with their lane index and absorb their
    pending rows wholesale — via ``PublicBoard.extend_columns`` — only
    when the cohort is invalidated (solo escape, eviction/snapshot,
    ``result``/``close``, or a lane rebuild).  ``sync`` runs exactly
    once, at :meth:`flush_all`, to write the lockstep lane state
    (strategy counters, injector RNG positions) back onto the member
    sessions' component instances before the pending rows become
    authoritative.

    ``store_retained=True`` additionally keeps, per round, the list of L
    per-lane retained arrays (exactly what L solo full boards would have
    stored); lean mode keeps counts only.  ``start_index`` is the
    absolute round index the attached sessions had when the sink was
    created; row ``t`` of the sink is absolute round
    ``start_index + t + 1``.
    """

    def __init__(
        self,
        n_lanes: int,
        store_retained: bool = True,
        start_index: int = 0,
        sync: Optional[Callable[[], None]] = None,
    ) -> None:
        if n_lanes < 1:
            raise ValueError("a cohort sink needs at least one lane")
        self.n_lanes = int(n_lanes)
        self.start_index = int(start_index)
        self._sync = sync
        self._rows: dict[str, List[Array]] = {
            name: [] for name in _COLUMN_FIELDS[1:]
        }
        self._retained: Optional[List[List[Array]]] = (
            [] if store_retained else None
        )
        self._stacked_cache: Optional[dict[str, Array]] = None
        self._attached: List[Tuple[Any, int, int]] = []
        self.flushed = False

    @property
    def n_rounds(self) -> int:
        """Number of recorded rounds."""
        return len(self._rows["trim_percentile"])

    def attach(self, session: Any, lane: int) -> None:
        """Register a member session for flush-time row absorption."""
        self._attached.append((session, int(lane), self.n_rounds))

    def record_decision(self, decision: "BatchedRoundDecision") -> None:
        """Append one lockstep round's ``(L,)`` columns (and retained rows)."""
        if self.flushed:
            raise RuntimeError("cannot record into a flushed sink")
        row: dict[str, Array] = {}
        for name in _COLUMN_FIELDS[1:]:
            attr = "threshold" if name == "trim_percentile" else name
            arr = np.asarray(getattr(decision, attr))
            if arr.shape != (self.n_lanes,):
                raise ValueError(
                    f"column {name!r} must be shaped ({self.n_lanes},), "
                    f"got {arr.shape}"
                )
            row[name] = arr
        if self._retained is not None:
            retained = decision.retained
            if retained is None or len(retained) != self.n_lanes:
                raise ValueError(
                    "a full sink needs one retained array per lane"
                )
            self._retained.append(list(retained))
        for name, arr in row.items():
            self._rows[name].append(arr)
        self._stacked_cache = None

    def _stacked(self) -> dict[str, Array]:
        """(T, L) arrays per field, cached until the next record."""
        if self._stacked_cache is None:
            self._stacked_cache = {
                name: np.asarray(rows, dtype=_COLUMN_DTYPES.get(name, float))
                for name, rows in self._rows.items()
            }
        return self._stacked_cache

    def lane_rows(
        self, lane: int, base: int
    ) -> Tuple[dict[str, List[Any]], Optional[List[Array]]]:
        """Lane ``lane``'s rows from ``base`` on, as per-field lists.

        The values are plain Python scalars, which the receiving board
        stacks back into arrays without a per-value numpy conversion.
        The index column is absolute (``start_index``-offset) so the
        receiving board can validate contiguity with its existing log.
        """
        first = self.start_index + base + 1
        columns: dict[str, List[Any]] = {
            "index": list(range(first, self.start_index + self.n_rounds + 1))
        }
        for name, stacked in self._stacked().items():
            columns[name] = stacked[base:, lane].tolist()
        retained = (
            [row[lane] for row in self._retained[base:]]
            if self._retained is not None
            else None
        )
        return columns, retained

    def flush_all(self) -> None:
        """Sync lane state once, then flush every attached session."""
        if self.flushed:
            return
        self.flushed = True
        if self._sync is not None:
            self._sync()
        attached, self._attached = self._attached, []
        for session, lane, base in attached:
            session._absorb_sink_rows(self, lane, base)

"""The public board of the infinite collection game (Fig. 3, steps ① ⑥).

The board is the complete-information channel: the collector records every
round's retained data and the threshold she used, and the adversary can
access and verify them.  It is an append-only log of
:class:`~repro.core.strategies.base.RoundObservation` entries plus the
retained batches, giving both parties (and the experiment harness) a
consistent view of the game's history.

Long games and large sweep grids mostly consume the board through
*summary* reducers that never touch the per-round retained arrays; the
lean mode (``PublicBoard(store_retained=False)``) drops those payloads at
record time and keeps only running counts and aggregates, cutting peak
memory from O(rounds × batch) to O(rounds).

Columns
-------
Alongside the entry log the board maintains **append-only column
arrays** — one value per round for every public observation field and
ground-truth count.  Path queries (``GameResult.threshold_path()``,
``injection_path()``, ``to_records()``) and the aggregate fractions read
these columns directly instead of rebuilding Python list comprehensions
over observation objects on every call.  :class:`ColumnarBoard` is the
lockstep counterpart: one cohort's sink records ``(L,)`` column vectors
per round for all L lanes at once, and flushes each lane's rows into its
session's :class:`PublicBoard` wholesale (entry objects materialize
lazily, only when a consumer actually walks ``entries``).  Sweep games
and service cohorts record and flush through the same sink.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.arrays import Array
from ..core.strategies.base import RoundObservation

if TYPE_CHECKING:
    from ..core.session import BatchedRoundDecision

__all__ = [
    "BoardEntry",
    "BoardColumns",
    "ColumnarBoard",
    "PublicBoard",
]


@dataclass(frozen=True)
class BoardEntry:
    """One round's public record.

    ``retained`` is the untrimmed (kept) data the collector published
    (``None`` on a lean board, which keeps only its row count in
    ``n_retained``); ``observation`` the public per-round summary both
    parties strategize on; ``n_poison_retained``/``n_poison_injected``
    are ground-truth bookkeeping available to the experiment harness
    (not used by strategies, which only see the observation).
    """

    observation: RoundObservation
    retained: Optional[Array]
    n_collected: int
    n_poison_injected: int
    n_poison_retained: int
    n_retained: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_retained is None:
            if self.retained is None:
                raise ValueError(
                    "a lean entry (retained=None) must carry n_retained"
                )
            object.__setattr__(self, "n_retained", int(self.retained.shape[0]))


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


_COLUMN_FIELDS = (
    "index",
    "trim_percentile",
    "injection_percentile",
    "quality",
    "observed_poison_ratio",
    "betrayal",
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


def _entry_row(entry: BoardEntry) -> Tuple[Any, ...]:
    obs = entry.observation
    return (
        obs.index,
        obs.trim_percentile,
        np.nan if obs.injection_percentile is None else obs.injection_percentile,
        obs.quality,
        obs.observed_poison_ratio,
        obs.betrayal,
        entry.n_collected,
        entry.n_poison_injected,
        entry.n_poison_retained,
        int(entry.n_retained),
    )


class PublicBoard:
    """Append-only public record of the collection game.

    ``store_retained=False`` selects the lean mode: recorded entries are
    stripped of their ``retained`` payload at record time, keeping only
    the per-round counts (``n_retained`` et al.) the aggregate queries
    need — peak memory drops from O(rounds × batch) to O(rounds).

    The board keeps append-only per-field column lists in sync with the
    entry log; :attr:`columns` stacks them into (cached, read-only)
    arrays so path and aggregate queries never iterate observation
    objects.  Boards restored from a snapshot (:meth:`from_columns`) or
    extended by a lockstep flush (:meth:`extend_columns`) go the other
    way: they hold columns and materialize :attr:`entries` lazily on
    first access.
    """

    def __init__(
        self,
        entries: Optional[Sequence[BoardEntry]] = None,
        store_retained: bool = True,
    ):
        self.store_retained = bool(store_retained)
        self._entries: Optional[List[BoardEntry]] = (
            list(entries) if entries is not None else []
        )
        self._col_lists = {name: [] for name in _COLUMN_FIELDS}
        for entry in self._entries:
            self._append_columns(entry)
        self._columns_cache: Optional[BoardColumns] = None
        # Payload of a lazily-entried, column-born board (see from_columns).
        self._source_retained: Optional[List[Array]] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_columns(
        cls,
        columns: BoardColumns,
        retained: Optional[Sequence[Array]] = None,
        store_retained: bool = True,
    ) -> "PublicBoard":
        """A board born from column arrays (a session snapshot's restore).

        ``retained`` optionally carries the per-round retained arrays;
        entry objects are only materialized when :attr:`entries` is
        first read, so summary consumers (column-based reducers, the
        aggregate fractions) never pay the per-round object cost.
        """
        if retained is not None and len(retained) != columns.rounds:
            raise ValueError("retained payload must carry one array per round")
        board = cls.__new__(cls)
        board.store_retained = bool(store_retained)
        board._entries = None
        board._col_lists = None  # rebuilt from the columns only on append
        board._columns_cache = columns
        board._source_retained = list(retained) if retained is not None else None
        return board

    # ------------------------------------------------------------------ #
    def _append_columns(self, entry: BoardEntry) -> None:
        if self._col_lists is None:  # column-born board, first append
            cols = self._columns_cache
            self._col_lists = {
                name: list(getattr(cols, name)) for name in _COLUMN_FIELDS
            }
        for name, value in zip(_COLUMN_FIELDS, _entry_row(entry), strict=False):
            self._col_lists[name].append(value)

    def _materialize_entries(self) -> List[BoardEntry]:
        """Build the entry log of a column-born board on first access."""
        entries: List[BoardEntry] = []
        cols = self.columns
        for t in range(cols.rounds):
            inj = cols.injection_percentile[t]
            retained = (
                self._source_retained[t]
                if self._source_retained is not None
                else None
            )
            entries.append(
                BoardEntry(
                    observation=RoundObservation(
                        index=int(cols.index[t]),
                        trim_percentile=float(cols.trim_percentile[t]),
                        injection_percentile=(
                            None if np.isnan(inj) else float(inj)
                        ),
                        quality=float(cols.quality[t]),
                        observed_poison_ratio=float(
                            cols.observed_poison_ratio[t]
                        ),
                        betrayal=bool(cols.betrayal[t]),
                    ),
                    retained=retained,
                    n_collected=int(cols.n_collected[t]),
                    n_poison_injected=int(cols.n_poison_injected[t]),
                    n_poison_retained=int(cols.n_poison_retained[t]),
                    n_retained=int(cols.n_retained[t]),
                )
            )
        self._entries = entries
        return entries

    # ------------------------------------------------------------------ #
    @property
    def entries(self) -> List[BoardEntry]:
        """The entry log (materialized on demand for column-born boards)."""
        if self._entries is None:
            return self._materialize_entries()
        return self._entries

    @property
    def columns(self) -> BoardColumns:
        """Stacked, read-only per-round column arrays (cached per append)."""
        if self._columns_cache is None:
            cols = self._col_lists
            self._columns_cache = BoardColumns(
                **{
                    name: _freeze(
                        np.asarray(cols[name], dtype=_COLUMN_DTYPES.get(name, float))
                    )
                    for name in _COLUMN_FIELDS
                }
            )
        return self._columns_cache

    def record(self, entry: BoardEntry) -> None:
        """Append a completed round's record.

        A column-born board stays column-born: the round joins the
        column lists (and a full board's retained payload), and entry
        objects still materialize only when :attr:`entries` is read.
        """
        expected = len(self) + 1
        if entry.observation.index != expected:
            raise ValueError(
                f"round {entry.observation.index} recorded out of order "
                f"(expected {expected})"
            )
        if not self.store_retained and entry.retained is not None:
            entry = replace(entry, retained=None, n_retained=entry.n_retained)
        if self._entries is None:
            if self.store_retained and self._source_retained is not None:
                self._source_retained.append(entry.retained)
            elif self.store_retained or self._source_retained is not None:
                # A payload that cannot stay aligned with the rounds.
                self._materialize_entries()
        if self._entries is not None:
            self._entries.append(entry)
        self._append_columns(entry)
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
        matching per-round retained arrays on a full board.  The board
        stays (or becomes) column-born: entry objects materialize lazily
        on the next :attr:`entries` access, so a flush never pays the
        per-round object cost the deferred rounds avoided.
        """
        added = len(columns["index"])
        if added == 0:
            return
        if int(columns["index"][0]) != len(self) + 1:
            raise ValueError(
                f"round {int(columns['index'][0])} appended out of order "
                f"(expected {len(self) + 1})"
            )
        if self._col_lists is None:  # column-born board, first append
            cols = self._columns_cache
            self._col_lists = {
                name: list(getattr(cols, name)) for name in _COLUMN_FIELDS
            }
        payload: Optional[List[Array]] = None
        if self.store_retained:
            if retained is None or len(retained) != added:
                raise ValueError(
                    "a full board needs one retained array per appended round"
                )
            if self._entries is not None:
                payload = [e.retained for e in self._entries]
            elif self._source_retained is not None:
                payload = list(self._source_retained)
            else:
                payload = []
            if len(payload) != len(self):
                raise ValueError(
                    "board's retained payload is incomplete; cannot extend"
                )
            payload.extend(retained)
        for name in _COLUMN_FIELDS:
            values = columns[name]
            if len(values) != added:
                raise ValueError(
                    f"column {name!r} must carry {added} rows, "
                    f"got {len(values)}"
                )
            self._col_lists[name].extend(values)
        self._entries = None
        self._source_retained = payload
        self._columns_cache = None

    def __len__(self) -> int:
        if self._col_lists is None:
            return self._columns_cache.rounds
        return len(self._col_lists["index"])

    @property
    def last(self) -> Optional[BoardEntry]:
        """Most recent entry, or ``None`` before round 1."""
        entries = self.entries
        return entries[-1] if entries else None

    @property
    def observations(self) -> List[RoundObservation]:
        """All public round observations, in order."""
        return [e.observation for e in self.entries]

    def retained_data(self) -> Array:
        """All retained data concatenated across rounds.

        This is what downstream analytics (k-means, SVM, SOM, mean
        estimation) consume — the dataset that actually survived the
        game.
        """
        if len(self) == 0:
            raise ValueError("board is empty")
        if self._entries is None and self._source_retained is not None:
            return np.concatenate(self._source_retained, axis=0)
        if any(e.retained is None for e in self.entries):
            raise ValueError(
                "board is lean (store_retained=False): per-round retained "
                "arrays were not stored; replay the game with "
                "store_retained=True to collect them"
            )
        return np.concatenate([e.retained for e in self.entries], axis=0)

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

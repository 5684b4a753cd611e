"""Tests for repro.streams.board — the public board."""

import numpy as np
import pytest

from repro.core.strategies.base import RoundObservation
from repro.streams import BoardEntry, PublicBoard


def _entry(index, retained, n_collected, n_poison_injected=0, n_poison_retained=0):
    return BoardEntry(
        observation=RoundObservation(
            index=index,
            trim_percentile=0.9,
            injection_percentile=None,
            quality=0.0,
            observed_poison_ratio=0.0,
            betrayal=False,
        ),
        retained=np.asarray(retained, dtype=float),
        n_collected=n_collected,
        n_poison_injected=n_poison_injected,
        n_poison_retained=n_poison_retained,
    )


class TestPublicBoard:
    def test_record_and_len(self):
        board = PublicBoard()
        board.record(_entry(1, np.zeros((5, 2)), 6))
        assert len(board) == 1
        assert board.last.n_collected == 6

    def test_out_of_order_rejected(self):
        board = PublicBoard()
        with pytest.raises(ValueError):
            board.record(_entry(2, np.zeros((5, 2)), 6))

    def test_empty_board_has_no_last(self):
        assert PublicBoard().last is None

    def test_retained_data_concatenates(self):
        board = PublicBoard()
        board.record(_entry(1, np.ones((3, 2)), 3))
        board.record(_entry(2, 2 * np.ones((4, 2)), 4))
        data = board.retained_data()
        assert data.shape == (7, 2)
        assert data[:3].sum() == 6.0

    def test_retained_data_empty_board_raises(self):
        with pytest.raises(ValueError):
            PublicBoard().retained_data()

    def test_poison_retained_fraction(self):
        board = PublicBoard()
        board.record(_entry(1, np.zeros((8, 1)), 10, 4, 2))
        board.record(_entry(2, np.zeros((12, 1)), 14, 4, 4))
        assert board.poison_retained_fraction() == pytest.approx(6 / 20)

    def test_trimmed_fraction(self):
        board = PublicBoard()
        board.record(_entry(1, np.zeros((8, 1)), 10))
        board.record(_entry(2, np.zeros((6, 1)), 10))
        assert board.trimmed_fraction() == pytest.approx(1 - 14 / 20)

    def test_observations_in_order(self):
        board = PublicBoard()
        board.record(_entry(1, np.zeros((1, 1)), 1))
        board.record(_entry(2, np.zeros((1, 1)), 1))
        assert [o.index for o in board.observations] == [1, 2]

    def test_fractions_of_empty_board_are_zero(self):
        board = PublicBoard()
        assert board.poison_retained_fraction() == 0.0
        assert board.trimmed_fraction() == 0.0

class TestBoardEntryCounts:
    def test_n_retained_derived_from_retained(self):
        entry = _entry(1, np.zeros((5, 2)), 6)
        assert entry.n_retained == 5

    def test_explicit_n_retained_preserved(self):
        entry = BoardEntry(
            observation=_entry(1, np.zeros((1, 1)), 1).observation,
            retained=None,
            n_collected=10,
            n_poison_injected=2,
            n_poison_retained=1,
            n_retained=7,
        )
        assert entry.n_retained == 7
        assert entry.retained is None

    def test_lean_entry_without_count_rejected(self):
        with pytest.raises(ValueError):
            BoardEntry(
                observation=_entry(1, np.zeros((1, 1)), 1).observation,
                retained=None,
                n_collected=10,
                n_poison_injected=0,
                n_poison_retained=0,
            )


class TestLeanBoard:
    def test_record_drops_retained_payload(self):
        board = PublicBoard(store_retained=False)
        board.record(_entry(1, np.ones((5, 2)), 6))
        assert board.entries[0].retained is None
        assert board.entries[0].n_retained == 5

    def test_fractions_match_full_board(self):
        full = PublicBoard()
        lean = PublicBoard(store_retained=False)
        for board in (full, lean):
            board.record(_entry(1, np.zeros((8, 1)), 10, 4, 2))
            board.record(_entry(2, np.zeros((12, 1)), 14, 4, 4))
        assert lean.poison_retained_fraction() == full.poison_retained_fraction()
        assert lean.trimmed_fraction() == full.trimmed_fraction()

    def test_retained_data_raises_with_clear_message(self):
        board = PublicBoard(store_retained=False)
        board.record(_entry(1, np.ones((3, 2)), 3))
        with pytest.raises(ValueError, match="lean"):
            board.retained_data()

    def test_observations_still_available(self):
        board = PublicBoard(store_retained=False)
        board.record(_entry(1, np.zeros((1, 1)), 1))
        board.record(_entry(2, np.zeros((1, 1)), 1))
        assert [o.index for o in board.observations] == [1, 2]

    def test_prefilled_entries_counted(self):
        entries = [_entry(1, np.zeros((8, 1)), 10, 4, 2)]
        board = PublicBoard(entries=entries)
        assert board.poison_retained_fraction() == pytest.approx(2 / 8)
        assert board.trimmed_fraction() == pytest.approx(1 - 8 / 10)


class TestBoardColumns:
    def _two_round_board(self):
        board = PublicBoard()
        board.record(_entry(1, np.zeros((8, 1)), 10, 4, 2))
        board.record(_entry(2, np.zeros((12, 1)), 14, 4, 4))
        return board

    def test_columns_mirror_entries(self):
        board = self._two_round_board()
        cols = board.columns
        assert cols.rounds == 2
        np.testing.assert_array_equal(cols.index, [1, 2])
        np.testing.assert_array_equal(cols.n_collected, [10, 14])
        np.testing.assert_array_equal(cols.n_poison_retained, [2, 4])
        np.testing.assert_array_equal(cols.n_retained, [8, 12])

    def test_columns_cache_invalidated_on_record(self):
        board = self._two_round_board()
        assert board.columns.rounds == 2
        board.record(_entry(3, np.zeros((5, 1)), 9))
        assert board.columns.rounds == 3

    def test_columns_are_read_only(self):
        cols = self._two_round_board().columns
        with pytest.raises(ValueError):
            cols.n_collected[0] = 99

    def test_from_columns_round_trips(self):
        source = self._two_round_board()
        rebuilt = PublicBoard.from_columns(source.columns, store_retained=False)
        assert len(rebuilt) == 2
        assert rebuilt.poison_retained_fraction() == source.poison_retained_fraction()
        assert rebuilt.trimmed_fraction() == source.trimmed_fraction()
        # Entries materialize lazily and carry the same observations.
        assert [o.index for o in rebuilt.observations] == [1, 2]
        assert rebuilt.last.n_collected == 14

    def test_from_columns_supports_record_append(self):
        board = PublicBoard.from_columns(
            self._two_round_board().columns, store_retained=False
        )
        board.record(_entry(3, np.zeros((5, 1)), 9))
        assert len(board) == 3
        assert board._entries is None  # a record keeps entries lazy
        assert board.columns.rounds == 3
        assert [o.index for o in board.observations] == [1, 2, 3]

    def test_from_columns_full_board_record_append(self):
        source = self._two_round_board()
        board = PublicBoard.from_columns(
            source.columns, retained=[e.retained for e in source.entries]
        )
        appended = np.full((5, 1), 7.0)
        board.record(_entry(3, appended, 9))
        assert board._entries is None  # a record keeps entries lazy
        assert len(board) == 3
        np.testing.assert_array_equal(
            board.retained_data(),
            np.concatenate([source.retained_data(), appended]),
        )
        assert board.entries[-1].retained is appended

    def test_from_columns_retained_payload(self):
        source = self._two_round_board()
        retained = [e.retained for e in source.entries]
        rebuilt = PublicBoard.from_columns(source.columns, retained=retained)
        assert rebuilt.retained_data().shape == source.retained_data().shape


class TestExtendColumns:
    def _columns(self, first_index, rows):
        return {
            "index": [first_index + t for t in range(rows)],
            "trim_percentile": [0.9] * rows,
            "injection_percentile": [float("nan")] * rows,
            "quality": [0.0] * rows,
            "observed_poison_ratio": [0.0] * rows,
            "betrayal": [False] * rows,
            "n_collected": [10] * rows,
            "n_poison_injected": [0] * rows,
            "n_poison_retained": [0] * rows,
            "n_retained": [8] * rows,
        }

    def test_extends_lean_board_without_materializing_entries(self):
        board = PublicBoard(store_retained=False)
        board.record(_entry(1, np.zeros((8, 1)), 10))
        board.extend_columns(self._columns(2, 3))
        assert len(board) == 4
        assert board._entries is None  # entries stay lazy after a flush
        np.testing.assert_array_equal(board.columns.index, [1, 2, 3, 4])
        assert [o.index for o in board.observations] == [1, 2, 3, 4]

    def test_extends_empty_board(self):
        board = PublicBoard(store_retained=False)
        board.extend_columns(self._columns(1, 2))
        assert len(board) == 2
        assert board.last.n_retained == 8

    def test_zero_rows_is_a_noop(self):
        board = PublicBoard(store_retained=False)
        board.extend_columns({name: [] for name in self._columns(1, 0)})
        assert len(board) == 0

    def test_out_of_order_extend_rejected(self):
        board = PublicBoard(store_retained=False)
        board.record(_entry(1, np.zeros((8, 1)), 10))
        with pytest.raises(ValueError, match="out of order"):
            board.extend_columns(self._columns(3, 2))

    def test_full_board_requires_retained_per_round(self):
        board = PublicBoard()
        with pytest.raises(ValueError, match="retained"):
            board.extend_columns(self._columns(1, 2))

    def test_full_board_carries_retained_payload(self):
        board = PublicBoard()
        board.record(_entry(1, np.ones((8, 1)), 10))
        board.extend_columns(
            self._columns(2, 2), retained=[np.zeros((8, 1))] * 2
        )
        assert board.retained_data().shape == (24, 1)
        assert board.entries[2].observation.index == 3

    def test_ragged_column_rejected(self):
        board = PublicBoard(store_retained=False)
        columns = self._columns(1, 2)
        columns["quality"] = [0.0]
        with pytest.raises(ValueError, match="quality"):
            board.extend_columns(columns)

    def test_record_still_works_after_extend(self):
        board = PublicBoard(store_retained=False)
        board.extend_columns(self._columns(1, 2))
        board.record(_entry(3, np.zeros((5, 1)), 9))
        assert len(board) == 3
        np.testing.assert_array_equal(board.columns.index, [1, 2, 3])


class TestColumnarBoard:
    class _FakeSession:
        def __init__(self):
            self.absorbed = []

        def _absorb_sink_rows(self, sink, lane, base):
            self.absorbed.append((sink, lane, base))

    def _sink(self, n_lanes=2, store_retained=False, **kwargs):
        from repro.streams.board import ColumnarBoard

        return ColumnarBoard(n_lanes, store_retained=store_retained, **kwargs)

    def _record(self, sink, kept, retained=None):
        from repro.core.session import BatchedRoundDecision

        n = len(kept)
        sink.record_decision(
            BatchedRoundDecision(
                index=sink.start_index + sink.n_rounds + 1,
                threshold=np.full(n, 0.9),
                injection_percentile=np.full(n, np.nan),
                quality=np.zeros(n),
                observed_poison_ratio=np.zeros(n),
                betrayal=np.zeros(n, dtype=bool),
                n_collected=np.full(n, 10),
                n_retained=np.asarray(kept),
                n_poison_injected=np.zeros(n, dtype=int),
                n_poison_retained=np.zeros(n, dtype=int),
                accept_masks=[np.ones(10, dtype=bool)] * n,
                retained=retained,
            )
        )

    def test_lane_rows_are_absolute_and_base_offset(self):
        sink = self._sink(start_index=5)
        self._record(sink, [8, 9])
        self._record(sink, [7, 6])
        columns, retained = sink.lane_rows(1, base=1)
        assert columns["index"] == [7]
        assert columns["n_retained"] == [6]
        assert type(columns["n_retained"][0]) is int  # plain scalars
        assert retained is None

    def test_flush_syncs_once_then_absorbs_every_lane(self):
        synced = []
        sink = self._sink(sync=lambda: synced.append(True))
        sessions = [self._FakeSession(), self._FakeSession()]
        for lane, session in enumerate(sessions):
            sink.attach(session, lane)
        self._record(sink, [8, 9])
        sink.flush_all()
        assert synced == [True]
        assert sessions[0].absorbed == [(sink, 0, 0)]
        assert sessions[1].absorbed == [(sink, 1, 0)]
        # idempotent: a second flush neither syncs nor re-absorbs
        sink.flush_all()
        assert synced == [True]
        assert len(sessions[0].absorbed) == 1

    def test_record_into_flushed_sink_rejected(self):
        sink = self._sink()
        sink.flush_all()
        with pytest.raises(RuntimeError, match="flushed"):
            self._record(sink, [8, 9])

    def test_shape_validation(self):
        sink = self._sink(n_lanes=3)
        with pytest.raises(ValueError, match="shaped"):
            self._record(sink, [8, 9])

    def test_full_board_requires_retained(self):
        sink = self._sink(store_retained=True)
        with pytest.raises(ValueError, match="retained"):
            self._record(sink, [8, 8])
        assert sink.n_rounds == 0  # a rejected round records nothing
        self._record(sink, [8, 8], retained=[np.zeros((8, 1))] * 2)
        _, retained = sink.lane_rows(1, base=0)
        assert [rows.shape for rows in retained] == [(8, 1)]

    def test_late_attachment_absorbs_from_its_own_base(self):
        sink = self._sink()
        self._record(sink, [8, 9])
        late = self._FakeSession()
        sink.attach(late, 0)
        self._record(sink, [7, 6])
        sink.flush_all()
        assert late.absorbed == [(sink, 0, 1)]

"""Tests for repro.streams.board — the public board."""

import copy
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.strategies.base import RoundObservation, RoundObservationBatch
from repro.streams import PublicBoard
from repro.streams.board import BoardColumns


def _observation(index):
    return RoundObservation(
        index=index,
        trim_percentile=0.9,
        injection_percentile=None,
        quality=0.0,
        observed_poison_ratio=0.0,
        betrayal=False,
    )


def _record(board, index, retained, n_collected, n_poison_injected=0, n_poison_retained=0):
    retained = np.asarray(retained, dtype=float)
    board.record(
        _observation(index),
        retained,
        n_collected=n_collected,
        n_poison_injected=n_poison_injected,
        n_poison_retained=n_poison_retained,
        n_retained=retained.shape[0],
    )


class TestPublicBoard:
    def test_record_and_len(self):
        board = PublicBoard()
        _record(board, 1, np.zeros((5, 2)), 6)
        assert len(board) == 1
        assert board.columns.n_collected[-1] == 6

    def test_out_of_order_rejected(self):
        board = PublicBoard()
        with pytest.raises(ValueError):
            _record(board, 2, np.zeros((5, 2)), 6)

    def test_empty_board_has_no_last(self):
        board = PublicBoard()
        assert board.columns.rounds == 0
        assert board.observations == []
        assert board.last_observation is None

    def test_last_observation_is_the_recorded_object(self):
        board = PublicBoard()
        _record(board, 1, np.zeros((5, 2)), 6)
        observation = _observation(2)
        board.record(
            observation, np.zeros((5, 2)), n_collected=6,
            n_poison_injected=0, n_poison_retained=0, n_retained=5,
        )
        assert board.last_observation is observation

    def test_full_board_requires_retained(self):
        board = PublicBoard()
        with pytest.raises(ValueError, match="retained"):
            board.record(
                _observation(1), None, n_collected=6, n_poison_injected=0,
                n_poison_retained=0, n_retained=5,
            )
        assert len(board) == 0  # a rejected round records nothing

    def test_retained_data_concatenates(self):
        board = PublicBoard()
        _record(board, 1, np.ones((3, 2)), 3)
        _record(board, 2, 2 * np.ones((4, 2)), 4)
        data = board.retained_data()
        assert data.shape == (7, 2)
        assert data[:3].sum() == 6.0

    def test_retained_data_empty_board_raises(self):
        with pytest.raises(ValueError):
            PublicBoard().retained_data()

    def test_poison_retained_fraction(self):
        board = PublicBoard()
        _record(board, 1, np.zeros((8, 1)), 10, 4, 2)
        _record(board, 2, np.zeros((12, 1)), 14, 4, 4)
        assert board.poison_retained_fraction() == pytest.approx(6 / 20)

    def test_trimmed_fraction(self):
        board = PublicBoard()
        _record(board, 1, np.zeros((8, 1)), 10)
        _record(board, 2, np.zeros((6, 1)), 10)
        assert board.trimmed_fraction() == pytest.approx(1 - 14 / 20)

    def test_observations_in_order(self):
        board = PublicBoard()
        _record(board, 1, np.zeros((1, 1)), 1)
        _record(board, 2, np.zeros((1, 1)), 1)
        assert [o.index for o in board.observations] == [1, 2]

    def test_fractions_of_empty_board_are_zero(self):
        board = PublicBoard()
        assert board.poison_retained_fraction() == 0.0
        assert board.trimmed_fraction() == 0.0


class TestLeanBoard:
    def test_record_drops_retained_payload(self):
        board = PublicBoard(store_retained=False)
        _record(board, 1, np.ones((5, 2)), 6)
        assert board.retained is None
        assert board.columns.n_retained[0] == 5

    def test_fractions_match_full_board(self):
        full = PublicBoard()
        lean = PublicBoard(store_retained=False)
        for board in (full, lean):
            _record(board, 1, np.zeros((8, 1)), 10, 4, 2)
            _record(board, 2, np.zeros((12, 1)), 14, 4, 4)
        assert lean.poison_retained_fraction() == full.poison_retained_fraction()
        assert lean.trimmed_fraction() == full.trimmed_fraction()

    def test_retained_data_raises_with_clear_message(self):
        board = PublicBoard(store_retained=False)
        _record(board, 1, np.ones((3, 2)), 3)
        with pytest.raises(ValueError, match="lean"):
            board.retained_data()

    def test_observations_still_available(self):
        board = PublicBoard(store_retained=False)
        _record(board, 1, np.zeros((1, 1)), 1)
        _record(board, 2, np.zeros((1, 1)), 1)
        assert [o.index for o in board.observations] == [1, 2]

    def test_prefilled_entries_counted(self):
        board = PublicBoard()
        _record(board, 1, np.zeros((8, 1)), 10, 4, 2)
        assert board.poison_retained_fraction() == pytest.approx(2 / 8)
        assert board.trimmed_fraction() == pytest.approx(1 - 8 / 10)


class TestBoardColumns:
    def _two_round_board(self, store_retained=True):
        board = PublicBoard(store_retained=store_retained)
        _record(board, 1, np.zeros((8, 1)), 10, 4, 2)
        _record(board, 2, np.zeros((12, 1)), 14, 4, 4)
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
        _record(board, 3, np.zeros((5, 1)), 9)
        assert board.columns.rounds == 3

    def test_columns_are_read_only(self):
        cols = self._two_round_board().columns
        with pytest.raises(ValueError):
            cols.n_collected[0] = 99

    @staticmethod
    def _copies(board):
        """A pickle round trip and a deep copy of ``board``."""
        return [
            pickle.loads(pickle.dumps(board, protocol=pickle.HIGHEST_PROTOCOL)),
            copy.deepcopy(board),
        ]

    @pytest.mark.parametrize("store_retained", [False, True])
    def test_pickle_and_deepcopy_round_trip(self, store_retained):
        source = self._two_round_board(store_retained)
        for rebuilt in self._copies(source):
            assert rebuilt.store_retained is store_retained
            assert len(rebuilt) == 2
            assert rebuilt.poison_retained_fraction() == source.poison_retained_fraction()
            assert rebuilt.trimmed_fraction() == source.trimmed_fraction()
            assert rebuilt.observations == source.observations
            assert rebuilt.last_observation == source.last_observation
            for field in fields(BoardColumns):
                got = getattr(rebuilt.columns, field.name)
                want = getattr(source.columns, field.name)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert _retained_outcome(rebuilt) == _retained_outcome(source)
            assert [rows.tobytes() for rows in rebuilt.retained or ()] == [
                rows.tobytes() for rows in source.retained or ()
            ]

    @pytest.mark.parametrize("store_retained", [False, True])
    def test_round_trip_supports_record_append(self, store_retained):
        source = self._two_round_board(store_retained)
        for board in self._copies(source):
            appended = np.full((5, 1), 7.0)
            _record(board, 3, appended, 9)
            assert len(board) == 3
            assert board.columns.rounds == 3
            assert [o.index for o in board.observations] == [1, 2, 3]
            if store_retained:
                np.testing.assert_array_equal(
                    board.retained_data(),
                    np.concatenate([source.retained_data(), appended]),
                )
                assert board.retained[-1] is appended
        assert len(source) == 2  # the copies share no list with it

    @pytest.mark.parametrize(
        "damage, match",
        [
            pytest.param(
                lambda board: board._retained.pop(), "retained", id="retained"
            ),
            pytest.param(
                lambda board: board._cols["quality"].pop(), "'quality'", id="column"
            ),
            pytest.param(
                lambda board: board._cols["index"].__setitem__(0, 2),
                "out of order",
                id="index",
            ),
        ],
    )
    def test_a_board_that_does_not_fit_together_fails_to_unpickle(
        self, damage, match
    ):
        board = self._two_round_board()
        damage(board)
        blob = pickle.dumps(board)
        with pytest.raises(ValueError, match=match):
            pickle.loads(blob)


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
        _record(board, 1, np.zeros((8, 1)), 10)
        board.extend_columns(self._columns(2, 3))
        assert len(board) == 4
        np.testing.assert_array_equal(board.columns.index, [1, 2, 3, 4])
        assert [o.index for o in board.observations] == [1, 2, 3, 4]

    def test_extends_empty_board(self):
        board = PublicBoard(store_retained=False)
        board.extend_columns(self._columns(1, 2))
        assert len(board) == 2
        assert board.columns.n_retained[-1] == 8

    def test_zero_rows_is_a_noop(self):
        board = PublicBoard(store_retained=False)
        board.extend_columns({name: [] for name in self._columns(1, 0)})
        assert len(board) == 0

    def test_out_of_order_extend_rejected(self):
        board = PublicBoard(store_retained=False)
        _record(board, 1, np.zeros((8, 1)), 10)
        with pytest.raises(ValueError, match="out of order"):
            board.extend_columns(self._columns(3, 2))

    def test_full_board_requires_retained_per_round(self):
        board = PublicBoard()
        with pytest.raises(ValueError, match="retained"):
            board.extend_columns(self._columns(1, 2))

    def test_full_board_carries_retained_payload(self):
        board = PublicBoard()
        _record(board, 1, np.ones((8, 1)), 10)
        board.extend_columns(
            self._columns(2, 2), retained=[np.zeros((8, 1))] * 2
        )
        assert board.retained_data().shape == (24, 1)
        assert board.observations[2].index == 3

    def test_ragged_column_rejected(self):
        board = PublicBoard(store_retained=False)
        columns = self._columns(1, 2)
        columns["quality"] = [0.0]
        with pytest.raises(ValueError, match="quality"):
            board.extend_columns(columns)
        assert len(board) == 0  # a rejected chunk appends nothing

    def test_record_still_works_after_extend(self):
        board = PublicBoard(store_retained=False)
        board.extend_columns(self._columns(1, 2))
        _record(board, 3, np.zeros((5, 1)), 9)
        assert len(board) == 3
        np.testing.assert_array_equal(board.columns.index, [1, 2, 3])

    def test_last_observation_follows_the_extension(self):
        board = PublicBoard(store_retained=False)
        _record(board, 1, np.zeros((8, 1)), 10)
        board.extend_columns(self._columns(2, 3))
        assert board.last_observation == board.observations[-1]
        assert board.last_observation.index == 4
        assert board.last_observation.injection_percentile is None


#: One round: its public fields, retained row count and poison count.
_ROUND = st.tuples(
    st.floats(0.0, 1.0),                 # trim_percentile
    st.none() | st.floats(0.0, 1.0),     # injection_percentile
    st.floats(0.0, 1.0),                 # quality
    st.floats(0.0, 1.0),                 # observed_poison_ratio
    st.booleans(),                       # betrayal
    st.integers(0, 4),                   # retained rows
    st.integers(0, 3),                   # poison injected
)


def _round_record(t, drawn):
    """Round ``t``'s observation, retained rows and ground-truth counts."""
    trim, injection, quality, ratio, betrayal, kept, poison = drawn
    observation = RoundObservation(
        index=t,
        trim_percentile=trim,
        injection_percentile=injection,
        quality=quality,
        observed_poison_ratio=ratio,
        betrayal=betrayal,
    )
    counts = {
        "n_collected": kept + 2,
        "n_poison_injected": poison,
        "n_poison_retained": min(poison, kept),
        "n_retained": kept,
    }
    return observation, np.full((kept, 2), float(t)), counts


def _retained_outcome(board):
    try:
        data = board.retained_data()
    except ValueError as exc:
        return ("error", str(exc))
    return ("data", data.shape, data.tobytes())


class TestOneRepresentation:
    """Every way of feeding a board ends in the same board."""

    @settings(max_examples=80, deadline=None)
    @given(
        rounds=st.lists(_ROUND, max_size=12),
        plan=st.lists(st.integers(0, 3), max_size=12),
        restore_after=st.none() | st.integers(0, 12),
        store_retained=st.booleans(),
    )
    def test_any_interleaving_matches_record_alone(
        self, rounds, plan, restore_after, store_retained
    ):
        records = [
            _round_record(t, drawn) for t, drawn in enumerate(rounds, start=1)
        ]
        reference = PublicBoard(store_retained=store_retained)
        for observation, retained, counts in records:
            reference.record(observation, retained, **counts)

        board = PublicBoard(store_retained=store_retained)
        done = 0
        # 0 records one round; k > 0 extends by a chunk of k rounds (the
        # rest of the rounds are recorded one by one).
        for step, size in enumerate(plan + [0] * len(records)):
            if done == len(records):
                break
            if step == restore_after:
                board = pickle.loads(pickle.dumps(board))
            if size == 0:
                observation, retained, counts = records[done]
                board.record(observation, retained, **counts)
                done += 1
                continue
            # A chunk arrives as a sink's lane rows do: plain scalars cut
            # from stacked columns, with the retained rows even for a
            # lean board.
            columns = {
                field.name: getattr(reference.columns, field.name)[
                    done:done + size
                ].tolist()
                for field in fields(BoardColumns)
            }
            chunk = records[done:done + size]
            board.extend_columns(columns, [rows for _, rows, _ in chunk])
            done += len(chunk)

        assert len(board) == len(reference) == len(records)
        for field in fields(BoardColumns):
            got = getattr(board.columns, field.name)
            want = getattr(reference.columns, field.name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert board.observations == reference.observations
        assert board.last_observation == reference.last_observation
        assert _retained_outcome(board) == _retained_outcome(reference)


class TestColumnarBoard:
    class _FakeSession:
        def __init__(self):
            self.absorbed = []

        def _absorb_sink_rows(self, sink, lane):
            self.absorbed.append((sink, lane))

    def _sink(self, n_lanes=2, store_retained=False, **kwargs):
        from repro.streams.board import ColumnarBoard

        sessions = [self._FakeSession() for _ in range(n_lanes)]
        return ColumnarBoard(sessions, store_retained=store_retained, **kwargs)

    def _record(self, sink, kept, retained=None):
        from repro.core.session import BatchedRoundDecision

        n = len(kept)
        sink.record_decision(
            BatchedRoundDecision(
                observation=RoundObservationBatch(
                    index=sink.start_index + sink.n_rounds + 1,
                    trim_percentile=np.full(n, 0.9),
                    injection_percentile=np.full(n, np.nan),
                    quality=np.zeros(n),
                    observed_poison_ratio=np.zeros(n),
                    betrayal=np.zeros(n, dtype=bool),
                ),
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
        columns, retained = sink.lane_rows(1)
        assert columns["index"] == [6, 7]
        assert columns["n_retained"] == [9, 6]
        assert type(columns["n_retained"][0]) is int  # plain scalars
        assert retained is None

    def test_flush_syncs_once_then_absorbs_every_lane(self):
        synced = []
        sink = self._sink(sync=lambda: synced.append(True))
        sessions = sink.sessions
        assert sink.n_lanes == len(sessions) == 2
        self._record(sink, [8, 9])
        sink.flush_all()
        assert synced == [True]
        assert sessions[0].absorbed == [(sink, 0)]
        assert sessions[1].absorbed == [(sink, 1)]
        # the flush lets go of its members and its hook
        assert sink.sessions == () and sink._sync is None
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
        _, retained = sink.lane_rows(1)
        assert [rows.shape for rows in retained] == [(8, 1)]

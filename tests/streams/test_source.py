"""Tests for repro.streams.source — stream sources."""

import pickle

import numpy as np
import pytest

from repro.streams import ArrayStream, GeneratorStream


class TestArrayStream:
    def test_batch_shape_2d(self, rng):
        data = rng.normal(size=(50, 4))
        stream = ArrayStream(data, batch_size=10, seed=0)
        batch = stream.next_batch()
        assert batch.shape == (10, 4)

    def test_batch_shape_1d(self, rng):
        stream = ArrayStream(rng.normal(size=50), batch_size=10, seed=0)
        assert stream.next_batch().shape == (10,)

    def test_epoch_covers_dataset_without_replacement(self, rng):
        data = np.arange(40.0)
        stream = ArrayStream(data, batch_size=10, seed=0)
        seen = np.concatenate([stream.next_batch() for _ in range(4)])
        assert sorted(seen.tolist()) == data.tolist()

    def test_reshuffles_on_epoch_boundary(self):
        data = np.arange(20.0)
        stream = ArrayStream(data, batch_size=20, seed=0)
        first = stream.next_batch()
        second = stream.next_batch()
        assert sorted(first.tolist()) == sorted(second.tolist())
        assert not np.array_equal(first, second)  # reshuffled order

    def test_exported_state_survives_an_epoch_boundary(self):
        stream = ArrayStream(np.arange(20.0), batch_size=15, seed=0)
        state = stream.export_state()
        order = state["order"].copy()
        stream.next_batch()
        stream.next_batch()  # crosses the epoch boundary: a reshuffle
        assert not np.array_equal(stream.export_state()["order"], order)
        np.testing.assert_array_equal(state["order"], order)

    def test_unshuffled_stream_preserves_order(self):
        data = np.arange(30.0)
        stream = ArrayStream(data, batch_size=10, shuffle=False)
        np.testing.assert_array_equal(stream.next_batch(), data[:10])
        np.testing.assert_array_equal(stream.next_batch(), data[10:20])

    def test_reset_restarts_stream(self):
        data = np.arange(30.0)
        stream = ArrayStream(data, batch_size=10, seed=3)
        first = stream.next_batch()
        stream.reset()
        np.testing.assert_array_equal(stream.next_batch(), first)

    def test_batches_are_copies(self):
        data = np.arange(10.0)
        stream = ArrayStream(data, batch_size=5, shuffle=False)
        batch = stream.next_batch()
        batch[:] = -1.0
        assert data[0] == 0.0

    def test_next_indices_stop_at_the_epoch_end(self):
        # In-epoch draws hand over the rows next_batch would gather; at
        # the epoch end nothing moves until next_batch reshuffles.
        data = np.arange(25.0) * 10.0
        stream = ArrayStream(data, batch_size=10, seed=4)
        twin = ArrayStream(data, batch_size=10, seed=4)
        epoch_ends = 0
        for _ in range(12):
            state = pickle.dumps(stream.export_state())
            idx = stream.next_indices()
            if idx is None:
                epoch_ends += 1
                assert pickle.dumps(stream.export_state()) == state
                batch = stream.next_batch()
            else:
                batch = data[idx]
            np.testing.assert_array_equal(batch, twin.next_batch())
            assert pickle.dumps(stream.export_state()) == pickle.dumps(
                twin.export_state()
            )
        # A fresh stream starts at an epoch end: rounds 1, 3, 5, 7, 9, 11.
        assert epoch_ends == 6

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            ArrayStream(np.arange(5.0), batch_size=6)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            ArrayStream(np.array([]), batch_size=1)

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError):
            ArrayStream(np.arange(5.0), batch_size=0)


class TestGeneratorStream:
    def test_factory_called_with_batch_size(self):
        stream = GeneratorStream(
            lambda rng, n: rng.normal(size=n), batch_size=17, seed=0
        )
        assert stream.next_batch().shape == (17,)

    def test_reset_reproduces_sequence(self):
        stream = GeneratorStream(
            lambda rng, n: rng.normal(size=n), batch_size=5, seed=42
        )
        first = stream.next_batch()
        stream.reset()
        np.testing.assert_array_equal(stream.next_batch(), first)

    def test_factory_size_mismatch_rejected(self):
        stream = GeneratorStream(lambda rng, n: np.zeros(3), batch_size=5)
        with pytest.raises(ValueError):
            stream.next_batch()

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            GeneratorStream(lambda rng, n: np.zeros(n), batch_size=0)


class TestBatchMutationSafety:
    def test_mutating_returned_batch_does_not_corrupt_dataset(self):
        data = np.arange(30.0)
        backup = data.copy()
        stream = ArrayStream(data, batch_size=10, seed=0)
        batch = stream.next_batch()
        batch[:] = -99.0
        np.testing.assert_array_equal(stream._data, backup)
        stream.reset()
        seen = np.concatenate([stream.next_batch() for _ in range(3)])
        assert sorted(seen.tolist()) == backup.tolist()

    def test_mutating_2d_batch_does_not_corrupt_dataset(self, rng):
        data = rng.normal(size=(40, 3))
        backup = data.copy()
        stream = ArrayStream(data, batch_size=8, seed=1)
        stream.next_batch()[:] = np.inf
        np.testing.assert_array_equal(stream._data, backup)

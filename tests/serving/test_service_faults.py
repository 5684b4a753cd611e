"""Graceful degradation of the serving stack under corrupt snapshots.

The acceptance contract: a corrupt persisted snapshot raises typed
:class:`SnapshotError` (never raw ``pickle`` internals), and inside a
quarantining ``submit_many`` cohort the broken tenant is isolated while
every healthy peer's board stays byte-identical to its standalone
session.
"""

import dataclasses
import os
import pickle
import sys

import numpy as np
import pytest

from repro import ComponentSpec, DefenseService, GameSpec, ResultStore, SnapshotError
from repro.core.session import SNAPSHOT_FORMAT, GameSession
from repro.core.strategies import StaticCollector
from repro.serving.service import TenantFailure

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "core")
)
from test_session import (  # noqa: E402
    assert_results_identical,
    matrix_spec,
)


def solo_reference(spec: GameSpec):
    """The ground-truth standalone run of one tenant's spec."""
    session = spec.session()
    while not session.done:
        session.submit()
    return session.close()


def _corrupt_persisted_blob(service, store, session_id):
    """Truncate a tenant's persisted snapshot blob (torn write)."""
    key = service._session_key(session_id)
    record = store.load(key)
    record["blob"] = record["blob"][: len(record["blob"]) // 2]
    store.save(key, record)


class TestSnapshotError:
    def test_restore_garbage_raises_typed_error(self):
        with pytest.raises(SnapshotError):
            GameSession.restore(b"not a snapshot at all")

    def test_restore_truncated_snapshot_raises_typed_error(self):
        spec = matrix_spec("elastic-paper", "elastic", "band", seed=1)
        session = spec.session()
        session.submit()
        blob = session.snapshot()
        with pytest.raises(SnapshotError):
            GameSession.restore(blob[: len(blob) // 3])

    def test_restore_foreign_pickle_raises_typed_error(self):
        blob = pickle.dumps({"format": "someone.else/9"})
        with pytest.raises(SnapshotError, match=f"not a {SNAPSHOT_FORMAT}"):
            GameSession.restore(blob)

    def test_snapshot_error_is_a_value_error(self):
        # back-compat: callers catching the old untyped error still work
        assert issubclass(SnapshotError, ValueError)

    def test_corrupt_persisted_snapshot_raises_on_submit(self, tmp_path):
        store = ResultStore(tmp_path)
        service = DefenseService(store=store)
        spec = matrix_spec("elastic-paper", "elastic", "band", seed=2)
        sid = service.open(spec)
        service.submit(sid)
        service.evict(sid)
        _corrupt_persisted_blob(service, store, sid)
        with pytest.raises(SnapshotError):
            service.submit(sid)


class HookedCollector(StaticCollector):
    """A collector holding a lambda: playable, but never picklable."""

    def __init__(self, threshold: float = 0.9):
        super().__init__(threshold)
        self.hook = lambda q: q


class TestUnpicklableTenant:
    @staticmethod
    def _hooked_spec(seed=5):
        spec = matrix_spec("static", "fixed", "band", seed=seed)
        return dataclasses.replace(
            spec, collector=ComponentSpec(HookedCollector, {"threshold": 0.9})
        )

    def test_snapshot_raises_typed_error_and_leaves_the_session_live(self):
        spec = self._hooked_spec()
        session = spec.session()
        session.submit()
        with pytest.raises(SnapshotError, match="cannot be snapshot") as info:
            session.snapshot()
        assert info.value.__cause__ is not None
        while not session.done:
            session.submit()
        assert_results_identical(session.close(), solo_reference(spec))

    def test_failed_eviction_keeps_the_tenant_resident_and_playable(self):
        service = DefenseService(max_resident=1)
        spec = self._hooked_spec()
        a = service.open(spec)
        service.submit(a)
        b = service.open(matrix_spec("static", "fixed", "band", seed=6))
        # A cannot be parked, so the soft cap stays exceeded; nothing is lost.
        assert service.session_ids() == [a, b]
        assert service.resident_ids == [a, b]
        assert service.evicted_ids == []
        with pytest.raises(SnapshotError):
            service.evict(a)
        assert service.resident_ids == [a, b]
        service.submit_many([a, b])
        while not service.session(a).done:
            service.submit(a)
        assert_results_identical(service.close(a), solo_reference(spec))

    def test_failed_store_write_keeps_the_tenant_resident_and_playable(
        self, tmp_path
    ):
        class FullStore(ResultStore):
            def save(self, key, record):
                raise OSError(28, "No space left on device")

        service = DefenseService(store=FullStore(tmp_path), max_resident=2)
        specs = [matrix_spec("static", "fixed", "band", seed=7 + r) for r in range(3)]
        a, b = service.open(specs[0]), service.open(specs[1])
        service.submit(a)
        service.submit(b)
        # Neither a nor b can be parked, so the newcomer opens above the
        # soft cap; nothing is detached before its write succeeds.
        c = service.open(specs[2])
        assert service.resident_ids == [a, b, c]
        assert service.evicted_ids == []
        with pytest.raises(SnapshotError, match="written to the store") as info:
            service.evict(a)
        assert isinstance(info.value.__cause__, OSError)
        assert service.resident_ids == [a, b, c]
        while not service.session(a).done:
            service.submit(a)
        assert_results_identical(service.close(a), solo_reference(specs[0]))


class TestTenantQuarantine:
    def _cohort(self, service, n=4, seed0=40):
        specs = [
            matrix_spec("elastic-paper", "elastic", "band", seed=seed0 + r)
            for r in range(n)
        ]
        return specs, [service.open(spec) for spec in specs]

    def test_default_submit_many_still_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        service = DefenseService(store=store)
        specs, sids = self._cohort(service)
        service.evict(sids[1])
        _corrupt_persisted_blob(service, store, sids[1])
        with pytest.raises(SnapshotError):
            service.submit_many(sids)

    def test_broken_tenant_is_isolated_and_peers_stay_byte_identical(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        service = DefenseService(store=store)
        specs, sids = self._cohort(service, n=5)
        references = [solo_reference(spec) for spec in specs]

        service.evict(sids[1])
        _corrupt_persisted_blob(service, store, sids[1])

        for _ in range(specs[0].rounds):
            decisions = service.submit_many(sids, on_error="quarantine")
            assert sids[1] not in decisions
            assert set(decisions) == {sids[0], sids[2], sids[3], sids[4]}

        # the broken tenant was quarantined exactly once, with a reason
        assert service.quarantined_ids == [sids[1]]
        failure = service.quarantine_reason(sids[1])
        assert isinstance(failure, TenantFailure)
        assert failure.kind == "snapshot"
        assert "SnapshotError" in failure.error
        assert service.stats.quarantined == 1
        # the persisted blob is left in the store for forensics
        assert store.load(service._session_key(sids[1])) is not None

        # cohort peers completed byte-identically to standalone sessions
        for index in (0, 2, 3, 4):
            assert_results_identical(
                service.close(sids[index]), references[index]
            )

    def test_truncated_board_payload_quarantines_as_snapshot(self, tmp_path):
        store = ResultStore(tmp_path)
        service = DefenseService(store=store)
        specs, sids = self._cohort(service, n=5)
        service.submit_many(sids)
        service.evict(sids[1])
        # The blob's board carries one retained array fewer than its
        # rounds, so the board refuses to unpickle.
        key = service._session_key(sids[1])
        record = store.load(key)
        payload = pickle.loads(record["blob"])
        payload["board"]._retained.pop()
        record["blob"] = pickle.dumps(payload)
        store.save(key, record)

        decisions = service.submit_many(sids, on_error="quarantine")
        assert set(decisions) == set(sids) - {sids[1]}
        failure = service.quarantine_reason(sids[1])
        assert failure.kind == "snapshot"
        assert "SnapshotError" in failure.error

    def test_unknown_and_closed_tenants_quarantine_as_lifecycle(self):
        service = DefenseService()
        spec = matrix_spec("elastic-paper", "elastic", "band", seed=90)
        sid = service.open(spec)
        decisions = service.submit_many(
            [sid, "no-such-tenant"], on_error="quarantine"
        )
        assert set(decisions) == {sid}
        assert service.quarantine_reason("no-such-tenant").kind == "lifecycle"

    #: Explicit batches the pre-flight rejects, with the error they
    #: raise: NaN rows, and rows narrower than the 60-d reference.
    MALFORMED_BATCHES = (
        ("nan-rows", "non-finite"),
        ("wrong-width", "reference rows"),
    )

    @staticmethod
    def _malformed(spec, kind):
        batch = spec.session().source.next_batch()
        if kind == "wrong-width":
            return batch[:, :2]
        batch[:30] = np.nan
        return batch

    def test_malformed_batch_moves_nothing_under_raise(self):
        for kind, message in self.MALFORMED_BATCHES:
            service = DefenseService()
            specs, sids = self._cohort(service, n=4, seed0=60)
            bad = self._malformed(specs[1], kind)
            untouched = bad.copy()
            # parked, so the check runs on a trimmer restored from its
            # snapshot
            service.evict(sids[1])
            batches = {**dict.fromkeys(sids), sids[1]: bad}
            with pytest.raises(ValueError, match=message):
                service.submit_many(batches)
            # the caller's mapping and batch are left as they were...
            assert batches == {**dict.fromkeys(sids), sids[1]: bad}
            assert np.array_equal(bad, untouched, equal_nan=True)
            # ...and no tenant moved: every game still equals solo play
            for _ in range(specs[0].rounds):
                service.submit_many(sids)
            for sid, spec in zip(sids, specs, strict=True):
                assert_results_identical(
                    service.close(sid), solo_reference(spec)
                )

    def test_malformed_batch_quarantines_as_input(self):
        for kind, message in self.MALFORMED_BATCHES:
            service, control = DefenseService(), DefenseService()
            specs, sids = self._cohort(service, n=5, seed0=60)
            for spec, sid in zip(specs[1:], sids[1:], strict=True):
                control.open(spec, session_id=sid)
            bad = self._malformed(specs[0], kind)

            decisions = service.submit_many(
                {sids[0]: bad, **dict.fromkeys(sids[1:])},
                on_error="quarantine",
            )
            failure = service.quarantine_reason(sids[0])
            assert failure.kind == "input"
            assert message in failure.error
            # the peers' lockstep round equals a call that never named it
            expected = control.submit_many(sids[1:])
            assert set(decisions) == set(expected) == set(sids[1:])
            fields = (
                "index", "threshold", "injection_percentile", "quality",
                "observed_poison_ratio", "betrayal", "n_collected",
                "n_retained", "n_poison_injected", "n_poison_retained",
            )
            for sid in sids[1:]:
                got, want = decisions[sid], expected[sid]
                assert [getattr(got, f) for f in fields] == [
                    getattr(want, f) for f in fields
                ]
                assert got.accept_mask.tobytes() == want.accept_mask.tobytes()
            for _ in range(specs[0].rounds - 1):
                service.submit_many(sids[1:])
                control.submit_many(sids[1:])
            for sid in sids[1:]:
                assert_results_identical(
                    service.close(sid), control.close(sid)
                )

    def test_round_failure_flushes_complete_deferred_board(
        self, monkeypatch
    ):
        """A quarantined tenant's board is complete to its last healthy
        round: the failing submit flushes the deferred sink before the
        round computation can raise."""
        service = DefenseService()
        specs = [
            matrix_spec("elastic-paper", "elastic", "band", seed=70 + r)
            for r in range(4)
        ]
        sids = [service.open(spec) for spec in specs]
        healthy_rounds = 3
        for _ in range(healthy_rounds):
            service.submit_many(sids)
        # Raw registry access on purpose: service.session() would flush
        # the deferred rows this test needs to still be pending.
        handle = service._sessions[sids[0]]
        assert handle._cohort is not None, "rounds were not deferred"

        # A valid 5-row batch routes the tenant solo (odd shape), and
        # its trimmer blows up inside the round, after the deferred
        # flush.
        def broken_trim(batch, percentile):
            raise RuntimeError("trimmer failure")

        monkeypatch.setattr(handle.trimmer, "trim", broken_trim)
        rows = specs[0].session().source.next_batch()[:5]
        bad = {sids[0]: rows, sids[1]: None, sids[2]: None, sids[3]: None}
        decisions = service.submit_many(bad, on_error="quarantine")
        assert set(decisions) == {sids[1], sids[2], sids[3]}
        assert service.quarantine_reason(sids[0]).kind == "round"

        reference = specs[0].session()
        for _ in range(healthy_rounds):
            reference.submit()
        assert handle.round_index == healthy_rounds
        got, want = handle.board.columns, reference.board.columns
        assert got.rounds == healthy_rounds
        for field in got.__dataclass_fields__:
            assert np.array_equal(getattr(got, field), getattr(want, field)), (
                f"flushed board diverges from solo play in {field!r}"
            )
        assert (
            handle.board.retained_data().tobytes()
            == reference.board.retained_data().tobytes()
        )

        # the surviving peers play on, byte-identical to standalone
        references = [solo_reference(spec) for spec in specs[1:]]
        for _ in range(specs[1].rounds - healthy_rounds - 1):
            service.submit_many(sids[1:])
        for sid, expected in zip(sids[1:], references, strict=False):
            assert_results_identical(service.close(sid), expected)

    def test_quarantined_id_can_be_reopened(self, tmp_path):
        store = ResultStore(tmp_path)
        service = DefenseService(store=store)
        spec = matrix_spec("elastic-paper", "elastic", "band", seed=91)
        sid = service.open(spec, session_id="tenant-a")
        service.submit(sid)
        service.evict(sid)
        _corrupt_persisted_blob(service, store, sid)
        service.submit_many([sid], on_error="quarantine")
        assert service.quarantined_ids == [sid]
        # the id is free again: a fixed deployment replaces the tenant
        replacement = service.open(spec, session_id="tenant-a")
        assert replacement == sid
        service.submit(replacement)

    def test_auto_id_skips_a_quarantined_id(self, tmp_path):
        # Only an explicit reuse replaces a quarantined tenant: the next
        # auto-named tenant takes a fresh id, so the failure record and
        # the persisted blob stay for forensics.
        store = ResultStore(tmp_path)
        service = DefenseService(store=store)
        spec = matrix_spec("elastic-paper", "elastic", "band", seed=92)
        assert service.open(spec) == "session-0"
        victim = service.open(spec, session_id="session-1")
        service.submit(victim)
        service.evict(victim)
        key = service._session_key(victim)
        parked = store.load(key)["blob"]
        bad = self._malformed(spec, "nan-rows")
        service.submit_many({victim: bad}, on_error="quarantine")
        failure = service.quarantine_reason(victim)
        assert failure.kind == "input"

        newcomer = service.open(spec)
        service.evict(newcomer)
        assert service.quarantine_reason(victim) is failure
        assert store.load(key)["blob"] == parked
        assert newcomer == "session-2"

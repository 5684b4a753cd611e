"""DefenseService: multiplexing byte-identity, routing, eviction, residency.

The non-negotiable contract: a tenant served through the lockstep
multiplexer — in any mix of ``submit_many`` cohorts, solo ``submit``
calls, evictions and restores — produces exactly the board, strategy
state and result its standalone :class:`GameSession` loop would have.
"""

import os
import sys

import numpy as np
import pytest

from repro import DefenseService, GameSpec, ResultStore
from repro.serving.service import _MIN_COHORT, ServiceStats

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


PAIRS = [
    ("tft-mixed", "mixed", "position"),     # stochastic both sides + judge
    ("elastic-paper", "elastic", "band"),   # coupled deterministic dynamics
    ("generous", "uniform", "band"),        # per-rep forgiveness draws
    ("ostrich", "null", "band"),            # no injection at all
]


class TestLockstepByteIdentity:
    @pytest.mark.parametrize("collector,adversary,judge", PAIRS)
    def test_multiplexed_equals_solo(self, collector, adversary, judge):
        specs = [
            matrix_spec(collector, adversary, judge, seed=40 + r)
            for r in range(6)
        ]
        solo = [solo_reference(spec) for spec in specs]

        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        for _ in range(specs[0].rounds):
            service.submit_many(sids)
        for sid, reference in zip(sids, solo, strict=False):
            assert_results_identical(service.close(sid), reference)
        assert service.stats.lockstep_rounds == specs[0].rounds
        assert service.stats.solo_rounds == 0

    def test_interleaved_solo_and_lockstep(self):
        specs = [
            matrix_spec("tft-mixed", "mixed", "position", seed=60 + r)
            for r in range(5)
        ]
        solo = [solo_reference(spec) for spec in specs]
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        for t in range(specs[0].rounds):
            if t % 3 == 1:  # every third round routes tenant-by-tenant
                for sid in sids:
                    service.submit(sid)
            else:
                service.submit_many(sids)
        for sid, reference in zip(sids, solo, strict=False):
            assert_results_identical(service.close(sid), reference)
        assert service.stats.solo_rounds > 0
        assert service.stats.lockstep_rounds > 0

    def test_decisions_match_solo_decisions(self):
        specs = [
            matrix_spec("elastic-paper", "elastic", "band", seed=seed)
            for seed in range(7, 11)
        ]
        solo_sessions = [spec.session() for spec in specs]

        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        for _ in range(specs[0].rounds):
            mux = service.submit_many(sids)
            for sid, solo_session in zip(sids, solo_sessions, strict=False):
                expected = solo_session.submit()
                got = mux[sid]
                assert got.observation == expected.observation
                assert got.n_retained == expected.n_retained
                assert np.array_equal(got.accept_mask, expected.accept_mask)
                assert got.retained.tobytes() == expected.retained.tobytes()

    def test_mixed_groups_and_rounds_split_cohorts(self):
        # Two distinct configurations plus one laggard tenant: cohorts
        # must split by (group, round) and still be byte-identical.
        spec_a = [
            matrix_spec("elastic-paper", "elastic", "band", seed=70 + r)
            for r in range(3)
        ]
        spec_b = [
            matrix_spec("generous", "uniform", "band", seed=80 + r)
            for r in range(2)
        ]
        solo = [solo_reference(s) for s in spec_a + spec_b]

        service = DefenseService()
        sids_a = [service.open(s) for s in spec_a]
        sids_b = [service.open(s) for s in spec_b]
        service.submit(sids_a[0])  # laggard: one round ahead of its group
        for _t in range(spec_a[0].rounds):
            everyone = [
                sid
                for sid in sids_a + sids_b
                if not service.session(sid).done
            ]
            if everyone:
                service.submit_many(everyone)
        # The laggard finished early; everyone ends byte-identical.
        for sid, reference in zip(sids_a + sids_b, solo, strict=False):
            assert_results_identical(service.close(sid), reference)


class TestRoutingAndErrors:
    def test_unknown_session_raises(self):
        service = DefenseService()
        with pytest.raises(KeyError):
            service.submit("nope")
        with pytest.raises(KeyError):
            service.evict("nope")

    def test_duplicate_ids_rejected(self):
        service = DefenseService()
        spec = matrix_spec("ostrich", "null", "band")
        service.open(spec, session_id="a")
        with pytest.raises(ValueError, match="already exists"):
            service.open(spec, session_id="a")
        with pytest.raises(ValueError, match="duplicate"):
            service.submit_many(["a", "a"])

    def test_horizon_exhaustion_is_atomic(self):
        # One exhausted tenant fails the whole call before any stream
        # advances — the healthy tenants replay identically afterwards.
        fresh = [
            matrix_spec("elastic-paper", "elastic", "band", seed=seed)
            for seed in (90, 92, 93)
        ]
        short = matrix_spec(
            "elastic-paper", "elastic", "band", seed=91, rounds=1
        )

        service = DefenseService()
        healthy = [service.open(spec) for spec in fresh]
        tiny = service.open(short)
        service.submit_many(healthy + [tiny])
        with pytest.raises(RuntimeError, match="horizon"):
            service.submit_many(healthy + [tiny])
        for sid, spec in zip(healthy, fresh, strict=True):
            while not service.session(sid).done:
                service.submit(sid)
            assert_results_identical(service.close(sid), solo_reference(spec))

    def test_generated_ids_are_stable(self):
        service = DefenseService()
        spec = matrix_spec("ostrich", "null", "band")
        assert service.open(spec) == "session-0"
        assert service.open(spec) == "session-1"
        assert len(service) == 2
        assert service.session_ids() == ["session-0", "session-1"]

    def test_generated_ids_skip_explicit_ones(self):
        service = DefenseService()
        spec = matrix_spec("ostrich", "null", "band")
        service.open(spec, session_id="session-0")
        assert service.open(spec) == "session-1"

    def test_evicted_handle_is_superseded(self):
        # A caller-held handle to an evicted session must die loudly —
        # the snapshot is the authoritative copy.
        service = DefenseService()
        spec = matrix_spec("elastic-paper", "elastic", "band", seed=44)
        sid = service.open(spec)
        handle = service.session(sid)
        service.submit(sid)
        service.evict(sid)
        with pytest.raises(RuntimeError, match="superseded"):
            handle.submit()
        with pytest.raises(RuntimeError, match="superseded"):
            handle.snapshot()
        # The restored twin continues unharmed.
        service.submit(sid)


class TestSmallCohortRouting:
    """Same-round, same-shape runs shorter than ``_MIN_COHORT`` play solo."""

    @staticmethod
    def _open(service, n, seed0=300):
        specs = [
            matrix_spec("elastic-paper", "elastic", "band", seed=seed0 + r)
            for r in range(n)
        ]
        return specs, [service.open(spec) for spec in specs]

    @staticmethod
    def _replay(spec, rounds):
        session = spec.session()
        for _ in range(rounds):
            session.submit()
        return session.close()

    def test_run_below_the_constant_plays_solo(self):
        service = DefenseService()
        specs, sids = self._open(service, _MIN_COHORT - 1)
        rounds = 3
        for _ in range(rounds):
            decisions = service.submit_many(sids)
            assert list(decisions) == sids
        assert service.stats.lane_builds == 0
        assert service.stats.lockstep_rounds == 0
        assert service.stats.solo_rounds == rounds * len(sids)
        for sid, spec in zip(sids, specs, strict=True):
            assert_results_identical(service.close(sid), self._replay(spec, rounds))

    def test_run_of_the_constant_fuses(self):
        service = DefenseService()
        specs, sids = self._open(service, _MIN_COHORT)
        rounds = 3
        for _ in range(rounds):
            service.submit_many(sids)
        assert service.stats.lane_builds == 1
        assert service.stats.lockstep_rounds == rounds
        assert service.stats.lockstep_lanes == rounds * _MIN_COHORT
        assert service.stats.solo_rounds == 0
        for sid, spec in zip(sids, specs, strict=True):
            assert_results_identical(service.close(sid), self._replay(spec, rounds))

    def test_routed_solo_round_failure_quarantines_only_its_tenant(
        self, monkeypatch
    ):
        service = DefenseService()
        specs, sids = self._open(service, _MIN_COHORT - 1)
        service.submit_many(sids)

        def broken_trim(batch, percentile):
            raise RuntimeError("trimmer failure")

        # Raw registry access: service.session() is an out-of-band touch.
        monkeypatch.setattr(service._sessions[sids[0]].trimmer, "trim", broken_trim)
        decisions = service.submit_many(sids, on_error="quarantine")
        assert list(decisions) == sids[1:]
        assert service.quarantined_ids == [sids[0]]
        assert service.quarantine_reason(sids[0]).kind == "round"
        assert service.stats.lane_builds == 0
        for sid, spec in zip(sids[1:], specs[1:], strict=True):
            assert_results_identical(service.close(sid), self._replay(spec, 2))


class TestEvictionAndResidency:
    @pytest.mark.parametrize("with_store", [False, True])
    def test_evict_restore_roundtrip(self, with_store, tmp_path):
        store = ResultStore(tmp_path / "cache") if with_store else None
        specs = [
            matrix_spec("tft-mixed", "mixed", "position", seed=30 + r)
            for r in range(4)
        ]
        solo = [solo_reference(spec) for spec in specs]

        service = DefenseService(store=store)
        sids = [service.open(spec) for spec in specs]
        for t in range(specs[0].rounds):
            if t == 2:
                service.evict(sids[1])
                assert sids[1] in service.evicted_ids
            service.submit_many(sids)  # transparently restores the tenant
        assert service.stats.evictions == 1
        assert service.stats.restores == 1
        for sid, reference in zip(sids, solo, strict=False):
            assert_results_identical(service.close(sid), reference)

    def test_evict_is_idempotent_and_survives_double_submit(self):
        spec = matrix_spec("generous", "uniform", "band", seed=55)
        reference = solo_reference(spec)
        service = DefenseService()
        sid = service.open(spec)
        service.submit(sid)
        service.evict(sid)
        service.evict(sid)  # no-op
        service.submit(sid)  # restores
        while not service.session(sid).done:
            service.submit(sid)
        assert_results_identical(service.close(sid), reference)

    def test_max_resident_lru(self):
        service = DefenseService(max_resident=2)
        specs = [
            matrix_spec("elastic-paper", "elastic", "band", seed=20 + r)
            for r in range(4)
        ]
        sids = [service.open(spec) for spec in specs]
        assert len(service.resident_ids) == 2
        assert len(service.evicted_ids) == 2
        # The oldest-touched tenants were parked first.
        assert set(service.evicted_ids) == {sids[0], sids[1]}
        # Submitting to an evicted tenant restores it (and parks another).
        service.submit(sids[0])
        assert sids[0] in service.resident_ids
        assert len(service.resident_ids) <= 2

    def test_hot_tenant_survives_a_scan_of_one_shot_tenants(self):
        # Ten tenants that play once each pass through the cap; the
        # tenant that played four rounds is never parked, where least
        # recent use would park it as soon as three newer ones opened.
        service = DefenseService(max_resident=3)
        hot = service.open(
            matrix_spec("elastic-paper", "elastic", "band", seed=60), horizon=None
        )
        for _ in range(4):
            service.submit(hot)
        once = []
        for r in range(10):
            spec = matrix_spec("ostrich", "null", "band", seed=61 + r)
            once.append(service.open(spec, horizon=None))
            service.submit(once[-1])
        assert service.evicted_ids == once[:8]
        assert service.resident_ids == [hot, *once[8:]]
        service.submit(hot)
        assert service.stats.restores == 0

    def test_formerly_hot_tenant_leaves_once_its_count_has_aged(self):
        # Counts halve every 10 * max_resident = 20 uses.  The old
        # tenant's 18 uses read 9 once the first period ends; the new
        # tenant's 15, 13 of them after it, read 14.  So the old tenant
        # is parked, though it has played more rounds in all.
        service = DefenseService(max_resident=2)
        old, new = (
            service.open(
                matrix_spec("generous", "uniform", "band", seed=70 + r),
                horizon=None,
            )
            for r in range(2)
        )
        for _ in range(18):
            service.submit(old)
        for _ in range(15):
            service.submit(new)
        service.open(matrix_spec("ostrich", "null", "band", seed=72), horizon=None)
        assert service.evicted_ids == [old]

    @pytest.mark.parametrize("end", ["close", "quarantine"])
    def test_a_reused_id_starts_with_no_uses(self, end):
        # "t" plays five rounds and ends.  Reopened under the same id it
        # starts from zero, so its one new round counts less than the
        # other tenant's two, and it is parked first.
        service = DefenseService(max_resident=2)
        spec = matrix_spec("generous", "uniform", "band", seed=80)
        service.open(spec, session_id="t", horizon=None)
        for _ in range(5):
            service.submit("t")
        if end == "close":
            service.close("t")
        else:
            service.submit_many({"t": []}, on_error="quarantine")
            assert service.quarantined_ids == ["t"]
        other = service.open(matrix_spec("ostrich", "null", "band", seed=81))
        for _ in range(2):
            service.submit(other)
        service.open(spec, session_id="t", horizon=None)
        service.submit("t")
        service.open(matrix_spec("ostrich", "null", "band", seed=82))
        assert service.evicted_ids == ["t"]

    def test_session_restore_respects_max_resident(self):
        service = DefenseService(max_resident=1)
        specs = [
            matrix_spec("elastic-paper", "elastic", "band", seed=30 + r)
            for r in range(3)
        ]
        sids = [service.open(spec) for spec in specs]
        assert service.resident_ids == [sids[2]]
        # Handing out an evicted tenant's handle restores it and parks
        # the least recently used other tenant right away.
        handle = service.session(sids[0])
        assert service.resident_ids == [sids[0]]
        assert set(service.evicted_ids) == {sids[1], sids[2]}
        while not handle.done:
            handle.submit()
        assert_results_identical(
            service.close(sids[0]), solo_reference(specs[0])
        )

    def test_store_snapshot_survives_new_service(self, tmp_path):
        # A store-backed eviction outlives the service object itself:
        # a new service (same store + namespace) adopts the tenant and
        # finishes byte-identically.
        store = ResultStore(tmp_path / "cache")
        spec = matrix_spec("tft-mixed", "mixed", "position", seed=77)
        reference = solo_reference(spec)

        first = DefenseService(store=store)
        sid = first.open(spec, session_id="tenant")
        for _ in range(3):
            first.submit(sid)
        first.evict(sid)

        second = DefenseService(store=store)
        second.adopt(spec, sid)
        while not second.session(sid).done:
            second.submit(sid)
        assert_results_identical(second.close(sid), reference)

    def test_adopt_validates_identity(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = matrix_spec("tft-mixed", "mixed", "position", seed=78)
        other_spec = matrix_spec("elastic-paper", "elastic", "band", seed=1)

        first = DefenseService(store=store)
        first.open(spec, session_id="tenant")
        first.submit("tenant")
        first.evict("tenant")

        second = DefenseService(store=store)
        with pytest.raises(KeyError, match="no persisted snapshot"):
            second.adopt(spec, "someone-else")
        with pytest.raises(ValueError, match="different tenant or spec"):
            second.adopt(other_spec, "tenant")
        # Distinct namespaces isolate snapshots inside a shared store.
        third = DefenseService(store=store, namespace="other")
        with pytest.raises(KeyError, match="no persisted snapshot"):
            third.adopt(spec, "tenant")
        with pytest.raises(RuntimeError, match="result store"):
            DefenseService().adopt(spec, "tenant")

    def test_namespace_collision_fails_loudly(self, tmp_path):
        # Two services, one store, same namespace, colliding generated
        # ids: the restore refuses a snapshot written for another spec
        # instead of silently resuming the wrong game.
        store = ResultStore(tmp_path / "cache")
        spec_a = matrix_spec("elastic-paper", "elastic", "band", seed=5)
        spec_b = matrix_spec("generous", "uniform", "band", seed=6)

        service_a = DefenseService(store=store)
        service_b = DefenseService(store=store)
        sid_a = service_a.open(spec_a)  # "session-0" in both services
        sid_b = service_b.open(spec_b)
        assert sid_a == sid_b
        service_a.evict(sid_a)
        service_b.evict(sid_b)  # overwrites A's blob under the same key
        with pytest.raises(ValueError, match="different tenant or spec"):
            service_a.submit(sid_a)

    def test_restore_removes_persisted_snapshot(self, tmp_path):
        # A restored tenant plays on past its snapshot, so the stored
        # record goes: a later service must not adopt the old round.
        store = ResultStore(tmp_path / "cache")
        spec = matrix_spec("tft-mixed", "mixed", "position", seed=79)
        first = DefenseService(store=store)
        sid = first.open(spec, session_id="tenant")
        for _ in range(3):
            first.submit(sid)
        first.evict(sid)
        key = first._session_key(sid)
        assert store.record_path(key).exists()
        for _ in range(4):
            first.submit(sid)  # the first submit restores
        assert first.session(sid).round_index == 7
        assert not store.record_path(key).exists()
        with pytest.raises(KeyError, match="no persisted snapshot"):
            DefenseService(store=store).adopt(spec, sid)
        # Parked again, the tenant is adoptable at its current round, and
        # a live handle (the caller may play through it) drops the record.
        first.evict(sid)
        second = DefenseService(store=store)
        second.adopt(spec, sid)
        assert store.record_path(key).exists()
        assert second.session(sid).round_index == 7
        assert not store.record_path(key).exists()

    def test_later_failure_in_the_call_keeps_no_stale_record(
        self, tmp_path, monkeypatch
    ):
        # The record goes right after the restored tenant's own round, so
        # a peer's solo round raising later in the same call leaves no
        # stale snapshot for another service to adopt.
        store = ResultStore(tmp_path / "cache")
        spec = matrix_spec("tft-mixed", "mixed", "position", seed=83)
        service = DefenseService(store=store)
        restored = service.open(spec, session_id="restored")
        failing = service.open(spec, session_id="failing")
        service.submit_many([restored, failing])
        service.evict(restored)
        key = service._session_key(restored)
        assert store.record_path(key).exists()

        def broken_trim(batch, percentile):
            raise RuntimeError("trimmer failure")

        monkeypatch.setattr(service._sessions[failing].trimmer, "trim", broken_trim)
        # One configuration group at one round: both play solo, the
        # restored tenant first.
        with pytest.raises(RuntimeError, match="trimmer failure"):
            service.submit_many([restored, failing])
        assert service._sessions[restored].round_index == 2
        assert not store.record_path(key).exists()
        with pytest.raises(KeyError, match="no persisted snapshot"):
            DefenseService(store=store).adopt(spec, restored)

    def test_failed_record_removal_is_retried(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "cache")
        spec = matrix_spec("tft-mixed", "mixed", "position", seed=89)
        service = DefenseService(store=store)
        sid = service.open(spec, session_id="tenant")
        service.submit(sid)
        service.evict(sid)
        record = store.record_path(service._session_key(sid))

        def refuse(path, missing_ok=False):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(type(record), "unlink", refuse)
        # The round plays; the failed removal surfaces, and the record
        # stays marked for the tenant's next round.
        with pytest.raises(PermissionError):
            service.submit(sid)
        monkeypatch.undo()
        assert service._sessions[sid].round_index == 2
        assert record.exists()
        service.submit(sid)
        assert service._sessions[sid].round_index == 3
        assert not record.exists()

    def test_close_keeps_the_tenant_when_its_unlink_fails(
        self, tmp_path, monkeypatch
    ):
        spec = matrix_spec("tft-mixed", "mixed", "position", seed=97)

        def evicted_tenant(store):
            service = DefenseService(store=store)
            sid = service.open(spec, session_id="tenant")
            service.submit(sid)
            service.evict(sid)
            return service, sid

        twin, twin_sid = evicted_tenant(ResultStore(tmp_path / "twin"))
        expected = twin.close(twin_sid)
        store = ResultStore(tmp_path / "cache")
        service, sid = evicted_tenant(store)
        record = store.record_path(service._session_key(sid))
        unlink = type(record).unlink
        refused = []

        def refuse_once(path, missing_ok=False):
            if not refused:
                refused.append(path)
                raise PermissionError(13, "Permission denied", str(path))
            return unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(type(record), "unlink", refuse_once)
        # The refused unlink surfaces; the tenant stays registered and
        # unsealed, and its record stays on disk.
        with pytest.raises(PermissionError):
            service.close(sid)
        assert sid in service._sessions
        assert not service._sessions[sid].is_closed
        assert record.exists()
        # A second close returns what an uninterrupted close returns.
        assert_results_identical(service.close(sid), expected)
        assert not record.exists()
        with pytest.raises(KeyError, match="no persisted snapshot"):
            DefenseService(store=store).adopt(spec, sid)

    def test_close_removes_persisted_snapshot(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        service = DefenseService(store=store)
        spec = matrix_spec("ostrich", "null", "band", seed=9)
        sid = service.open(spec, session_id="t")
        service.submit(sid)
        service.evict(sid)
        key = service._session_key(sid)
        assert store.record_path(key).exists()
        service.close(sid)
        assert not store.record_path(key).exists()


class TestStats:
    def test_counters(self):
        service = DefenseService()
        assert service.stats == ServiceStats()
        specs = [
            matrix_spec("ostrich", "null", "band", seed=r) for r in range(4)
        ]
        sids = [service.open(spec) for spec in specs]
        service.submit_many(sids)
        service.submit(sids[0])
        assert service.stats.opened == 4
        assert service.stats.lockstep_rounds == 1
        assert service.stats.lockstep_lanes == 4
        assert service.stats.solo_rounds == 1

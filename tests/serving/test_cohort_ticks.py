"""Cohort-native serving ticks: a reused cohort draws its own round.

A ``submit_many`` call that names exactly one live cohort's seats, in
order, all resident and all pulling from their sources, plays as one
``BatchedGameSession.submit()``: the cohort's source program gathers
the tenants' batches itself, and only lanes crossing an epoch end call
their stream's ``next_batch``.  Every other call takes the per-tenant
path.  Either way each tenant's board equals its solo replay, byte for
byte, and failures raise or quarantine exactly as the per-tenant path
does.
"""

import dataclasses
import os
import pickle
import sys

import numpy as np
import pytest

from repro import DefenseService
from repro.core.session import BatchedGameSession, RoundDecision
from repro.runtime.spec import load_reference
from repro.streams.source import ArrayStream

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "core")
)
from test_session import assert_results_identical, matrix_spec  # noqa: E402

BATCH = 60
#: Taxi sizes whose epochs last 2, 3, 4 and 5 rounds at batch 60, so a
#: cohort's lanes cross their epoch ends on staggered rounds.
SIZES = (120, 180, 240, 300)
SCHEMES = (
    ("tft-mixed", "mixed"),
    ("elastic-paper", "elastic"),
    ("generous", "uniform"),
    ("ostrich", "null"),
)


def taxi_specs(n=8, seed=0, rounds=15):
    """``n`` one-family tenants on four small taxi sizes."""
    specs = []
    for i in range(n):
        collector, adversary = SCHEMES[i % len(SCHEMES)]
        spec = matrix_spec(collector, adversary, "band", seed=seed + i, rounds=rounds)
        specs.append(
            dataclasses.replace(
                spec,
                dataset="taxi",
                dataset_size=SIZES[(i // 2) % len(SIZES)],
                attack_ratio=(0.1, 0.2, 0.3)[i % 3],
            )
        )
    return specs


def epoch_ends(spec, rounds):
    """Rounds among ``2..rounds`` whose draw crosses the stream's epoch end."""
    period = spec.dataset_size // spec.batch_size
    return sum(1 for r in range(2, rounds + 1) if (r - 1) % period == 0)


def replay(spec, rounds, batches=None, horizon="rounds"):
    """The tenant's solo game: ``batches`` maps rounds to explicit batches."""
    batches = batches or {}
    session = spec.session(horizon=horizon)
    for r in range(rounds):
        session.submit(batches.get(r))
    return session.close()


@pytest.fixture
def draws(monkeypatch):
    """Counts ``ArrayStream.next_batch`` calls (the class stays exact)."""
    calls = [0]
    original = ArrayStream.next_batch

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(ArrayStream, "next_batch", counted)
    return calls


def taxi_batch(rng):
    """An explicit (60, 1) taxi batch, drawn from the real rows."""
    rows = load_reference("taxi", 1500)
    return rows[rng.choice(rows.shape[0], BATCH, replace=False)].copy()


def stream_states(service, sids):
    """Each resident tenant's round and stream position (no flush)."""
    states = []
    for sid in sids:
        session = service._sessions[sid]
        source = session.source
        states.append(
            (
                session.round_index,
                None if source is None else pickle.dumps(source.export_state()),
            )
        )
    return states


class TestCohortDraws:
    def test_staggered_epoch_ends_over_three_epochs(self, draws):
        specs = taxi_specs(rounds=16)
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        for _ in range(16):
            decisions = service.submit_many(sids)
            assert list(decisions) == sids
        # The first tick seats the cohort through the per-tenant path,
        # which draws every tenant; later ticks call next_batch only
        # for lanes crossing an epoch end.
        assert draws[0] == len(specs) + sum(epoch_ends(s, 16) for s in specs)
        assert all(epoch_ends(s, 16) >= 3 for s in specs)
        for sid, spec in zip(sids, specs, strict=True):
            assert_results_identical(service.close(sid), replay(spec, 16))
        assert service.stats.lane_builds == 1
        assert service.stats.lane_cache_hits == 15
        assert service.stats.lockstep_rounds == 16
        assert service.stats.lockstep_lanes == 16 * len(specs)

    def test_mapping_of_nones_is_cohort_native(self, draws):
        specs = taxi_specs(n=4, rounds=6)
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        service.submit_many(sids)
        before = draws[0]
        service.submit_many(dict.fromkeys(sids))
        assert draws[0] == before  # round 2 crosses no epoch end
        for sid, spec in zip(sids, specs, strict=True):
            assert_results_identical(service.close(sid), replay(spec, 2))

    def test_mixed_call_draws_between_native_ticks(self):
        # Every third tick maps half the tenants to explicit batches and
        # the rest to None: that call takes the per-tenant path, which
        # draws from the same streams while the cohort stays live.  The
        # next native tick must see those draws.
        specs = taxi_specs(rounds=12)
        rng = np.random.default_rng(5)
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        explicit = {i: {} for i in range(len(sids))}
        for r in range(12):
            if r % 3 == 2:
                mapping = {}
                for i, sid in enumerate(sids):
                    batch = taxi_batch(rng) if i % 2 == 0 else None
                    if batch is not None:
                        explicit[i][r] = batch
                    mapping[sid] = batch
                assert list(service.submit_many(mapping)) == sids
            else:
                service.submit_many(sids)
        # One cohort throughout: the mixed calls reuse it too.
        assert service.stats.lane_builds == 1
        for i, (sid, spec) in enumerate(zip(sids, specs, strict=True)):
            assert_results_identical(
                service.close(sid), replay(spec, 12, explicit[i])
            )

    @pytest.mark.parametrize("touch", ["evict", "snapshot", "session", "solo"])
    def test_out_of_band_touch_between_native_ticks(self, touch):
        specs = taxi_specs(rounds=12)
        service = DefenseService()
        sids = [service.open(spec, horizon=None) for spec in specs]
        target = sids[3]
        handle = service.session(target)  # held across the ticks
        played = dict.fromkeys(sids, 0)
        for r in range(12):
            if r == 5:
                if touch == "evict":
                    service.evict(target)
                elif touch == "snapshot":
                    handle.snapshot()
                elif touch == "session":
                    service.session(target)
                else:
                    service.submit(target)
                    played[target] += 1
            service.submit_many(sids)
            for sid in sids:
                played[sid] += 1
        # The touch flushed the cohort; the next tick seated a new one
        # (a solo round puts the target a round ahead, so it leaves).
        assert service.stats.lane_builds >= 2
        for sid, spec in zip(sids, specs, strict=True):
            assert_results_identical(
                service.close(sid), replay(spec, played[sid], horizon=None)
            )


class TestFallbacks:
    """Calls outside one whole live cohort behave as the per-tenant path."""

    @staticmethod
    def _service(horizons=(None,) * 5):
        specs = taxi_specs(n=5, rounds=12)
        service = DefenseService()
        sids = [
            service.open(spec, session_id=name, horizon=horizon)
            for spec, name, horizon in zip(specs, "abcde", horizons, strict=True)
        ]
        return service, specs, sids

    @pytest.mark.parametrize(
        "case, error, kind",
        [
            ("unknown", KeyError, "lifecycle"),
            ("quarantined", KeyError, None),
            ("horizon", RuntimeError, "lifecycle"),
            ("explicit", ValueError, "input"),
            ("source", ValueError, "lifecycle"),
            ("detached", ValueError, "lifecycle"),
        ],
    )
    @pytest.mark.parametrize("on_error", ["raise", "quarantine"])
    def test_fallback_raises_or_quarantines_with_no_state_moved(
        self, case, error, kind, on_error
    ):
        horizons = (2,) + (None,) * 4 if case == "horizon" else (None,) * 5
        service, specs, sids = self._service(horizons)
        handle = service.session("a")
        if case == "source":
            # Detach a's source on a held handle, then seat the cohort
            # through explicit batches: it compiles a sourceless lane.
            handle.source = None
            rng = np.random.default_rng(9)
            for _ in range(2):
                service.submit_many({"a": taxi_batch(rng), **dict.fromkeys("bcde")})
        else:
            for _ in range(2):
                service.submit_many(sids)
        call = list(sids)
        if case == "detached":
            # The live cohort compiled a's source; the seat lost it since.
            handle.source = None
        elif case == "unknown":
            call.append("ghost")
        elif case == "quarantined":
            service.submit_many(
                {"a": np.full((BATCH, 1), np.nan)}, on_error="quarantine"
            )
            assert service.quarantined_ids == ["a"]
        elif case == "explicit":
            call = {"a": np.full((BATCH, 1), np.nan), **dict.fromkeys("bcde")}
        live = [sid for sid in sids if sid in service.resident_ids]
        states = stream_states(service, live)
        stats = dataclasses.asdict(service.stats)

        if on_error == "raise":
            with pytest.raises(error):
                service.submit_many(call, on_error="raise")
            assert stream_states(service, live) == states
            assert dataclasses.asdict(service.stats) == stats
            return

        decisions = service.submit_many(call, on_error="quarantine")
        healthy = list(sids) if case == "unknown" else list("bcde")
        assert list(decisions) == healthy
        failed = "ghost" if case == "unknown" else "a"
        assert failed in service.quarantined_ids
        if kind is not None:
            assert service.quarantine_reason(failed).kind == kind
        assert service.stats.quarantined == stats["quarantined"] + (
            0 if case == "quarantined" else 1
        )
        for sid, spec in zip("abcde", specs, strict=True):
            if sid in healthy:
                assert_results_identical(service.close(sid), replay(spec, 3))

    def test_cohort_spanning_configuration_groups(self):
        # A caller may seat tenants of two configuration groups in one
        # cohort of its own; the service still plays each group apart.
        band, position = taxi_specs(n=2)
        position = dataclasses.replace(
            position, judge=matrix_spec("ostrich", "null", "position").judge
        )
        service = DefenseService()
        sids = [service.open(band), service.open(position)]
        BatchedGameSession([service.session(sid) for sid in sids])
        decisions = service.submit_many(sids)
        assert all(type(d) is RoundDecision for d in decisions.values())
        assert service.stats.solo_rounds == 2
        assert service.stats.lockstep_rounds == 0
        for sid, spec in zip(sids, (band, position), strict=True):
            assert_results_identical(service.close(sid), replay(spec, 1))

    def test_new_membership_and_several_cohorts(self):
        specs = taxi_specs(n=8, rounds=10)
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        for _ in range(2):
            service.submit_many(sids)
        # A reordered call is a new membership: it seats a new cohort.
        service.submit_many(sids[::-1])
        assert service.stats.lane_builds == 2
        # Two cohorts, each reused natively...
        for _ in range(2):
            service.submit_many(sids[:4])
            service.submit_many(sids[4:])
        builds = service.stats.lane_builds
        assert service.stats.lane_cache_hits == 1 + 2
        # ...then named together in one call: the per-tenant path seats
        # them as one new cohort.
        service.submit_many(sids[:4] + sids[4:])
        assert service.stats.lane_builds == builds + 1
        for sid, spec in zip(sids, specs, strict=True):
            assert_results_identical(service.close(sid), replay(spec, 6))


class TestResidency:
    def test_eviction_order_follows_call_order(self):
        # Native ticks record each tenant's use in call order, as the
        # per-tenant path does: among tenants with equal use counts, the
        # first-named tenant of the earlier tick is the least recently
        # used, and ties go to it.
        specs = taxi_specs(n=6, rounds=20)
        service = DefenseService(max_resident=6)
        sids = [service.open(spec, horizon=None) for spec in specs]
        first, second = sids[3::-1], sids[5:3:-1]  # d c b a, f e
        for _ in range(3):
            service.submit_many(second)
            service.submit_many(first)
        # Each newcomer plays three rounds before the next one opens, so
        # it ties with the six and, being more recent, outlasts them.
        extra = []
        for spec in taxi_specs(n=3, seed=50):
            extra.append(service.open(spec, horizon=None))
            for _ in range(3):
                service.submit(extra[-1])
        assert service.evicted_ids == [sids[5], sids[4], sids[3]]
        # A restore evicts the next least recently used of the tied: c,
        # then b.
        service.submit(sids[5])
        service.submit(sids[4])
        assert service.evicted_ids == [sids[3], sids[2], sids[1]]
        assert set(service.resident_ids) == {sids[0], sids[5], sids[4], *extra}

    def test_eviction_order_equals_the_per_tenant_path(self):
        # The same ticks, once cohort-native (ids) and once per tenant
        # (each call maps one tenant to its own draw, taken from a twin
        # stream), leave the same use counts and recency order behind.
        # A sixth tenant then plays three solo rounds: the most recent
        # tenant, but with fewer uses than the cohort's four, so it goes
        # first.  Newcomers that play four rounds each then tie with the
        # cohort, which leaves in call order.
        def run(native):
            specs = taxi_specs(n=6, rounds=20)
            twins = [spec.session(horizon=None).source for spec in specs]
            service = DefenseService(max_resident=6)
            sids = [service.open(spec, horizon=None) for spec in specs]
            order = [sids[i] for i in (2, 0, 4, 1, 3)]
            for _ in range(4):
                if native:
                    service.submit_many(order)
                else:
                    # The first member gets an explicit batch equal to
                    # what its stream would draw; its stream stays put.
                    lead = sids.index(order[0])
                    batch = twins[lead].next_batch()
                    service.submit_many(
                        {order[0]: batch, **dict.fromkeys(order[1:])}
                    )
            for _ in range(3):
                service.submit(sids[5])
            for spec in taxi_specs(n=4, seed=70):
                newcomer = service.open(spec, horizon=None)
                for _ in range(4):
                    service.submit(newcomer)
            return [sids.index(sid) for sid in service.evicted_ids]

        assert run(native=True) == run(native=False) == [5, 2, 0, 4]

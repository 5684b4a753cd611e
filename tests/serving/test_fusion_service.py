"""DefenseService cross-cell fusion: heterogeneous cohorts, cache, churn.

PR 8's service-facing contract: tenants with *different* strategy
pairs, attack ratios and datasets now share one fused lockstep cohort,
and every one of them still produces exactly the board its standalone
:class:`GameSession` loop would have — through joins, evictions,
restores and cache invalidation.
"""

import dataclasses
import os
import sys

import numpy as np

from repro import DefenseService, GameSpec

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "core")
)
from test_session import (  # noqa: E402
    assert_results_identical,
    cohort_leftovers,
    matrix_spec,
)


def solo_reference(spec: GameSpec):
    session = spec.session()
    while not session.done:
        session.submit()
    return session.close()


#: A deliberately heterogeneous tenant population: five collector
#: families, six adversaries, three attack ratios, stochastic and
#: deterministic lanes.  The judge is shared — the judge factory is
#: part of the fusion key, so a different judge is a different cohort.
HETERO_CELLS = [
    ("tft-mixed", "mixed", "band", 0.1),
    ("elastic-paper", "elastic", "band", 0.2),
    ("generous", "uniform", "band", 0.3),
    ("ostrich", "null", "band", 0.2),
    ("tft-quality", "fixed", "band", 0.1),
    ("elastic-relax", "just-below", "band", 0.3),
]


def hetero_specs(seed=60, rounds=8):
    specs = []
    for i, (collector, adversary, judge, ratio) in enumerate(HETERO_CELLS):
        spec = matrix_spec(collector, adversary, judge, seed=seed + i)
        specs.append(
            dataclasses.replace(spec, attack_ratio=ratio, rounds=rounds)
        )
    return specs


class TestHeterogeneousFusion:
    def test_mixed_cohort_plays_byte_identical(self):
        specs = hetero_specs()
        solo = [solo_reference(spec) for spec in specs]

        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        for _ in range(specs[0].rounds):
            service.submit_many(sids)
        for sid, reference in zip(sids, solo, strict=False):
            assert_results_identical(service.close(sid), reference)
        # The whole heterogeneous population rode ONE cohort per round.
        assert service.stats.lockstep_rounds == specs[0].rounds
        assert service.stats.lockstep_lanes == len(specs) * specs[0].rounds
        assert service.stats.solo_rounds == 0

    def test_mixed_ratios_segment_rounds(self):
        # Different attack ratios mean different poison counts: the
        # session must segment the fused round, not reject the cohort.
        specs = [
            dataclasses.replace(
                matrix_spec("elastic-paper", "elastic", "band", seed=70 + i),
                attack_ratio=ratio,
            )
            for i, ratio in enumerate((0.1, 0.2, 0.3, 0.4))
        ]
        solo = [solo_reference(spec) for spec in specs]
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        for _ in range(specs[0].rounds):
            service.submit_many(sids)
        for sid, reference in zip(sids, solo, strict=False):
            assert_results_identical(service.close(sid), reference)
        assert service.stats.solo_rounds == 0

    def test_mid_game_join_evict_restore(self, tmp_path):
        from repro import ResultStore

        specs = hetero_specs(seed=80, rounds=10)
        solo = [solo_reference(spec) for spec in specs]

        store = ResultStore(tmp_path)
        service = DefenseService(store=store)
        sids = [service.open(spec) for spec in specs[:4]]
        late = None
        for round_index in range(specs[0].rounds):
            if round_index == 3:  # two tenants join mid-game
                sids.append(service.open(specs[4]))
                late = service.open(specs[5])
                sids.append(late)
            if round_index == 5:  # one leaves and comes back
                service.evict(late)
            active = [
                sid
                for sid in sids
                if sid in service.resident_ids
                and not service.session(sid).done
            ]
            if active:
                service.submit_many(active)
        # The evicted latecomer restores and finishes solo-consistent.
        restored = service.session(late)
        while not restored.done:
            service.submit(late)
        for sid, reference in zip(sids[:4], solo[:4], strict=False):
            assert_results_identical(service.close(sid), reference)
        # Late joiners played fewer fused rounds; finish them out.
        for sid, reference in zip(sids[4:], solo[4:], strict=False):
            session = service.session(sid)
            while not session.done:
                service.submit(sid)
            assert_results_identical(service.close(sid), reference)

    def test_shape_partition_splits_datasets(self):
        # control is (n, 60)-dimensional, taxi is scalar: same fusion
        # family, incompatible batch shapes -> two sub-cohorts.
        control = matrix_spec("elastic-paper", "elastic", "band", seed=95)
        taxi = dataclasses.replace(
            control, dataset="taxi", dataset_size=2000, seed=96
        )
        specs = [control, taxi] + [
            dataclasses.replace(taxi, seed=seed) for seed in (97, 98, 99)
        ]
        solo = [solo_reference(spec) for spec in specs]
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        for _ in range(specs[0].rounds):
            service.submit_many(sids)
        for sid, reference in zip(sids, solo, strict=False):
            assert_results_identical(service.close(sid), reference)
        # The four taxi tenants fused; the lone control tenant went solo.
        assert service.stats.lockstep_lanes == 4 * specs[0].rounds
        assert service.stats.solo_rounds == specs[0].rounds


class TestCohortCache:
    def test_stable_cohort_builds_lanes_once(self):
        specs = hetero_specs(seed=100)
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        for _ in range(specs[0].rounds):
            service.submit_many(sids)
        assert service.stats.lane_builds == 1
        assert service.stats.lane_cache_hits == specs[0].rounds - 1

    def test_membership_change_rebuilds(self):
        specs = hetero_specs(seed=110, rounds=10)
        service = DefenseService()
        sids = [service.open(spec) for spec in specs[:5]]
        for _ in range(4):
            service.submit_many(sids)
        assert service.stats.lane_builds == 1
        # Evicting a member changes the cohort: new lanes, fresh build.
        service.evict(sids[-1])
        remaining = sids[:-1]
        for _ in range(4):
            service.submit_many(remaining)
        assert service.stats.lane_builds == 2
        assert service.stats.lane_cache_hits == 3 + 3

    def test_solo_submit_invalidates_cached_cohort(self):
        specs = hetero_specs(seed=120, rounds=10)[:5]
        solo = [solo_reference(spec) for spec in specs]
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        service.submit_many(sids)
        service.submit_many(sids)
        # Tenant 0 takes one solo step: the cohort falls out of
        # lockstep, so the service must not reuse the cached cohort.
        service.submit(sids[0])
        session = service.session(sids[0])
        while not session.done:
            service.submit(sids[0])
        assert_results_identical(service.close(sids[0]), solo[0])
        remaining = sids[1:]
        for _ in range(specs[0].rounds - 2):
            service.submit_many(remaining)
        for sid, reference in zip(remaining, solo[1:], strict=False):
            assert_results_identical(service.close(sid), reference)

    def test_session_accessor_invalidates(self):
        specs = hetero_specs(seed=130)[:4]
        solo = [solo_reference(spec) for spec in specs]
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        service.submit_many(sids)
        # Handing out the live session object may let the caller mutate
        # it arbitrarily; the cached cohort must be dropped.
        service.session(sids[1])
        builds_before = service.stats.lane_builds
        for _ in range(specs[0].rounds - 1):
            service.submit_many(sids)
        assert service.stats.lane_builds > builds_before
        for sid, reference in zip(sids, solo, strict=False):
            assert_results_identical(service.close(sid), reference)


    def test_reopened_id_never_reuses_the_stale_cohort(self):
        # A tenant quarantined in pre-flight is dropped without a flush,
        # so its cohort's sink stays unflushed.  A newcomer reusing the
        # id is a new session object: only identity shows the cached
        # cohort is stale.
        specs = dict(zip("abcd", hetero_specs(seed=140, rounds=10)))
        service = DefenseService()
        for sid, spec in specs.items():
            service.open(spec, session_id=sid)
        for _ in range(2):
            service.submit_many(list(specs))
        service.submit_many(
            {"a": np.full((specs["a"].batch_size, 60), np.nan)},
            on_error="quarantine",
        )
        assert service.quarantined_ids == ["a"]
        service.open(specs["a"], session_id="a")
        for _ in range(2):
            service.submit("a")
        for _ in range(2):
            service.submit_many(list(specs))
        assert service.stats.lane_builds == 2
        for sid, spec in specs.items():
            replay = spec.session()
            for _ in range(4):
                replay.submit()
            assert_results_identical(service.close(sid), replay.close())

    def test_every_live_cohort_is_reused(self):
        # More live cohorts than any fixed-size cache would hold: each
        # lives on its members, so every one is found again.
        specs = [
            spec
            for k in range(14)
            for spec in hetero_specs(seed=200 + 10 * k, rounds=3)
        ][:80]
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        quads = [sids[i:i + 4] for i in range(0, len(sids), 4)]
        for _ in range(3):
            for quad in quads:
                service.submit_many(quad)
        assert service.stats.lane_builds == 20
        assert service.stats.lane_cache_hits == 40
        for sid, spec in zip(sids, specs, strict=True):
            assert_results_identical(service.close(sid), solo_reference(spec))

    def test_closed_cohort_leaves_nothing_behind(self):
        specs = hetero_specs(seed=160)[:4]
        service = DefenseService()

        def play():
            sids = [service.open(spec) for spec in specs]
            for _ in range(3):
                service.submit_many(sids)
            for sid in sids:
                service.close(sid)

        # The service outlives its tenants: it must not keep their
        # cohort (or, through it, the closed sessions) alive.
        assert cohort_leftovers(play) == []


class TestFusedResults:
    def test_quality_and_poison_columns_heterogeneous(self):
        # Spot-check that per-lane ratios flow through the fused poison
        # program: reported injected counts differ across lanes.
        specs = [
            dataclasses.replace(
                matrix_spec("elastic-paper", "elastic", "band", seed=150 + i),
                attack_ratio=ratio,
            )
            for i, ratio in enumerate((0.1, 0.3, 0.2, 0.4))
        ]
        service = DefenseService()
        sids = [service.open(spec) for spec in specs]
        for _ in range(specs[0].rounds):
            service.submit_many(sids)
        results = [service.close(sid) for sid in sids]
        injected = [
            np.sum([rec["n_poison_injected"] for rec in r.to_records()])
            for r in results
        ]
        assert injected[1] > injected[0] > 0

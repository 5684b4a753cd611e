"""Property test: random heterogeneous cohorts fuse byte-identically.

Hypothesis drives the whole fusion surface at once — random strategy
families on both sides, random attack ratios, mixed datasets (hence
mixed batch shapes), and join/evict/park/restore/solo/close churn at
random rounds — and demands that every tenant's closed result equals
its standalone :class:`GameSession` run, byte for byte.

The lockstep path defers per-lane writeback into a cohort
:class:`~repro.streams.board.ColumnarBoard` sink, so every churn
action here lands mid-deferral by construction: eviction snapshots,
out-of-band solo rounds, mid-game closes and cohort-membership changes
must each flush the pending rows without losing or duplicating a
round.  A call that names one live cohort whole lets the cohort draw
the round itself; small taxi streams make those draws cross epoch
ends on staggered rounds.
"""

import dataclasses
import os
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import DefenseService, GameSpec  # noqa: E402

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "core")
)
from test_session import (  # noqa: E402
    MATRIX_ADVERSARIES,
    MATRIX_COLLECTORS,
    assert_results_identical,
    matrix_spec,
)

ROUNDS = 6

tenant_st = st.fixed_dictionaries(
    {
        "collector": st.sampled_from(sorted(MATRIX_COLLECTORS)),
        "adversary": st.sampled_from(sorted(MATRIX_ADVERSARIES)),
        "ratio": st.sampled_from((0.0, 0.1, 0.2, 0.3)),
        "dataset": st.sampled_from(("control", "taxi")),
        # Taxi rows: 120 and 180 wrap the stream every 2 and 3 rounds at
        # batch 60, so cohort draws cross staggered epoch ends.
        "taxi_size": st.sampled_from((120, 180, 1500)),
        "seed": st.integers(min_value=0, max_value=2**16),
        "join_round": st.integers(min_value=0, max_value=2),
        "evict_round": st.one_of(
            st.none(), st.integers(min_value=1, max_value=ROUNDS - 1)
        ),
        # After an eviction the tenant stays parked this many service
        # rounds, then rejoins its cohort (restored transparently).
        "park_rounds": st.integers(min_value=0, max_value=2),
        # Play the tenant's Nth round out-of-band via service.submit()
        # instead of submit_many — forces a deferred flush mid-cohort.
        "solo_round": st.one_of(
            st.none(), st.integers(min_value=1, max_value=ROUNDS - 1)
        ),
        # Close the tenant after it has played this many rounds — the
        # sink must flush a complete board short of the horizon.
        "close_after": st.one_of(
            st.none(), st.integers(min_value=1, max_value=ROUNDS - 1)
        ),
    }
)


def _spec(tenant) -> GameSpec:
    base = matrix_spec(
        tenant["collector"], tenant["adversary"], "band",
        seed=tenant["seed"], rounds=ROUNDS,
    )
    kwargs = dict(attack_ratio=tenant["ratio"], dataset=tenant["dataset"])
    if tenant["dataset"] == "taxi":
        kwargs["dataset_size"] = tenant["taxi_size"]
    return dataclasses.replace(base, **kwargs)


def _solo(spec: GameSpec, close_after=None):
    session = spec.session()
    while not session.done:
        if close_after is not None and session.round_index >= close_after:
            break
        session.submit()
    return session.close()


def _target_rounds(tenant) -> int:
    return ROUNDS if tenant["close_after"] is None else tenant["close_after"]


#: Populations of 8-16: the service fuses only runs of four or more
#: same-round, same-shape tenants, and smaller draws split across two
#: datasets and three join rounds rarely reach four (with 8-16, about
#: two examples in three play a lockstep round).
@settings(max_examples=15, deadline=None)
@given(tenants=st.lists(tenant_st, min_size=8, max_size=16))
def test_random_cohorts_with_churn_play_byte_identical(tenants):
    solo = [_solo(_spec(t), t["close_after"]) for t in tenants]

    service = DefenseService()
    n = len(tenants)
    sids = [None] * n
    played = [0] * n
    parked_until = [0] * n
    closed = {}
    # Every spec shares the same horizon, so done <=> played == ROUNDS;
    # tracking rounds locally (instead of polling service.session())
    # keeps the deferred sinks live across rounds, which is the point.
    for round_index in range(ROUNDS + max(t["join_round"] for t in tenants)):
        for i, tenant in enumerate(tenants):
            if tenant["join_round"] == round_index and sids[i] is None:
                sids[i] = service.open(_spec(tenant))
            if (
                tenant["evict_round"] == round_index
                and sids[i] is not None
                and sids[i] in service.resident_ids
                and i not in closed
            ):
                # Mid-deferral eviction: pending sink rows must flush
                # into the snapshot before the live state is dropped.
                service.evict(sids[i])
                parked_until[i] = round_index + 1 + tenant["park_rounds"]
        for i, tenant in enumerate(tenants):
            if (
                i not in closed
                and sids[i] is not None
                and played[i] >= _target_rounds(tenant)
            ):
                # Mid-game close (possibly of a parked tenant): the
                # flushed board must be complete short of the horizon.
                closed[i] = service.close(sids[i])
        lockstep = []
        for i, tenant in enumerate(tenants):
            if (
                sids[i] is None
                or i in closed
                or round_index < parked_until[i]
                or played[i] >= ROUNDS
            ):
                continue
            if tenant["solo_round"] == played[i]:
                # Out-of-band solo round: invalidates the tenant's
                # cohort and flushes its deferred rows (restoring it
                # first if parked).
                service.submit(sids[i])
                played[i] += 1
            else:
                lockstep.append(i)
        if lockstep:
            service.submit_many([sids[i] for i in lockstep])
            for i in lockstep:
                played[i] += 1

    for i, (tenant, reference) in enumerate(zip(tenants, solo, strict=False)):
        if i in closed:
            assert_results_identical(closed[i], reference)
            continue
        if sids[i] is None:
            sids[i] = service.open(_spec(tenant))
        # Evicted tenants restore transparently on their next submit;
        # stragglers (late joiners, evictees) finish solo.
        while played[i] < _target_rounds(tenant):
            service.submit(sids[i])
            played[i] += 1
        assert_results_identical(service.close(sids[i]), reference)

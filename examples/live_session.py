"""Live sessions: drive the defense round by round from an external loop.

Part 1 opens a single :class:`repro.GameSession` and owns the loop
itself — the shape a deployment has, where data arrives from outside and
the defense is a reactive transition function: ``submit(batch)`` returns
the round's :class:`~repro.core.session.RoundDecision` (threshold,
accept mask, judge verdict, payoffs).  Midway it suspends the session to
a snapshot blob and resumes from it — byte-identically, even in another
process.

Part 2 serves four tenants of the same defense configuration through a
:class:`repro.DefenseService`, which multiplexes their rounds through
one vectorized lockstep step.  (Fewer than four same-round tenants play
solo rounds instead: below four, solo rounds are cheaper.)  Run with::

    python examples/live_session.py
"""

import numpy as np

from repro import ComponentSpec, DefenseService, GameSession, GameSpec, PayoffModel
from repro.core.strategies import ElasticAdversary, ElasticCollector


def tenant_spec(seed: int) -> GameSpec:
    """One tenant's declarative game recipe (Elastic vs Elastic, §VI-A)."""
    return GameSpec(
        collector=ComponentSpec(ElasticCollector, {"t_th": 0.9, "k": 0.5}),
        adversary=ComponentSpec(ElasticAdversary, {"t_th": 0.9, "k": 0.5}),
        dataset="control",
        attack_ratio=0.2,
        rounds=10,
        seed=seed,
    )


def single_session() -> None:
    print("=== one live session, caller-owned loop ===")
    session = tenant_spec(seed=0).session(payoff_model=PayoffModel())

    for _ in range(4):
        decision = session.submit()  # pulls from the attached stream
        print(
            f"round {decision.index}: trim @ {decision.threshold:.3f}, "
            f"kept {decision.n_retained}/{decision.n_collected}, "
            f"betrayal={decision.betrayal}, "
            f"collector payoff {decision.payoffs.collector:+.3f}"
        )

    # Suspend mid-game: the blob carries strategy state, every RNG's
    # bit-state, the board and the horizon position.
    blob = session.snapshot()
    print(f"snapshot: {len(blob)} bytes; resuming a restored session ...")
    resumed = GameSession.restore(blob)

    while not resumed.done:
        decision = resumed.submit()
        print(
            f"round {decision.index}: trim @ {decision.threshold:.3f}, "
            f"kept {decision.n_retained}/{decision.n_collected}"
        )
    result = resumed.close()
    print(
        f"closed after {result.rounds} rounds, surviving poison "
        f"{result.poison_retained_fraction():.3f}\n"
    )


def four_tenants() -> None:
    print("=== four tenants, one DefenseService ===")
    service = DefenseService()
    tenants = [
        service.open(tenant_spec(seed=seed), session_id=name)
        for seed, name in enumerate(("alice", "bob", "carol", "dave"), start=1)
    ]

    for _ in range(10):
        # Same configuration + same round: the service steps all four
        # tenants through one vectorized lockstep round.
        decisions = service.submit_many(tenants)
        trims = ", ".join(
            f"{tenant} {decisions[tenant].threshold:.3f}" for tenant in tenants
        )
        print(f"round {decisions[tenants[0]].index}: trim {trims}")

    for tenant in tenants:
        result = service.close(tenant)
        print(
            f"{tenant}: {result.rounds} rounds, surviving poison "
            f"{result.poison_retained_fraction():.3f}"
        )
    print(f"service stats: {service.stats}")


def main() -> None:
    single_session()
    four_tenants()


if __name__ == "__main__":
    main()

"""The analytical model end to end: payoffs, games, and the oscillator.

Walks through the paper's theory with the library's objects:

1. the payoff model and the strategy space [x_L, x_R] (Definition 1);
2. the one-shot ultimatum game of Table I and its hard/hard equilibrium;
3. the Stackelberg solution of the discretized trimming game;
4. Theorem 3's compliance condition for the repeated game;
5. Theorem 4's coupled oscillation under the Elastic interaction.

Run with::

    python examples/equilibrium_theory.py
"""

import numpy as np

from repro import (
    CoupledUtilityOscillator,
    PayoffModel,
    RepeatedGameModel,
    build_ultimatum_game,
    solve_stackelberg,
)
from repro.core.lagrangian import ElasticLagrangian, action
from repro.core.stackelberg import linear_response_fixed_point


def main() -> None:
    # 1. The strategy space.
    model = PayoffModel()
    x_l, x_r = model.strategy_interval()
    print(f"balance point x_L = {x_l:.4f} (P(x_L) = T(x_L) = "
          f"{model.poison_payoff(x_l):.4f})")
    print(f"right boundary x_R = {x_r:.4f}")

    # 2. The one-shot ultimatum game (Table I).
    game = build_ultimatum_game()
    (eq,) = game.pure_nash_equilibria()
    print(f"\none-shot equilibrium: adversary={game.row_labels[eq[0]]}, "
          f"collector={game.col_labels[eq[1]]} — the prisoner's dilemma")

    # 3. Stackelberg equilibrium over the discretized space.
    sol = solve_stackelberg(model, grid_size=201)
    print(f"\nStackelberg: collector trims at {sol.leader_action:.4f}, "
          f"adversary injects at {sol.follower_action:.4f}")
    print(f"payoffs: collector {sol.leader_payoff:.4f}, "
          f"adversary {sol.follower_payoff:.4f}")

    # 4. Theorem 3: how much utility compromise sustains cooperation.
    repeated = RepeatedGameModel(adversary_gain=4.0, collector_gain=2.0,
                                 discount=0.9)
    for p in (0.0, 0.5, 0.9):
        print(f"p = {p:.1f}: max sustainable compromise delta = "
              f"{repeated.max_compromise(p):.4f}")

    # 5. Theorem 4: the Elastic interaction oscillates.
    oscillator = CoupledUtilityOscillator(
        stiffness=1.0, mass_adversary=1.0, mass_collector=2.0,
        u_adversary0=1.0, v_collector0=0.3,
    )
    print(f"\nElastic oscillation: omega = {oscillator.angular_frequency:.4f}, "
          f"period = {oscillator.period:.2f} rounds, "
          f"amplitude = {oscillator.amplitude:.4f}")
    r = np.linspace(0.0, oscillator.period, 9)
    u_a, u_c = oscillator.solve(r)
    for ri, ua, uc in zip(r, u_a, u_c, strict=True):
        print(f"  r = {ri:6.2f}: u_a = {ua:8.4f}, u_c = {uc:8.4f}, "
              f"gap = {ua - uc:8.4f}")
    print(f"energy drift over a period: "
          f"{np.ptp(oscillator.energy(r)):.2e} (conserved)")

    # The oscillator path is consistent with the discretized action.
    lag = ElasticLagrangian(stiffness=1.0, mass_collector=2.0)
    dr = oscillator.period / 400
    rr = np.arange(0.0, oscillator.period, dr)
    path = np.column_stack(oscillator.solve(rr))
    print(f"action along one period: {action(lag, path, dr):.4f}")

    # The experimental §VI-A responses share this equilibrium structure.
    t_star, a_star = linear_response_fixed_point(0.9, 0.5)
    print(f"\ninteractive equilibrium of the k=0.5 Elastic responses: "
          f"T* = {t_star:.4f}, A* = {a_star:.4f}")


if __name__ == "__main__":
    main()

"""Privacy-preserving collection under manipulation attacks (mini Fig. 9).

Honest users report Taxi pickup times through the Piecewise Mechanism;
colluding attackers run the input manipulation attack (poison the input,
then follow the protocol — individually undetectable).  The collector
compares doing nothing, plain trimming via the Tit-for-tat threshold,
and the EMF baseline.  Run with::

    python examples/ldp_collection.py
"""

import numpy as np

from repro.datasets import generate_taxi
from repro.experiments import format_table
from repro.ldp import (
    ExpectationMaximizationFilter,
    InputManipulationAttack,
    PiecewiseMechanism,
    SquareWaveMechanism,
    TrimmedMeanEstimator,
    mean_estimate,
)


def main() -> None:
    n_users, attack_ratio = 20_000, 0.2
    n_attackers = int(attack_ratio * n_users)
    rows = []

    for epsilon in (1.0, 2.0, 4.0):
        honest_inputs = generate_taxi(n_users, seed=int(epsilon * 100))
        truth = float(np.mean(honest_inputs))

        # --- trimming pipeline on Piecewise-Mechanism reports ---------- #
        mech = PiecewiseMechanism(epsilon, seed=1)
        reference = mech.perturb(generate_taxi(n_users, seed=999))
        estimator = TrimmedMeanEstimator(reference)
        attack = InputManipulationAttack(target=1.0)
        reports = np.concatenate(
            [mech.perturb(honest_inputs), attack.reports(mech, n_attackers)]
        )
        undefended = mean_estimate(reports)
        trimmed = estimator.estimate(reports, 0.92)  # Tit-for-tat hard trim

        # --- EMF baseline on Square-Wave reports ----------------------- #
        sw = SquareWaveMechanism(epsilon, seed=2)
        sw_reports = np.concatenate(
            [
                sw.perturb((honest_inputs + 1.0) / 2.0),
                sw.perturb(np.ones(n_attackers)),
            ]
        )
        emf = ExpectationMaximizationFilter(
            sw, attack_fraction=n_attackers / (n_users + n_attackers),
            n_input_bins=32, n_output_bins=64, n_iter=60,
        )
        emf_mean = emf.fit(sw_reports).mean

        rows.append(
            (
                epsilon,
                truth,
                undefended,
                trimmed,
                emf_mean,
                abs(trimmed - truth) < abs(emf_mean - truth),
            )
        )

    print(
        format_table(
            ["epsilon", "true mean", "no defense", "trimmed", "EMF",
             "trimming wins"],
            rows,
            title="LDP mean estimation under input manipulation "
            f"(attack ratio {attack_ratio})",
        )
    )
    print()
    print("The attack inflates the undefended estimate everywhere.  At small")
    print("epsilon the mechanism noise dominates, so trimming pays heavy")
    print("false-positive overhead (the paper's inflection near eps = 1.5);")
    print("past the crossover, trimming removes the attackers' upper-tail")
    print("report mass while EMF cannot separate channel-consistent reports.")


if __name__ == "__main__":
    main()

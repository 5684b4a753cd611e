"""Fig. 9 runner: trimming defenses vs EMF under LDP perturbation.

The §VI-E case study: honest users hold Taxi values in [-1, 1] and report
through an LDP mechanism; the colluding attackers mount the *input
manipulation attack* [7] — counterfeit the input that maximizes mean
deviation (the domain maximum) and then follow the protocol honestly,
which makes each poisoned report individually indistinguishable from an
honest one.

Defenses compared per (ε, attack ratio):

* **Titfortat / Elastic 0.1 / Elastic 0.5** — the game strategies drive a
  percentile trim of the *report* stream (Piecewise Mechanism reports,
  reference-calibrated cutoffs, bias-corrected trimmed mean).  The
  Tit-for-tat trigger and the Elastic quality-feedback rule (Algorithm 2's
  convex combination — the injection position is unobservable under LDP)
  evolve the threshold across rounds.
* **EMF** — the Expectation-Maximization Filter baseline on Square-Wave
  reports, given the true attack fraction (a charitable setting).

The metric is the MSE of the final mean estimate against the clean sample
mean, averaged over repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.quality import TailMassEvaluator
from ..core.strategies import ElasticCollector, QualityTrigger, TitForTatCollector
from ..core.strategies.base import RoundObservation
from ..datasets.taxi import generate_taxi
from ..ldp.attacks import InputManipulationAttack
from ..ldp.emf import ExpectationMaximizationFilter
from ..ldp.estimators import TrimmedMeanEstimator
from ..ldp.mechanisms import PiecewiseMechanism
from ..ldp.square_wave import SquareWaveMechanism
from ..runtime import ComponentSpec, SweepRunner, TaskSpec

__all__ = [
    "LDPConfig",
    "LDPCell",
    "LDP_SCHEMES",
    "aggregate_ldp",
    "ldp_specs",
    "run_ldp_experiment",
]

#: Scheme order of the Fig. 9 comparison (the paper's plotting order).
LDP_SCHEMES = ("titfortat", "elastic0.1", "elastic0.5", "emf")


@dataclass(frozen=True)
class LDPConfig:
    """Parameters of the Fig. 9 sweep."""

    epsilons: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
    attack_ratios: Sequence[float] = (0.05, 0.1, 0.15, 0.2)
    n_users: int = 2000
    rounds: int = 5
    repetitions: int = 3
    t_th: float = 0.95
    redundancy: float = 0.05
    reference_size: int = 4000
    seed: int = 0


@dataclass(frozen=True)
class LDPCell:
    """One (scheme, ε, attack ratio) MSE measurement."""

    scheme: str
    epsilon: float
    attack_ratio: float
    mse: float


def _trimming_scheme_mse(
    scheme: str,
    epsilon: float,
    attack_ratio: float,
    rep_seed: int,
    n_users: int = 2000,
    rounds: int = 5,
    t_th: float = 0.95,
    redundancy: float = 0.05,
    reference_size: int = 4000,
) -> float:
    """One repetition of a trimming defense; returns squared error.

    Takes only the scalars it consumes (not the whole
    :class:`LDPConfig`), so a cell's store key — built from these
    kwargs — is untouched by changes to unrelated config fields such as
    the grid axes or the repetition count: growing a sweep reuses every
    already-stored cell.
    """
    rng = np.random.default_rng(rep_seed)
    mechanism = PiecewiseMechanism(epsilon, seed=rep_seed + 1)

    # Public calibration: clean reference pushed through the mechanism.
    reference_inputs = generate_taxi(reference_size, seed=rep_seed + 2)
    reference_reports = mechanism.perturb(reference_inputs)
    estimator = TrimmedMeanEstimator(reference_reports)
    evaluator = TailMassEvaluator(reference_quantile=t_th)
    evaluator.fit(reference_reports)

    if scheme == "titfortat":
        collector = TitForTatCollector(
            t_th,
            trigger=QualityTrigger(reference_score=0.0, redundancy=redundancy),
        )
    elif scheme.startswith("elastic"):
        collector = ElasticCollector(t_th, float(scheme[len("elastic"):]))
    else:
        raise ValueError(f"unknown trimming scheme {scheme!r}")
    collector.reset()

    attack = InputManipulationAttack(target=1.0)
    n_attackers = int(round(attack_ratio * n_users))

    estimates = []
    true_means = []
    threshold = collector.first()
    for round_index in range(1, rounds + 1):
        honest_inputs = generate_taxi(n_users, seed=int(rng.integers(2**31)))
        true_means.append(float(np.mean(honest_inputs)))
        reports = np.concatenate(
            [
                mechanism.perturb(honest_inputs),
                attack.reports(mechanism, n_attackers),
            ]
        )
        estimates.append(estimator.estimate(reports, threshold))

        observed_ratio, quality = evaluator.evaluate(reports)
        observation = RoundObservation(
            index=round_index,
            trim_percentile=float(threshold),
            injection_percentile=None,  # unobservable under LDP
            quality=quality,
            observed_poison_ratio=observed_ratio,
            betrayal=False,
        )
        threshold = collector.react(observation)

    error = float(np.mean(estimates)) - float(np.mean(true_means))
    return error * error


def _emf_mse(
    epsilon: float,
    attack_ratio: float,
    rep_seed: int,
    n_users: int = 2000,
    rounds: int = 5,
) -> float:
    """One repetition of the EMF baseline; returns squared error.

    Scalar kwargs only, for the same store-key granularity reason as
    :func:`_trimming_scheme_mse`.
    """
    rng = np.random.default_rng(rep_seed)
    mechanism = SquareWaveMechanism(epsilon, seed=rep_seed + 1)
    n_attackers = int(round(attack_ratio * n_users))
    emf = ExpectationMaximizationFilter(
        mechanism,
        attack_fraction=n_attackers / (n_users + n_attackers),
        n_input_bins=32,
        n_output_bins=64,
        n_iter=60,
    )

    estimates = []
    true_means = []
    for _ in range(rounds):
        honest_inputs = generate_taxi(n_users, seed=int(rng.integers(2**31)))
        true_means.append(float(np.mean(honest_inputs)))
        honest01 = (honest_inputs + 1.0) / 2.0
        attacker01 = np.ones(n_attackers)
        reports = np.concatenate(
            [mechanism.perturb(honest01), mechanism.perturb(attacker01)]
        )
        estimates.append(emf.fit(reports).mean)

    error = float(np.mean(estimates)) - float(np.mean(true_means))
    return error * error


def _legacy_rep_seed(
    config: LDPConfig, epsilon: float, ratio: float, rep: int
) -> int:
    """The original hand-rolled loop's per-repetition seed.

    Deliberately preserved by the sweep-runtime port so the ported cells
    draw byte-identical RNG streams to the pre-port implementation
    (asserted in the regression tests); the cell's *identity* for
    caching is the full :class:`~repro.runtime.spec.TaskSpec` recipe,
    which embeds this seed.
    """
    return int(
        config.seed + 100_000 * rep + int(epsilon * 1000) + int(ratio * 100)
    )


def ldp_specs(config: LDPConfig) -> List[TaskSpec]:
    """The Fig. 9 sweep as declarative cells.

    Grid order is ratio → ε → scheme → repetition; each cell wraps one
    repetition of one defense (:func:`_trimming_scheme_mse` or
    :func:`_emf_mse`) so the result store checkpoints at single-rep
    granularity and worker processes can fan the grid out.
    """
    specs: List[TaskSpec] = []
    for ratio in config.attack_ratios:
        for epsilon in config.epsilons:
            for scheme in LDP_SCHEMES:
                for rep in range(config.repetitions):
                    rep_seed = _legacy_rep_seed(config, epsilon, ratio, rep)
                    if scheme == "emf":
                        task = ComponentSpec(
                            _emf_mse,
                            {
                                "epsilon": float(epsilon),
                                "attack_ratio": float(ratio),
                                "rep_seed": rep_seed,
                                "n_users": int(config.n_users),
                                "rounds": int(config.rounds),
                            },
                        )
                    else:
                        task = ComponentSpec(
                            _trimming_scheme_mse,
                            {
                                "scheme": scheme,
                                "epsilon": float(epsilon),
                                "attack_ratio": float(ratio),
                                "rep_seed": rep_seed,
                                "n_users": int(config.n_users),
                                "rounds": int(config.rounds),
                                "t_th": float(config.t_th),
                                "redundancy": float(config.redundancy),
                                "reference_size": int(config.reference_size),
                            },
                        )
                    specs.append(
                        TaskSpec(
                            task=task,
                            tags={
                                "scheme": scheme,
                                "epsilon": float(epsilon),
                                "attack_ratio": float(ratio),
                                "rep": rep,
                            },
                        )
                    )
    return specs


def aggregate_ldp(config: LDPConfig, records: Sequence[float]) -> List[LDPCell]:
    """Average grid-order squared errors into the Fig. 9 cells.

    ``records`` must be in :func:`ldp_specs` expansion order; each
    scheme's repetitions are consecutive, and their mean is taken in
    repetition order — the same float sequence the pre-port loop
    averaged, so the aggregate is byte-identical.
    """
    expected = (
        len(config.attack_ratios)
        * len(config.epsilons)
        * len(LDP_SCHEMES)
        * config.repetitions
    )
    if len(records) != expected:
        raise ValueError(f"expected {expected} records, got {len(records)}")
    cells: List[LDPCell] = []
    cursor = 0
    for ratio in config.attack_ratios:
        for epsilon in config.epsilons:
            for scheme in LDP_SCHEMES:
                reps = records[cursor:cursor + config.repetitions]
                cursor += config.repetitions
                cells.append(
                    LDPCell(
                        scheme=scheme,
                        epsilon=float(epsilon),
                        attack_ratio=float(ratio),
                        mse=float(np.mean([float(r) for r in reps])),
                    )
                )
    return cells


def run_ldp_experiment(
    config: LDPConfig, store: Optional[object] = None
) -> List[LDPCell]:
    """Run the Fig. 9 sweep and return all cells (on the sweep runtime).

    Replaces the hand-rolled ratio × ε × repetition × scheme loops with
    :func:`ldp_specs` cells played through a
    :class:`~repro.runtime.runner.SweepRunner` — byte-identical output
    (the legacy per-rep seeds are preserved, see
    :func:`_legacy_rep_seed`), plus result-store resumability.
    """
    runner = SweepRunner(store=store)
    return aggregate_ldp(config, runner.run(ldp_specs(config)))

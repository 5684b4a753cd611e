"""Fig. 6 / Fig. 7 / Fig. 8 runners: SVM and SOM under equilibrium play.

* **SVM (Fig. 6a / Fig. 7)** — the labeled Control dataset streams through
  the collection game (labels ride along as an extra column that the
  trimmer ignores); the retained rows train a one-vs-rest linear SVM whose
  accuracy and confusion/PPV/FDR panel are reported per scheme.
* **SOM (Fig. 6b / Fig. 8)** — the skewed Creditcard stand-in streams
  through the game; a SOM is trained on the retained data and the
  qualitative Fig. 8 comparison is quantified as: survival of the seven
  minority points (the two isolated users + five prospects), the retained
  poison fraction, the number of clusters visible on the map, and the
  quantization error against clean data.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.domain import ReferenceFit
from ..core.engine import CollectionGame
from ..core.quality import TailMassEvaluator
from ..core.trimming import RadialTrimmer
from ..datasets.control import generate_control
from ..datasets.creditcard import generate_creditcard
from ..ml.metrics import ConfusionSummary, confusion_summary
from ..ml.som import SelfOrganizingMap
from ..ml.svm import OneVsRestSVM
from ..streams.injection import PoisonInjector
from ..streams.source import ArrayStream
from .schemes import SCHEMES, make_scheme

__all__ = [
    "LabelMimicInjector",
    "LabelAwareRadialTrimmer",
    "SVMConfig",
    "SVMResult",
    "run_svm_experiment",
    "SOMConfig",
    "SOMResult",
    "run_som_experiment",
]


def _scheme_seed(base: int, scheme: str) -> int:
    """Deterministic per-scheme seed offset.

    Replaces the interpreter-unstable ``hash(scheme) % 911`` (randomized
    by ``PYTHONHASHSEED``, so two processes disagreed on fig7/fig8
    outputs) with a CRC32 digest — stable across processes and
    platforms, which the result store's replay guarantees require.
    """
    return base + zlib.crc32(scheme.encode("utf-8")) % 911


class LabelMimicInjector(PoisonInjector):
    """Poison injector for labeled streams ``[features | label]``.

    Features are materialized by the parent (radial placement); each
    poison row *mimics* the label of its nearest benign neighbour in the
    round's batch — the evasive, deniable labeling consistent with the
    threat model (a poison point claiming an implausible class would be
    trivially flaggable), which also makes poison damage grow with the
    injection position exactly as the paper's ``P(x)`` model assumes.
    """

    def fit_reference(self, reference) -> "LabelMimicInjector":
        arr = np.asarray(reference, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("labeled reference must be 2-D with >= 2 columns")
        super().fit_reference(arr[:, :-1])
        return self

    def materialize(self, benign: np.ndarray, percentile: float) -> np.ndarray:
        arr = np.asarray(benign, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("labeled batches must be 2-D with >= 2 columns")
        features = arr[:, :-1]
        labels = arr[:, -1]
        poison_features = super().materialize(features, percentile)
        if poison_features.shape[0] == 0:
            return arr[:0].copy()
        d2 = (
            np.sum(poison_features**2, axis=1)[:, None]
            - 2.0 * poison_features @ features.T
            + np.sum(features**2, axis=1)[None, :]
        )
        nearest = np.argmin(d2, axis=1)
        return np.column_stack([poison_features, labels[nearest]])


class LabelAwareRadialTrimmer(RadialTrimmer):
    """Radial trimming that ignores the trailing label column.

    The classifier experiments stream ``[features | label]`` rows through
    the engine; trimming decisions must depend on features only.
    """

    def scores(self, batch: np.ndarray) -> np.ndarray:
        arr = np.asarray(batch, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("labeled batches must be 2-D with >= 2 columns")
        return super().scores(arr[:, :-1])

    def _reference_fit(self, reference: np.ndarray) -> ReferenceFit:
        if reference.ndim != 2 or reference.shape[1] < 2:
            raise ValueError("labeled reference must be 2-D with >= 2 columns")
        # Fit on the features; reference_row_shape stays the full
        # labeled row, the rows rounds trim.
        return ReferenceFit.of(reference[:, :-1], "radial")


# --------------------------------------------------------------------- #
# SVM experiment (Fig. 6a, Fig. 7)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SVMConfig:
    """Parameters of the Fig. 7 comparison (§VI-C: Tth 0.95, ratio 0.4)."""

    t_th: float = 0.95
    attack_ratio: float = 0.4
    rounds: int = 10
    batch_size: int = 60
    svm_iterations: int = 20_000
    svm_lambda: float = 1e-4
    schemes: Sequence[str] = tuple(s for s in SCHEMES if s != "groundtruth")
    seed: int = 0


@dataclass(frozen=True)
class SVMResult:
    """One scheme's SVM outcome."""

    scheme: str
    accuracy: float
    summary: ConfusionSummary


def _labeled_control(seed: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    data, labels = generate_control(seed=seed)
    stacked = np.column_stack([data, labels.astype(float)])
    return stacked, data, labels


def run_svm_experiment(config: SVMConfig) -> List[SVMResult]:
    """Run Fig. 7: ground truth first, then every scheme.

    The games play first; then the seven models (ground truth leading)
    train as one cohort, each bit-identical to its own solo fit.
    """
    stacked, clean_x, clean_y = _labeled_control(seed=7)
    n_classes = int(np.unique(clean_y).size)

    # Ground truth trains on the clean data directly.
    training = [("groundtruth", clean_x, clean_y)]
    for scheme in config.schemes:
        collector, adversary = make_scheme(
            scheme, config.t_th, seed=_scheme_seed(config.seed, scheme)
        )
        game = CollectionGame(
            source=ArrayStream(
                stacked, batch_size=config.batch_size, seed=config.seed
            ),
            collector=collector,
            adversary=adversary,
            injector=LabelMimicInjector(
                attack_ratio=config.attack_ratio,
                mode="radial",
                seed=config.seed + 1,
            ),
            trimmer=LabelAwareRadialTrimmer(),
            reference=stacked,
            quality_evaluator=TailMassEvaluator(),
            rounds=config.rounds,
            anchor="reference",
        )
        retained = game.run().retained_data()
        train_y = np.clip(
            np.round(retained[:, -1]).astype(int), 0, n_classes - 1
        )
        training.append((scheme, retained[:, :-1], train_y))

    models = [
        OneVsRestSVM(
            lam=config.svm_lambda,
            n_iter=config.svm_iterations,
            seed=config.seed,
        )
        for _ in training
    ]
    (_, lead_x, lead_y), *rest = training
    models[0].fit(
        lead_x,
        lead_y,
        peers=[(model, x, y) for model, (_, x, y) in zip(models[1:], rest, strict=True)],
    )
    results: List[SVMResult] = []
    for model, (name, _, _) in zip(models, training, strict=True):
        summary = confusion_summary(clean_y, model.predict(clean_x), n_classes)
        results.append(SVMResult(scheme=name, accuracy=summary.accuracy, summary=summary))
    return results


# --------------------------------------------------------------------- #
# SOM experiment (Fig. 6b, Fig. 8)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SOMConfig:
    """Parameters of the Fig. 8 comparison.

    The paper trains a 20 x 20 SOM on the full Creditcard data; defaults
    here shrink the bulk sample and the grid for benchmark runtime while
    keeping the skewed minority structure intact.
    """

    t_th: float = 0.95
    attack_ratio: float = 0.4
    rounds: int = 10
    batch_size: int = 200
    bulk_size: int = 2000
    grid: Tuple[int, int] = (10, 10)
    som_iterations: int = 4000
    schemes: Sequence[str] = tuple(s for s in SCHEMES if s != "groundtruth")
    seed: int = 0


@dataclass(frozen=True)
class SOMResult:
    """One scheme's SOM outcome (the quantified Fig. 8 panel)."""

    scheme: str
    minority_retained: int
    poison_retained_fraction: float
    cluster_count: int
    quantization_error: float


def _creditcard_sample(bulk_size: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    data, labels = generate_creditcard(n_samples=bulk_size + 7, seed=seed)
    return data, labels


def run_som_experiment(config: SOMConfig) -> List[SOMResult]:
    """Run Fig. 8: ground truth first, then every scheme.

    The games play first; then the seven maps (ground truth leading)
    train as one cohort, each bit-identical to its own solo fit.
    """
    data, labels = _creditcard_sample(config.bulk_size, seed=23)
    minority = data[labels > 0]
    clean_eval = data

    rows_, cols_ = config.grid

    def minority_survivors(retained: np.ndarray) -> int:
        count = 0
        for point in minority:
            gaps = np.linalg.norm(retained - point, axis=1)
            if np.min(gaps) < 1e-6:
                count += 1
        return count

    # (scheme, retained data, retained poison fraction), ground truth first.
    training = [("groundtruth", data, 0.0)]
    for scheme in config.schemes:
        collector, adversary = make_scheme(
            scheme, config.t_th, seed=_scheme_seed(config.seed, scheme)
        )
        game = CollectionGame(
            source=ArrayStream(
                data, batch_size=config.batch_size, seed=config.seed
            ),
            collector=collector,
            adversary=adversary,
            injector=PoisonInjector(
                attack_ratio=config.attack_ratio,
                mode="radial",
                seed=config.seed + 1,
            ),
            trimmer=RadialTrimmer(),
            reference=data,
            quality_evaluator=TailMassEvaluator(),
            rounds=config.rounds,
            anchor="batch",
        )
        result = game.run()
        training.append(
            (scheme, result.retained_data(), result.poison_retained_fraction())
        )

    soms = [
        SelfOrganizingMap(
            rows=rows_,
            cols=cols_,
            n_iter=config.som_iterations,
            seed=config.seed,
        )
        for _ in training
    ]
    (_, lead_data, _), *rest = training
    soms[0].fit(
        lead_data,
        peers=[(som, retained) for som, (_, retained, _) in zip(soms[1:], rest, strict=True)],
    )
    return [
        SOMResult(
            scheme=name,
            minority_retained=minority_survivors(retained),
            poison_retained_fraction=poison_fraction,
            cluster_count=som.cluster_count(retained),
            quantization_error=som.quantization_error(clean_eval),
        )
        for som, (name, retained, poison_fraction) in zip(soms, training, strict=True)
    ]

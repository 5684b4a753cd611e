"""Declarative, picklable game descriptions (the sweep runtime's unit).

Every experiment in the paper is a *sweep*: a cross-product of seeds,
strategy pairings, attack ratios and datasets, each cell of which is one
full :class:`~repro.core.engine.CollectionGame`.  A :class:`GameSpec` is
the self-contained description of one such cell — everything needed to
*build and play* the game, expressed as data rather than live objects so
it can cross a process boundary:

* components (strategies, trimmer, judge, quality evaluator) are carried
  as :class:`ComponentSpec` — an importable factory plus constructor
  kwargs — instead of instances, so no game ever shares mutable strategy
  state with another;
* the dataset is carried by registry *name* (plus optional subsample
  size) and loaded lazily — per worker process, through a small cache —
  instead of being pickled into every cell;
* randomness is carried as a :class:`numpy.random.SeedSequence`; every
  stochastic component (stream shuffle, adversary, injector, judge,
  collector) receives its own deterministic child derived with a fixed
  *channel* index, so two specs with distinct spawn keys can never
  collide the way ad-hoc ``seed + 13*i + 7*j`` arithmetic does.

Because the spec fully determines the game, ``spec.play()`` returns the
same :class:`~repro.core.engine.GameResult` whether it runs in the parent
process or a worker — the property the parallel
:class:`~repro.runtime.runner.SweepRunner` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Union,
)

import numpy as np

from ..core.domain import key_reference
from ..core.engine import (
    BatchedCollectionGame,
    CollectionGame,
    GameResult,
)
from ..core.trimming import RadialTrimmer
from ..datasets.registry import load_dataset
from ..streams.injection import PoisonInjector
from ..streams.source import ArrayStream

if TYPE_CHECKING:  # import only for annotations: keep runtime deps lean
    from ..core.session import GameSession

__all__ = [
    "ComponentSpec",
    "GameSpec",
    "TaskSpec",
    "SeedLike",
    "load_reference",
    "rep_group_key",
    "rep_keys_equal",
    "fusion_group_key",
    "play_rep_batch",
    "play_fused_batch",
    "SOURCE_CHANNEL",
    "COLLECTOR_CHANNEL",
    "ADVERSARY_CHANNEL",
    "INJECTOR_CHANNEL",
    "JUDGE_CHANNEL",
    "QUALITY_CHANNEL",
    "USER_CHANNEL",
]

#: Fixed seed-derivation channels.  Each stochastic component of a game
#: draws its seed from ``GameSpec.child_seed(<channel>)``; the indices
#: are part of the reproducibility contract — reordering them changes
#: every downstream stream.
SOURCE_CHANNEL = 0
COLLECTOR_CHANNEL = 1
ADVERSARY_CHANNEL = 2
INJECTOR_CHANNEL = 3
JUDGE_CHANNEL = 4
QUALITY_CHANNEL = 5
#: First channel index reserved for user code (reducers, analytics).
USER_CHANNEL = 8

SeedLike = Union[int, np.random.SeedSequence]


def _root_seed(seed: SeedLike) -> np.random.SeedSequence:
    """``seed`` as a :class:`~numpy.random.SeedSequence` (itself if one)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _child_seed(seed: SeedLike, index: int) -> np.random.SeedSequence:
    """Child ``index`` of ``seed`` (see :meth:`GameSpec.child_seed`)."""
    root = _root_seed(seed)
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + (int(index),),
    )


@dataclass(frozen=True)
class ComponentSpec:
    """An importable factory plus kwargs — a picklable recipe for one object.

    ``factory`` must be a module-level callable (a class or function);
    lambdas and closures cannot cross process boundaries.  ``kwargs``
    values may themselves be :class:`ComponentSpec` instances (e.g. a
    trigger inside a collector), which are built recursively.  With
    ``seeded=True`` the build seed — a :class:`numpy.random.SeedSequence`
    accepted verbatim by ``numpy.random.default_rng`` — is passed as the
    ``seed`` keyword.
    """

    factory: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seeded: bool = False

    def __post_init__(self) -> None:
        if self.seeded and "seed" in self.kwargs:
            raise ValueError(
                "a seeded ComponentSpec derives its own 'seed' at build "
                "time; remove the explicit 'seed' kwarg"
            )

    def build(self, seed: Optional[SeedLike] = None) -> Any:
        """Instantiate the component (fresh object every call).

        A nested component gets its own child seed, never the parent's.
        """
        built = {}
        for index, (key, value) in enumerate(self.kwargs.items()):
            if isinstance(value, ComponentSpec):
                built[key] = value.build(
                    None if seed is None else _child_seed(seed, index)
                )
            else:
                built[key] = value
        if self.seeded:
            built["seed"] = seed
        return self.factory(**built)

    @property
    def name(self) -> str:
        """Best-effort display name of the component."""
        return getattr(self.factory, "__name__", str(self.factory))


@lru_cache(maxsize=8)
def _load_reference_cached(name: str, size: Optional[int]) -> np.ndarray:
    data, _ = load_dataset(name, n_samples=size)
    data.setflags(write=False)  # shared across every game in this process
    key_reference(data, load_reference, (name, size))
    return data


def load_reference(name: str, size: Optional[int] = None) -> np.ndarray:
    """Load a registry dataset's feature matrix, cached per process.

    Workers replaying many :class:`GameSpec` cells over the same dataset
    hit the cache instead of regenerating it per game; the array is
    marked read-only because it is shared.  It is also keyed
    (:func:`~repro.core.domain.key_reference`): the fits and streams
    built on it pickle ``(name, size)`` and a content digest instead of
    its rows, and unpickle onto this function's array again.
    """
    return _load_reference_cached(name, None if size is None else int(size))


@dataclass(frozen=True)
class GameSpec:
    """Complete, picklable description of one collection game.

    Parameters mirror :class:`~repro.core.engine.CollectionGame`, with
    live objects replaced by :class:`ComponentSpec` recipes and the
    benign stream replaced by a dataset registry name.  ``tags`` is
    free-form labeling (scheme name, attack ratio, repetition index …)
    that sweep reducers use to place the cell in an aggregate table.
    """

    collector: ComponentSpec
    adversary: ComponentSpec
    dataset: str = "control"
    dataset_size: Optional[int] = None
    attack_ratio: float = 0.2
    injection_mode: str = "radial"
    injection_jitter: float = 0.01
    trimmer: ComponentSpec = field(
        default_factory=lambda: ComponentSpec(RadialTrimmer)
    )
    quality: Optional[ComponentSpec] = None
    judge: Optional[ComponentSpec] = None
    rounds: int = 20
    batch_size: int = 100
    anchor: str = "reference"
    store_retained: bool = True
    seed: SeedLike = 0
    tags: Mapping[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def seed_sequence(self) -> np.random.SeedSequence:
        """The spec's root :class:`~numpy.random.SeedSequence`."""
        return _root_seed(self.seed)

    def child_seed(self, channel: int) -> np.random.SeedSequence:
        """Deterministic, collision-free child seed for one channel.

        Equivalent to ``SeedSequence.spawn`` — the channel index extends
        the spawn key — but stateless, so the same channel always yields
        the same child no matter how many were derived before it.
        """
        return _child_seed(self.seed, channel)

    def with_tags(self, **tags: Any) -> "GameSpec":
        """A copy of the spec with extra tags merged in."""
        merged = dict(self.tags)
        merged.update(tags)
        return replace(self, tags=merged)

    # ------------------------------------------------------------------ #
    def build(self) -> CollectionGame:
        """Materialize the game: load data, build components, wire engine.

        Every seeded component draws from its own derivation channel.
        The dataset is the process-cached read-only array, so every game
        built on it shares one reference fit per score family.
        """
        data = load_reference(self.dataset, self.dataset_size)
        return CollectionGame(
            source=ArrayStream(
                data,
                batch_size=self.batch_size,
                seed=self.child_seed(SOURCE_CHANNEL),
            ),
            collector=self.collector.build(
                self.child_seed(COLLECTOR_CHANNEL)
            ),
            adversary=self.adversary.build(
                self.child_seed(ADVERSARY_CHANNEL)
            ),
            injector=PoisonInjector(
                attack_ratio=self.attack_ratio,
                jitter=self.injection_jitter,
                mode=self.injection_mode,
                seed=self.child_seed(INJECTOR_CHANNEL),
            ),
            trimmer=self.trimmer.build(),
            reference=data,
            quality_evaluator=(
                None if self.quality is None
                else self.quality.build(self.child_seed(QUALITY_CHANNEL))
            ),
            judge=(
                None if self.judge is None
                else self.judge.build(self.child_seed(JUDGE_CHANNEL))
            ),
            rounds=self.rounds,
            anchor=self.anchor,
            store_retained=self.store_retained,
        )

    def play(self) -> GameResult:
        """Build and run the game to completion."""
        return self.build().run()

    def session(
        self,
        horizon: Union[int, str, None] = "rounds",
        payoff_model: Any = None,
    ) -> "GameSession":
        """Open a live :class:`~repro.core.session.GameSession` of this cell.

        Builds the game and hands its stream to the session
        (``attach_source=True``), so ``submit()`` with no batch serves
        the spec's own traffic — the entry point
        :class:`~repro.serving.DefenseService` tenants are opened
        through.  ``horizon`` defaults to the spec's ``rounds``; pass
        ``None`` for an open-ended session.
        """
        return self.build().session(
            horizon=self.rounds if horizon == "rounds" else horizon,
            payoff_model=payoff_model,
            attach_source=True,
        )


@dataclass(frozen=True)
class TaskSpec:
    """A generic, picklable compute cell for non-game sweeps.

    Not every paper artifact is a collection game: Table IV iterates the
    coupled Elastic responses analytically, Fig. 9 plays LDP reporting
    rounds, and the classifier panels wrap whole train/evaluate runs.  A
    ``TaskSpec`` carries such cells through the same
    :class:`~repro.runtime.runner.SweepRunner` /
    :class:`~repro.runtime.store.ResultStore` machinery as
    :class:`GameSpec` cells: ``task`` is a :class:`ComponentSpec` whose
    *build is the computation* — ``play()`` evaluates
    ``task.build(seed)`` and the returned value is the cell's record
    (the runner applies no default reducer to task cells).

    ``seed`` mirrors :class:`GameSpec`: ``None`` for deterministic
    tasks, otherwise the root :class:`~numpy.random.SeedSequence` the
    task consumes (via a ``seeded=True`` recipe or the fixed
    :func:`child_seed` channels).  ``tags`` is free-form labeling for
    aggregation, exactly as on :class:`GameSpec`.
    """

    task: ComponentSpec
    seed: Optional[SeedLike] = None
    tags: Mapping[str, Any] = field(default_factory=dict)

    def seed_sequence(self) -> Optional[np.random.SeedSequence]:
        """The spec's root seed, or ``None`` for deterministic tasks."""
        return None if self.seed is None else _root_seed(self.seed)

    def child_seed(self, channel: int) -> np.random.SeedSequence:
        """Deterministic child seed for one channel (see ``GameSpec``)."""
        if self.seed is None:
            raise ValueError("a seedless TaskSpec has no child seeds")
        return _child_seed(self.seed, channel)

    def with_tags(self, **tags: Any) -> "TaskSpec":
        """A copy of the spec with extra tags merged in."""
        merged = dict(self.tags)
        merged.update(tags)
        return replace(self, tags=merged)

    def play(self) -> Any:
        """Evaluate the task; the return value is the cell's record."""
        return self.task.build(self.seed_sequence())


# --------------------------------------------------------------------- #
# lockstep play: many specs of one fusion family, one batched game
# --------------------------------------------------------------------- #
def rep_group_key(spec: GameSpec) -> tuple:
    """Everything about a spec *except* its seed and tags.

    Two specs with equal keys describe the same game cell played under
    different randomness — exactly the repetitions of one sweep cell.
    Compare keys with :func:`rep_keys_equal` (component specs hold dict
    kwargs, so keys are not hashable).
    """
    return (
        spec.collector,
        spec.adversary,
        spec.dataset,
        spec.dataset_size,
        spec.attack_ratio,
        spec.injection_mode,
        spec.injection_jitter,
        spec.trimmer,
        spec.quality,
        spec.judge,
        spec.rounds,
        spec.batch_size,
        spec.anchor,
        spec.store_retained,
    )


def rep_keys_equal(a: tuple, b: tuple) -> bool:
    """Safe equality between two :func:`rep_group_key` tuples.

    Component specs may carry ndarray kwargs (e.g. reference centroids),
    whose ``==`` yields an elementwise array and makes the tuple
    comparison raise.  Such specs conservatively compare unequal unless
    they are the very same objects (which grid expansion guarantees for
    a cell's repetitions) — the group degrades to singletons instead of
    crashing.
    """
    try:
        return bool(a == b)
    except ValueError:  # ambiguous ndarray truth value inside kwargs
        return all(x is y for x, y in zip(a, b, strict=False))


def fusion_group_key(spec: GameSpec) -> tuple:
    """The lockstep *family* of a spec: what must match for lanes to fuse.

    Strictly coarser than :func:`rep_group_key`: strategies, dataset,
    attack ratio, jitter, horizon and seed may all differ lane to lane —
    the lane programs (:mod:`repro.core.fusion`) pack them into per-lane
    parameter columns — but the stacked kernels need one injection mode,
    one trimmer/quality/judge *class* and one batch geometry across the
    cohort.  Compare keys with :func:`rep_keys_equal` (component
    factories may be any callables).
    """
    return (
        "fusion/v1",
        spec.injection_mode,
        spec.trimmer.factory,
        None if spec.quality is None else spec.quality.factory,
        None if spec.judge is None else spec.judge.factory,
        spec.batch_size,
        spec.anchor,
        spec.store_retained,
    )


def play_rep_batch(specs: Iterable[GameSpec]) -> List[GameResult]:
    """Play R same-cell specs in lockstep; one result per spec, in order.

    Checks that the specs differ only in seed and tags, then plays them
    through :func:`play_fused_batch`.  Each returned
    :class:`~repro.core.engine.GameResult` is byte-identical to the
    corresponding ``spec.play()``.
    """
    specs = list(specs)
    for other in specs[1:]:
        if not rep_keys_equal(rep_group_key(other), rep_group_key(specs[0])):
            raise ValueError(
                "rep-batched specs must agree on everything except seed "
                "and tags"
            )
    return play_fused_batch(specs)


def play_fused_batch(specs: Iterable[GameSpec]) -> List[GameResult]:
    """Play L same-*family* specs in lockstep; results in spec order.

    The specs may differ in strategies, attack ratios, datasets and
    horizons.  They split by horizon and dataset; a part of one spec
    plays solo, and a larger part — whose specs must share a
    :func:`fusion_group_key` — plays as one
    :class:`~repro.core.engine.BatchedCollectionGame` of the games its
    specs ``build()``.  Every returned
    :class:`~repro.core.engine.GameResult` is byte-identical to the
    corresponding solo ``spec.play()``.
    """
    specs = list(specs)
    parts: Dict[tuple, List[int]] = {}
    for slot, spec in enumerate(specs):
        parts.setdefault(
            (spec.rounds, spec.dataset, spec.dataset_size), []
        ).append(slot)
    results: List[Any] = [None] * len(specs)
    for slots in parts.values():
        part = [specs[s] for s in slots]
        if len(part) == 1:
            played = [part[0].play()]
        else:
            family = fusion_group_key(part[0])
            if not all(
                rep_keys_equal(fusion_group_key(spec), family)
                for spec in part[1:]
            ):
                raise ValueError(
                    "lockstep specs of one horizon and dataset must agree "
                    "on the fusion family"
                )
            played = BatchedCollectionGame([spec.build() for spec in part]).run()
        for slot, result in zip(slots, played, strict=True):
            results[slot] = result
    return results

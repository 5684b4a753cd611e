"""Layer 2 — the registry conformance auditor.

The AST linter checks source *text*; this module imports the live
registries and checks the protocol lattice the type system can't
express:

* **CONF001** — every shipped collector/adversary class has a
  registered array-native lane in ``strategies/batched.py`` (a strategy
  without a lane silently falls back to the per-rep loop, losing the
  batched-equals-solo guarantee's cheap half and hiding perf bugs);
* **CONF002** — every stateful component survives the round trip a
  session restore performs: drive a canonical instance mid-game, clone
  it through the snapshot's own pickler and demand byte-identical
  continued play and re-exported state.  A component that cannot be
  pickled, or whose ``__getstate__`` drops a counter or a Generator,
  fails here, and so does one whose ``export_state()`` audit view
  leaves out a Generator's bit-state.  Every state-exporting class must
  have a canonical recipe — a new component cannot ship unexercised;
* **CONF003** — every ``ComponentSpec`` reachable from the shipped
  scenario plans and scheme recipes is importable and picklable, and
  every planned ``GameSpec`` fingerprint is byte-stable across two
  fresh subprocesses run under *different* ``PYTHONHASHSEED`` values
  (the store's cache keys must not depend on process state);
* **CONF004** — ``score_kind`` / ``accepts_scores`` pairs are
  commensurable: when an evaluator claims it can reuse a trimmer's
  batch scores, scoring with and without the shared scores must be
  exactly equal (the engine's score-sharing fast path rides on this);
* **CONF005** — the :data:`~repro.core.session.SNAPSHOT_FORMAT` snapshot
  envelope covers every state-exporting class: anything defining
  ``export_state`` must be carried by one of the session's seven roles
  (collector, adversary, injector, trimmer, quality, judge, source) or
  be a known nested sub-state of one, else snapshots silently drop its
  state;
* **CONF006** — every *registered* lane class declares its fusion
  contract: a non-empty ``fusion_family`` (the strategy family the
  cross-cell fusion planner groups by) and a ``fusion_params`` tuple
  naming the per-lane attributes it packs into ``(L,)`` parameter
  columns.  Families must be unique per side — one family, one vector
  program — or the planner's cohort keys stop meaning anything.

The auditor is deliberately *live*: it instantiates real components and
plans real scenarios, so it doubles as an import smoke test for the
whole registry surface.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .diagnostics import Diagnostic, Severity

__all__ = [
    "ConformanceAuditor",
    "CANONICAL_RECIPES",
    "register_recipe",
]


# --------------------------------------------------------------------- #
# canonical recipes
# --------------------------------------------------------------------- #
def _normal_factory(rng: np.random.Generator, n: int) -> np.ndarray:
    """Module-level (hence picklable) GeneratorStream payload factory."""
    return rng.normal(loc=0.5, scale=0.1, size=n)


def _default_recipes() -> Dict[type, List[Callable[[], object]]]:
    from ..core.engine import BandExcessJudge, NoisyPositionJudge
    from ..core.strategies import (
        ElasticAdversary,
        ElasticCollector,
        FixedAdversary,
        GenerousCollector,
        JustBelowAdversary,
        MirrorCollector,
        MixedAdversary,
        NullAdversary,
        OstrichCollector,
        StaticCollector,
        TitForTatCollector,
        TitForTwoTatsCollector,
        UniformRangeAdversary,
    )
    from ..core.strategies.titfortat import MixedStrategyTrigger, QualityTrigger
    from ..streams.source import ArrayStream, GeneratorStream

    return {
        OstrichCollector: [lambda: OstrichCollector()],
        StaticCollector: [lambda: StaticCollector(threshold=0.9)],
        TitForTatCollector: [
            lambda: TitForTatCollector(t_th=0.9),
            # Trigger-equipped variants exercise the nested trigger
            # state (QualityTrigger / MixedStrategyTrigger round-trips
            # ride through the owning collector's export_state).
            lambda: TitForTatCollector(
                t_th=0.9,
                trigger=QualityTrigger(reference_score=0.5, redundancy=0.05),
            ),
            lambda: TitForTatCollector(
                t_th=0.9,
                trigger=MixedStrategyTrigger(
                    equilibrium_probability=0.8, warmup=2
                ),
            ),
        ],
        ElasticCollector: [lambda: ElasticCollector(t_th=0.9, k=0.1)],
        MirrorCollector: [lambda: MirrorCollector(t_th=0.9)],
        GenerousCollector: [lambda: GenerousCollector(t_th=0.9, seed=11)],
        TitForTwoTatsCollector: [lambda: TitForTwoTatsCollector(t_th=0.9)],
        NullAdversary: [lambda: NullAdversary()],
        FixedAdversary: [lambda: FixedAdversary(percentile=0.99)],
        UniformRangeAdversary: [lambda: UniformRangeAdversary(seed=3)],
        MixedAdversary: [lambda: MixedAdversary(p=0.5, seed=5)],
        JustBelowAdversary: [lambda: JustBelowAdversary(initial_threshold=0.9)],
        ElasticAdversary: [lambda: ElasticAdversary(t_th=0.9, k=0.1)],
        BandExcessJudge: [lambda: BandExcessJudge(seed=13)],
        NoisyPositionJudge: [lambda: NoisyPositionJudge(boundary=0.9, seed=17)],
        ArrayStream: [
            lambda: ArrayStream(np.linspace(0.0, 1.0, 100), 10, seed=23)
        ],
        GeneratorStream: [
            lambda: GeneratorStream(_normal_factory, 10, seed=29)
        ],
    }


#: class -> list of zero-arg factories building canonical instances.
#: The auditor drives each one through a mid-game snapshot pickle
#: round-trip; tests may :func:`register_recipe` additional entries.
CANONICAL_RECIPES: Dict[type, List[Callable[[], object]]] = {}


def register_recipe(cls: type, factory: Callable[[], object]) -> None:
    """Register a canonical-instance factory for the round-trip audit."""
    CANONICAL_RECIPES.setdefault(cls, []).append(factory)


def _recipes() -> Dict[type, List[Callable[[], object]]]:
    merged = _default_recipes()
    from ..streams.injection import PoisonInjector

    merged[PoisonInjector] = [
        lambda: PoisonInjector(attack_ratio=0.05, seed=19)
    ]
    for cls, factories in CANONICAL_RECIPES.items():
        merged.setdefault(cls, []).extend(factories)
    return merged


#: State-exporting classes that live *inside* another component's
#: export_state (and are exercised through it) rather than holding a
#: session role of their own.
_NESTED_STATE_CLASSES = {"QualityTrigger", "MixedStrategyTrigger"}

#: Abstract protocol bases: define the export_state contract but are
#: never shipped as concrete components.
_PROTOCOL_BASES = {
    "CollectorStrategy",
    "AdversaryStrategy",
    "StreamSource",
    "QualityEvaluator",
    "Trimmer",
}


# --------------------------------------------------------------------- #
# role drivers
# --------------------------------------------------------------------- #
_REFERENCE = np.linspace(0.0, 1.0, 200)
_BATCH = np.concatenate([np.linspace(0.05, 0.95, 45), np.full(5, 0.99)])


def _observation(index: int):
    from ..core.strategies.base import RoundObservation

    return RoundObservation(
        index=index,
        trim_percentile=0.9 + 0.01 * (index % 5),
        injection_percentile=0.99 - 0.005 * (index % 3),
        quality=0.8 - 0.1 * (index % 4),
        observed_poison_ratio=0.01 * (index % 6),
        betrayal=index % 3 == 1,
    )


class _Driver:
    """Role-specific calibrate/advance hooks for the round-trip audit."""

    def calibrate(self, instance) -> None:  # pre-game setup; the clone inherits it
        pass

    def advance(self, instance, start: int, steps: int) -> list:
        raise NotImplementedError


def _as_float(value) -> Optional[float]:
    # NullAdversary returns None ("inject nothing") — a legal percentile.
    return None if value is None else float(value)


def _canonical(value) -> str:
    """Byte-stable rendering of play traces and exported states.

    Routed through the store's canonicalizer so ndarrays, numpy scalars
    and nested dicts compare by content, with exact float identity — the
    byte-identity contract, not approximate closeness.
    """
    from ..runtime.store import _canon, canonical_json

    return canonical_json(_canon(value))


def _fingerprint(spec):
    """Canonical fingerprint of a GameSpec/TaskSpec or bare ComponentSpec."""
    from ..runtime.spec import GameSpec, TaskSpec
    from ..runtime.store import _canon, spec_fingerprint

    if isinstance(spec, (GameSpec, TaskSpec)):
        return spec_fingerprint(spec)
    return _canon(spec)


class _StrategyDriver(_Driver):
    def advance(self, instance, start: int, steps: int) -> list:
        outputs = []
        if start == 0:
            instance.reset()
            outputs.append(_as_float(instance.first()))
        for i in range(start, start + steps):
            outputs.append(_as_float(instance.react(_observation(i))))
        return outputs


class _JudgeDriver(_Driver):
    def calibrate(self, instance) -> None:
        instance.fit(_REFERENCE)

    def advance(self, instance, start: int, steps: int) -> list:
        outputs = []
        for i in range(start, start + steps):
            retained = _BATCH * (1.0 - 0.001 * (i % 7))
            outputs.append(
                bool(instance.judge_round(0.99 - 0.01 * (i % 3), retained))
            )
        return outputs


class _InjectorDriver(_Driver):
    def calibrate(self, instance) -> None:
        instance.fit_reference(_REFERENCE)

    def advance(self, instance, start: int, steps: int) -> list:
        outputs = []
        for i in range(start, start + steps):
            benign = _BATCH * (1.0 - 0.001 * (i % 5))
            outputs.append(instance.materialize(benign, 0.99))
        return outputs


class _StreamDriver(_Driver):
    def advance(self, instance, start: int, steps: int) -> list:
        if start == 0:
            instance.reset()
        return [np.asarray(instance.next_batch()) for _ in range(steps)]


def _driver_for(cls: type) -> Optional[_Driver]:
    from ..core.engine import BandExcessJudge, NoisyPositionJudge
    from ..core.strategies.base import AdversaryStrategy, CollectorStrategy
    from ..streams.injection import PoisonInjector
    from ..streams.source import StreamSource

    if issubclass(cls, (CollectorStrategy, AdversaryStrategy)):
        return _StrategyDriver()
    if issubclass(cls, (BandExcessJudge, NoisyPositionJudge)):
        return _JudgeDriver()
    if issubclass(cls, PoisonInjector):
        return _InjectorDriver()
    if issubclass(cls, StreamSource):
        return _StreamDriver()
    return None


# --------------------------------------------------------------------- #
# the auditor
# --------------------------------------------------------------------- #
class ConformanceAuditor:
    """Run the CONF001–CONF007 checks over the live registries.

    ``extra_strategies`` lets tests inject additional strategy classes
    into the audited set (e.g. a deliberately broken one); ``checks``
    restricts the run to a subset of check ids.
    """

    def __init__(
        self,
        extra_strategies: Iterable[type] = (),
        checks: Optional[Iterable[str]] = None,
        subprocess_checks: bool = True,
    ):
        self.extra_strategies = list(extra_strategies)
        self.checks = set(checks) if checks is not None else None
        self.subprocess_checks = subprocess_checks

    # ------------------------------------------------------------------ #
    def audit(self) -> List[Diagnostic]:
        """Every conformance finding, sorted for stable output."""
        findings: List[Diagnostic] = []
        for check_id, check in (
            ("CONF001", self.check_lane_coverage),
            ("CONF002", self.check_state_round_trips),
            ("CONF003", self.check_component_specs),
            ("CONF004", self.check_score_commensurability),
            ("CONF005", self.check_envelope_coverage),
            ("CONF006", self.check_fusion_declarations),
            ("CONF007", self.check_golden_transcript),
        ):
            if self.checks is not None and check_id not in self.checks:
                continue
            findings.extend(check())
        return sorted(findings)

    @staticmethod
    def _finding(
        rule: str, cls: Optional[type], message: str, hint: str
    ) -> Diagnostic:
        path = "<registry>"
        line = 1
        if cls is not None:
            try:
                path = inspect.getsourcefile(cls) or path
                line = inspect.getsourcelines(cls)[1]
            except (OSError, TypeError):
                pass
        return Diagnostic(
            path=path,
            line=line,
            column=1,
            rule=rule,
            severity=Severity.ERROR,
            message=message,
            hint=hint,
        )

    # ------------------------------------------------------------------ #
    def _shipped_strategies(self) -> Tuple[List[type], List[type]]:
        import repro.core.strategies as strategies_pkg

        from ..core.strategies.base import AdversaryStrategy, CollectorStrategy

        collectors: List[type] = []
        adversaries: List[type] = []
        candidates = [
            obj
            for _, obj in inspect.getmembers(strategies_pkg, inspect.isclass)
        ] + self.extra_strategies
        for obj in candidates:
            if obj in (CollectorStrategy, AdversaryStrategy):
                continue
            if inspect.isabstract(obj):
                continue
            if issubclass(obj, CollectorStrategy):
                collectors.append(obj)
            elif issubclass(obj, AdversaryStrategy):
                adversaries.append(obj)
        return collectors, adversaries

    def check_lane_coverage(self) -> Iterator[Diagnostic]:
        """CONF001 — every shipped strategy has a batched lane."""
        from ..core.strategies import batched

        collectors, adversaries = self._shipped_strategies()
        for cls, registry, register in (
            *((c, batched._COLLECTOR_LANES, "register_collector_lanes") for c in collectors),
            *((a, batched._ADVERSARY_LANES, "register_adversary_lanes") for a in adversaries),
        ):
            if cls not in registry:
                yield self._finding(
                    "CONF001",
                    cls,
                    f"strategy `{cls.__name__}` has no array-native lane "
                    "registered in strategies/batched.py",
                    f"implement a lanes class and call {register}() "
                    "(or accept the fallback loop explicitly by "
                    "registering the fallback)",
                )

    # ------------------------------------------------------------------ #
    def check_state_round_trips(self) -> Iterator[Diagnostic]:
        """CONF002 — canonical instances pickle mid-game byte-identically."""
        recipes = _recipes()
        collectors, adversaries = self._shipped_strategies()
        for cls in [*collectors, *adversaries]:
            if cls not in recipes:
                yield self._finding(
                    "CONF002",
                    cls,
                    f"strategy `{cls.__name__}` has no canonical recipe — "
                    "its snapshot round-trip is unexercised",
                    "add a factory to analysis.conformance.CANONICAL_RECIPES "
                    "via register_recipe()",
                )

        for cls, factories in sorted(
            recipes.items(), key=lambda item: item[0].__name__
        ):
            driver = _driver_for(cls)
            if driver is None:
                yield self._finding(
                    "CONF002",
                    cls,
                    f"no round-trip driver for `{cls.__name__}` "
                    "(unknown role)",
                    "extend analysis.conformance._driver_for for its role",
                )
                continue
            for idx, factory in enumerate(factories):
                try:
                    finding = self._round_trip(cls, idx, factory, driver)
                except Exception as exc:  # audit must report, not crash
                    finding = self._finding(
                        "CONF002",
                        cls,
                        f"round-trip of `{cls.__name__}` (recipe {idx}) "
                        f"raised {type(exc).__name__}: {exc}",
                        "a session snapshot pickles the component: it must "
                        "hold no lambda, lock or open file, or the tenant "
                        "can never be evicted",
                    )
                if finding is not None:
                    yield finding

    def _round_trip(
        self, cls: type, idx: int, factory: Callable[[], object], driver: _Driver
    ) -> Optional[Diagnostic]:
        from ..core.session import _snapshot_bytes
        from ..core.strategies.base import rng_state

        warmup, continuation = 5, 4
        original = factory()
        if not callable(getattr(original, "export_state", None)):
            return self._finding(
                "CONF002",
                cls,
                f"`{cls.__name__}` does not implement export_state()",
                "implement the state protocol so sessions can snapshot it",
            )
        driver.calibrate(original)
        driver.advance(original, 0, warmup)
        exported = _canonical(original.export_state())
        for attr, value in getattr(original, "__dict__", {}).items():
            if isinstance(value, np.random.Generator) and (
                _canonical(rng_state(value)) not in exported
            ):
                return self._finding(
                    "CONF002",
                    cls,
                    f"`{cls.__name__}` (recipe {idx}) export_state() does "
                    f"not carry the bit-state of its Generator `{attr}`",
                    "export rng_state() of every Generator: state_dict() "
                    "and the golden transcript read export_state()",
                )
        clone = pickle.loads(_snapshot_bytes({"component": original}))["component"]
        got = driver.advance(clone, warmup, continuation)
        want = driver.advance(original, warmup, continuation)
        if _canonical(got) != _canonical(want):
            return self._finding(
                "CONF002",
                cls,
                f"`{cls.__name__}` (recipe {idx}) diverges after a "
                "snapshot pickle round-trip: continued play is not "
                "byte-identical",
                "a restore seats the unpickled component as it is: "
                "pickle every mutable attribute (RNG bit-generator state, "
                "counters, trigger sub-state), including through "
                "__getstate__/__setstate__",
            )
        if _canonical(original.export_state()) != _canonical(
            clone.export_state()
        ):
            return self._finding(
                "CONF002",
                cls,
                f"`{cls.__name__}` (recipe {idx}) re-exported state "
                "differs between original and restored clone",
                "export_state() must be a pure function of the component's "
                "mutable state",
            )
        return None

    # ------------------------------------------------------------------ #
    def _harvest_game_specs(self) -> List[Tuple[str, object]]:
        """(origin, GameSpec) pairs from every scenario plan + scheme."""
        from ..experiments.schemes import SCHEMES, scheme_specs
        from ..scenarios import get_scenario, scenario_names

        harvested: List[Tuple[str, object]] = []
        for name in scenario_names():
            scenario = get_scenario(name)
            plan = scenario.plan(scenario.resolve_params("quick", {}))
            for i, spec in enumerate(plan.specs):
                game = getattr(spec, "game", None) or spec
                harvested.append((f"scenario:{name}[{i}]", game))
        for scheme in SCHEMES:
            collector_spec, adversary_spec = scheme_specs(scheme, 0.9)
            harvested.append((f"scheme:{scheme}:collector", collector_spec))
            harvested.append((f"scheme:{scheme}:adversary", adversary_spec))
        return harvested

    def check_component_specs(self) -> Iterator[Diagnostic]:
        """CONF003 — spec importability, picklability, fingerprint stability."""
        from ..runtime.spec import ComponentSpec
        from ..runtime.store import canonical_json

        try:
            harvested = self._harvest_game_specs()
        except Exception as exc:
            yield self._finding(
                "CONF003",
                None,
                f"harvesting scenario plans failed: "
                f"{type(exc).__name__}: {exc}",
                "every shipped scenario must plan cleanly at quick scale",
            )
            return

        component_specs: List[Tuple[str, ComponentSpec]] = []
        for origin, spec in harvested:
            if isinstance(spec, ComponentSpec):
                component_specs.append((origin, spec))
                continue
            for field in ("collector", "adversary", "trimmer", "quality", "judge"):
                sub = getattr(spec, field, None)
                if isinstance(sub, ComponentSpec):
                    component_specs.append((f"{origin}.{field}", sub))

        seen: set = set()
        for origin, cspec in component_specs:
            factory = cspec.factory
            key = (getattr(factory, "__module__", None), getattr(factory, "__qualname__", None))
            if key in seen:
                continue
            seen.add(key)
            module_name, qualname = key
            if module_name is None or qualname is None or "<locals>" in qualname:
                yield self._finding(
                    "CONF003",
                    None,
                    f"{origin}: ComponentSpec factory {factory!r} is not "
                    "importable (no stable module/qualname)",
                    "use a module-level class or function as the factory",
                )
                continue
            try:
                module = importlib.import_module(module_name)
                resolved = module
                for part in qualname.split("."):
                    resolved = getattr(resolved, part)
            except (ImportError, AttributeError) as exc:
                yield self._finding(
                    "CONF003",
                    None,
                    f"{origin}: factory `{module_name}.{qualname}` does not "
                    f"re-import ({exc})",
                    "the factory must be reachable by import for workers "
                    "and cache replay",
                )
                continue
            if resolved is not factory:
                yield self._finding(
                    "CONF003",
                    None,
                    f"{origin}: `{module_name}.{qualname}` re-imports to a "
                    "different object than the registered factory",
                    "register the canonical module-level object",
                )
            try:
                restored = pickle.loads(pickle.dumps(cspec))
                if canonical_json(_fingerprint(restored)) != canonical_json(
                    _fingerprint(cspec)
                ):
                    yield self._finding(
                        "CONF003",
                        None,
                        f"{origin}: ComponentSpec fingerprint changes across "
                        "a pickle round-trip",
                        "spec kwargs must be plain picklable data",
                    )
            except Exception as exc:
                yield self._finding(
                    "CONF003",
                    None,
                    f"{origin}: ComponentSpec does not pickle "
                    f"({type(exc).__name__}: {exc})",
                    "spec kwargs must be plain picklable data",
                )

        if self.subprocess_checks:
            yield from self._check_cross_process_fingerprints(harvested)

    def _check_cross_process_fingerprints(
        self, harvested: List[Tuple[str, object]]
    ) -> Iterator[Diagnostic]:
        """Fingerprints must agree across differently-salted processes."""
        from ..runtime.store import canonical_json

        # Dedup by in-process fingerprint to bound subprocess work.
        unique: List[Tuple[str, object]] = []
        seen: set = set()
        for origin, spec in harvested:
            try:
                key = canonical_json(_fingerprint(spec))
            except Exception as exc:
                yield self._finding(
                    "CONF003",
                    None,
                    f"{origin}: spec_fingerprint failed "
                    f"({type(exc).__name__}: {exc})",
                    "every planned spec must fingerprint cleanly",
                )
                continue
            if key not in seen:
                seen.add(key)
                unique.append((origin, spec))

        child = (
            "import pickle, sys\n"
            "from hashlib import sha256\n"
            "from repro.analysis.conformance import _fingerprint\n"
            "from repro.runtime.store import canonical_json\n"
            "with open(sys.argv[1], 'rb') as fh:\n"
            "    specs = pickle.load(fh)\n"
            "for origin, spec in specs:\n"
            "    digest = sha256(\n"
            "        canonical_json(_fingerprint(spec)).encode()\n"
            "    ).hexdigest()\n"
            "    print(origin, digest)\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            blob = Path(tmp) / "specs.pkl"
            blob.write_bytes(pickle.dumps(unique))
            outputs = []
            for hashseed in ("0", "1"):
                env = dict(os.environ)
                env["PYTHONHASHSEED"] = hashseed
                src_root = Path(__file__).resolve().parents[2]
                env["PYTHONPATH"] = (
                    f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
                )
                proc = subprocess.run(
                    [sys.executable, "-c", child, str(blob)],
                    capture_output=True,
                    text=True,
                    env=env,
                )
                if proc.returncode != 0:
                    yield self._finding(
                        "CONF003",
                        None,
                        "fingerprint subprocess failed: "
                        + proc.stderr.strip().splitlines()[-1],
                        "specs must fingerprint in a fresh interpreter",
                    )
                    return
                outputs.append(proc.stdout.strip().splitlines())
        for (origin, _), line_a, line_b in zip(unique, *outputs, strict=False):
            if line_a != line_b:
                yield self._finding(
                    "CONF003",
                    None,
                    f"{origin}: spec fingerprint differs between two fresh "
                    "subprocesses with different PYTHONHASHSEED — a cache "
                    "key depends on process state",
                    "remove hash()/set-order/id() dependence from the "
                    "fingerprint path",
                )

    # ------------------------------------------------------------------ #
    def check_score_commensurability(self) -> Iterator[Diagnostic]:
        """CONF004 — accepts_scores claims imply exact score equality."""
        from ..core.quality import (
            KolmogorovSmirnovEvaluator,
            MeanShiftEvaluator,
            TailMassEvaluator,
        )
        from ..core.trimming import RadialTrimmer, ValueTrimmer

        trimmers = [ValueTrimmer(), RadialTrimmer()]
        evaluators = [
            TailMassEvaluator(),
            MeanShiftEvaluator(),
            KolmogorovSmirnovEvaluator(),
        ]
        for evaluator in evaluators:
            evaluator.fit(_REFERENCE)
            if evaluator.accepts_scores(None):
                yield self._finding(
                    "CONF004",
                    type(evaluator),
                    f"`{type(evaluator).__name__}.accepts_scores(None)` is "
                    "True: it claims compatibility with an unknown score "
                    "kind",
                    "accepts_scores must reject score_kind=None",
                )
            for trimmer in trimmers:
                trimmer.fit_reference(_REFERENCE)
                claims = evaluator.accepts_scores(trimmer.score_kind)
                if not claims:
                    continue
                shared = trimmer.scores(_BATCH)
                with_shared = evaluator.score(_BATCH, scores=shared)
                without = evaluator.score(_BATCH)
                if with_shared != without:
                    yield self._finding(
                        "CONF004",
                        type(evaluator),
                        f"`{type(evaluator).__name__}` accepts "
                        f"score_kind={trimmer.score_kind!r} from "
                        f"`{type(trimmer).__name__}` but scoring with the "
                        f"shared scores differs ({with_shared!r} != "
                        f"{without!r})",
                        "either make score(batch, scores=...) exactly equal "
                        "to score(batch) or stop accepting that score_kind",
                    )

    # ------------------------------------------------------------------ #
    def check_envelope_coverage(self) -> Iterator[Diagnostic]:
        """CONF005 — every state-exporting class fits a session role."""
        import repro

        from ..core.engine import BandExcessJudge, NoisyPositionJudge
        from ..core.quality import QualityEvaluator
        from ..core.session import SNAPSHOT_FORMAT
        from ..core.strategies.base import AdversaryStrategy, CollectorStrategy
        from ..core.trimming import Trimmer
        from ..streams.injection import PoisonInjector
        from ..streams.source import StreamSource

        role_bases = (
            CollectorStrategy,
            AdversaryStrategy,
            StreamSource,
            QualityEvaluator,
            Trimmer,
            PoisonInjector,
            BandExcessJudge,
            NoisyPositionJudge,
        )

        for module in self._walk_repro_modules(repro):
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ != module.__name__:
                    continue
                if "export_state" not in cls.__dict__:
                    continue
                if cls.__name__ in _PROTOCOL_BASES:
                    continue
                if cls.__name__ in _NESTED_STATE_CLASSES:
                    continue
                if issubclass(cls, role_bases):
                    continue
                yield self._finding(
                    "CONF005",
                    cls,
                    f"`{cls.__name__}` exports state but fits none of the "
                    f"{SNAPSHOT_FORMAT} envelope roles — snapshots would "
                    "silently drop its state",
                    "attach it to a session role (collector/adversary/"
                    "injector/trimmer/quality/judge/source) or register it "
                    "as nested sub-state of one",
                )

    # ------------------------------------------------------------------ #
    def check_fusion_declarations(self) -> Iterator[Diagnostic]:
        """CONF006 — registered lane classes declare the fusion contract."""
        from ..core.strategies import batched

        for side, registry in (
            ("collector", batched._COLLECTOR_LANES),
            ("adversary", batched._ADVERSARY_LANES),
        ):
            families: Dict[str, type] = {}
            seen: set = set()
            for lanes_cls in registry.values():
                if lanes_cls in seen:
                    continue
                seen.add(lanes_cls)
                family = getattr(lanes_cls, "fusion_family", "")
                if not isinstance(family, str) or not family:
                    yield self._finding(
                        "CONF006",
                        lanes_cls,
                        f"{side} lane `{lanes_cls.__name__}` declares no "
                        "fusion_family — the cross-cell fusion planner "
                        "cannot group its tenants",
                        "set fusion_family to the lane's strategy-family "
                        "name and list its (L,) parameter columns in "
                        "fusion_params",
                    )
                    continue
                params = getattr(lanes_cls, "fusion_params", None)
                if not isinstance(params, tuple) or not all(
                    isinstance(p, str) and p for p in params
                ):
                    yield self._finding(
                        "CONF006",
                        lanes_cls,
                        f"{side} lane `{lanes_cls.__name__}` fusion_params "
                        f"is not a tuple of column names (got {params!r})",
                        "name every per-lane attribute the lane packs into "
                        "an (L,) parameter column; use () for a lane with "
                        "no such columns",
                    )
                    continue
                other = families.setdefault(family, lanes_cls)
                if other is not lanes_cls:
                    yield self._finding(
                        "CONF006",
                        lanes_cls,
                        f"{side} lanes `{other.__name__}` and "
                        f"`{lanes_cls.__name__}` both declare "
                        f"fusion_family={family!r} — a family must map to "
                        "exactly one vector program",
                        "give each registered lane class a distinct "
                        "fusion_family",
                    )

    # ------------------------------------------------------------------ #
    def check_golden_transcript(self) -> Iterator[Diagnostic]:
        """CONF007 — the decision loop replays the golden transcript.

        Delegates to :mod:`repro.analysis.golden`: the canonical
        collector × adversary × judge matrix is replayed from frozen
        seeds and must reproduce the checked-in transcript
        byte-for-byte (thresholds, accept counts, judge verdicts and
        per-round state fingerprints).
        """
        from .golden import replay_golden

        yield from replay_golden()

    @staticmethod
    def _walk_repro_modules(package) -> Iterator[object]:
        prefix = package.__name__ + "."
        for info in pkgutil.walk_packages(package.__path__, prefix):
            if info.name.startswith("repro.analysis"):
                continue  # the auditor does not audit itself
            try:
                yield importlib.import_module(info.name)
            except Exception:
                # CONF checks import the registry surface; a module that
                # cannot import at all fails tier-1 long before this.
                continue

"""Conformance auditor: clean at HEAD, loud on a broken strategy."""

import numpy as np
import pytest

from repro.analysis.conformance import (
    CANONICAL_RECIPES,
    ConformanceAuditor,
    register_recipe,
)
from repro.core.strategies.base import CollectorStrategy, rng_state, set_rng_state


class BrokenCollector(CollectorStrategy):
    """Deliberately broken: no batched lane, RNG state not exported."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)

    def first(self):
        return 0.9

    def react(self, last):
        return float(self._rng.uniform(0.85, 0.95))

    # inherits the base's empty export_state(): the RNG position pickles
    # with the instance, but state_dict() and the golden transcript
    # never see it.


class FixedCollector(BrokenCollector):
    """BrokenCollector mended: its RNG is reset and exported."""

    def __init__(self, seed=0):
        self._seed = seed
        super().__init__(seed)

    def reset(self):
        self._rng = np.random.default_rng(self._seed)

    def export_state(self):
        return {"rng": rng_state(self._rng)}


class ReseedingCollector(FixedCollector):
    """Exports its RNG, but its pickle drops it and reseeds on load.

    Complete as state documents go (``import_state`` puts an exported
    RNG back on a fresh instance), yet a restore, which unpickles,
    resumes with the Generator back at its seed.
    """

    def import_state(self, state):
        set_rng_state(self._rng, state["rng"])

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_rng"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._rng = np.random.default_rng(self._seed)


def _conf002_findings(cls, factory):
    register_recipe(cls, factory)
    auditor = ConformanceAuditor(
        extra_strategies=[cls], checks={"CONF002"}, subprocess_checks=False
    )
    return [f for f in auditor.audit() if cls.__name__ in f.message]


@pytest.fixture()
def clean_recipes():
    """Isolate test-registered recipes from the global table."""
    saved = dict(CANONICAL_RECIPES)
    CANONICAL_RECIPES.clear()
    yield
    CANONICAL_RECIPES.clear()
    CANONICAL_RECIPES.update(saved)


def test_shipped_registry_is_conformant():
    findings = ConformanceAuditor(subprocess_checks=False).audit()
    assert findings == []


@pytest.mark.slow
def test_shipped_fingerprints_stable_across_subprocesses():
    findings = ConformanceAuditor(checks={"CONF003"}).audit()
    assert findings == []


def test_broken_strategy_missing_lane_reported(clean_recipes):
    auditor = ConformanceAuditor(
        extra_strategies=[BrokenCollector], checks={"CONF001"}
    )
    findings = auditor.audit()
    assert any(
        f.rule == "CONF001" and "BrokenCollector" in f.message
        for f in findings
    )


def test_broken_strategy_missing_recipe_reported(clean_recipes):
    auditor = ConformanceAuditor(
        extra_strategies=[BrokenCollector],
        checks={"CONF002"},
        subprocess_checks=False,
    )
    findings = auditor.audit()
    assert any(
        f.rule == "CONF002"
        and "BrokenCollector" in f.message
        and "recipe" in f.message
        for f in findings
    )


def test_broken_strategy_round_trip_divergence_reported(clean_recipes):
    findings = _conf002_findings(
        BrokenCollector, lambda: BrokenCollector(seed=7)
    )
    unexported = [
        f
        for f in findings
        if f.rule == "CONF002"
        and "bit-state" in f.message
        and "`_rng`" in f.message
    ]
    assert unexported, [f.message for f in findings]
    # The finding points at the class definition, not at <registry>.
    assert unexported[0].path.endswith("test_conformance.py")


def test_fixed_strategy_round_trip_passes(clean_recipes):
    findings = _conf002_findings(
        FixedCollector, lambda: FixedCollector(seed=7)
    )
    assert findings == []


def test_pickle_that_drops_the_rng_diverges(clean_recipes):
    findings = _conf002_findings(
        ReseedingCollector, lambda: ReseedingCollector(seed=7)
    )
    assert [f.rule for f in findings] == ["CONF002"]
    assert "diverges" in findings[0].message


def test_unpicklable_recipe_is_reported_not_raised(clean_recipes):
    # A tenant holding a lambda can never be snapshot, so never evicted.
    def with_hook():
        collector = FixedCollector(seed=7)
        collector.hook = lambda value: value
        return collector

    findings = _conf002_findings(FixedCollector, with_hook)
    assert [f.rule for f in findings] == ["CONF002"]
    assert "pickle" in findings[0].message.lower()
    assert "lambda" in findings[0].hint


def test_envelope_coverage_flags_orphan_state_class(clean_recipes, monkeypatch):
    from repro.core import quality
    from repro.core.trimming import Trimmer

    assert ConformanceAuditor(checks={"CONF005"}).audit() == []

    # A state-exporting class with no session role, placed in a module
    # the audit walks, is reported; a Trimmer placed there is not.
    class OrphanState:
        __module__ = quality.__name__

        def export_state(self):
            return {}

    class StatefulTrimmer(Trimmer):
        __module__ = quality.__name__

        def export_state(self):
            return {}

    for cls in (OrphanState, StatefulTrimmer):
        monkeypatch.setattr(quality, cls.__name__, cls, raising=False)
    findings = ConformanceAuditor(checks={"CONF005"}).audit()
    assert [f.rule for f in findings] == ["CONF005"]
    assert "`OrphanState`" in findings[0].message
    assert "StatefulTrimmer" not in findings[0].message


@pytest.fixture()
def lane_registry():
    """Scratch access to the lane registries with guaranteed cleanup."""
    from repro.core.strategies import batched

    added = []

    def register(strategy_cls, lanes_cls):
        batched._COLLECTOR_LANES[strategy_cls] = lanes_cls
        added.append(strategy_cls)

    yield register
    for strategy_cls in added:
        from repro.core.strategies import batched

        batched._COLLECTOR_LANES.pop(strategy_cls, None)


class TestFusionDeclarations:
    def test_shipped_lanes_declare_fusion_contract(self):
        assert ConformanceAuditor(checks={"CONF006"}).audit() == []

    def test_missing_family_reported(self, lane_registry):
        from repro.core.strategies.batched import CollectorLanes

        class _UndeclaredLanes(CollectorLanes):
            pass  # inherits the empty fusion_family default

        class _FakeCollector:
            pass

        lane_registry(_FakeCollector, _UndeclaredLanes)
        findings = ConformanceAuditor(checks={"CONF006"}).audit()
        assert any(
            f.rule == "CONF006"
            and "_UndeclaredLanes" in f.message
            and "fusion_family" in f.message
            for f in findings
        )

    def test_malformed_params_reported(self, lane_registry):
        from repro.core.strategies.batched import CollectorLanes

        class _BadParamsLanes(CollectorLanes):
            fusion_family = "bad-params"
            fusion_params = ["threshold"]  # list, not tuple

        class _FakeCollector:
            pass

        lane_registry(_FakeCollector, _BadParamsLanes)
        findings = ConformanceAuditor(checks={"CONF006"}).audit()
        assert any(
            f.rule == "CONF006"
            and "_BadParamsLanes" in f.message
            and "fusion_params" in f.message
            for f in findings
        )

    def test_duplicate_family_reported(self, lane_registry):
        from repro.core.strategies.batched import CollectorLanes

        class _ShadowConstantLanes(CollectorLanes):
            fusion_family = "constant"  # collides with the shipped lane
            fusion_params = ("threshold",)

        class _FakeCollector:
            pass

        lane_registry(_FakeCollector, _ShadowConstantLanes)
        findings = ConformanceAuditor(checks={"CONF006"}).audit()
        assert any(
            f.rule == "CONF006" and "exactly one vector program" in f.message
            for f in findings
        )

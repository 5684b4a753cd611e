"""Per-rule fixture snippets: one violating, one clean, plus noqa."""

import pytest

from repro.analysis import default_engine


@pytest.fixture()
def engine():
    return default_engine()


def rules_in(engine, source):
    return sorted({f.rule for f in engine.lint_source(source)})


# --------------------------------------------------------------------- #
# REP001 — global/legacy RNG
# --------------------------------------------------------------------- #
class TestRep001:
    def test_stdlib_random_flagged(self, engine):
        assert rules_in(engine, "import random\nx = random.gauss(0, 1)\n") == [
            "REP001"
        ]

    def test_legacy_numpy_flagged(self, engine):
        src = "import numpy as np\nx = np.random.uniform(0, 1)\n"
        assert rules_in(engine, src) == ["REP001"]

    def test_np_random_seed_flagged(self, engine):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert rules_in(engine, src) == ["REP001"]

    def test_bare_default_rng_flagged(self, engine):
        src = "from numpy.random import default_rng\nr = default_rng()\n"
        assert rules_in(engine, src) == ["REP001"]

    def test_none_seed_flagged(self, engine):
        src = "import numpy as np\nr = np.random.default_rng(None)\n"
        assert rules_in(engine, src) == ["REP001"]

    def test_seeded_default_rng_clean(self, engine):
        src = (
            "import numpy as np\n"
            "r = np.random.default_rng(7)\n"
            "s = np.random.SeedSequence(0)\n"
            "g = np.random.Generator(np.random.PCG64(s))\n"
        )
        assert rules_in(engine, src) == []

    def test_generator_method_clean(self, engine):
        # rng.uniform() is a Generator draw, not the legacy module API.
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(3)\n"
            "x = rng.uniform(0, 1)\n"
        )
        assert rules_in(engine, src) == []

    def test_noqa(self, engine):
        src = "import random\nx = random.random()  # repro: noqa[REP001]\n"
        assert rules_in(engine, src) == []


# --------------------------------------------------------------------- #
# REP002 — unstable seed material
# --------------------------------------------------------------------- #
class TestRep002:
    def test_hash_into_seed_assignment(self, engine):
        assert rules_in(engine, "seed = hash('x') % 911\n") == ["REP002"]

    def test_time_into_default_rng(self, engine):
        src = (
            "import time\n"
            "import numpy as np\n"
            "rng = np.random.default_rng(int(time.time()))\n"
        )
        assert rules_in(engine, src) == ["REP002"]

    def test_id_into_seed_keyword(self, engine):
        src = "def make(obj, build):\n    return build(seed=id(obj))\n"
        assert rules_in(engine, src) == ["REP002"]

    def test_hash_inside_fingerprint_function(self, engine):
        src = "def spec_fingerprint(spec):\n    return hash(spec)\n"
        assert rules_in(engine, src) == ["REP002"]

    def test_hash_outside_seed_context_clean(self, engine):
        # hash() for a plain dict lookup is fine; only seed flow is bad.
        src = "def bucket(key, n):\n    return hash(key) % n\n"
        assert rules_in(engine, src) == []

    def test_stable_seed_clean(self, engine):
        src = (
            "import numpy as np\n"
            "seed = np.random.SeedSequence(0).spawn(3)[1]\n"
        )
        assert rules_in(engine, src) == []

    def test_noqa(self, engine):
        src = "seed = hash('x') % 911  # repro: noqa[REP002]\n"
        assert rules_in(engine, src) == []


# --------------------------------------------------------------------- #
# REP003 — unordered canonical iteration
# --------------------------------------------------------------------- #
class TestRep003:
    def test_set_loop_in_fingerprint(self, engine):
        src = (
            "def spec_fingerprint(tags):\n"
            "    out = []\n"
            "    for tag in {t for t in tags}:\n"
            "        out.append(tag)\n"
            "    return out\n"
        )
        assert rules_in(engine, src) == ["REP003"]

    def test_set_into_list_in_state_dict(self, engine):
        src = "def state_dict(names):\n    return list(set(names))\n"
        assert rules_in(engine, src) == ["REP003"]

    def test_set_join_in_cache_key(self, engine):
        src = (
            "def cache_key(parts):\n"
            "    return '|'.join({str(p) for p in parts})\n"
        )
        assert rules_in(engine, src) == ["REP003"]

    def test_sorted_set_clean(self, engine):
        src = (
            "def spec_fingerprint(tags):\n"
            "    return sorted({t for t in tags})\n"
        )
        assert rules_in(engine, src) == []

    def test_set_outside_canonical_function_clean(self, engine):
        src = "def dedupe(xs):\n    return list(set(xs))\n"
        assert rules_in(engine, src) == []

    def test_dict_iteration_clean(self, engine):
        # dicts iterate in insertion order; only sets are unstable.
        src = (
            "def state_dict(parts):\n"
            "    return {k: v for k, v in parts.items()}\n"
        )
        assert rules_in(engine, src) == []

    def test_noqa(self, engine):
        src = (
            "def cache_key(parts):\n"
            "    return list(set(parts))  # repro: noqa[REP003]\n"
        )
        assert rules_in(engine, src) == []


# --------------------------------------------------------------------- #
# REP004 — mutable defaults / shared class state
# --------------------------------------------------------------------- #
class TestRep004:
    def test_mutable_default_arg(self, engine):
        assert rules_in(engine, "def f(x, acc=[]):\n    return acc\n") == [
            "REP004"
        ]

    def test_dict_default_arg(self, engine):
        assert rules_in(engine, "def f(x, acc={}):\n    return acc\n") == [
            "REP004"
        ]

    def test_component_class_mutable_attr(self, engine):
        src = (
            "class HistoryCollector:\n"
            "    seen = []\n"
            "    def react(self, x):\n"
            "        self.seen.append(x)\n"
        )
        assert rules_in(engine, src) == ["REP004"]

    def test_non_component_class_attr_clean(self, engine):
        # Shared state on a non-component registry class is out of scope.
        src = "class Registry:\n    entries = {}\n"
        assert rules_in(engine, src) == []

    def test_none_default_clean(self, engine):
        src = (
            "def f(x, acc=None):\n"
            "    acc = [] if acc is None else acc\n"
            "    return acc\n"
        )
        assert rules_in(engine, src) == []

    def test_immutable_class_attr_clean(self, engine):
        src = "class FooCollector:\n    soft_offset = 0.01\n    name = 'foo'\n"
        assert rules_in(engine, src) == []

    def test_noqa(self, engine):
        src = "def f(x, acc=[]):  # repro: noqa[REP004]\n    return acc\n"
        assert rules_in(engine, src) == []


# --------------------------------------------------------------------- #
# REP005 — unrestored __init__ state
# --------------------------------------------------------------------- #
_VIOLATING_LIFECYCLE = (
    "import numpy as np\n"
    "class DriftAdversary:\n"
    "    def __init__(self, seed):\n"
    "        self._rng = np.random.default_rng(seed)\n"
    "        self._round = 0\n"
    "    def react(self, last):\n"
    "        self._round += 1\n"
    "        return float(self._rng.uniform())\n"
    "    def reset(self):\n"
    "        pass\n"
)

_CLEAN_LIFECYCLE = (
    "import numpy as np\n"
    "class SteadyAdversary:\n"
    "    def __init__(self, seed):\n"
    "        self._seed = seed\n"
    "        self._rng = np.random.default_rng(seed)\n"
    "        self._round = 0\n"
    "    def react(self, last):\n"
    "        self._round += 1\n"
    "        return float(self._rng.uniform())\n"
    "    def reset(self):\n"
    "        self._rng = np.random.default_rng(self._seed)\n"
    "        self._round = 0\n"
)


class TestRep005:
    def test_unrestored_rng_and_counter(self, engine):
        findings = [
            f for f in engine.lint_source(_VIOLATING_LIFECYCLE)
            if f.rule == "REP005"
        ]
        messages = " ".join(f.message for f in findings)
        assert "_rng" in messages and "_round" in messages

    def test_restored_state_clean(self, engine):
        assert rules_in(engine, _CLEAN_LIFECYCLE) == []

    def test_reset_via_helper_counts_as_restored(self, engine):
        src = (
            "import numpy as np\n"
            "class HelperCollector:\n"
            "    def __init__(self, seed):\n"
            "        self._seed = seed\n"
            "        self._rng = np.random.default_rng(seed)\n"
            "    def react(self, last):\n"
            "        return float(self._rng.uniform())\n"
            "    def reset(self):\n"
            "        self._fresh()\n"
            "    def _fresh(self):\n"
            "        self._rng = np.random.default_rng(self._seed)\n"
        )
        assert rules_in(engine, src) == []

    def test_calibration_mutation_not_play(self, engine):
        # fit()-reachable helpers are pre-game calibration by contract.
        src = (
            "class CalibratedEvaluator:\n"
            "    def __init__(self):\n"
            "        self._ref = None\n"
            "    def fit(self, reference):\n"
            "        self._store(reference)\n"
            "    def _store(self, reference):\n"
            "        self._ref = reference\n"
            "    def evaluate(self, batch):\n"
            "        return 0.0\n"
        )
        assert rules_in(engine, src) == []

    def test_module_local_base_resolved(self, engine):
        # __init__ in the base, mutation in the subclass: the base's
        # reset must still cover the attribute.
        src = (
            "class _BaseCollector:\n"
            "    def __init__(self):\n"
            "        self._count = 0\n"
            "    def reset(self):\n"
            "        self._count = 0\n"
            "class EagerCollector(_BaseCollector):\n"
            "    def react(self, last):\n"
            "        self._count += 1\n"
        )
        assert rules_in(engine, src) == []

    def test_non_component_class_ignored(self, engine):
        src = (
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._hits = 0\n"
            "    def get(self, key):\n"
            "        self._hits += 1\n"
        )
        assert rules_in(engine, src) == []

    def test_noqa(self, engine):
        src = _VIOLATING_LIFECYCLE.replace(
            "self._rng = np.random.default_rng(seed)",
            "self._rng = np.random.default_rng(seed)  # repro: noqa[REP005]",
        ).replace(
            "self._round = 0\n    def react",
            "self._round = 0  # repro: noqa[REP005]\n    def react",
        )
        assert rules_in(engine, src) == []


# --------------------------------------------------------------------- #
# REP003 interprocedural — taint through local helpers and methods
# --------------------------------------------------------------------- #
class TestRep003Interprocedural:
    def test_helper_returning_set_iterated(self, engine):
        src = (
            "def _parts(doc):\n"
            "    return {k for k in doc}\n"
            "def fingerprint(doc):\n"
            "    return '|'.join(_parts(doc))\n"
        )
        assert rules_in(engine, src) == ["REP003"]

    def test_helper_chain_two_deep(self, engine):
        # _parts -> _raw_parts: the set travels two helper hops.
        src = (
            "def _raw_parts(doc):\n"
            "    return set(doc)\n"
            "def _parts(doc):\n"
            "    return _raw_parts(doc)\n"
            "def fingerprint(doc):\n"
            "    out = []\n"
            "    for part in _parts(doc):\n"
            "        out.append(part)\n"
            "    return out\n"
        )
        assert rules_in(engine, src) == ["REP003"]

    def test_self_method_returning_set(self, engine):
        src = (
            "class Store:\n"
            "    def _keys(self):\n"
            "        return {k for k in self._docs}\n"
            "    def state_dict(self):\n"
            "        return list(self._keys())\n"
        )
        assert rules_in(engine, src) == ["REP003"]

    def test_helper_iterating_set_unordered(self, engine):
        # The helper launders the iteration, not the instability.
        src = (
            "def _render(parts):\n"
            "    return [p for p in parts]\n"
            "def cache_key(doc):\n"
            "    return _render({k for k in doc})\n"
        )
        assert rules_in(engine, src) == ["REP003"]

    def test_sorted_helper_result_clean(self, engine):
        src = (
            "def _parts(doc):\n"
            "    return {k for k in doc}\n"
            "def fingerprint(doc):\n"
            "    return '|'.join(sorted(_parts(doc)))\n"
        )
        assert rules_in(engine, src) == []

    def test_helper_sorting_internally_clean(self, engine):
        src = (
            "def _render(parts):\n"
            "    return [p for p in sorted(parts)]\n"
            "def cache_key(doc):\n"
            "    return _render({k for k in doc})\n"
        )
        assert rules_in(engine, src) == []

    def test_local_bound_to_set_returning_helper(self, engine):
        src = (
            "def _parts(doc):\n"
            "    return {k for k in doc}\n"
            "def spec_hash(doc):\n"
            "    parts = _parts(doc)\n"
            "    return ','.join(parts)\n"
        )
        assert rules_in(engine, src) == ["REP003"]

    def test_outside_canonical_function_clean(self, engine):
        # The interprocedural sinks still apply only inside
        # canonicalizing functions.
        src = (
            "def _parts(doc):\n"
            "    return {k for k in doc}\n"
            "def summarize(doc):\n"
            "    return list(_parts(doc))\n"
        )
        assert rules_in(engine, src) == []


# --------------------------------------------------------------------- #
# REP006 — fusion purity
# --------------------------------------------------------------------- #
_MUTABLE_PARAM_LANES = (
    "import numpy as np\n"
    "class EmaLanes:\n"
    "    fusion_family = 'ema'\n"
    "    fusion_params = ('alpha', 'level')\n"
    "    def __init__(self, instances):\n"
    "        self._alpha = np.array([inst.alpha for inst in instances])\n"
    "        self._level = np.array([inst.level for inst in instances])\n"
    "    def react_many(self, last):\n"
    "        self._level = self._alpha * last + self._level\n"
    "        return self._level\n"
)


class TestRep006:
    def test_mutated_param_column_flagged(self, engine):
        assert rules_in(engine, _MUTABLE_PARAM_LANES) == ["REP006"]

    def test_fusion_state_declaration_clean(self, engine):
        src = _MUTABLE_PARAM_LANES.replace(
            "    fusion_params = ('alpha', 'level')\n",
            "    fusion_params = ('alpha',)\n"
            "    fusion_state = ('level',)\n",
        )
        assert rules_in(engine, src) == []

    def test_non_tuple_declaration_flagged(self, engine):
        src = (
            "class BadLanes:\n"
            "    fusion_family = 'bad'\n"
            "    fusion_params = ['alpha']\n"
        )
        assert rules_in(engine, src) == ["REP006"]

    def test_duplicate_column_flagged(self, engine):
        src = (
            "class DupLanes:\n"
            "    fusion_family = 'dup'\n"
            "    fusion_params = ('alpha', 'alpha')\n"
        )
        assert rules_in(engine, src) == ["REP006"]

    def test_state_mutating_closure_flagged(self, engine):
        src = (
            "class ClosureLanes:\n"
            "    fusion_family = 'closure'\n"
            "    fusion_params = ()\n"
            "    def __init__(self):\n"
            "        self._count = 0\n"
            "    def compile_program(self):\n"
            "        def program(batch):\n"
            "            self._count += 1\n"
            "            return batch\n"
            "        return program\n"
        )
        assert rules_in(engine, src) == ["REP006"]

    def test_pure_closure_clean(self, engine):
        src = (
            "class PureLanes:\n"
            "    fusion_family = 'pure'\n"
            "    fusion_params = ('gain',)\n"
            "    def __init__(self, instances):\n"
            "        self._gain = [inst.gain for inst in instances]\n"
            "    def compile_program(self):\n"
            "        gain = self._gain\n"
            "        def program(batch):\n"
            "            return [g * batch for g in gain]\n"
            "        return program\n"
        )
        assert rules_in(engine, src) == []

    def test_empty_family_not_scoped(self, engine):
        # The fallback/base declaration shape: family '' never fuses.
        src = _MUTABLE_PARAM_LANES.replace("'ema'", "''")
        assert rules_in(engine, src) == []


# --------------------------------------------------------------------- #
# REP007 — deferred-writeback safety
# --------------------------------------------------------------------- #
class TestRep007:
    def test_play_path_tenant_write_flagged(self, engine):
        src = (
            "class EagerLanes:\n"
            "    fusion_family = 'eager'\n"
            "    fusion_params = ()\n"
            "    def __init__(self, instances):\n"
            "        self.instances = list(instances)\n"
            "    def react_many(self, out):\n"
            "        for r, inst in enumerate(self.instances):\n"
            "            inst._current = out[r]\n"
            "        return out\n"
            "    def finalize(self):\n"
            "        pass\n"
        )
        assert rules_in(engine, src) == ["REP007"]

    def test_finalize_helper_write_clean(self, engine):
        src = (
            "class DeferredLanes:\n"
            "    fusion_family = 'deferred'\n"
            "    fusion_params = ()\n"
            "    def __init__(self, instances):\n"
            "        self.instances = list(instances)\n"
            "    def finalize(self):\n"
            "        self._write_back()\n"
            "    def _write_back(self):\n"
            "        for inst in self.instances:\n"
            "            inst._current = 0.0\n"
        )
        assert rules_in(engine, src) == []

    def test_bit_state_copy_flagged(self, engine):
        src = (
            "import numpy as np\n"
            "def clone(rng):\n"
            "    shadow = np.random.PCG64()\n"
            "    shadow.state = rng.bit_generator.state\n"
            "    return np.random.Generator(shadow)\n"
        )
        assert rules_in(engine, src) == ["REP007"]

    def test_rng_state_helpers_exempt(self, engine):
        src = (
            "import copy\n"
            "def rng_state(rng):\n"
            "    return copy.deepcopy(rng.bit_generator.state)\n"
            "def set_rng_state(rng, state):\n"
            "    rng.bit_generator.state = copy.deepcopy(state)\n"
        )
        assert rules_in(engine, src) == []

    def test_unrelated_state_attribute_clean(self, engine):
        # `.state` on a non-bit-generator object is not RNG bit-state.
        src = (
            "def snapshot(machine):\n"
            "    return machine.state\n"
        )
        assert rules_in(engine, src) == []


# --------------------------------------------------------------------- #
# REP008 — export_state() audit-view completeness
# --------------------------------------------------------------------- #
_FORGETFUL = (
    "class ForgetfulCollector:\n"
    "    def __init__(self, t_th):\n"
    "        self.t_th = float(t_th)\n"
    "        self._streak = 0\n"
    "    def react(self, last):\n"
    "        self._streak += 1\n"
    "        return self.t_th\n"
    "    def reset(self):\n"
    "        self._streak = 0\n"
    "    def export_state(self):\n"
    "        return {}\n"
    "    def import_state(self, state):\n"
    "        pass\n"
)


class TestRep008:
    def test_uncovered_play_state_flagged(self, engine):
        assert rules_in(engine, _FORGETFUL) == ["REP008"]

    def test_export_read_covers(self, engine):
        src = _FORGETFUL.replace(
            "        return {}\n",
            "        return {'streak': self._streak}\n",
        )
        assert rules_in(engine, src) == []

    def test_import_assign_covers(self, engine):
        # A restore unpickles: an assignment in a leftover import_state
        # is just another write, and only export_state() covers.
        src = _FORGETFUL.replace(
            "        pass\n",
            "        self._streak = int(state['streak'])\n",
        )
        assert rules_in(engine, src) == ["REP008"]

    def test_export_helper_read_covers(self, engine):
        # Coverage resolves through export_state's own helpers.
        src = _FORGETFUL.replace(
            "        return {}\n",
            "        return self._doc()\n"
            "    def _doc(self):\n"
            "        return {'streak': self._streak}\n",
        )
        assert rules_in(engine, src) == []

    def test_no_export_surface_not_scoped(self, engine):
        # Without export_state the class is REP005's problem, not ours.
        src = (
            "class PlainCollector:\n"
            "    def __init__(self):\n"
            "        self._streak = 0\n"
            "    def react(self, last):\n"
            "        self._streak += 1\n"
            "    def reset(self):\n"
            "        self._streak = 0\n"
        )
        assert rules_in(engine, src) == []

    def test_constant_attr_not_flagged(self, engine):
        # t_th is never play-mutated: no coverage demanded.
        src = _FORGETFUL.replace(
            "        self._streak += 1\n", "        pass\n"
        ).replace("        self._streak = 0\n", "        pass\n")
        assert rules_in(engine, src) == []


# --------------------------------------------------------------------- #
# function-local component classes
# --------------------------------------------------------------------- #
_LOCAL_COMPONENT = (
    "import numpy as np\n"
    "def make_trimmer():\n"
    "    class _DriftingTrimmer:\n"
    "        history = []\n"
    "        def __init__(self):\n"
    "            self._rng = np.random.default_rng(0)\n"
    "            self._calls = 0\n"
    "        def trim(self, batch, percentile):\n"
    "            self._calls += 1\n"
    "        def export_state(self):\n"
    "            return {}\n"
    "    return _DriftingTrimmer\n"
)


class TestFunctionLocalComponents:
    def test_local_class_is_linted_without_a_crash(self, engine):
        # REP005/REP008 read the module dataflow, which holds module-level
        # classes only; REP004 still covers the local class.
        assert rules_in(engine, _LOCAL_COMPONENT) == ["REP004"]

    def test_local_class_never_borrows_a_module_class_view(self, engine):
        # Analyzed through the module class's view, the local class's
        # _count would read as mutated in react() and never restored.
        src = (
            "class ShadowCollector:\n"
            "    def __init__(self):\n"
            "        self._seen = 0\n"
            "    def react(self, last):\n"
            "        self._count = 1\n"
            "    def reset(self):\n"
            "        self._seen = 0\n"
            "def make():\n"
            "    class ShadowCollector:\n"
            "        def __init__(self):\n"
            "            self._count = 0\n"
            "        def reset(self):\n"
            "            self._count = 0\n"
            "    return ShadowCollector\n"
        )
        assert rules_in(engine, src) == []

"""Tests for repro.runtime.store — keys, persistence, resume semantics."""

import json
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from repro.core.strategies import FixedAdversary, TitForTatCollector
from repro.experiments.cost import roundwise_cost
from repro.runtime import (
    ComponentSpec,
    GameRecord,
    ResultStore,
    StrategyPair,
    SweepGrid,
    SweepRunner,
    TaskSpec,
    spec_hash,
    summarize_game,
)


def _pair():
    return StrategyPair(
        name="tft-vs-extreme",
        collector=ComponentSpec(
            TitForTatCollector, {"t_th": 0.9, "trigger": None}
        ),
        adversary=ComponentSpec(FixedAdversary, {"percentile": 0.99}),
        collector_name="titfortat",
        adversary_name="extreme@0.99",
    )


def _grid(**overrides):
    kwargs = dict(
        pairs=(_pair(),),
        datasets=("control",),
        attack_ratios=(0.1, 0.3),
        repetitions=2,
        rounds=3,
        batch_size=60,
        store_retained=False,
        seed=0,
    )
    kwargs.update(overrides)
    return SweepGrid(**kwargs)


def _game_spec(**overrides):
    return _grid(**overrides).expand()[0]


def _task_spec(k=0.5, rounds=10):
    return TaskSpec(
        task=ComponentSpec(
            roundwise_cost,
            {"t_th": 0.9, "k": float(k), "rounds": int(rounds)},
        ),
        tags={"k": float(k), "rounds": int(rounds)},
    )


class TestSpecHash:
    def test_deterministic_within_process(self):
        assert spec_hash(_game_spec()) == spec_hash(_game_spec())
        assert spec_hash(_task_spec()) == spec_hash(_task_spec())

    def test_stable_across_processes(self):
        """The key must not depend on interpreter state (PYTHONHASHSEED…)."""
        script = """
from repro.core.strategies import FixedAdversary, TitForTatCollector
from repro.experiments.cost import roundwise_cost
from repro.runtime import (
    ComponentSpec, StrategyPair, SweepGrid, TaskSpec, spec_hash,
)

pair = StrategyPair(
    name="tft-vs-extreme",
    collector=ComponentSpec(TitForTatCollector, {"t_th": 0.9, "trigger": None}),
    adversary=ComponentSpec(FixedAdversary, {"percentile": 0.99}),
    collector_name="titfortat",
    adversary_name="extreme@0.99",
)
grid = SweepGrid(
    pairs=(pair,), datasets=("control",), attack_ratios=(0.1, 0.3),
    repetitions=2, rounds=3, batch_size=60, store_retained=False, seed=0,
)
task = TaskSpec(
    task=ComponentSpec(roundwise_cost, {"t_th": 0.9, "k": 0.5, "rounds": 10}),
    tags={"k": 0.5, "rounds": 10},
)
print(spec_hash(grid.expand()[0], code_version="x"))
print(spec_hash(task, code_version="x"))
"""
        import repro

        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"  # would perturb any hash() leakage
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in [
                os.path.dirname(os.path.dirname(repro.__file__)),
                env.get("PYTHONPATH", ""),
            ]
            if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.split()
        assert out == [
            spec_hash(_game_spec(), code_version="x"),
            spec_hash(_task_spec(), code_version="x"),
        ]

    def test_component_kwarg_changes_key(self):
        base = _task_spec(k=0.5)
        assert spec_hash(base) != spec_hash(_task_spec(k=0.1))
        assert spec_hash(base) != spec_hash(_task_spec(rounds=11))

    def test_game_parameters_change_key(self):
        base = _game_spec()
        assert spec_hash(base) != spec_hash(_game_spec(attack_ratios=(0.2, 0.3)))
        assert spec_hash(base) != spec_hash(_game_spec(rounds=4))
        assert spec_hash(base) != spec_hash(_game_spec(seed=1))
        # two cells of the same grid (different spawn keys) never collide
        specs = _grid().expand()
        keys = {spec_hash(s) for s in specs}
        assert len(keys) == len(specs)

    def test_reducer_is_part_of_the_key(self):
        spec = _game_spec()
        plain = spec_hash(spec)
        assert plain != spec_hash(spec, reducer=summarize_game)
        weighted = partial(summarize_game)
        assert spec_hash(spec, reducer=weighted) != plain
        # bound ndarray arguments hash by content
        a = partial(np.mean, np.arange(3.0))
        b = partial(np.mean, np.arange(4.0))
        assert spec_hash(spec, reducer=a) != spec_hash(spec, reducer=b)

    def test_code_version_changes_key(self):
        spec = _task_spec()
        assert spec_hash(spec, code_version="1") != spec_hash(
            spec, code_version="2"
        )

    def test_integer_seed_equals_seed_sequence(self):
        plain = _task_spec()
        a = spec_hash(
            TaskSpec(task=plain.task, seed=7, tags=dict(plain.tags))
        )
        b = spec_hash(
            TaskSpec(
                task=plain.task,
                seed=np.random.SeedSequence(7),
                tags=dict(plain.tags),
            )
        )
        assert a == b

    def test_closures_are_rejected(self):
        spec = TaskSpec(task=ComponentSpec(lambda: 1))
        with pytest.raises(TypeError):
            spec_hash(spec)


class TestRecordRoundTrip:
    def test_json_codec_game_record(self, tmp_path):
        store = ResultStore(tmp_path)
        record = GameRecord(
            tags={"pair": "x", "attack_ratio": 0.1, "rep": 0},
            collector="c",
            adversary="a",
            rounds=3,
            termination_round=None,
            n_collected=10,
            n_retained=9,
            n_poison_injected=2,
            n_poison_retained=1,
            poison_retained_fraction=0.5,
            trimmed_fraction=0.1,
            mean_trim_percentile=0.9,
        )
        store.save("k" * 64, record)
        loaded = store.load("k" * 64)
        assert isinstance(loaded, GameRecord)
        assert loaded == record
        # human-inspectable: the JSON codec was used
        payload = json.loads(store.record_path("k" * 64).read_text())
        assert payload["body"]["codec"] == "json"

    def test_pickle_fallback_for_arbitrary_records(self, tmp_path):
        store = ResultStore(tmp_path)
        record = {"matrix": np.eye(2)}  # ndarray: not JSON-able
        store.save("p" * 64, record)
        loaded = store.load("p" * 64)
        np.testing.assert_array_equal(loaded["matrix"], np.eye(2))
        payload = json.loads(store.record_path("p" * 64).read_text())
        assert payload["body"]["codec"] == "pickle"

    def test_missing_is_default(self, tmp_path):
        store = ResultStore(tmp_path)
        sentinel = object()
        assert store.load("0" * 64, sentinel) is sentinel
        assert "0" * 64 not in store

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "garbage", "tamper", "wrong_key", "old_format"],
    )
    def test_corrupt_records_are_misses(self, tmp_path, corruption):
        store = ResultStore(tmp_path)
        key = "c" * 64
        store.save(key, {"value": 1.0})
        path = store.record_path(key)
        if corruption == "truncate":
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        elif corruption == "garbage":
            path.write_text("not json at all")
        elif corruption == "tamper":
            envelope = json.loads(path.read_text())
            envelope["body"]["data"]["value"] = 2.0  # checksum now stale
            path.write_text(json.dumps(envelope))
        elif corruption == "wrong_key":
            envelope = json.loads(path.read_text())
            envelope["key"] = "d" * 64
            path.write_text(json.dumps(envelope))
        else:
            envelope = json.loads(path.read_text())
            envelope["format"] = 0
            path.write_text(json.dumps(envelope))
        assert store.load(key, None) is None


class TestRunnerStoreIntegration:
    def test_cold_then_warm_zero_plays(self, tmp_path):
        specs = _grid().expand()
        store = ResultStore(tmp_path)
        runner = SweepRunner(store=store)
        cold = runner.run(specs)
        assert runner.last_stats.played == len(specs)
        assert runner.last_stats.cached == 0
        warm = runner.run(specs)
        assert runner.last_stats.played == 0
        assert runner.last_stats.cached == len(specs)
        assert warm == cold

    def test_warm_run_executes_zero_games(self, tmp_path, monkeypatch):
        specs = _grid().expand()
        store = ResultStore(tmp_path)
        SweepRunner(store=store).run(specs)

        def boom(*args):
            raise AssertionError("a warm run must not play any game")

        monkeypatch.setattr("repro.runtime.spec.GameSpec.play", boom)
        monkeypatch.setattr("repro.runtime.runner.play_fused_batch", boom)
        runner = SweepRunner(store=store)
        warm = runner.run(specs)
        assert runner.last_stats.played == 0
        assert len(warm) == len(specs)

    def test_kwarg_change_is_a_cache_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = SweepRunner(store=store)
        runner.run([_task_spec(k=0.5)])
        runner.run([_task_spec(k=0.5)])
        assert runner.last_stats.played == 0
        runner.run([_task_spec(k=0.1)])
        assert runner.last_stats.played == 1

    def test_corrupt_record_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _task_spec()
        runner = SweepRunner(store=store)
        (value,) = runner.run([spec])
        key = store.key(spec)
        store.record_path(key).write_text("garbage")
        (again,) = runner.run([spec])
        assert runner.last_stats.played == 1
        assert again == value
        # and the store healed: next run is warm
        runner.run([spec])
        assert runner.last_stats.played == 0

    def test_without_store_stats_count_all_played(self):
        runner = SweepRunner()
        runner.run([_task_spec()])
        assert runner.last_stats.played == 1
        assert runner.last_stats.cached == 0

    def test_partial_cache_only_missing_cells_play(self, tmp_path):
        specs = _grid().expand()
        store = ResultStore(tmp_path)
        full = SweepRunner(store=store).run(specs)
        # drop two records from the middle
        for spec in specs[1:3]:
            os.unlink(store.record_path(store.key(spec)))
        runner = SweepRunner(store=store)
        resumed = runner.run(specs)
        assert runner.last_stats.played == 2
        assert runner.last_stats.cached == len(specs) - 2
        assert resumed == full


class _Ghost:
    """Pickled by reference; re-pointed at a dead module in the tests."""

    def __init__(self, value):
        self.value = value


class TestGracefulDegradation:
    def test_stale_tmp_files_are_reaped_on_init(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("a" * 64, {"value": 1.0})
        objects_dir = store.record_path("a" * 64).parent
        stale = objects_dir / ".deadbeef-orphan.tmp"
        stale.write_text("half a record")
        fresh = objects_dir / ".cafebabe-live.tmp"
        fresh.write_text("a write in progress")
        old = 7200.0
        os.utime(stale, (os.path.getmtime(stale) - old,) * 2)

        reopened = ResultStore(tmp_path, reap_tmp_after=3600.0)
        assert not stale.exists()  # orphan swept
        assert fresh.exists()  # live writer untouched
        assert reopened.load("a" * 64) == {"value": 1.0}

    def test_reap_temp_files_returns_count_and_is_optional(self, tmp_path):
        store = ResultStore(tmp_path, reap_tmp_after=None)
        manifests = store.manifest_path("x").parent
        manifests.mkdir(parents=True)
        orphan = manifests / ".x-orphan.tmp"
        orphan.write_text("{}")
        os.utime(orphan, (os.path.getmtime(orphan) - 10_000,) * 2)
        assert store.reap_temp_files(3600.0) == 1
        assert not orphan.exists()

    def test_ghost_class_pickle_is_a_miss_not_a_crash(self, tmp_path):
        """A checksum-valid pickle referencing dead code reads as a miss."""
        import pickle as _pickle
        import base64 as _base64
        import hashlib as _hashlib
        import types as _types
        from repro.runtime.store import canonical_json

        store = ResultStore(tmp_path)
        key = "e" * 64
        # Pickle the class under a synthetic module, then unregister it:
        # the blob now references code that no longer exists — exactly
        # what a rename/move since the record was written leaves behind.
        ghost_module = _types.ModuleType("repro_ghost_module")
        ghost_module.Ghost = _Ghost
        original = (_Ghost.__module__, _Ghost.__qualname__)
        _Ghost.__module__ = "repro_ghost_module"
        _Ghost.__qualname__ = "Ghost"
        sys.modules["repro_ghost_module"] = ghost_module
        try:
            blob = _pickle.dumps(
                _Ghost(3), protocol=_pickle.HIGHEST_PROTOCOL
            )
        finally:
            del sys.modules["repro_ghost_module"]
            _Ghost.__module__, _Ghost.__qualname__ = original
        body = {
            "codec": "pickle",
            "data": _base64.b64encode(blob).decode("ascii"),
        }
        envelope = {
            "format": 1,
            "key": key,
            "sha256": _hashlib.sha256(
                canonical_json(body).encode("utf-8")
            ).hexdigest(),
            "body": body,
        }
        path = store.record_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(envelope))
        # sanity: the blob really does raise on unpickle
        with pytest.raises((ModuleNotFoundError, AttributeError)):
            _pickle.loads(_base64.b64decode(body["data"]))
        assert store.load(key, None) is None  # miss, not a crash

    def test_durable_mode_fsyncs_writes(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        plain = ResultStore(tmp_path / "plain")
        plain.save("f" * 64, {"value": 1.0})
        assert synced == []
        durable = ResultStore(tmp_path / "durable", durable=True)
        durable.save("f" * 64, {"value": 1.0})
        assert len(synced) == 2  # record file + parent directory
        durable.save_manifest("m", {"keys": []})
        assert len(synced) == 4
        assert durable.load("f" * 64) == {"value": 1.0}

    def test_delete_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_manifest("gone", {"keys": []})
        assert store.load_manifest("gone") is not None
        assert store.delete_manifest("gone") is True
        assert store.load_manifest("gone") is None
        assert store.delete_manifest("gone") is False

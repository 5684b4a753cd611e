"""One read-only reference fit per calibration, shared while alive.

The collector's trimmer and the white-box adversary's injector calibrate
on the same public reference; :class:`ReferenceFit` computes the arrays
they read once, and every component fit on the same read-only array —
every lane of a lockstep game, every tenant on one dataset — holds the
same fit object.
"""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro import (
    BatchedCollectionGame,
    CollectionGame,
    ComponentSpec,
    DefenseService,
    GameSpec,
)
from repro.core import domain
from repro.core.domain import _LIVE_FITS, ReferenceFit, key_reference, reference_key
from repro.core.session import GameSession
from repro.core.strategies import FixedAdversary, StaticCollector
from repro.core.trimming import RadialTrimmer, ValueTrimmer
from repro.streams import ArrayStream, PoisonInjector


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _read_only(values):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _taxi_spec(seed, size=500):
    return GameSpec(
        collector=ComponentSpec(StaticCollector, {"threshold": 0.9}),
        adversary=ComponentSpec(FixedAdversary, {"percentile": 0.99}),
        dataset="taxi",
        dataset_size=size,
        batch_size=50,
        rounds=4,
        seed=seed,
    )


class TestReferenceFit:
    def test_radial_fields_keep_the_component_expressions(self, rng):
        reference = rng.normal(size=(300, 4))
        fit = ReferenceFit.of(reference, "radial")
        center = np.median(reference, axis=0)
        scores = np.linalg.norm(reference - center, axis=1)
        corner = np.quantile(reference, 0.99, axis=0) - center
        assert fit.center.tobytes() == center.tobytes()
        assert fit.scores.tobytes() == scores.tobytes()
        assert fit.table.values.tobytes() == np.sort(scores).tobytes()
        assert fit.direction.tobytes() == (
            corner / float(np.linalg.norm(corner))
        ).tobytes()

    def test_radial_fit_of_a_1d_reference(self, rng):
        reference = rng.normal(size=200)
        fit = ReferenceFit.of(reference, "radial")
        assert fit.center.shape == ()
        assert fit.direction is None
        assert fit.scores.tobytes() == np.abs(
            reference - float(np.median(reference))
        ).tobytes()

    def test_value_fit_scores_are_the_reference(self, rng):
        reference = _read_only(rng.normal(size=100))
        fit = ReferenceFit.of(reference, "value")
        assert fit.scores is reference
        assert fit.center is None and fit.direction is None
        assert fit.table.values.tobytes() == np.sort(reference).tobytes()

    def test_fit_arrays_are_read_only(self, rng):
        fit = ReferenceFit.of(rng.normal(size=(50, 2)), "radial")
        for arr in (fit.center, fit.scores, fit.direction, fit.table.values):
            assert not arr.flags.writeable

    def test_read_only_reference_shares_one_fit_per_kind(self, rng):
        reference = _read_only(rng.normal(size=100))
        value = ReferenceFit.of(reference, "value")
        radial = ReferenceFit.of(reference, "radial")
        assert ReferenceFit.of(reference, "value") is value
        assert ReferenceFit.of(reference, "radial") is radial
        assert value is not radial

    def test_writable_or_distinct_arrays_get_their_own_fit(self, rng):
        writable = rng.normal(size=100)
        assert ReferenceFit.of(writable, "value") is not ReferenceFit.of(
            writable, "value"
        )
        a = _read_only(writable)
        b = _read_only(writable)  # equal content, another array
        assert ReferenceFit.of(a, "value") is not ReferenceFit.of(b, "value")

    def test_memo_entry_dies_with_the_last_holder(self, rng):
        reference = _read_only(rng.normal(size=50))
        trimmer = ValueTrimmer().fit_reference(reference)
        assert _LIVE_FITS.get((id(reference), "value")) is trimmer._fit
        del trimmer
        gc.collect()
        assert _LIVE_FITS.get((id(reference), "value")) is None

    def test_key_registry_checks_identity_and_holds_no_array(self, rng):
        reference = _read_only(rng.normal(size=50))
        key_reference(reference, np.asarray, (50,))
        assert reference_key(reference).args == (50,)
        assert reference_key(reference.copy()) is None  # equal content
        assert reference_key(reference[:]) is None  # a view of it
        with pytest.raises(ValueError, match="read-only"):
            key_reference(rng.normal(size=5), np.asarray, (5,))
        alive = weakref.ref(reference)
        array_id = id(reference)
        del reference
        gc.collect()
        assert alive() is None
        assert array_id not in domain._KEYED

    def test_refit_yields_a_new_fit(self, rng):
        trimmer = RadialTrimmer().fit_reference(
            _read_only(rng.normal(size=(60, 2)))
        )
        first = trimmer._fit
        trimmer.fit_reference(_read_only(rng.normal(size=(60, 2))))
        assert trimmer._fit is not first
        assert trimmer.reference_table is trimmer._fit.table

    def test_pickled_fit_drops_its_reference(self, rng):
        fit = ReferenceFit.of(_read_only(rng.normal(size=(40, 3))), "radial")
        restored = pickle.loads(pickle.dumps(fit))
        assert restored._reference is None
        for name in ("center", "scores", "direction"):
            assert getattr(restored, name).tobytes() == getattr(
                fit, name
            ).tobytes()
        assert restored.table.values.tobytes() == fit.table.values.tobytes()

    def test_bad_references_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ReferenceFit.of(np.array([]), "value")
        with pytest.raises(ValueError, match="1-D or 2-D"):
            ReferenceFit.of(np.zeros((2, 2, 2)), "radial")


class TestSharedCalibration:
    def test_lockstep_lanes_hold_one_fit(self):
        game = BatchedCollectionGame(
            [_taxi_spec(seed).build() for seed in range(4)]
        )
        fit = game.games[0].trimmer._fit
        # Taxi rows are (1,)-shaped: trimmer and injector are both radial.
        assert all(lane.trimmer._fit is fit for lane in game.games)
        assert all(lane.injector._fit is fit for lane in game.games)

    def test_tenants_on_one_dataset_and_size_share_one_fit(self):
        service = DefenseService()
        sids = [service.open(_taxi_spec(seed)) for seed in range(3)]
        other = service.open(_taxi_spec(9, size=600))
        sessions = [service.session(sid) for sid in sids]
        fit = sessions[0].trimmer._fit
        assert all(s.trimmer._fit is fit for s in sessions)
        assert all(s.injector._fit is fit for s in sessions)
        assert service.session(other).trimmer._fit is not fit

    def test_restored_session_shares_one_private_fit(self, rng):
        # A spec-built session's fit is keyed by its dataset: the
        # restored session rejoins the live shared fit.
        session = _taxi_spec(3).session()
        session.submit()
        restored = GameSession.restore(session.snapshot())
        assert restored.trimmer._fit is session.trimmer._fit
        assert restored.injector._fit is session.trimmer._fit
        # A writable reference is frozen into an unkeyed copy: the
        # restored session holds one private fit, shared by its trimmer
        # and injector.
        opened = GameSession.open(
            collector=StaticCollector(0.9),
            adversary=FixedAdversary(0.99),
            injector=PoisonInjector(0.2, seed=1),
            trimmer=RadialTrimmer(),
            reference=rng.normal(size=(200, 2)),
        )
        opened.submit(rng.normal(size=(40, 2)))
        private = GameSession.restore(opened.snapshot())
        assert private.trimmer._fit is private.injector._fit
        assert private.trimmer._fit is not opened.trimmer._fit

    def test_restored_tenant_rejoins_the_live_fit(self):
        # An evicted tenant restores onto its dataset's live fit, so it
        # joins the same lane group as the tenants that stayed resident.
        service = DefenseService()
        sids = [service.open(_taxi_spec(seed)) for seed in range(4)]
        service.submit_many(sids)
        service.evict(sids[1])
        service.submit_many(sids)
        fit = service.session(sids[0]).trimmer._fit
        restored = service.session(sids[1])
        assert restored.trimmer._fit is fit
        assert restored.injector._fit is fit
        assert restored.source._data is service.session(sids[2]).source._data

    def test_copies_of_keyed_fits_and_streams_keep_the_shared_arrays(self):
        # A copy, deep copy or pickle of a fit or stream on a keyed
        # dataset holds the live fit and dataset, and a deep copy of the
        # stream draws on exactly like the original.
        session = _taxi_spec(4).session()
        session.submit()
        fit, source = session.trimmer._fit, session.source
        assert copy.copy(source)._data is source._data
        for clone in (copy.copy, copy.deepcopy, _pickled):
            assert clone(fit) is fit
        twins = [copy.deepcopy(source), _pickled(source)]
        for _ in range(12):
            batch = source.next_batch()
            for twin in twins:
                assert twin._data is source._data
                assert twin.next_batch().tobytes() == batch.tobytes()

    def test_writable_reference_stays_writable_and_the_fit_read_only(self, rng):
        reference = rng.normal(size=(200, 2))
        session = GameSession.open(
            collector=StaticCollector(0.9),
            adversary=FixedAdversary(0.99),
            injector=PoisonInjector(0.2, seed=1),
            trimmer=RadialTrimmer(),
            reference=reference,
        )
        assert reference.flags.writeable
        fit = session.trimmer._fit
        assert session.injector._fit is fit
        for arr in (fit.center, fit.scores, fit.direction, fit.table.values):
            assert not arr.flags.writeable

    def test_collection_game_keeps_the_frozen_reference(self, rng):
        reference = rng.normal(size=300)
        game = CollectionGame(
            source=ArrayStream(reference, batch_size=30, seed=0),
            collector=StaticCollector(0.9),
            adversary=FixedAdversary(0.99),
            injector=PoisonInjector(0.2, seed=1),
            trimmer=ValueTrimmer(),
            reference=reference,
        )
        assert reference.flags.writeable
        assert not game.reference.flags.writeable
        assert game.reference.tobytes() == reference.tobytes()
        # A 1-D reference: the value trimmer and injector share one fit.
        assert game.trimmer._fit is game.injector._fit
        assert game.trimmer.reference_scores is game.reference

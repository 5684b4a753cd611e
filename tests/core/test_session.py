"""The push-driven session API: transition equality, lifecycle, snapshots.

The load-bearing contracts:

* ``CollectionGame.run()`` is a thin driver over ``GameSession.submit``
  — an external caller-owned loop reproduces it byte for byte;
* ``snapshot()`` → ``restore()`` mid-game continues byte-identically to
  the uninterrupted game, across the full shipped strategy matrix
  (property-tested here in-process; cross-process in
  ``test_session_process.py``);
* live mode (``adversary=None``) trims externally manipulated traffic;
* lifecycle errors (horizon exhaustion, submit-after-close) are loud.
"""

import copy
import dataclasses
import gc
import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CollectionGame, ComponentSpec, GameSpec, PayoffModel
from repro.core import domain
from repro.core.engine import BandExcessJudge, NoisyPositionJudge
from repro.core.session import (
    SNAPSHOT_FORMAT,
    BatchedGameSession,
    GameSession,
    LaneRoundDecision,
    SnapshotError,
    _snapshot_bytes,
    round_payoffs,
)
from repro.core.strategies import (
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
from repro.core.strategies.base import rng_state
from repro.core.strategies.titfortat import MixedStrategyTrigger, QualityTrigger
from repro.core.trimming import RadialTrimmer, ValueTrimmer
from repro.datasets import generate_control, generate_taxi, taxi_batch_factory
from repro.experiments.classifiers import (
    LabelAwareRadialTrimmer,
    LabelMimicInjector,
)
from repro.runtime import spec as spec_module
from repro.runtime.spec import _load_reference_cached, load_reference
from repro.streams import ArrayStream, GeneratorStream, PoisonInjector

#: The full shipped strategy matrix the snapshot contract is tested
#: over (shared with the cross-process test in test_session_process.py).
MATRIX_COLLECTORS = {
    "ostrich": ComponentSpec(OstrichCollector),
    "static": ComponentSpec(StaticCollector, {"threshold": 0.9}),
    "tft-quality": ComponentSpec(
        TitForTatCollector,
        {
            "t_th": 0.9,
            "trigger": ComponentSpec(
                QualityTrigger, {"reference_score": 0.05, "redundancy": 0.03}
            ),
        },
    ),
    "tft-mixed": ComponentSpec(
        TitForTatCollector,
        {
            "t_th": 0.9,
            "trigger": ComponentSpec(
                MixedStrategyTrigger,
                {"equilibrium_probability": 0.7, "warmup": 2},
            ),
        },
    ),
    "elastic-paper": ComponentSpec(ElasticCollector, {"t_th": 0.9, "k": 0.5}),
    "elastic-relax": ComponentSpec(
        ElasticCollector, {"t_th": 0.9, "k": 0.3, "rule": "relaxation"}
    ),
    "mirror": ComponentSpec(MirrorCollector, {"t_th": 0.9}),
    "generous": ComponentSpec(
        GenerousCollector, {"t_th": 0.9, "generosity": 0.4}, seeded=True
    ),
    "two-tats": ComponentSpec(TitForTwoTatsCollector, {"t_th": 0.9}),
}

MATRIX_ADVERSARIES = {
    "null": ComponentSpec(NullAdversary),
    "fixed": ComponentSpec(FixedAdversary, {"percentile": 0.99}),
    "uniform": ComponentSpec(
        UniformRangeAdversary, {"low": 0.9, "high": 1.0}, seeded=True
    ),
    "just-below": ComponentSpec(
        JustBelowAdversary, {"initial_threshold": 0.9}
    ),
    "mixed": ComponentSpec(MixedAdversary, {"p": 0.6}, seeded=True),
    "elastic": ComponentSpec(ElasticAdversary, {"t_th": 0.9, "k": 0.5}),
}

MATRIX_JUDGES = {
    "band": ComponentSpec(
        BandExcessJudge, {"noise_sigma": 0.02}, seeded=True
    ),
    "position": ComponentSpec(
        NoisyPositionJudge, {"boundary": 0.9}, seeded=True
    ),
}


class RenamedPCG64(np.random.PCG64):
    """A bit generator outside numpy's five (its state names this class)."""


def matrix_spec(collector, adversary, judge, seed=0, rounds=8) -> GameSpec:
    """One matrix cell as a spec (jittered injector, noisy judge)."""
    return GameSpec(
        collector=MATRIX_COLLECTORS[collector],
        adversary=MATRIX_ADVERSARIES[adversary],
        judge=MATRIX_JUDGES[judge],
        dataset="control",
        attack_ratio=0.2,
        injection_jitter=0.02,
        rounds=rounds,
        batch_size=60,
        seed=seed,
    )


def lane_draws(sessions):
    """One lockstep round's benign stack: each lane's next draw."""
    return np.stack([session.source.next_batch() for session in sessions])


def assert_results_identical(a, b):
    """Full byte-level equality of two GameResults."""
    assert a.to_records() == b.to_records()
    assert a.termination_round == b.termination_round
    assert a.collector_name == b.collector_name
    assert a.adversary_name == b.adversary_name
    assert (
        a.retained_data().tobytes() == b.retained_data().tobytes()
    )


def cohort_leftovers(play):
    """The cohorts and sessions ``play()`` leaves to the cyclic collector.

    ``play`` runs with the collector disabled, so whatever it created
    that only a reference cycle keeps alive is still tracked afterwards.
    """

    def tracked():
        kinds = (BatchedGameSession, GameSession)
        return [obj for obj in gc.get_objects() if isinstance(obj, kinds)]

    gc.collect()
    before = tracked()
    known = {id(obj) for obj in before}
    gc.disable()
    try:
        play()
        return [obj for obj in tracked() if id(obj) not in known]
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def reference(control_data):
    return control_data[0]


# --------------------------------------------------------------------- #
# run() as a thin driver / external loops
# --------------------------------------------------------------------- #
class TestExternalLoop:
    @pytest.mark.parametrize(
        "collector,adversary,judge",
        [
            ("tft-mixed", "mixed", "position"),
            ("elastic-paper", "elastic", "band"),
            ("generous", "uniform", "band"),
        ],
    )
    def test_external_loop_matches_run(self, collector, adversary, judge):
        spec = matrix_spec(collector, adversary, judge, seed=11)
        full = spec.play()

        game = spec.build()
        session = game.session()
        decisions = []
        while not session.done:
            decisions.append(session.submit(game.source.next_batch()))
        result = session.close()

        assert_results_identical(result, full)
        assert [d.index for d in decisions] == list(range(1, spec.rounds + 1))
        # The decisions mirror the board, round for round.
        for decision, record in zip(decisions, result.to_records(), strict=False):
            assert decision.threshold == record["trim_percentile"]
            assert decision.n_retained == record["n_retained"]
            assert decision.betrayal == record["betrayal"]
            assert decision.n_collected == record["n_collected"]

    def test_attached_source_pulls_identically(self):
        spec = matrix_spec("elastic-paper", "elastic", "band", seed=3)
        full = spec.play()
        session = spec.session()
        while not session.done:
            session.submit()
        assert_results_identical(session.close(), full)

    def test_accept_mask_matches_counts(self):
        session = matrix_spec("static", "fixed", "band", seed=5).session()
        decision = session.submit()
        assert decision.accept_mask.dtype == bool
        assert decision.accept_mask.shape == (decision.n_collected,)
        assert int(decision.accept_mask.sum()) == decision.n_retained
        assert decision.n_trimmed == decision.n_collected - decision.n_retained
        assert decision.retained.shape[0] == decision.n_retained

    def test_partial_horizon_close(self):
        session = matrix_spec("elastic-paper", "elastic", "band").session()
        session.submit()
        session.submit()
        result = session.close()
        assert result.rounds == 2
        assert session.is_closed

    def test_open_ended_session(self):
        spec = matrix_spec("static", "fixed", "band")
        session = spec.session(horizon=None)
        for _ in range(spec.rounds + 3):  # past the spec's own horizon
            session.submit()
        assert not session.done
        assert session.close().rounds == spec.rounds + 3


class TestLifecycleErrors:
    def test_horizon_exhaustion_raises(self):
        session = matrix_spec("static", "fixed", "band", rounds=2).session()
        session.submit()
        session.submit()
        assert session.done
        with pytest.raises(RuntimeError, match="horizon"):
            session.submit()

    def test_submit_after_close_raises(self):
        session = matrix_spec("static", "fixed", "band").session()
        session.submit()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit()

    def test_newer_session_supersedes_older(self):
        # Engine-backed sessions share the engine's live components; a
        # second session()/run() resets them, so the first must die
        # loudly instead of silently diverging.
        game = matrix_spec("elastic-paper", "elastic", "band").build()
        first = game.session(attach_source=True)
        first.submit()
        result = game.run()  # resets components under `first`
        with pytest.raises(RuntimeError, match="superseded"):
            first.submit()
        with pytest.raises(RuntimeError, match="superseded"):
            first.snapshot()
        # The engine itself is unharmed: run() is still reproducible.
        assert game.run().to_records() == result.to_records()

    def test_no_batch_without_source_raises(self, reference):
        session = GameSession.open(
            collector=StaticCollector(0.9),
            adversary=FixedAdversary(0.99),
            injector=PoisonInjector(attack_ratio=0.2, seed=0),
            trimmer=RadialTrimmer(),
            reference=reference,
        )
        with pytest.raises(ValueError, match="no attached"):
            session.submit()

    def test_adversary_without_injector_raises(self, reference):
        with pytest.raises(ValueError, match="injector"):
            GameSession.open(
                collector=StaticCollector(0.9),
                adversary=FixedAdversary(0.99),
                trimmer=RadialTrimmer(),
                reference=reference,
            )


# --------------------------------------------------------------------- #
# GameSession.open calibration parity
# --------------------------------------------------------------------- #
class TestOpenCalibration:
    def test_open_matches_collection_game(self, reference):
        def build(via_open: bool):
            kwargs = dict(
                collector=ElasticCollector(t_th=0.9, k=0.5),
                adversary=ElasticAdversary(t_th=0.9, k=0.5),
                injector=PoisonInjector(attack_ratio=0.2, seed=4),
                trimmer=RadialTrimmer(),
                judge=BandExcessJudge(noise_sigma=0.02, seed=9),
            )
            source = ArrayStream(reference, batch_size=60, seed=1)
            if via_open:
                return GameSession.open(
                    reference=reference, horizon=6, source=source, **kwargs
                )
            return CollectionGame(
                source=source, reference=reference, rounds=6, **kwargs
            ).session(attach_source=True)

        a, b = build(True), build(False)
        while not a.done:
            a.submit()
            b.submit()
        assert_results_identical(a.close(), b.close())


# --------------------------------------------------------------------- #
# live mode
# --------------------------------------------------------------------- #
class TestLiveMode:
    def test_live_session_trims_submitted_traffic(self, reference):
        session = GameSession.open(
            collector=TitForTatCollector(t_th=0.9, trigger=None),
            trimmer=RadialTrimmer(),
            reference=reference,
        )
        rng = np.random.default_rng(0)
        benign = reference[rng.integers(0, reference.shape[0], size=50)]
        manipulated = np.concatenate(
            [benign, benign[:10] * 3.0], axis=0
        )
        mask = np.zeros(60, dtype=bool)
        mask[50:] = True
        decision = session.submit(manipulated, poison_mask=mask)
        assert session.adversary_name == "live"
        assert decision.injection_percentile is None
        assert decision.n_collected == 60
        assert decision.n_poison_injected == 10
        # The inflated rows score far out and are trimmed.
        assert decision.n_poison_retained < 10
        assert decision.accept_mask.shape == (60,)
        result = session.close()
        assert result.to_records()[0]["n_poison_injected"] == 10

    def test_live_mode_rejects_bad_mask(self, reference):
        session = GameSession.open(
            collector=StaticCollector(0.9),
            trimmer=RadialTrimmer(),
            reference=reference,
        )
        with pytest.raises(ValueError, match="poison_mask"):
            session.submit(reference[:30], poison_mask=np.zeros(7, dtype=bool))

    def test_adversarial_session_rejects_mask(self):
        session = matrix_spec("static", "fixed", "band").session()
        with pytest.raises(ValueError, match="live mode"):
            session.submit(
                np.zeros((5, 60)), poison_mask=np.zeros(5, dtype=bool)
            )

    @pytest.mark.parametrize("adversarial", [True, False])
    def test_rejected_mask_moves_no_state(self, adversarial):
        # A call rejected for its poison_mask (adversarial mode refuses
        # any mask; live mode a misshapen one) must leave the game where
        # it was: no strategy reacts, no RNG draws.
        rng = np.random.default_rng(4)
        reference = rng.lognormal(size=2000)
        batches = [rng.choice(reference, size=80) for _ in range(5)]
        bad_mask = np.zeros(80 if adversarial else 7, dtype=bool)

        def open_session():
            return GameSession.open(
                collector=ElasticCollector(0.9, 0.5, rule="relaxation"),
                adversary=MixedAdversary(0.5, seed=1) if adversarial else None,
                injector=(
                    PoisonInjector(0.2, mode="quantile", seed=2)
                    if adversarial else None
                ),
                trimmer=ValueTrimmer(),
                reference=reference,
            )

        uninterrupted, probed = open_session(), open_session()
        for batch in batches:
            state = pickle.dumps(probed.state_dict())
            index = probed.round_index
            with pytest.raises(ValueError, match="poison_mask"):
                probed.submit(batch, poison_mask=bad_mask)
            assert pickle.dumps(probed.state_dict()) == state
            assert probed.round_index == index
            uninterrupted.submit(batch)
            probed.submit(batch)
        assert_results_identical(probed.close(), uninterrupted.close())


def malformed(batch, kind):
    """A malformed copy of one round batch: ``empty``, ``all-inf``,
    ``nan-rows`` (the first half of its rows NaN) or ``wrong-width``
    (every row twice as wide as the reference's)."""
    if kind == "empty":
        return batch[:0]
    if kind == "all-inf":
        return np.full_like(batch, np.inf)
    if kind == "wrong-width":
        return np.column_stack([batch, batch])
    bad = batch.copy()
    bad[: len(bad) // 2] = np.nan
    return bad


MALFORMED = ["empty", "all-inf", "nan-rows", "wrong-width"]


class TestRejectedBatches:
    """Empty, non-finite or wrong-width traffic is rejected before
    anything moves."""

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_solo_rejection_moves_no_state(self, kind):
        rng = np.random.default_rng(4)
        reference = rng.lognormal(size=2000)
        batches = [rng.choice(reference, size=120) for _ in range(5)]

        def open_session():
            return GameSession.open(
                collector=ElasticCollector(0.9, 0.5, rule="relaxation"),
                adversary=MixedAdversary(0.5, seed=1),
                injector=PoisonInjector(0.2, mode="quantile", seed=2),
                trimmer=ValueTrimmer(),
                reference=reference,
            )

        uninterrupted, probed = open_session(), open_session()
        for batch in batches:
            state = pickle.dumps(probed.state_dict())
            index = probed.round_index
            with pytest.raises(ValueError, match="round batch"):
                probed.submit(malformed(batch, kind))
            assert pickle.dumps(probed.state_dict()) == state
            assert probed.round_index == index
            uninterrupted.submit(batch)
            probed.submit(batch)
        assert_results_identical(probed.close(), uninterrupted.close())

    def test_labeled_rejection_moves_no_state(self):
        """The classifier games' ``[features | label]`` rows are
        width-checked before the label-mimicking injector draws."""
        data, labels = generate_control(seed=7)
        stacked = np.column_stack([data, labels.astype(float)])
        session = GameSession.open(
            collector=TitForTatCollector(0.95),
            adversary=FixedAdversary(0.99),
            injector=LabelMimicInjector(0.4, mode="radial", seed=1),
            trimmer=LabelAwareRadialTrimmer(),
            reference=stacked,
        )
        session.submit(stacked[:60])
        state = pickle.dumps(session.state_dict())
        with pytest.raises(ValueError, match="round batch"):
            session.submit(np.zeros((60, 10)))
        assert pickle.dumps(session.state_dict()) == state
        assert session.round_index == 1

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_lockstep_rejection_moves_no_state(self, kind):
        specs = [
            matrix_spec("tft-mixed", "mixed", "position", seed=s)
            for s in range(3)
        ]
        sessions = [spec.session() for spec in specs]
        lockstep = BatchedGameSession(sessions)
        for _ in range(specs[0].rounds):
            stack = lane_draws(sessions)
            if kind in ("empty", "wrong-width"):
                # a stack's lanes share one shape
                bad = np.stack([malformed(lane, kind) for lane in stack])
            else:
                bad = stack.copy()
                bad[1] = malformed(stack[1], kind)
            index = lockstep.round_index
            with pytest.raises(ValueError, match="round batch"):
                lockstep.submit(bad)
            assert lockstep.round_index == index
            lockstep.submit(stack)
        for session, spec in zip(sessions, specs, strict=True):
            assert_results_identical(session.close(), spec.play())


# --------------------------------------------------------------------- #
# payoffs
# --------------------------------------------------------------------- #
class TestPayoffs:
    def test_payoffs_attached_and_consistent(self):
        spec = matrix_spec("elastic-paper", "elastic", "band", seed=2)
        model = PayoffModel()
        session = spec.session(payoff_model=model)
        decision = session.submit()
        expected = round_payoffs(
            model,
            decision.threshold,
            decision.injection_percentile,
            decision.n_poison_injected,
            decision.n_poison_retained,
        )
        assert decision.payoffs == expected
        # Zero-sum in the poison gain, minus the trimming overhead.
        overhead = model.trim_overhead(decision.threshold)
        assert decision.payoffs.collector == pytest.approx(
            -decision.payoffs.adversary - overhead
        )

    def test_payoff_model_does_not_change_the_game(self):
        spec = matrix_spec("tft-mixed", "mixed", "position", seed=2)
        without = spec.session()
        with_model = spec.session(payoff_model=PayoffModel())
        while not without.done:
            without.submit()
            with_model.submit()
        assert_results_identical(without.close(), with_model.close())

    def test_no_injection_payoff_is_pure_overhead(self):
        model = PayoffModel()
        payoffs = round_payoffs(model, 0.9, None, 0, 0)
        assert payoffs.adversary == 0.0
        assert payoffs.collector == pytest.approx(-model.trim_overhead(0.9))


# --------------------------------------------------------------------- #
# snapshot / restore (in-process; cross-process in test_session_process)
# --------------------------------------------------------------------- #
def play_split(spec: GameSpec, split: int):
    """Snapshot at ``split`` rounds, restore, finish; return the result."""
    session = spec.session()
    for _ in range(split):
        session.submit()
    blob = session.snapshot()
    resumed = GameSession.restore(blob)
    while not resumed.done:
        resumed.submit()
    return resumed.close()


class TestSnapshotRestore:
    @settings(max_examples=30, deadline=None)
    @given(
        collector=st.sampled_from(sorted(MATRIX_COLLECTORS)),
        adversary=st.sampled_from(sorted(MATRIX_ADVERSARIES)),
        judge=st.sampled_from(sorted(MATRIX_JUDGES)),
        split=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_mid_game_roundtrip_is_byte_identical(
        self, collector, adversary, judge, split, seed
    ):
        spec = matrix_spec(collector, adversary, judge, seed=seed)
        assert_results_identical(play_split(spec, split), spec.play())

    def test_snapshot_of_closed_session_restores_closed(self):
        session = matrix_spec("static", "fixed", "band").session()
        session.submit()
        session.close()
        restored = GameSession.restore(session.snapshot())
        assert restored.is_closed
        with pytest.raises(RuntimeError, match="closed"):
            restored.submit()

    def test_restore_rejects_foreign_blobs(self):
        import pickle

        with pytest.raises(ValueError, match=SNAPSHOT_FORMAT.replace("/", "/")):
            GameSession.restore(pickle.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            GameSession.restore(pickle.dumps([1, 2, 3]))

    @staticmethod
    def _edited_blob(edit, rounds=3):
        """A full-board spec session's snapshot after ``edit(payload)``."""
        session = matrix_spec("elastic-paper", "elastic", "band").session()
        for _ in range(rounds):
            session.submit()
        payload = pickle.loads(session.snapshot())
        edit(payload)
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def test_restore_rejects_truncated_retained_payload(self):
        def drop_last_round(payload):
            payload["board"]._retained.pop()

        with pytest.raises(SnapshotError, match="retained"):
            GameSession.restore(self._edited_blob(drop_last_round))

    def test_restore_rejects_a_board_that_is_not_a_board(self):
        def swap_board(payload):
            payload["board"] = {"columns": payload["board"].columns}

        with pytest.raises(SnapshotError, match="not a PublicBoard"):
            GameSession.restore(self._edited_blob(swap_board))

    def test_restore_refuses_the_previous_envelope(self):
        def relabel(payload):
            payload["format"] = "repro.session/1"

        with pytest.raises(SnapshotError, match=SNAPSHOT_FORMAT):
            GameSession.restore(self._edited_blob(relabel))

    def test_restore_calls_no_reset_or_import_state(self, monkeypatch):
        # The pickled components are the live state: a restore seats
        # them as they unpickle, and the game resumes byte-identically.
        spec = matrix_spec("generous", "mixed", "position", seed=5)
        session = spec.session()
        for _ in range(3):
            session.submit()
        blob = session.snapshot()
        calls = []

        def spy(name):
            def called(component, *args):
                calls.append((type(component).__name__, name))

            return called

        with monkeypatch.context() as patch:
            for _, component in session._stateful_components():
                for name in ("reset", "import_state"):
                    patch.setattr(type(component), name, spy(name), raising=False)
            resumed = GameSession.restore(blob)
        assert calls == []
        while not resumed.done:
            resumed.submit()
        assert_results_identical(resumed.close(), spec.play())

    @pytest.mark.parametrize("lockstep", [False, True])
    def test_blob_with_a_last_observation_field_restores_identically(
        self, lockstep
    ):
        # Older blobs of the same envelope also pickled the session's
        # last observation; the restore now reads it off the board, so
        # the field is ignored and the game continues byte-identically.
        spec = matrix_spec("elastic-paper", "elastic", "band", seed=3)
        session = spec.session()
        if lockstep:
            twin = dataclasses.replace(spec, seed=4).session()
            cohort = BatchedGameSession([session, twin])
            for _ in range(3):
                cohort.submit()
        else:
            for _ in range(3):
                session.submit()
        payload = pickle.loads(session.snapshot())
        assert "last_observation" not in payload["session"]
        payload["session"]["last_observation"] = session.last_observation
        resumed = GameSession.restore(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert resumed.last_observation == session.last_observation
        while not resumed.done:
            resumed.submit()
        assert_results_identical(resumed.close(), spec.play())

    def test_snapshot_pickles_stream_order_once(self):
        session = matrix_spec("static", "fixed", "band").session()
        session.submit()
        blob = session.snapshot()
        assert blob.count(session.source._order.astype(np.uint16).tobytes()) == 1
        assert "state" not in pickle.loads(blob)

    def test_snapshot_compacts_the_order_and_writes_each_generator_once(self):
        # The blob stores the epoch order in the smallest unsigned dtype,
        # and no Generator in numpy's own pickle form, which seeds from
        # OS entropy on load: each is rebuilt from its state document.
        session = matrix_spec("generous", "mixed", "band", seed=2).session()
        session.submit()
        blob = session.snapshot()
        order = session.source._order
        assert order.astype(np.uint16).tobytes() in blob
        assert order.tobytes() not in blob
        for role in ("collector", "adversary", "injector", "judge", "source"):
            word = rng_state(getattr(session, role)._rng)["state"]["state"]
            encoded = word.to_bytes((word.bit_length() + 8) // 8, "little", signed=True)
            assert blob.count(encoded) == 1, role  # the bit-state travels once
        loaded = []

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                loaded.append(name)
                return super().find_class(module, name)

        payload = Recording(io.BytesIO(blob)).load()
        assert "__generator_ctor" not in loaded
        assert "generator_from_state" in loaded
        assert "state" not in payload
        for role in ("collector", "adversary", "injector", "judge", "source"):
            rng = payload["components"][role]._rng
            assert rng_state(rng) == rng_state(getattr(session, role)._rng)
        restored = payload["components"]["source"]
        assert restored._order.dtype == np.int64
        assert not restored._order.flags.writeable

    @pytest.mark.parametrize(
        "name", ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]
    )
    def test_rebuilt_generator_spawns_the_original_children(self, name):
        # The snapshot carries each Generator's seed sequence with its
        # state, so a clone spawns what the original would have.
        rng = np.random.Generator(getattr(np.random, name)(5))
        rng.random(3)
        clone = pickle.loads(_snapshot_bytes({"rng": rng}))["rng"]
        want = [child.random(4).tobytes() for child in rng.spawn(2)]
        assert [child.random(4).tobytes() for child in clone.spawn(2)] == want
        assert clone.random(4).tobytes() == rng.random(4).tobytes()

    def test_generator_on_another_bit_generator_pickles_whole(self):
        # A Generator that generator_from_state cannot rebuild travels in
        # numpy's own pickle form, and the restored game continues.
        session = matrix_spec("static", "fixed", "band", seed=3).session()
        session.injector._rng = np.random.Generator(RenamedPCG64(7))
        session.submit()
        blob = session.snapshot()
        assert b"__generator_ctor" in blob
        resumed = GameSession.restore(blob)
        assert type(resumed.injector._rng.bit_generator) is RenamedPCG64
        for _ in range(3):
            want = session.submit()
            got = resumed.submit()
            assert got.observation == want.observation
            assert got.retained.tobytes() == want.retained.tobytes()

    @pytest.mark.parametrize("last_observation", [False, True])
    def test_blob_in_the_unkeyed_layout_restores_identically(
        self, monkeypatch, last_observation
    ):
        # Blobs written before references were keyed carry the dataset
        # and fits whole, Generators in numpy's own pickle form and the
        # order as int64: they restore and continue byte-identically.
        spec = matrix_spec("generous", "mixed", "band", seed=4)
        session = spec.session()
        for _ in range(3):
            session.submit()
        payload = pickle.loads(session.snapshot())
        if last_observation:
            payload["session"]["last_observation"] = session.last_observation
        with monkeypatch.context() as patch:
            patch.setattr(domain, "_KEYED", {})
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        assert session.source._data.tobytes() in blob
        assert b"__generator_ctor" in blob
        resumed = GameSession.restore(blob)
        assert resumed.trimmer._fit is not session.trimmer._fit
        while not resumed.done:
            resumed.submit()
        assert_results_identical(resumed.close(), spec.play())

    def test_keyed_reference_rebuilt_after_the_cache_dropped_it(self, monkeypatch):
        # A keyed blob names its dataset, not its rows: a restore after
        # the load cache dropped the array regenerates it, and the
        # content digest guards against a loader that changed.
        spec = matrix_spec("elastic-paper", "elastic", "band", seed=6)
        session = spec.session()
        for _ in range(3):
            session.submit()
        blob = session.snapshot()
        assert session.source._data.tobytes() not in blob
        _load_reference_cached.cache_clear()
        try:
            resumed = GameSession.restore(blob)
            assert resumed.source._data is load_reference("control")
            assert resumed.source._data is not session.source._data
            while not resumed.done:
                resumed.submit()
            assert_results_identical(resumed.close(), spec.play())

            _load_reference_cached.cache_clear()
            real = spec_module.load_dataset

            def shifted(name, n_samples=None):
                data, labels = real(name, n_samples=n_samples)
                return data + 1.0, labels

            monkeypatch.setattr(spec_module, "load_dataset", shifted)
            with pytest.raises(SnapshotError, match="digest"):
                GameSession.restore(blob)
        finally:
            monkeypatch.undo()
            _load_reference_cached.cache_clear()

    def test_components_deepcopy_and_pickle_whole(self):
        # Only the snapshot's own pickler writes Generators from their
        # state and orders compactly: a standalone copy of a session
        # (every component with it) plays on exactly like the original.
        cells = [(c, "mixed", "position") for c in sorted(MATRIX_COLLECTORS)]
        cells += [("generous", a, "band") for a in sorted(MATRIX_ADVERSARIES)]
        for index, cell in enumerate(cells):
            session = matrix_spec(*cell, seed=50 + index, rounds=5).session()
            session.submit()
            twins = [
                copy.deepcopy(session),
                pickle.loads(pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL)),
            ]
            for twin in twins:
                assert twin.source._rng is not session.source._rng
                assert twin.source._order.tobytes() == session.source._order.tobytes()
            for _ in range(4):
                want = session.submit()
                for twin in twins:
                    got = twin.submit()
                    assert got.observation == want.observation, cell
                    assert got.retained.tobytes() == want.retained.tobytes()

    def test_taxi_factory_stream_snapshots(self):
        # A session streaming from taxi_batch_factory() snapshots, and
        # the restored session continues byte-identically.
        def opened():
            return GameSession.open(
                collector=StaticCollector(0.9),
                adversary=FixedAdversary(0.99),
                injector=PoisonInjector(0.2, seed=1),
                trimmer=ValueTrimmer(),
                reference=generate_taxi(2000, seed=1),
                source=GeneratorStream(taxi_batch_factory(), 50, seed=3),
            )

        session, twin = opened(), opened()
        session.submit()
        twin.submit()
        resumed = GameSession.restore(session.snapshot())
        for _ in range(4):
            want = twin.submit()
            got = resumed.submit()
            assert got.observation == want.observation
            assert got.retained.tobytes() == want.retained.tobytes()

    def test_state_dict_covers_every_rng_consumer(self):
        spec = matrix_spec("generous", "mixed", "position", seed=1)
        session = spec.session()
        session.submit()
        state = session.state_dict()
        assert "rng" in state["collector"]     # generous forgiveness stream
        assert "rng" in state["adversary"]     # mixed draw stream
        assert "rng" in state["injector"]      # jitter stream
        assert "rng" in state["judge"]         # verdict noise stream
        assert "rng" in state["source"]        # epoch shuffling
        assert state["trimmer"] == {}          # stateless after fit

    def test_default_judge_snapshots_to_equal_bytes(self, reference):
        # A game given no judge takes a noiseless band judge, which
        # never draws, but its Generator rides in every snapshot: two
        # sessions of one game must snapshot to the same bytes.
        spec = GameSpec(
            collector=MATRIX_COLLECTORS["elastic-paper"],
            adversary=MATRIX_ADVERSARIES["elastic"],
            rounds=6,
            batch_size=60,
            seed=8,
        )
        first, second = spec.session(), spec.session()
        for _ in range(3):
            first.submit()
            second.submit()
        assert first.snapshot() == second.snapshot()

        def opened():
            session = GameSession.open(
                collector=StaticCollector(0.9),
                adversary=FixedAdversary(0.99),
                injector=PoisonInjector(0.2, seed=1),
                trimmer=RadialTrimmer(),
                reference=reference,
                source=ArrayStream(reference, batch_size=60, seed=2),
            )
            session.submit()
            return session.snapshot()

        assert opened() == opened()

    def test_lean_session_snapshot_roundtrip(self):
        spec = GameSpec(
            collector=MATRIX_COLLECTORS["elastic-paper"],
            adversary=MATRIX_ADVERSARIES["elastic"],
            rounds=6,
            batch_size=60,
            store_retained=False,
            seed=8,
        )
        full = spec.play()
        result = play_split(spec, 3)
        assert result.to_records() == full.to_records()
        with pytest.raises(ValueError, match="lean"):
            result.retained_data()


# --------------------------------------------------------------------- #
# the batched session driver
# --------------------------------------------------------------------- #
class TestBatchedSession:
    def test_engine_drives_batched_session(self):
        specs = [
            matrix_spec("tft-mixed", "mixed", "position", seed=s)
            for s in range(4)
        ]
        solo = [spec.play() for spec in specs]

        sessions = [spec.session() for spec in specs]
        lockstep = BatchedGameSession(sessions)
        for _ in range(specs[0].rounds):
            decision = lockstep.submit(lane_draws(sessions))
        # each lane's own session owns its horizon
        assert all(session.done for session in sessions)
        for session, expected in zip(sessions, solo, strict=True):
            assert_results_identical(session.close(), expected)
        assert decision.n_reps == 4
        assert decision.observation.rep(0).index == specs[0].rounds

    @pytest.mark.parametrize(
        "case, error, match",
        [
            ("duplicate", ValueError, "twice"),
            ("rounds", ValueError, "different rounds"),
            ("modes", ValueError, "full and lean"),
            ("closed", RuntimeError, "closed"),
            ("superseded", RuntimeError, "superseded"),
            ("horizon", RuntimeError, "horizon"),
        ],
    )
    def test_cohort_rejects_unfit_members(self, case, error, match):
        spec = matrix_spec("tft-mixed", "mixed", "position", rounds=4)
        other = dataclasses.replace(spec, seed=1)
        first, second = spec.session(), other.session()
        if case == "duplicate":
            second = first
        elif case == "rounds":
            for _ in range(3):
                second.submit()
        elif case == "modes":
            second = dataclasses.replace(other, store_retained=False).session()
        elif case == "closed":
            second.close()
        elif case == "superseded":
            game = other.build()
            second = game.session(attach_source=True)
            game.session()
        elif case == "horizon":
            for _ in range(spec.rounds):
                first.submit()
                second.submit()
        members = [first, second]
        states = [pickle.dumps(member.state_dict()) for member in members]
        with pytest.raises(error, match=match):
            BatchedGameSession(members)
        assert all(member._cohort is None for member in members)
        assert [pickle.dumps(member.state_dict()) for member in members] == states

    def test_round_outputs_outlive_later_rounds(self):
        # The cohort writes each round's joined stacks and radial
        # differences into a workspace it reuses, so nothing a round
        # hands out may alias it: three poison-count segments join into
        # one buffer every round, and round 1's outputs must survive two
        # more rounds unchanged.
        specs = [
            dataclasses.replace(
                matrix_spec("elastic-paper", "fixed", "band", seed=s),
                attack_ratio=ratio,
            )
            for s, ratio in enumerate((0.1, 0.2, 0.3, 0.2))
        ]
        sessions = [spec.session() for spec in specs]
        cohort = BatchedGameSession(sessions)
        decision = cohort.submit()
        assert decision.n_poison_injected.tolist() == [6, 12, 18, 12]
        lanes = [
            LaneRoundDecision(decision, r, session)
            for r, session in enumerate(sessions)
        ]

        def outputs():
            return pickle.dumps(
                (
                    decision,
                    [
                        (
                            lane.accept_mask,
                            lane.retained,
                            lane.observation,
                            lane.n_collected,
                            lane.n_retained,
                            lane.n_poison_retained,
                        )
                        for lane in lanes
                    ],
                )
            )

        kept = outputs()
        retained = [rows.copy() for rows in decision.retained]
        for _ in range(2):
            cohort.submit()
        assert outputs() == kept
        for session, rows in zip(sessions, retained, strict=True):
            assert session.board.retained[0].tobytes() == rows.tobytes()

    def test_cohort_stops_at_the_smallest_horizon(self):
        specs = [
            matrix_spec("tft-mixed", "mixed", "position", seed=s)
            for s in range(3)
        ]
        sessions = [
            spec.session(horizon=horizon)
            for spec, horizon in zip(specs, (5, 3, None), strict=True)
        ]
        lockstep = BatchedGameSession(sessions)
        for _ in range(3):
            stack = lane_draws(sessions)
            lockstep.submit(stack)
        with pytest.raises(RuntimeError, match="horizon of 3"):
            lockstep.submit(stack)
        assert lockstep.round_index == 3
        for session, spec in zip(sessions, specs, strict=True):
            replay = spec.session()
            for _ in range(3):
                replay.submit()
            assert_results_identical(session.close(), replay.close())

    def test_flushed_cohort_refuses_to_play(self):
        specs = [
            matrix_spec("tft-mixed", "mixed", "position", seed=s)
            for s in range(3)
        ]
        sessions = [spec.session() for spec in specs]
        lockstep = BatchedGameSession(sessions)
        lockstep.submit(lane_draws(sessions))
        stack = lane_draws(sessions)
        # An out-of-band read flushes the whole cohort.
        assert len(sessions[0].board) == 1
        assert all(session._cohort is None for session in sessions)
        states = [pickle.dumps(session.state_dict()) for session in sessions]
        with pytest.raises(RuntimeError, match="flushed"):
            lockstep.submit(stack)
        assert [pickle.dumps(session.state_dict()) for session in sessions] == states
        assert [session.round_index for session in sessions] == [1, 1, 1]

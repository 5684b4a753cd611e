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

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CollectionGame, ComponentSpec, GameSpec, PayoffModel
from repro.core.engine import BandExcessJudge, NoisyPositionJudge
from repro.core.session import (
    SNAPSHOT_FORMAT,
    GameSession,
    RoundDecision,
    SnapshotError,
    lockstep_cohort,
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
from repro.core.strategies.titfortat import MixedStrategyTrigger, QualityTrigger
from repro.core.trimming import RadialTrimmer, ValueTrimmer
from repro.datasets import generate_control
from repro.experiments.classifiers import (
    LabelAwareRadialTrimmer,
    LabelMimicInjector,
)
from repro.streams import ArrayStream, PoisonInjector

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
        lockstep, sink = lockstep_cohort(sessions)
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
            sink.record_decision(lockstep.submit(stack))
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
            payload["board"]["retained"] = payload["board"]["retained"][:-1]

        with pytest.raises(SnapshotError, match="retained"):
            GameSession.restore(self._edited_blob(drop_last_round))

    def test_restore_rejects_round_that_disagrees_with_board(self):
        def skip_ahead(payload):
            payload["session"]["round"] = 7

        with pytest.raises(SnapshotError, match="round 7"):
            GameSession.restore(self._edited_blob(skip_ahead))

    def test_snapshot_pickles_stream_order_once(self):
        session = matrix_spec("static", "fixed", "band").session()
        session.submit()
        payload = pickle.loads(session.snapshot())
        source = payload["components"]["source"]
        assert payload["state"]["source"]["order"] is source._order

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
        lockstep, sink = lockstep_cohort(sessions)
        for _ in range(specs[0].rounds):
            decision = lockstep.submit(lane_draws(sessions))
            sink.record_decision(decision)
        # each lane's own session owns its horizon
        assert all(session.done for session in sessions)
        for session, expected in zip(sessions, solo, strict=True):
            assert_results_identical(session.close(), expected)
        assert decision.n_reps == 4
        assert decision.rep_observation(0).index == specs[0].rounds

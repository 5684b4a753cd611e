"""Cross-cell fusion unit tests: planner, trim program, poison program.

Every assertion here is an instance of the one contract the fusion
layer lives under — a fused lane's outputs are byte-identical to the
per-lane solo calls it replaces — exercised directly on the compiled
building blocks rather than through a full service round.
"""

import pickle

import numpy as np
import pytest

from repro.core.fusion import (
    FusedAdversaryLanes,
    FusedCollectorLanes,
    InjectorLanes,
    SourceLanes,
    TrimLanes,
    fused_adversary_lanes,
    fused_collector_lanes,
)
from repro.core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    JustBelowAdversary,
    OstrichCollector,
    TitForTatCollector,
)
from repro.core.strategies.base import (
    CollectorStrategy,
    RoundObservation,
    RoundObservationBatch,
)
from repro.core.trimming import RadialTrimmer, ValueTrimmer
from repro.streams.injection import PoisonInjector
from repro.streams.source import ArrayStream, GeneratorStream


def _observation_batch(n, index=3, seed=0):
    rng = np.random.default_rng(seed)
    injection = rng.uniform(0.9, 1.0, size=n)
    injection[::4] = np.nan
    return RoundObservationBatch(
        index=index,
        trim_percentile=rng.uniform(0.8, 0.95, size=n),
        injection_percentile=injection,
        quality=rng.uniform(0.0, 0.3, size=n),
        observed_poison_ratio=rng.uniform(0.0, 0.2, size=n),
        betrayal=rng.uniform(size=n) < 0.3,
    )


class _UnregisteredCollector(CollectorStrategy):
    """A user strategy with no lane: must ride the fallback loop."""

    name = "unregistered"

    def __init__(self, base):
        self.base = base

    def first(self):
        return self.base

    def react(self, last: RoundObservation):
        return self.base - 0.01 * last.quality


class TestFusionPlanner:
    def test_single_family_skips_composite(self):
        lanes = fused_collector_lanes(
            [TitForTatCollector(t_th=0.9), TitForTatCollector(t_th=0.8)]
        )
        assert not isinstance(lanes, FusedCollectorLanes)
        assert lanes.vectorized
        assert lanes.fusion_family == "titfortat"

    def test_mixed_families_build_parts_in_lane_order(self):
        instances = [
            TitForTatCollector(t_th=0.9),
            ElasticCollector(t_th=0.9, k=0.5),
            TitForTatCollector(t_th=0.85),
            OstrichCollector(),
        ]
        lanes = fused_collector_lanes(instances)
        assert isinstance(lanes, FusedCollectorLanes)
        assert lanes.vectorized
        parts = lanes.parts
        assert [list(idx) for idx, _ in parts] == [[0, 2], [1], [3]]
        # Each part carries the original instances, in lane order.
        assert parts[0][1].instances == [instances[0], instances[2]]

    def test_fused_outputs_match_solo_calls(self):
        instances = [
            TitForTatCollector(t_th=0.9),
            ElasticCollector(t_th=0.9, k=0.5),
            TitForTatCollector(t_th=0.85),
            OstrichCollector(),
        ]
        solo = [
            TitForTatCollector(t_th=0.9),
            ElasticCollector(t_th=0.9, k=0.5),
            TitForTatCollector(t_th=0.85),
            OstrichCollector(),
        ]
        for inst in instances + solo:
            inst.reset()
        lanes = fused_collector_lanes(instances)
        first = lanes.first_many()
        assert list(first) == [inst.first() for inst in solo]
        batch = _observation_batch(4)
        reacted = lanes.react_many(batch)
        assert list(reacted) == [
            inst.react(batch.rep(r)) for r, inst in enumerate(solo)
        ]

    def test_adversary_fusion_matches_solo(self):
        instances = [
            FixedAdversary(percentile=0.99),
            JustBelowAdversary(initial_threshold=0.9),
            ElasticAdversary(t_th=0.9, k=0.5),
            FixedAdversary(percentile=0.95),
        ]
        solo = [
            FixedAdversary(percentile=0.99),
            JustBelowAdversary(initial_threshold=0.9),
            ElasticAdversary(t_th=0.9, k=0.5),
            FixedAdversary(percentile=0.95),
        ]
        for inst in instances + solo:
            inst.reset()
        lanes = fused_adversary_lanes(instances)
        assert isinstance(lanes, FusedAdversaryLanes)
        batch = _observation_batch(4, seed=7)
        reacted = lanes.react_many(batch)
        want = [inst.react(batch.rep(r)) for r, inst in enumerate(solo)]
        for got, expected in zip(reacted, want, strict=False):
            if expected is None:
                assert np.isnan(got)
            else:
                assert got == expected

    def test_unregistered_strategy_rides_fallback_part(self):
        instances = [
            TitForTatCollector(t_th=0.9),
            _UnregisteredCollector(0.88),
            _UnregisteredCollector(0.91),
        ]
        lanes = fused_collector_lanes(instances)
        assert isinstance(lanes, FusedCollectorLanes)
        assert not lanes.vectorized  # one part is the per-rep loop
        parts = lanes.parts
        assert parts[0][1].vectorized
        assert not parts[1][1].vectorized
        assert list(parts[1][0]) == [1, 2]
        batch = _observation_batch(3, seed=5)
        reacted = lanes.react_many(batch)
        assert reacted[1] == _UnregisteredCollector(0.88).react(batch.rep(1))

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fused_collector_lanes([])
        with pytest.raises(ValueError, match="at least one"):
            fused_adversary_lanes([])


class _OffsetTrimmer(ValueTrimmer):
    """A custom trim() override: never stacks."""

    def trim(self, batch, percentile):
        return ValueTrimmer.trim(self, batch, percentile - 0.01)


REFERENCE_A = np.linspace(0.0, 1.0, 120)
REFERENCE_B = np.concatenate([np.linspace(0.2, 0.7, 80), np.full(6, 0.99)])


class TestTrimLanes:
    def test_mode_resolution(self):
        # One shipped instance shared by every lane is a stacked group;
        # a shared custom instance loops through its own trim().
        shared = ValueTrimmer()
        assert TrimLanes([shared, shared, shared]).mode == "stacked"
        custom = _OffsetTrimmer()
        assert TrimLanes([custom, custom]).mode == "loop"
        assert (
            TrimLanes([ValueTrimmer(), ValueTrimmer()]).mode == "stacked"
        )
        assert (
            TrimLanes([ValueTrimmer(), RadialTrimmer()]).mode == "loop"
        )

    def _assert_rows_match_solo(self, lanes, stack, percentiles):
        report = lanes.trim_stack(stack, percentiles)
        for j, trimmer in enumerate(lanes.trimmers):
            solo = trimmer.trim(stack[j], float(percentiles[j]))
            assert report.kept[j].tolist() == solo.kept.tolist()
            assert float(report.threshold_scores[j]) == solo.threshold_score
            assert float(report.percentiles[j]) == solo.percentile
            assert report.scores[j].tobytes() == solo.scores.tobytes()

    def test_stacked_value_trimmers_with_different_references(self):
        trimmers = [
            ValueTrimmer().fit_reference(REFERENCE_A),
            ValueTrimmer().fit_reference(REFERENCE_B),
            ValueTrimmer(anchor="batch"),
        ]
        lanes = TrimLanes(trimmers)
        assert lanes.mode == "stacked"
        rng = np.random.default_rng(11)
        stack = rng.uniform(0.0, 1.0, size=(3, 40))
        self._assert_rows_match_solo(lanes, stack, np.array([0.9, 0.8, 0.95]))

    def test_stacked_radial_trimmers_nd_centers(self):
        rng = np.random.default_rng(13)
        trimmers = [
            RadialTrimmer().fit_reference(rng.normal(size=(60, 4))),
            RadialTrimmer().fit_reference(rng.normal(1.0, 1.0, size=(60, 4))),
        ]
        lanes = TrimLanes(trimmers)
        assert lanes._centers_nd is not None
        stack = rng.normal(0.5, 1.0, size=(2, 30, 4))
        self._assert_rows_match_solo(lanes, stack, np.array([0.85, 0.9]))

    def test_loop_mode_mixed_classes(self):
        trimmers = [
            ValueTrimmer().fit_reference(REFERENCE_A),
            ValueTrimmer().fit_reference(REFERENCE_B),
        ]
        lanes = TrimLanes(trimmers)
        lanes.mode = "loop"  # force the documented per-lane loop
        rng = np.random.default_rng(17)
        stack = rng.uniform(0.0, 1.0, size=(2, 25))
        self._assert_rows_match_solo(lanes, stack, np.array([0.9, 0.7]))

    def test_degenerate_percentile_keeps_argmin(self):
        trimmers = [
            ValueTrimmer().fit_reference(REFERENCE_A),
            ValueTrimmer().fit_reference(REFERENCE_B),
        ]
        lanes = TrimLanes(trimmers)
        stack = np.full((2, 10), 5.0)  # every point above both cutoffs
        self._assert_rows_match_solo(lanes, stack, np.array([0.0, 0.0]))

    def test_lane_subset_rows(self):
        trimmers = [
            ValueTrimmer().fit_reference(REFERENCE_A),
            ValueTrimmer().fit_reference(REFERENCE_B),
            ValueTrimmer().fit_reference(REFERENCE_A * 0.5),
        ]
        lanes = TrimLanes(trimmers)
        rng = np.random.default_rng(19)
        stack = rng.uniform(0.0, 1.0, size=(2, 30))
        q = np.array([0.9, 0.8])
        report = lanes.trim_stack(stack, q, lanes=np.array([2, 0]))
        for j, r in enumerate((2, 0)):
            solo = trimmers[r].trim(stack[j], float(q[j]))
            assert report.kept[j].tolist() == solo.kept.tolist()
            assert float(report.threshold_scores[j]) == solo.threshold_score

    def test_shape_validation(self):
        lanes = TrimLanes([ValueTrimmer(), ValueTrimmer()])
        with pytest.raises(ValueError, match="percentile per rep"):
            lanes.trim_stack(np.zeros((2, 5)), np.array([0.9]))
        with pytest.raises(ValueError, match="empty"):
            lanes.trim_stack(np.zeros((2, 0)), np.array([0.9, 0.9]))


def _injector_pair(**kwargs):
    """Twin injectors (same seed) for fused-vs-solo comparison."""
    return PoisonInjector(**kwargs), PoisonInjector(**kwargs)


class TestInjectorLanes:
    def test_poison_counts_match_scalar_rule(self):
        ratios = (0.0, 0.05, 0.125, 0.2, 0.3)
        injectors = [
            PoisonInjector(attack_ratio=r, seed=i)
            for i, r in enumerate(ratios)
        ]
        lanes = InjectorLanes(injectors)
        for n in (1, 10, 60, 100, 101):
            assert lanes.poison_counts(n).tolist() == [
                inj.poison_count(n) for inj in injectors
            ]

    def test_quantile_lanes_match_solo_materialize(self):
        fused, solo = [], []
        for i, ratio in enumerate((0.2, 0.2, 0.2)):
            a, b = _injector_pair(
                attack_ratio=ratio, jitter=0.02, mode="quantile", seed=40 + i
            )
            ref = REFERENCE_A if i < 2 else REFERENCE_B
            a.fit_reference(ref)
            b.fit_reference(ref)
            fused.append(a)
            solo.append(b)
        lanes = InjectorLanes(fused)
        rng = np.random.default_rng(23)
        benign = rng.uniform(0.0, 1.0, size=(3, 50))
        q = np.array([0.99, 0.97, 0.98])
        out = lanes.materialize_many(benign, q)
        for j, injector in enumerate(solo):
            want = injector.materialize(benign[j], float(q[j]))
            assert out[j].tobytes() == want.tobytes()

    def test_radial_lanes_match_solo_materialize(self):
        rng = np.random.default_rng(29)
        reference = rng.normal(size=(80, 3))
        fused, solo = [], []
        for i in range(3):
            a, b = _injector_pair(
                attack_ratio=0.1, jitter=0.02, mode="radial", seed=50 + i
            )
            a.fit_reference(reference)
            b.fit_reference(reference)
            fused.append(a)
            solo.append(b)
        lanes = InjectorLanes(fused)
        benign = rng.normal(size=(3, 40, 3))
        q = np.array([0.99, 0.98, 0.995])
        out = lanes.materialize_many(benign, q)
        for j, injector in enumerate(solo):
            want = injector.materialize(benign[j], float(q[j]))
            assert out[j].tobytes() == want.tobytes()

    def test_count_uniform_segments_enforced(self):
        lanes = InjectorLanes(
            [
                PoisonInjector(attack_ratio=0.1, seed=1),
                PoisonInjector(attack_ratio=0.3, seed=2),
            ]
        )
        benign = np.zeros((2, 50))
        with pytest.raises(ValueError, match="count-uniform"):
            lanes.materialize_many(benign, np.array([0.99, 0.99]))

    def test_zero_count_returns_empty(self):
        lanes = InjectorLanes(
            [
                PoisonInjector(attack_ratio=0.0, seed=1),
                PoisonInjector(attack_ratio=0.0, seed=2),
            ]
        )
        out = lanes.materialize_many(np.zeros((2, 50)), np.array([0.99, 0.99]))
        assert out.shape == (2, 0)

    def test_reference_groups_partition_by_fit_identity(self):
        shared = REFERENCE_A.copy()
        shared.setflags(write=False)  # read-only: fits on it are shared
        injectors = [
            PoisonInjector(attack_ratio=0.2, mode="quantile", seed=1)
            .fit_reference(shared),
            PoisonInjector(attack_ratio=0.2, mode="quantile", seed=2)
            .fit_reference(shared),
            PoisonInjector(attack_ratio=0.2, mode="quantile", seed=3)
            .fit_reference(REFERENCE_A),  # equal content, private fit
            PoisonInjector(attack_ratio=0.2, mode="quantile", seed=4)
            .fit_reference(REFERENCE_B),
        ]
        assert injectors[0]._fit is injectors[1]._fit
        lanes = InjectorLanes(injectors)
        assert lanes._fit_gid.tolist() == [0, 0, 1, 2]
        leads = (injectors[0], injectors[2], injectors[3])
        assert all(
            fit is lead._fit for fit, lead in zip(lanes._fits, leads, strict=True)
        )
        # Grouping changes no byte: every row equals a twin's solo call.
        twins = [
            PoisonInjector(attack_ratio=0.2, mode="quantile", seed=seed)
            .fit_reference(REFERENCE_B if seed == 4 else REFERENCE_A)
            for seed in (1, 2, 3, 4)
        ]
        benign = np.random.default_rng(31).uniform(size=(4, 50))
        q = np.array([0.99, 0.97, 0.98, 0.9])
        out = lanes.materialize_many(benign, q)
        for j, twin in enumerate(twins):
            want = twin.materialize(benign[j], float(q[j]))
            assert out[j].tobytes() == want.tobytes()


class _RecordingStream(ArrayStream):
    """An ArrayStream subclass: its lane must draw through its own call."""

    def next_batch(self):
        self.calls = getattr(self, "calls", 0) + 1
        return super().next_batch()


SHARED_1D = np.random.default_rng(40).normal(size=150)
SHARED_1D.setflags(write=False)


class TestSourceLanes:
    """Every draw equals the stack of twin streams' own next_batch calls."""

    @staticmethod
    def _states(streams):
        return [pickle.dumps(stream.export_state()) for stream in streams]

    def _assert_draws_match(self, build, rounds):
        lanes_streams, twins = build(), build()
        lanes = SourceLanes(lanes_streams)
        for _ in range(rounds):
            stack = lanes.draw()
            want = np.stack([np.asarray(t.next_batch(), dtype=float) for t in twins])
            assert stack.tobytes() == want.tobytes()
            assert stack.shape == want.shape
            assert self._states(lanes_streams) == self._states(twins)
        return lanes

    def test_lanes_crossing_epoch_ends_on_different_rounds(self):
        # Sizes 150, 60, 90 and 120 at batch 30 wrap every 5, 2, 3 and
        # 4 rounds (the unshuffled lane rewinds instead): 15 rounds span
        # at least three epochs on every lane, with epoch ends on
        # staggered rounds and four dataset arrays in one cohort.
        other = np.random.default_rng(41).normal(size=60)

        def build():
            return [
                ArrayStream(SHARED_1D, batch_size=30, seed=1),
                ArrayStream(other, batch_size=30, seed=2),
                ArrayStream(SHARED_1D, batch_size=30, seed=3),
                ArrayStream(SHARED_1D[:90], batch_size=30, seed=4),
                ArrayStream(SHARED_1D[:120], batch_size=30, shuffle=False, seed=5),
            ]

        lanes = self._assert_draws_match(build, 15)
        assert lanes.shape == (30,)

    def test_two_dimensional_rows_in_one_gather(self):
        data = np.random.default_rng(5).normal(size=(200, 3))
        data.setflags(write=False)

        def build():
            return [ArrayStream(data, batch_size=50, seed=s) for s in range(4)]

        lanes = self._assert_draws_match(build, 9)
        assert lanes.shape == (50, 3)

    def test_other_source_classes_draw_through_their_own_calls(self):
        def factory(rng, size):
            return rng.normal(size=size)

        def build():
            return [
                ArrayStream(SHARED_1D, batch_size=30, seed=1),
                GeneratorStream(factory, batch_size=30, seed=7),
                _RecordingStream(SHARED_1D, batch_size=30, seed=2),
            ]

        lanes = self._assert_draws_match(build, 7)
        assert lanes.shape is None
        assert lanes.sources[2].calls == 7

    def test_a_draw_outside_the_program_is_seen_next_round(self):
        # The streams stay authoritative: no cursor or permutation is
        # cached, so an out-of-band draw (here one that reshuffles)
        # moves the next gathered round exactly as it moves the twin.
        streams = [ArrayStream(SHARED_1D, batch_size=40, seed=s) for s in range(3)]
        twins = [ArrayStream(SHARED_1D, batch_size=40, seed=s) for s in range(3)]
        lanes = SourceLanes(streams)
        for round_index in range(8):
            if round_index in (2, 5):
                for stream in (streams[1], twins[1]):
                    stream.next_batch()
            want = np.stack([twin.next_batch() for twin in twins])
            assert lanes.draw().tobytes() == want.tobytes()
        assert self._states(streams) == self._states(twins)

    def test_missing_source_raises_before_any_stream_moves(self):
        streams = [ArrayStream(SHARED_1D, batch_size=30, seed=s) for s in range(2)]
        lanes = SourceLanes([streams[0], None, streams[1]])
        before = self._states(streams)
        with pytest.raises(ValueError, match="lane 1 has no attached stream source"):
            lanes.draw()
        assert self._states(streams) == before
        assert lanes.shape is None

    def test_ragged_draws_raise_like_stacking_them(self):
        lanes = SourceLanes(
            [
                ArrayStream(SHARED_1D, batch_size=30, seed=1),
                ArrayStream(SHARED_1D, batch_size=20, seed=2),
            ]
        )
        assert lanes.shape is None
        with pytest.raises(ValueError, match="same shape"):
            lanes.draw()

    def test_empty_lane_list_rejected(self):
        with pytest.raises(ValueError):
            SourceLanes([])

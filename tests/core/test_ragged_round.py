"""One lockstep round over lanes that inject different poison counts.

A cohort joins every lane's benign rows and its own poison count of
rows into one ragged stack, NaN past each lane's count, and runs each
round kernel once over it.  The contract: every lane's board, accept
masks, retained rows and end state equal its solo session's, whatever
the mix of attack ratios, lanes that inject nothing, batch-anchored
cutoffs, custom trims, subclass injectors, looping evaluators and
judges, boards and feature widths the cohort holds.
"""

import pickle

import numpy as np
import pytest

from repro.core.engine import BandExcessJudge, NoisyPositionJudge
from repro.core.quality import MeanShiftEvaluator, TailMassEvaluator
from repro.core.session import BatchedGameSession, GameSession
from repro.core.strategies import ElasticCollector, FixedAdversary, TitForTatCollector
from repro.core.strategies.base import AdversaryStrategy, CollectorStrategy
from repro.core.trimming import RadialTrimmer, ValueTrimmer
from repro.streams import PoisonInjector

BATCH = 40
ROUNDS = 6
#: The round at which lane 5 trims at percentile 0.
DROP_ROUND = 3


def _references(shape):
    """Two read-only references of one row shape, so lanes share fits.

    Each holds its own median point (score 0) and, in 1-D, a far low
    value, so a cutoff at percentile 0 lies below every batch score.
    """
    rng = np.random.default_rng(5)
    d = {"1-D": None, "d=1": 1, "d=3": 3}[shape]
    half = rng.normal(size=(60,) if d is None else (60, d))
    extra = np.array([-50.0]) if d is None else np.zeros((1, d))
    references = []
    for scale in (1.0, 1.5):
        reference = np.concatenate([half * scale, -half * scale, extra])
        reference.setflags(write=False)
        references.append(reference)
    return references


class _AbstainingAdversary(AdversaryStrategy):
    """Injects at 0.97 on odd rounds and nothing on even ones."""

    name = "abstaining"

    def first(self):
        return 0.97

    def react(self, last):
        return None if last.index % 2 else 0.97


class _DroppingCollector(CollectorStrategy):
    """Trims at 0.9, and at percentile 0 on :data:`DROP_ROUND`."""

    name = "dropping"

    def first(self):
        return 0.9

    def react(self, last):
        return 0.0 if last.index + 1 == DROP_ROUND else 0.9


class _ShiftedInjector(PoisonInjector):
    """Overrides ``materialize``: its lane must call it."""

    def materialize(self, benign, percentile):
        return super().materialize(benign, percentile) - 0.3


class _NudgedValueTrimmer(ValueTrimmer):
    """Overrides ``trim``: the cohort's trim program loops."""

    def trim(self, batch, percentile):
        return super().trim(batch, max(0.0, percentile - 0.01))


class _NudgedRadialTrimmer(RadialTrimmer):
    def trim(self, batch, percentile):
        return super().trim(batch, max(0.0, percentile - 0.01))


#: (attack ratio, role) of the seven lanes.  Ratios 0.1-0.3 on batches of
#: 40 inject 4-12 rows, so most lanes' rows are padded.
LANES = (
    (0.1, "plain"),
    (0.3, "plain"),
    (0.2, "abstains"),      # injects nothing on even rounds
    (0.25, "subclass"),     # a PoisonInjector subclass; abstains too
    (0.2, "odd"),           # batch-anchored, or custom trim/evaluator/judge
    (0.15, "drops"),        # argmin fallback on a padded row
    (0.1, "corner"),        # quantile mode: a 2-D batch places per lane
)


def _session(shape, lane, program, store_retained):
    ratio, role = LANES[lane]
    seed = 100 + lane
    odd = role == "odd"
    if shape == "1-D":
        trimmer_cls = _NudgedValueTrimmer if odd and program == "loop" else ValueTrimmer
    else:
        trimmer_cls = _NudgedRadialTrimmer if odd and program == "loop" else RadialTrimmer
    injector_cls = _ShiftedInjector if role == "subclass" else PoisonInjector
    mode = "quantile" if shape == "1-D" or role == "corner" else "radial"
    if role == "drops":
        collector = _DroppingCollector()
    elif lane % 2:
        collector = ElasticCollector(0.9, 0.5)
    else:
        collector = TitForTatCollector(0.9)
    evaluator = TailMassEvaluator()
    judge = BandExcessJudge(noise_sigma=0.02, seed=seed)
    if odd and program == "loop":
        evaluator = MeanShiftEvaluator()
        judge = NoisyPositionJudge(boundary=0.9, seed=seed)
    return GameSession.open(
        collector=collector,
        adversary=(
            _AbstainingAdversary()
            if role in ("abstains", "subclass")
            else FixedAdversary(0.99)
        ),
        injector=injector_cls(ratio, jitter=0.02, mode=mode, seed=seed),
        trimmer=trimmer_cls(),
        reference=_references(shape)[lane % 2],
        quality_evaluator=evaluator,
        judge=judge,
        anchor="batch" if odd and program == "stacked" else "reference",
        store_retained=store_retained,
    )


@pytest.mark.parametrize("store_retained", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("program", ["stacked", "loop"])
@pytest.mark.parametrize("shape", ["1-D", "d=1", "d=3"])
def test_mixed_cohort_matches_solo(shape, program, store_retained):
    make = [
        lambda lane=lane: _session(shape, lane, program, store_retained)
        for lane in range(len(LANES))
    ]
    members = [build() for build in make]
    twins = [build() for build in make]
    cohort = BatchedGameSession(members)
    assert cohort._trim_lanes.mode == program
    rng = np.random.default_rng(11)
    row = () if shape == "1-D" else (int(shape[-1]),)
    for index in range(1, ROUNDS + 1):
        stack = rng.normal(size=(len(LANES), BATCH) + row)
        decision = cohort.submit(stack)
        counts = decision.n_poison_injected
        if index % 2 == 0:
            assert counts[2] == counts[3] == 0 and counts[1] > 0
        if index == DROP_ROUND:
            # The fallback keeps one row of a padded lane.
            assert decision.n_retained[5] == 1
            assert counts[5] < counts.max()
        for lane, twin in enumerate(twins):
            solo = twin.submit(stack[lane])
            mask = decision.accept_masks[lane]
            assert mask.tobytes() == solo.accept_mask.tobytes(), (index, lane)
            assert decision.n_collected[lane] == solo.n_collected
            assert decision.n_retained[lane] == solo.n_retained
            assert decision.n_poison_injected[lane] == solo.n_poison_injected
            assert decision.n_poison_retained[lane] == solo.n_poison_retained
            if store_retained:
                rows = decision.retained[lane]
                assert rows.tobytes() == solo.retained.tobytes(), (index, lane)
            else:
                assert decision.retained is None
    for member, twin in zip(members, twins, strict=True):
        assert pickle.dumps(member.state_dict()) == pickle.dumps(twin.state_dict())
        mine, theirs = member.close(), twin.close()
        assert mine.to_records() == theirs.to_records()
        assert mine.termination_round == theirs.termination_round

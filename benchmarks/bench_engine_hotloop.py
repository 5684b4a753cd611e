"""Engine hot-loop micro-benchmark: vectorized vs naive reference paths.

Times the three per-solve / per-round hot paths that were made
array-native — the broadcast ``PayoffModel.payoff_matrix``, the
vectorized ``solve_stackelberg`` column selection, and the engine round
loop (O(1) quantile-table cutoffs + single-pass quality evaluation) —
against naive reference implementations that reproduce the pre-
optimization behavior exactly:

* ``payoff_matrix``: a scalar ``profile_payoffs`` double loop
  (grid² Python calls);
* ``solve_stackelberg``: the per-column best-response loop on top of the
  naive matrix;
* engine: a trimmer whose reference cutoff re-runs ``np.quantile`` over
  the full reference every round, plus a quality evaluator that scores
  the combined batch twice per round (the old ``normalized()`` +
  ``score()`` pair) and never reuses the trimmer's scores.

Correctness gates: the fast and naive paths must agree *byte for byte*
(payoff matrices, Stackelberg solutions, and ``GameResult.to_records()``
of a full game), the lean board must not change records, and a
``workers=1`` vs ``workers=2`` sweep must stay byte-identical.
Performance gates: >= 5x on ``payoff_matrix`` and ``solve_stackelberg``
at grid 201.  Results are persisted to
``benchmarks/results/BENCH_engine.json``.

Run standalone with ``python benchmarks/bench_engine_hotloop.py``.
"""

import json
import os
import time

import numpy as np

from repro.core.domain import percentile_grid
from repro.core.engine import BandExcessJudge, CollectionGame
from repro.core.payoffs import PayoffModel
from repro.core.quality import TailMassEvaluator
from repro.core.stackelberg import solve_stackelberg
from repro.core.strategies import ElasticAdversary, ElasticCollector
from repro.core.trimming import ValueTrimmer
from repro.runtime import SweepRunner
from repro.streams import ArrayStream, PoisonInjector

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_engine.json")

GRID_SIZE = 201
ENGINE_ROUNDS = 40
REFERENCE_SIZE = 20_000
BATCH_SIZE = 2_000
TIMING_REPEATS = 3


# --------------------------------------------------------------------- #
# naive reference implementations
# --------------------------------------------------------------------- #
def naive_payoff_matrix(model, adversary_grid, collector_grid):
    """The scalar double loop the broadcast kernel replaced."""
    a_grid = np.asarray(adversary_grid, dtype=float)
    c_grid = np.asarray(collector_grid, dtype=float)
    adv = np.empty((a_grid.size, c_grid.size))
    col = np.empty_like(adv)
    for i, x_a in enumerate(a_grid):
        for j, x_c in enumerate(c_grid):
            adv[i, j], col[i, j] = model.profile_payoffs(x_a, x_c)
    return adv, col


def naive_solve_stackelberg(model, grid_size, tie_break="pessimistic"):
    """The per-column best-response loop on the naive matrix."""
    x_l, x_r = model.strategy_interval()
    grid = percentile_grid(x_l, x_r, grid_size)
    adv_payoffs, col_payoffs = naive_payoff_matrix(model, grid, grid)
    best_leader_payoff = -np.inf
    best = None
    for j, x_c in enumerate(grid):
        column = adv_payoffs[:, j]
        follower_set = np.flatnonzero(np.isclose(column, column.max()))
        leader_outcomes = col_payoffs[follower_set, j]
        if tie_break == "pessimistic":
            idx = follower_set[int(np.argmin(leader_outcomes))]
        else:
            idx = follower_set[int(np.argmax(leader_outcomes))]
        leader_payoff = col_payoffs[idx, j]
        if leader_payoff > best_leader_payoff:
            best_leader_payoff = leader_payoff
            best = (
                float(x_c),
                float(grid[idx]),
                float(leader_payoff),
                float(adv_payoffs[idx, j]),
            )
    return best


class NaiveCutoffTrimmer(ValueTrimmer):
    """Pre-table reference anchoring: np.quantile every round."""

    def _cutoff(self, batch_scores, q):
        if self.is_reference_anchored:
            source = self.reference_scores
        else:
            source = batch_scores
        return float(np.quantile(source, q))


class TwoPassTailMass(TailMassEvaluator):
    """The pre-optimization evaluation: two scoring sweeps per round,
    no reuse of the trimmer's batch scores."""

    def accepts_scores(self, score_kind):
        return False

    def evaluate(self, batch, scores=None):
        return float(self.score(batch)), self.normalized(batch)


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #
def _best_of(fn, repeats=TIMING_REPEATS):
    """Best wall-clock of ``repeats`` runs; returns (seconds, result)."""
    best_s, result = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - t0)
    return best_s, result


def _engine_data():
    rng = np.random.default_rng(42)
    return rng.lognormal(mean=0.0, sigma=1.0, size=REFERENCE_SIZE)


def _build_game(data, trimmer, evaluator):
    return CollectionGame(
        source=ArrayStream(data, batch_size=BATCH_SIZE, seed=0),
        collector=ElasticCollector(t_th=0.9, k=0.5),
        adversary=ElasticAdversary(t_th=0.9, k=0.5),
        injector=PoisonInjector(attack_ratio=0.2, mode="quantile", seed=1),
        trimmer=trimmer,
        reference=data,
        quality_evaluator=evaluator,
        judge=BandExcessJudge(noise_sigma=0.02, seed=3),
        rounds=ENGINE_ROUNDS,
    )


def _records_bytes(result):
    return json.dumps(result.to_records(), sort_keys=True).encode()


def _sweep_grid():
    from repro.core.strategies import FixedAdversary, TitForTatCollector
    from repro.runtime import ComponentSpec, StrategyPair, SweepGrid

    pair = StrategyPair(
        name="tft-vs-extreme",
        collector=ComponentSpec(TitForTatCollector, {"t_th": 0.9, "trigger": None}),
        adversary=ComponentSpec(FixedAdversary, {"percentile": 0.99}),
    )
    return SweepGrid(
        pairs=(pair,),
        attack_ratios=(0.1, 0.3),
        repetitions=2,
        rounds=4,
        batch_size=60,
        store_retained=False,
        seed=0,
    )


def run_engine_benchmark() -> dict:
    """Time fast vs naive paths and check byte-equality; return payload."""
    model = PayoffModel()
    x_l, x_r = model.strategy_interval()
    grid = percentile_grid(x_l, x_r, GRID_SIZE)

    # --- payoff matrix -------------------------------------------------
    naive_matrix_s, naive_matrices = _best_of(
        lambda: naive_payoff_matrix(model, grid, grid)
    )
    fast_matrix_s, fast_matrices = _best_of(
        lambda: model.payoff_matrix(grid, grid)
    )
    matrices_identical = (
        naive_matrices[0].tobytes() == fast_matrices[0].tobytes()
        and naive_matrices[1].tobytes() == fast_matrices[1].tobytes()
    )

    # --- Stackelberg solve --------------------------------------------
    naive_solve_s, naive_solution = _best_of(
        lambda: naive_solve_stackelberg(model, GRID_SIZE)
    )
    fast_solve_s, fast_solution = _best_of(
        lambda: solve_stackelberg(model, grid_size=GRID_SIZE)
    )
    solutions_identical = naive_solution == (
        fast_solution.leader_action,
        fast_solution.follower_action,
        fast_solution.leader_payoff,
        fast_solution.follower_payoff,
    )

    # --- engine round loop --------------------------------------------
    data = _engine_data()
    naive_engine_s, naive_result = _best_of(
        lambda: _build_game(data, NaiveCutoffTrimmer(), TwoPassTailMass()).run()
    )
    fast_engine_s, fast_result = _best_of(
        lambda: _build_game(data, ValueTrimmer(), TailMassEvaluator()).run()
    )
    records_identical = _records_bytes(naive_result) == _records_bytes(fast_result)

    lean_result = CollectionGame(
        source=ArrayStream(data, batch_size=BATCH_SIZE, seed=0),
        collector=ElasticCollector(t_th=0.9, k=0.5),
        adversary=ElasticAdversary(t_th=0.9, k=0.5),
        injector=PoisonInjector(attack_ratio=0.2, mode="quantile", seed=1),
        trimmer=ValueTrimmer(),
        reference=data,
        quality_evaluator=TailMassEvaluator(),
        judge=BandExcessJudge(noise_sigma=0.02, seed=3),
        rounds=ENGINE_ROUNDS,
        store_retained=False,
    ).run()
    lean_identical = _records_bytes(lean_result) == _records_bytes(fast_result)

    # --- sweep determinism across worker counts -----------------------
    serial_records = SweepRunner(workers=1).run_grid(_sweep_grid())
    parallel_records = SweepRunner(workers=2).run_grid(_sweep_grid())
    sweep_identical = serial_records == parallel_records

    return {
        "grid_size": GRID_SIZE,
        "payoff_matrix": {
            "naive_seconds": naive_matrix_s,
            "fast_seconds": fast_matrix_s,
            "speedup": naive_matrix_s / fast_matrix_s,
            "byte_identical": matrices_identical,
        },
        "solve_stackelberg": {
            "naive_seconds": naive_solve_s,
            "fast_seconds": fast_solve_s,
            "speedup": naive_solve_s / fast_solve_s,
            "solutions_identical": solutions_identical,
        },
        "engine": {
            "rounds": ENGINE_ROUNDS,
            "reference_size": REFERENCE_SIZE,
            "batch_size": BATCH_SIZE,
            "naive_rounds_per_second": ENGINE_ROUNDS / naive_engine_s,
            "fast_rounds_per_second": ENGINE_ROUNDS / fast_engine_s,
            "speedup": naive_engine_s / fast_engine_s,
            "records_byte_identical": records_identical,
            "lean_records_byte_identical": lean_identical,
        },
        "sweep": {
            "workers_compared": [1, 2],
            "byte_identical": sweep_identical,
        },
    }


def _persist(payload: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def test_engine_hotloop(report):
    payload = run_engine_benchmark()
    _persist(payload)
    report(
        "engine_hotloop",
        "Engine hot loop (vectorized vs naive reference)\n"
        f"payoff_matrix @ {GRID_SIZE}: "
        f"{payload['payoff_matrix']['naive_seconds'] * 1e3:.1f}ms -> "
        f"{payload['payoff_matrix']['fast_seconds'] * 1e3:.2f}ms "
        f"({payload['payoff_matrix']['speedup']:.0f}x)\n"
        f"solve_stackelberg @ {GRID_SIZE}: "
        f"{payload['solve_stackelberg']['naive_seconds'] * 1e3:.1f}ms -> "
        f"{payload['solve_stackelberg']['fast_seconds'] * 1e3:.2f}ms "
        f"({payload['solve_stackelberg']['speedup']:.0f}x)\n"
        f"engine: {payload['engine']['naive_rounds_per_second']:.0f} -> "
        f"{payload['engine']['fast_rounds_per_second']:.0f} rounds/s "
        f"({payload['engine']['speedup']:.2f}x)",
    )

    # Correctness gates: the fast paths must not change a single bit.
    assert payload["payoff_matrix"]["byte_identical"]
    assert payload["solve_stackelberg"]["solutions_identical"]
    assert payload["engine"]["records_byte_identical"]
    assert payload["engine"]["lean_records_byte_identical"]
    assert payload["sweep"]["byte_identical"]
    # Performance gates.
    assert payload["payoff_matrix"]["speedup"] >= 5.0
    assert payload["solve_stackelberg"]["speedup"] >= 5.0
    assert payload["engine"]["speedup"] >= 1.05


if __name__ == "__main__":
    result = run_engine_benchmark()
    _persist(result)
    print(json.dumps(result, indent=2))
    print(f"written to {BENCH_PATH}")

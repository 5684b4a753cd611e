"""Every paper artifact as a registered scenario.

Tables I–IV, the k-means panels (Figs. 4/5), the classifier panels
(Figs. 7/8), the LDP comparison (Fig. 9) and the beyond-the-paper
meta-game tournament are all declared here as
:class:`~repro.scenarios.base.Scenario` entries — typed parameters with
quick/full defaults, a plan expanding to sweep cells, a grid-order
aggregate, and the exact renderer the old ad-hoc CLI wrappers used (the
printed artifacts are byte-identical to the pre-registry CLI).

Game sweeps (Table III, Figs. 4/5, metagame) reuse the experiment
modules' plan/aggregate split; analytic or wrapped computations
(Tables I/II/IV, Figs. 7/8/9) ride :class:`~repro.runtime.spec.TaskSpec`
cells, so *every* artifact is cacheable and resumable through the result
store at its natural cell granularity.
"""

from __future__ import annotations

from functools import partial
from typing import Any, List, Mapping

from ..core.game import UltimatumPayoffs, build_ultimatum_game
from ..datasets import DATASETS, dataset_info
from ..experiments import (
    CostConfig,
    EquilibriumConfig,
    LDPConfig,
    NonEquilibriumConfig,
    SOMConfig,
    SVMConfig,
    TournamentConfig,
    aggregate_cost,
    aggregate_kmeans,
    aggregate_ldp,
    aggregate_nonequilibrium,
    aggregate_tournament,
    cost_specs,
    format_table,
    kmeans_plan,
    ldp_specs,
    nonequilibrium_plan,
    run_som_experiment,
    run_svm_experiment,
    tournament_plan,
)
from ..runtime import ComponentSpec, TaskSpec
from .base import (
    Scenario,
    ScenarioParam,
    ScenarioPlan,
    parse_bool,
    parse_floats,
)
from .registry import register_scenario

__all__ = ["ultimatum_rows", "dataset_rows"]


def _single(params: Mapping[str, Any], records: List[Any]) -> Any:
    """Aggregate for single-cell scenarios: the one record is the value."""
    if len(records) != 1:
        raise ValueError(f"expected exactly one record, got {len(records)}")
    return records[0]


# --------------------------------------------------------------------- #
# Table I — ultimatum game payoff matrix
# --------------------------------------------------------------------- #
def ultimatum_rows() -> list:
    """The Table I rows (module-level so the task cell is picklable)."""
    game = build_ultimatum_game(UltimatumPayoffs())
    equilibria = game.pure_nash_equilibria()
    rows = []
    for i, row_label in enumerate(game.row_labels):
        for j, col_label in enumerate(game.col_labels):
            rows.append(
                (
                    row_label,
                    col_label,
                    game.row_payoffs[i, j],
                    game.col_payoffs[i, j],
                    "yes" if (i, j) in equilibria else "",
                )
            )
    return rows


def _table1_plan(params: Mapping[str, Any]) -> ScenarioPlan:
    return ScenarioPlan(
        specs=[
            TaskSpec(ComponentSpec(ultimatum_rows), tags={"artifact": "table1"})
        ]
    )


def _table1_render(params: Mapping[str, Any], rows: list) -> str:
    return format_table(
        ["adversary", "collector", "adv payoff", "col payoff", "Nash"],
        rows,
        title="Table I: ultimatum game",
    )


register_scenario(
    Scenario(
        name="table1",
        description="ultimatum game payoff matrix (Table I)",
        plan=_table1_plan,
        aggregate=_single,
        render=_table1_render,
    )
)


# --------------------------------------------------------------------- #
# Table II — dataset information
# --------------------------------------------------------------------- #
def dataset_rows(generate: bool) -> list:
    """The Table II rows; ``generate=True`` verifies by regenerating."""
    verified = dataset_info(generate=generate)
    return [
        (info.name, DATASETS[key].instances, info.features, info.clusters)
        for key, info in verified.items()
    ]


def _table2_plan(params: Mapping[str, Any]) -> ScenarioPlan:
    return ScenarioPlan(
        specs=[
            TaskSpec(
                ComponentSpec(dataset_rows, {"generate": bool(params["generate"])}),
                tags={"artifact": "table2"},
            )
        ]
    )


def _table2_render(params: Mapping[str, Any], rows: list) -> str:
    return format_table(
        ["Dataset", "Instances", "Features", "Clusters"],
        rows,
        title="Table II: dataset information",
    )


register_scenario(
    Scenario(
        name="table2",
        description="dataset information (Table II)",
        plan=_table2_plan,
        aggregate=_single,
        render=_table2_render,
        params=(
            ScenarioParam(
                "generate",
                parse_bool,
                quick=False,
                full=True,
                help="regenerate every dataset to verify the table",
            ),
        ),
    )
)


# --------------------------------------------------------------------- #
# Table III — non-equilibrium mixed-strategy results
# --------------------------------------------------------------------- #
def _table3_config(params: Mapping[str, Any]) -> NonEquilibriumConfig:
    return NonEquilibriumConfig(
        repetitions=int(params["repetitions"]),
        p_values=tuple(float(p) for p in params["p_values"]),
    )


def _table3_plan(params: Mapping[str, Any]) -> ScenarioPlan:
    config = _table3_config(params)
    return ScenarioPlan(specs=nonequilibrium_plan(config))


def _table3_aggregate(params: Mapping[str, Any], records: List[Any]) -> list:
    return aggregate_nonequilibrium(_table3_config(params), records)


def _table3_render(params: Mapping[str, Any], rows: list) -> str:
    return format_table(
        ["p", "avg termination", "Titfortat", "Elastic"],
        [
            (
                r.p,
                r.average_termination_rounds,
                r.titfortat_poison_fraction,
                r.elastic_poison_fraction,
            )
            for r in rows
        ],
        title="Table III: non-equilibrium results",
    )


register_scenario(
    Scenario(
        name="table3",
        description="non-equilibrium results (Table III)",
        plan=_table3_plan,
        aggregate=_table3_aggregate,
        render=_table3_render,
        params=(
            ScenarioParam(
                "repetitions", int, quick=4, full=25,
                help="Monte Carlo repetitions per (p, scheme) cell",
            ),
            ScenarioParam(
                "p_values",
                parse_floats,
                quick=(0.0, 0.25, 0.5, 0.75, 1.0),
                full=NonEquilibriumConfig().p_values,
                help="equilibrium-probability grid of the mixed adversary",
            ),
        ),
    )
)


# --------------------------------------------------------------------- #
# Table IV — roundwise Elastic cost
# --------------------------------------------------------------------- #
def _table4_plan(params: Mapping[str, Any]) -> ScenarioPlan:
    return ScenarioPlan(specs=cost_specs(CostConfig()))


def _table4_aggregate(params: Mapping[str, Any], records: List[Any]) -> list:
    return aggregate_cost(CostConfig(), records)


def _table4_render(params: Mapping[str, Any], rows: list) -> str:
    return format_table(
        ["Round_no", "k=0.5 (%)", "k=0.1 (%)"],
        [(r.round_no, 100 * r.cost_k_high, 100 * r.cost_k_low) for r in rows],
        title="Table IV: roundwise Elastic cost",
    )


register_scenario(
    Scenario(
        name="table4",
        description="Elastic roundwise cost (Table IV)",
        plan=_table4_plan,
        aggregate=_table4_aggregate,
        render=_table4_render,
    )
)


# --------------------------------------------------------------------- #
# Figs. 4 / 5 — k-means under equilibrium play
# --------------------------------------------------------------------- #
def _kmeans_config(params: Mapping[str, Any], t_th: float) -> EquilibriumConfig:
    return EquilibriumConfig(
        dataset=str(params["dataset"]),
        t_th=float(t_th),
        attack_ratios=tuple(float(r) for r in params["ratios"]),
        repetitions=int(params["repetitions"]),
        rounds=int(params["rounds"]),
    )


def _kmeans_plan(params: Mapping[str, Any], t_th: float) -> ScenarioPlan:
    config = _kmeans_config(params, t_th)
    specs, reduce = kmeans_plan(config)
    return ScenarioPlan(specs=specs, reduce=reduce)


def _kmeans_aggregate(
    params: Mapping[str, Any], records: List[Any], t_th: float
) -> list:
    return aggregate_kmeans(_kmeans_config(params, t_th), records)


def _kmeans_render(params: Mapping[str, Any], cells: list, t_th: float) -> str:
    return format_table(
        ["scheme", "attack ratio", "SSE", "Distance"],
        [(c.scheme, c.attack_ratio, c.sse, c.distance) for c in cells],
        title=f"k-means ({params['dataset']}, T_th={t_th})",
    )


def _kmeans_params() -> tuple:
    return (
        ScenarioParam("dataset", str, quick="control", help="dataset registry name"),
        ScenarioParam(
            "ratios",
            parse_floats,
            quick=(0.002, 0.01, 0.1, 0.35),
            full=(0.002, 0.006, 0.01, 0.05, 0.1, 0.15, 0.2, 0.35, 0.5),
            help="attack-ratio grid",
        ),
        ScenarioParam(
            "repetitions", int, quick=1, full=5,
            help="Monte Carlo repetitions per cell",
        ),
        ScenarioParam("rounds", int, quick=10, full=20, help="rounds per game"),
    )


for _name, _t_th, _fig in (("fig4", 0.9, "Fig. 4"), ("fig5", 0.97, "Fig. 5")):
    register_scenario(
        Scenario(
            name=_name,
            description=f"k-means comparison, T_th={_t_th} ({_fig})",
            plan=partial(_kmeans_plan, t_th=_t_th),
            aggregate=partial(_kmeans_aggregate, t_th=_t_th),
            render=partial(_kmeans_render, t_th=_t_th),
            params=_kmeans_params(),
        )
    )


# --------------------------------------------------------------------- #
# Fig. 7 — SVM comparison
# --------------------------------------------------------------------- #
def _fig7_plan(params: Mapping[str, Any]) -> ScenarioPlan:
    config = SVMConfig(svm_iterations=int(params["svm_iterations"]))
    return ScenarioPlan(
        specs=[
            TaskSpec(
                ComponentSpec(run_svm_experiment, {"config": config}),
                tags={"artifact": "fig7"},
            )
        ]
    )


def _fig7_render(params: Mapping[str, Any], results: list) -> str:
    return format_table(
        ["scheme", "accuracy %"],
        [(r.scheme, 100 * r.accuracy) for r in results],
        title="Fig. 7: SVM comparison (Control, T_th=0.95, ratio 0.4)",
    )


register_scenario(
    Scenario(
        name="fig7",
        description="SVM comparison (Fig. 7, includes Fig. 6a ground truth)",
        plan=_fig7_plan,
        aggregate=_single,
        render=_fig7_render,
        params=(
            ScenarioParam(
                "svm_iterations", int, quick=10_000, full=20_000,
                help="SGD iterations of the one-vs-rest linear SVM",
            ),
        ),
    )
)


# --------------------------------------------------------------------- #
# Fig. 8 — SOM comparison
# --------------------------------------------------------------------- #
def _fig8_plan(params: Mapping[str, Any]) -> ScenarioPlan:
    config = SOMConfig(
        bulk_size=int(params["bulk_size"]),
        som_iterations=int(params["som_iterations"]),
        rounds=int(params["rounds"]),
        grid=(int(params["grid_rows"]), int(params["grid_cols"])),
    )
    return ScenarioPlan(
        specs=[
            TaskSpec(
                ComponentSpec(run_som_experiment, {"config": config}),
                tags={"artifact": "fig8"},
            )
        ]
    )


def _fig8_render(params: Mapping[str, Any], results: list) -> str:
    return format_table(
        ["scheme", "minority kept", "poison share", "clusters", "QE"],
        [
            (
                r.scheme,
                r.minority_retained,
                r.poison_retained_fraction,
                r.cluster_count,
                r.quantization_error,
            )
            for r in results
        ],
        title="Fig. 8: SOM comparison (Creditcard)",
    )


register_scenario(
    Scenario(
        name="fig8",
        description="SOM comparison (Fig. 8, includes Fig. 6b ground truth)",
        plan=_fig8_plan,
        aggregate=_single,
        render=_fig8_render,
        params=(
            ScenarioParam("bulk_size", int, quick=1200, full=3000,
                          help="bulk sample size of the Creditcard stand-in"),
            ScenarioParam("som_iterations", int, quick=2500, full=6000,
                          help="SOM training iterations"),
            ScenarioParam("rounds", int, quick=6, full=10,
                          help="collection-game rounds"),
            ScenarioParam("grid_rows", int, quick=10, full=20, help="SOM grid rows"),
            ScenarioParam("grid_cols", int, quick=10, full=20, help="SOM grid cols"),
        ),
    )
)


# --------------------------------------------------------------------- #
# Fig. 9 — LDP trimming vs EMF
# --------------------------------------------------------------------- #
def _fig9_config(params: Mapping[str, Any]) -> LDPConfig:
    return LDPConfig(
        epsilons=tuple(float(e) for e in params["epsilons"]),
        attack_ratios=tuple(float(r) for r in params["ratios"]),
        n_users=int(params["n_users"]),
        rounds=int(params["rounds"]),
        repetitions=int(params["repetitions"]),
        reference_size=int(params["reference_size"]),
    )


def _fig9_plan(params: Mapping[str, Any]) -> ScenarioPlan:
    return ScenarioPlan(specs=ldp_specs(_fig9_config(params)))


def _fig9_aggregate(params: Mapping[str, Any], records: List[Any]) -> list:
    return aggregate_ldp(_fig9_config(params), records)


def _fig9_render(params: Mapping[str, Any], cells: list) -> str:
    return format_table(
        ["attack ratio", "epsilon", "scheme", "MSE"],
        [(c.attack_ratio, c.epsilon, c.scheme, c.mse) for c in cells],
        title="Fig. 9: LDP comparison",
    )


register_scenario(
    Scenario(
        name="fig9",
        description="LDP trimming vs EMF (Fig. 9)",
        plan=_fig9_plan,
        aggregate=_fig9_aggregate,
        render=_fig9_render,
        params=(
            ScenarioParam(
                "epsilons",
                parse_floats,
                quick=(1.0, 2.0, 3.0, 5.0),
                full=LDPConfig().epsilons,
                help="privacy budgets",
            ),
            ScenarioParam(
                "ratios",
                parse_floats,
                quick=(0.05, 0.2),
                full=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45),
                help="attack-ratio grid",
            ),
            ScenarioParam("n_users", int, quick=1000, full=2000,
                          help="honest users per round"),
            ScenarioParam("rounds", int, quick=3, full=5,
                          help="collection rounds"),
            ScenarioParam("repetitions", int, quick=2, full=5,
                          help="Monte Carlo repetitions per cell"),
            ScenarioParam("reference_size", int, quick=2000, full=4000,
                          help="public calibration sample size"),
        ),
    )
)


# --------------------------------------------------------------------- #
# Meta-game tournament (beyond the paper)
# --------------------------------------------------------------------- #
def _metagame_config(params: Mapping[str, Any]) -> TournamentConfig:
    return TournamentConfig(
        repetitions=int(params["repetitions"]), rounds=int(params["rounds"])
    )


def _metagame_plan(params: Mapping[str, Any]) -> ScenarioPlan:
    config = _metagame_config(params)
    specs, reduce = tournament_plan(config)
    return ScenarioPlan(specs=specs, reduce=reduce)


def _metagame_aggregate(params: Mapping[str, Any], records: List[Any]) -> Any:
    return aggregate_tournament(_metagame_config(params), records)


def _metagame_render(params: Mapping[str, Any], result: Any) -> str:
    rows = []
    for i, aname in enumerate(result.adversary_names):
        for j, cname in enumerate(result.collector_names):
            rows.append((aname, cname, result.adversary_payoffs[i, j]))
    mixtures = ", ".join(
        f"{n}={w:.2f}"
        for n, w in zip(result.collector_names, result.collector_mixture, strict=False)
        if w > 1e-6
    )
    return format_table(
        ["adversary", "collector", "adversary payoff"],
        rows,
        title=f"Meta-game tournament — minimax collector: {mixtures}",
    )


register_scenario(
    Scenario(
        name="metagame",
        description="empirical strategy tournament (beyond the paper)",
        plan=_metagame_plan,
        aggregate=_metagame_aggregate,
        render=_metagame_render,
        params=(
            ScenarioParam(
                "repetitions", int, quick=2, full=4,
                help="repetitions per (collector, adversary) cell",
            ),
            ScenarioParam("rounds", int, quick=10, full=20,
                          help="rounds per game"),
        ),
    )
)

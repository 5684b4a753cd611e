"""Core game-theoretic model: payoffs, games, analytics, strategies, engine."""

from .domain import (
    Domain,
    QuantileTable,
    empirical_quantile,
    percentile_grid,
    percentile_of,
)
from .engine import (
    BandExcessJudge,
    BatchedCollectionGame,
    CollectionGame,
    GameResult,
    NoisyPositionJudge,
)
from .game import (
    HARD,
    SOFT,
    BimatrixGame,
    UltimatumPayoffs,
    build_ultimatum_game,
    solve_zero_sum,
)
from .horizon import InfiniteHorizonAnalysis, backward_induction
from .lagrangian import (
    ElasticLagrangian,
    FreeLagrangian,
    TitForTatLagrangian,
    action,
    euler_lagrange_residual,
    least_action_path,
)
from .mixed import MixedStrategy, reduce_distribution
from .oscillator import CoupledUtilityOscillator
from .payoffs import PayoffModel, power_poison_gain, power_trim_cost
from .quality import (
    KolmogorovSmirnovEvaluator,
    MeanShiftEvaluator,
    QualityEvaluator,
    TailMassEvaluator,
)
from .repeated import RepeatedGameModel
from .stackelberg import (
    BestResponseDynamics,
    StackelbergSolution,
    linear_response_fixed_point,
    solve_stackelberg,
)
from .trimming import (
    BatchTrimReport,
    RadialTrimmer,
    Trimmer,
    TrimReport,
    ValueTrimmer,
)

__all__ = [
    "Domain",
    "QuantileTable",
    "empirical_quantile",
    "percentile_of",
    "percentile_grid",
    "PayoffModel",
    "power_poison_gain",
    "power_trim_cost",
    "MixedStrategy",
    "reduce_distribution",
    "BimatrixGame",
    "UltimatumPayoffs",
    "build_ultimatum_game",
    "solve_zero_sum",
    "SOFT",
    "HARD",
    "backward_induction",
    "InfiniteHorizonAnalysis",
    "StackelbergSolution",
    "solve_stackelberg",
    "BestResponseDynamics",
    "linear_response_fixed_point",
    "RepeatedGameModel",
    "FreeLagrangian",
    "ElasticLagrangian",
    "TitForTatLagrangian",
    "action",
    "euler_lagrange_residual",
    "least_action_path",
    "CoupledUtilityOscillator",
    "QualityEvaluator",
    "TailMassEvaluator",
    "KolmogorovSmirnovEvaluator",
    "MeanShiftEvaluator",
    "Trimmer",
    "ValueTrimmer",
    "RadialTrimmer",
    "TrimReport",
    "BandExcessJudge",
    "NoisyPositionJudge",
    "CollectionGame",
    "GameResult",
    "BatchedCollectionGame",
    "BatchTrimReport",
]

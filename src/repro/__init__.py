"""repro — Interactive Trimming against Evasive Online Data Manipulation Attacks.

A from-scratch Python reproduction of the ICDE 2024 paper (Fu, Ye, Du,
Hu): a game-theoretic defense for online data poisoning built on the
trimming strategy, with

* the game-theoretic core (payoffs, ultimatum game, Stackelberg
  equilibrium, repeated-game compliance, least-action analytical model),
* the Tit-for-tat and Elastic collector strategies and the full adversary
  family,
* the multi-round collection game engine with its public board,
* LDP, k-means/SVM/SOM, and synthetic-dataset substrates, and
* experiment runners regenerating every table and figure of the paper.

Quickstart::

    from repro import CollectionGame, make_scheme
    from repro.core.trimming import RadialTrimmer
    from repro.datasets import load_dataset
    from repro.streams import ArrayStream, PoisonInjector

    data, _ = load_dataset("control")
    collector, adversary = make_scheme("elastic0.5", t_th=0.9)
    game = CollectionGame(
        source=ArrayStream(data, batch_size=100, seed=0),
        collector=collector,
        adversary=adversary,
        injector=PoisonInjector(attack_ratio=0.2, seed=0),
        trimmer=RadialTrimmer(),
        reference=data,
        rounds=20,
    )
    result = game.run()
    print(result.poison_retained_fraction())
"""

from .core import (
    BandExcessJudge,
    BatchedCollectionGame,
    BimatrixGame,
    CollectionGame,
    CoupledUtilityOscillator,
    Domain,
    ElasticLagrangian,
    FreeLagrangian,
    GameResult,
    InfiniteHorizonAnalysis,
    MixedStrategy,
    PayoffModel,
    QuantileTable,
    RadialTrimmer,
    RepeatedGameModel,
    StackelbergSolution,
    TitForTatLagrangian,
    UltimatumPayoffs,
    ValueTrimmer,
    backward_induction,
    build_ultimatum_game,
    solve_stackelberg,
    solve_zero_sum,
)
from .core.session import (
    BatchedGameSession,
    BatchedRoundDecision,
    GameSession,
    RoundDecision,
    RoundPayoffs,
    SnapshotError,
)
from .core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    GenerousCollector,
    JustBelowAdversary,
    MirrorCollector,
    MixedAdversary,
    MixedStrategyTrigger,
    NullAdversary,
    OstrichCollector,
    QualityTrigger,
    StaticCollector,
    TitForTatCollector,
    TitForTwoTatsCollector,
    UniformRangeAdversary,
)
from .experiments import SCHEMES, make_scheme, scheme_specs
from .runtime import (
    ComponentSpec,
    FailureRecord,
    FaultInjector,
    FaultPlan,
    GameRecord,
    GameSpec,
    ResultStore,
    StrategyPair,
    SweepGrid,
    SweepRunner,
    TaskSpec,
)
from .serving import DefenseService, TenantFailure

__version__ = "1.10.0"

__all__ = [
    "__version__",
    # game-theoretic core
    "Domain",
    "QuantileTable",
    "PayoffModel",
    "MixedStrategy",
    "BimatrixGame",
    "UltimatumPayoffs",
    "build_ultimatum_game",
    "solve_zero_sum",
    "StackelbergSolution",
    "solve_stackelberg",
    "RepeatedGameModel",
    "backward_induction",
    "InfiniteHorizonAnalysis",
    "FreeLagrangian",
    "ElasticLagrangian",
    "TitForTatLagrangian",
    "CoupledUtilityOscillator",
    # engine
    "CollectionGame",
    "GameResult",
    "BatchedCollectionGame",
    "BandExcessJudge",
    "ValueTrimmer",
    "RadialTrimmer",
    # sessions + serving
    "GameSession",
    "BatchedGameSession",
    "RoundDecision",
    "BatchedRoundDecision",
    "RoundPayoffs",
    "SnapshotError",
    "DefenseService",
    "TenantFailure",
    # strategies
    "OstrichCollector",
    "StaticCollector",
    "TitForTatCollector",
    "QualityTrigger",
    "MixedStrategyTrigger",
    "ElasticCollector",
    "ElasticAdversary",
    "NullAdversary",
    "FixedAdversary",
    "UniformRangeAdversary",
    "JustBelowAdversary",
    "MixedAdversary",
    "MirrorCollector",
    "GenerousCollector",
    "TitForTwoTatsCollector",
    # experiments
    "SCHEMES",
    "make_scheme",
    "scheme_specs",
    # sweep runtime
    "ComponentSpec",
    "GameSpec",
    "TaskSpec",
    "GameRecord",
    "FailureRecord",
    "FaultInjector",
    "FaultPlan",
    "StrategyPair",
    "SweepGrid",
    "SweepRunner",
    "ResultStore",
]

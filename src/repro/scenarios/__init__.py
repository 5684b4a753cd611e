"""Declarative scenario layer: every paper artifact as a registry entry.

A scenario bundles what used to be an ad-hoc CLI wrapper — grid
construction, execution, aggregation, rendering — into a declarative
descriptor running on the :mod:`repro.runtime` sweep stack, so each
artifact is parallel, lockstep-played, cacheable and resumable through the
content-addressed :class:`~repro.runtime.store.ResultStore`.

Quickstart::

    from repro.runtime import ResultStore
    from repro.scenarios import get_scenario, run_scenario

    store = ResultStore(".repro-cache")
    run = run_scenario(get_scenario("table4"), scale="quick", store=store)
    print(run.text)                 # the rendered Table IV
    print(run.stats.describe())     # "20 cells: 0 loaded from store, 20 played"
    # run it again: every cell replays from disk, zero games execute

Registering a new workload is the extension point for experiment
growth::

    from repro.scenarios import Scenario, register_scenario
    register_scenario(Scenario(name=..., plan=..., aggregate=..., render=...))
"""

from .base import (
    Scenario,
    ScenarioError,
    ScenarioParam,
    ScenarioPlan,
    ScenarioRun,
    report_scenario,
    resolve_params,
    run_scenario,
)
from .registry import (
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)

# Importing the artifact definitions populates the registry.
from . import artifacts  # noqa: E402,F401  (import for side effect)

__all__ = [
    "Scenario",
    "ScenarioError",
    "ScenarioParam",
    "ScenarioPlan",
    "ScenarioRun",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "report_scenario",
    "resolve_params",
    "run_scenario",
    "scenario_names",
]

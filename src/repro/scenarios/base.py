"""Scenario descriptors: declarative, cacheable, resumable experiments.

A *scenario* is a registered description of one paper artifact (or any
future workload): a name, typed parameters with quick/full defaults, a
*plan* builder that expands the parameters into grid-order sweep cells
(:class:`~repro.runtime.spec.GameSpec` or
:class:`~repro.runtime.spec.TaskSpec`) plus the in-worker reducer, an
*aggregate* step folding grid-order records into the artifact value, and
a *renderer* producing the printed table.  Because execution always goes
through :class:`~repro.runtime.runner.SweepRunner`, every scenario
inherits the whole runtime stack for free: process workers, lockstep
play of its game cells, and — with a
:class:`~repro.runtime.store.ResultStore` — per-cell persistence, crash
resumability and warm-cache replay with zero game executions.

The separation matters for the store: records are keyed per *cell*, so
re-running a scenario with one changed parameter only recomputes the
cells that parameter actually touches, and ``scenario report`` can
re-aggregate and re-render entirely from disk via the run's manifest
(the grid-order list of cell keys persisted next to the records).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..runtime import (
    FailureRecord,
    FaultInjector,
    FaultPlan,
    ResultStore,
    SweepRunner,
    SweepStats,
)
from ..runtime.store import canonical_json

__all__ = [
    "Scenario",
    "ScenarioError",
    "ScenarioParam",
    "ScenarioPlan",
    "ScenarioRun",
    "parse_bool",
    "parse_floats",
    "report_scenario",
    "resolve_params",
    "run_scenario",
]

#: Manifest document format; bump to invalidate existing manifests.
MANIFEST_FORMAT = 1


class ScenarioError(RuntimeError):
    """Raised for unusable scenario input (unknown name, bad params,
    missing manifest/records on report)."""


# --------------------------------------------------------------------- #
# typed parameters
# --------------------------------------------------------------------- #
def parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_floats(text: str) -> Tuple[float, ...]:
    items = [item.strip() for item in str(text).split(",") if item.strip()]
    if not items:
        raise ValueError("expected a comma-separated float list")
    return tuple(float(item) for item in items)


@dataclass(frozen=True)
class ScenarioParam:
    """One typed scenario parameter with per-scale defaults.

    ``parse`` turns a CLI string into the typed value (``int``,
    ``float``, :func:`parse_floats`, …); ``quick`` and ``full`` are the
    defaults the two scales resolve to (``full`` falls back to ``quick``
    when omitted — a scale-independent parameter).
    """

    name: str
    parse: Callable[[str], Any]
    quick: Any
    full: Any = None
    help: str = ""

    def default(self, scale: str) -> Any:
        if scale == "full" and self.full is not None:
            return self.full
        return self.quick


@dataclass(frozen=True)
class ScenarioPlan:
    """A scenario's executable half: grid-order cells plus their reducer."""

    specs: Sequence[Any]
    reduce: Optional[Callable] = None


@dataclass(frozen=True)
class Scenario:
    """One registered, declarative experiment.

    ``plan(params)`` expands resolved parameters into a
    :class:`ScenarioPlan`; ``aggregate(params, records)`` folds the
    grid-order records into the artifact value; ``render(params,
    value)`` produces the printed artifact.  Aggregate and render must
    work identically on fresh records and on records decoded from the
    result store — that equivalence is what makes warm-cache replay and
    ``scenario report`` byte-identical to a cold run.
    """

    name: str
    description: str
    plan: Callable[[Mapping[str, Any]], ScenarioPlan]
    aggregate: Callable[[Mapping[str, Any], List[Any]], Any]
    render: Callable[[Mapping[str, Any], Any], str]
    params: Tuple[ScenarioParam, ...] = ()

    def resolve_params(
        self,
        scale: str = "quick",
        overrides: Optional[Mapping[str, str]] = None,
    ) -> Dict[str, Any]:
        """Scale defaults merged with parsed ``--param`` overrides."""
        if scale not in ("quick", "full"):
            raise ScenarioError(f"unknown scale {scale!r} (quick|full)")
        resolved = {p.name: p.default(scale) for p in self.params}
        by_name = {p.name: p for p in self.params}
        for key, raw in (overrides or {}).items():
            if key not in by_name:
                raise ScenarioError(
                    f"scenario {self.name!r} has no parameter {key!r}; "
                    f"options: {sorted(by_name) or '(none)'}"
                )
            try:
                resolved[key] = by_name[key].parse(raw)
            except (TypeError, ValueError) as exc:
                raise ScenarioError(
                    f"bad value for {self.name}.{key}: {exc}"
                ) from exc
        return resolved


def resolve_params(
    scenario: Scenario,
    scale: str = "quick",
    overrides: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """Module-level convenience wrapper for :meth:`Scenario.resolve_params`."""
    return scenario.resolve_params(scale, overrides)


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioRun:
    """Everything one scenario invocation produced."""

    name: str
    scale: str
    params: Mapping[str, Any]
    records: List[Any]
    value: Any
    text: str
    stats: SweepStats
    manifest: Optional[str] = None  # manifest name, when a store was used
    #: Grid-order quarantined-cell records (empty on a clean run).
    failures: Tuple[FailureRecord, ...] = ()


def _params_jsonable(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Params as a JSON document (tuples become lists)."""

    def convert(value: Any) -> Any:
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        return value

    return {key: convert(value) for key, value in params.items()}


def _params_digest(params: Mapping[str, Any]) -> str:
    return hashlib.sha256(
        canonical_json(_params_jsonable(params)).encode("utf-8")
    ).hexdigest()[:12]


def _render_failures(
    name: str, failures: Sequence[FailureRecord], total: int
) -> str:
    """The text a quarantined run prints instead of its artifact."""
    lines = [
        f"scenario {name}: {len(failures)}/{total} cells quarantined "
        "(no artifact rendered; re-run to retry exactly these cells)"
    ]
    for failure in failures:
        lines.append(
            f"  cell {failure.index} [{failure.kind}] after "
            f"{failure.attempts} attempt(s): {failure.error}"
        )
    return "\n".join(lines)


def run_scenario(
    scenario: Scenario,
    scale: str = "quick",
    overrides: Optional[Mapping[str, str]] = None,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    on_error: str = "raise",
    timeout: Optional[float] = None,
    retries: int = 0,
    faults: Union[FaultInjector, FaultPlan, None] = None,
) -> ScenarioRun:
    """Plan, execute, aggregate and render one scenario.

    With a store attached, already-played cells load from disk, fresh
    records persist as they complete (interrupt-safe), and a manifest
    named after the scenario records the grid-order cell keys so
    :func:`report_scenario` can replay without executing anything.

    ``on_error``/``timeout``/``retries``/``faults`` configure the
    runner's supervision (see
    :class:`~repro.runtime.runner.SweepRunner`).  Under
    ``on_error="quarantine"`` a run with permanently failed cells skips
    aggregation (``value=None``) and renders a failure summary instead;
    with a store, a ``<name>.failures`` manifest is written next to the
    key manifest (and cleared again by the next clean run), and —
    because quarantined cells are never persisted — simply re-running
    the scenario against the same store retries exactly the failed
    cells and heals the artifact.
    """
    params = scenario.resolve_params(scale, overrides)
    plan = scenario.plan(params)
    runner = SweepRunner(
        workers=workers,
        reduce=plan.reduce,
        store=store,
        on_error=on_error,
        timeout=timeout,
        retries=retries,
        faults=faults,
    )
    records = runner.run(list(plan.specs))
    failures = tuple(runner.last_failures)
    if failures:
        # FailureRecords sit in the grid slots; the scenario's own
        # aggregate would choke on them (and the artifact would be a
        # lie anyway).  Report the damage instead.
        value = None
        text = _render_failures(scenario.name, failures, len(records))
    else:
        value = scenario.aggregate(params, records)
        text = scenario.render(params, value)

    manifest_name = None
    if store is not None:
        manifest_name = scenario.name
        store.save_manifest(
            manifest_name,
            {
                "format": MANIFEST_FORMAT,
                "scenario": scenario.name,
                "scale": scale,
                "params": _params_jsonable(params),
                "params_digest": _params_digest(params),
                "code_version": store.code_version,
                # the runner already hashed every spec for the cache
                # lookup; reuse that pass instead of re-canonicalizing
                "keys": runner.last_keys,
            },
        )
        failures_name = f"{scenario.name}.failures"
        if failures:
            keys = runner.last_keys or []
            store.save_manifest(
                failures_name,
                {
                    "format": MANIFEST_FORMAT,
                    "scenario": scenario.name,
                    "code_version": store.code_version,
                    "quarantined": [
                        {
                            "index": failure.index,
                            "key": (
                                keys[failure.index]
                                if failure.index < len(keys)
                                else None
                            ),
                            "kind": failure.kind,
                            "error": failure.error,
                            "attempts": failure.attempts,
                            "tags": _params_jsonable(failure.tags),
                        }
                        for failure in failures
                    ],
                },
            )
        else:
            store.delete_manifest(failures_name)
    return ScenarioRun(
        name=scenario.name,
        scale=scale,
        params=params,
        records=records,
        value=value,
        text=text,
        stats=runner.last_stats,
        manifest=manifest_name,
        failures=failures,
    )


def report_scenario(scenario: Scenario, store: ResultStore) -> ScenarioRun:
    """Re-render a scenario purely from its stored manifest and records.

    No cell is ever executed: the manifest fixes the grid-order key
    list, every record must already be in the store (a missing or
    corrupt record raises :class:`ScenarioError` naming the offender),
    and aggregation/rendering run exactly as in :func:`run_scenario` —
    so the report is byte-identical to the run that wrote the manifest.
    """
    manifest = store.load_manifest(scenario.name)
    if manifest is None:
        raise ScenarioError(
            f"no stored run of scenario {scenario.name!r} under "
            f"{store.root} — run `repro scenario run {scenario.name}` first"
        )
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ScenarioError(
            f"manifest for {scenario.name!r} has unsupported format "
            f"{manifest.get('format')!r}"
        )
    if manifest.get("code_version") != store.code_version:
        raise ScenarioError(
            f"manifest for {scenario.name!r} was written by code version "
            f"{manifest.get('code_version')!r} (store is "
            f"{store.code_version!r}); re-run the scenario"
        )
    params = manifest.get("params", {})
    keys = manifest.get("keys", [])
    miss = object()
    records = []
    for index, key in enumerate(keys):
        record = store.load(key, miss)
        if record is miss:
            raise ScenarioError(
                f"record {index}/{len(keys)} of scenario "
                f"{scenario.name!r} is missing or corrupt (key {key[:12]}…); "
                f"re-run `repro scenario run {scenario.name}`"
            )
        records.append(record)
    value = scenario.aggregate(params, records)
    text = scenario.render(params, value)
    return ScenarioRun(
        name=scenario.name,
        scale=str(manifest.get("scale", "quick")),
        params=params,
        records=records,
        value=value,
        text=text,
        stats=SweepStats(total=len(keys), cached=len(keys), played=0),
        manifest=scenario.name,
    )

"""Command-line interface: run any paper artifact as a registered scenario.

Usage::

    python -m repro scenario list
    python -m repro scenario run table4
    python -m repro scenario run fig9 --scale full --workers 4
    python -m repro scenario run fig4 --param ratios=0.01,0.1 --param repetitions=3
    python -m repro scenario report fig4
    python -m repro sweep --schemes titfortat,elastic0.5 \
        --ratios 0.1,0.2,0.4 --reps 5 --workers 4

Every artifact lives in the scenario registry
(:mod:`repro.scenarios`): a declarative descriptor with typed
parameters (``--scale quick`` is benchmark-sized, ``--scale full``
approaches the paper's settings; individual knobs override via
``--param name=value``) whose cells execute on the :mod:`repro.runtime`
sweep runner.  ``scenario run`` persists every cell record to the
content-addressed result store (``--cache-dir``, default
``.repro-cache`` or ``$REPRO_CACHE_DIR``) *as it completes*: re-running
a finished scenario replays entirely from disk (zero games), an
interrupted run resumes where it stopped (``--resume`` is the default
behaviour; ``--no-cache`` opts out of the store entirely), and
``scenario report`` re-renders the last stored run without executing
anything.

``sweep`` runs an ad-hoc scheme × attack-ratio × repetition grid on the
sweep runner, which plays each run of same-family cells as one lockstep
:class:`~repro.core.engine.BatchedCollectionGame` of the cells' solo
games; ``--workers N`` fans those groups out over N processes, with
identical results.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from .analysis.cli import add_lint_arguments, run_lint
from .experiments import format_table
from .scenarios import (
    ScenarioError,
    get_scenario,
    iter_scenarios,
    report_scenario,
    run_scenario,
    scenario_names,
)

__all__ = ["main"]


def _default_cache_dir() -> str:
    """Store root: ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in the cwd."""
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def _parse_csv(text: str) -> List[str]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return items


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(item) for item in _parse_csv(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a float list: {text!r}"
        ) from exc


def _parse_param(text: str) -> tuple:
    """``name=value`` of a ``--param`` override."""
    name, sep, value = text.partition("=")
    if not sep or not name.strip():
        raise argparse.ArgumentTypeError(
            f"expected name=value, got {text!r}"
        )
    return name.strip(), value


def _sweep(args: argparse.Namespace) -> str:
    """Run a scheme × ratio × repetition grid on the sweep runner."""
    from .experiments.schemes import scheme_specs
    from .runtime import StrategyPair, SweepGrid, SweepRunner

    pairs = tuple(
        StrategyPair(scheme, *scheme_specs(scheme, args.t_th))
        for scheme in args.schemes
    )
    grid = SweepGrid(
        pairs=pairs,
        datasets=tuple(args.datasets),
        attack_ratios=tuple(args.ratios),
        repetitions=args.reps,
        rounds=args.rounds,
        batch_size=args.batch_size,
        # The summary table below only needs GameRecord counts: play
        # every cell on a lean board.
        store_retained=False,
        seed=args.seed,
    )
    records = SweepRunner(workers=args.workers).run_grid(grid)

    grouped: Dict[tuple, list] = {}
    for record in records:
        key = (record["dataset"], record["pair"], record["attack_ratio"])
        grouped.setdefault(key, []).append(record)

    import numpy as np

    rows = []
    for (dataset, scheme, ratio), reps in sorted(grouped.items()):
        terminations = [
            r.termination_round for r in reps if r.termination_round is not None
        ]
        rows.append(
            (
                dataset,
                scheme,
                ratio,
                float(np.mean([r.poison_retained_fraction for r in reps])),
                float(np.mean([r.trimmed_fraction for r in reps])),
                float(np.mean(terminations)) if terminations else "-",
            )
        )
    title = (
        f"Sweep: {grid.n_cells} games "
        f"({len(args.schemes)} schemes x {len(args.ratios)} ratios x "
        f"{args.reps} reps x {len(args.datasets)} datasets), "
        f"workers={args.workers}, seed={args.seed}"
    )
    return format_table(
        [
            "dataset",
            "scheme",
            "attack ratio",
            "poison kept",
            "trimmed",
            "avg termination",
        ],
        rows,
        title=title,
    )


# --------------------------------------------------------------------- #
# scenario subcommands
# --------------------------------------------------------------------- #
def _scenario_list() -> str:
    rows = []
    for scenario in iter_scenarios():
        knobs = ", ".join(
            f"{p.name}={p.quick}" + (f"|{p.full}" if p.full is not None else "")
            for p in scenario.params
        )
        rows.append((scenario.name, scenario.description, knobs))
    return format_table(
        ["scenario", "description", "params (quick|full)"], rows
    )


def _make_store(args: argparse.Namespace):
    """The run's ResultStore, or ``None`` under ``--no-cache``."""
    from .runtime import ResultStore

    if getattr(args, "no_cache", False):
        if getattr(args, "resume", False):
            raise ScenarioError("--resume and --no-cache are contradictory")
        return None
    return ResultStore(args.cache_dir)


def _write_stats_json(path: str, entries: List[dict]) -> None:
    """Persist per-scenario run stats as machine-readable JSON.

    The document CI (and users) assert cache behaviour against:
    ``SweepRunner.last_stats`` — total/cached/played cell counts plus
    the run's wall-clock seconds — one entry per scenario executed.
    """
    import json

    payload = {
        "format": 1,
        "scenarios": entries,
        "total_seconds": sum(e["seconds"] or 0.0 for e in entries),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _scenario_run(args: argparse.Namespace) -> int:
    overrides = dict(args.params or [])
    if args.name == "all" and overrides:
        # Params are per-scenario typed knobs; applied across "all" they
        # would abort mid-stream at the first scenario lacking the name.
        raise ScenarioError(
            "--param cannot be combined with 'all'; run the scenario "
            "that declares the parameter"
        )
    names = (
        scenario_names() if args.name == "all" else [args.name]
    )
    store = _make_store(args)
    faults = None
    if getattr(args, "inject_faults", None):
        from .runtime import FaultPlan

        faults = FaultPlan.parse(args.inject_faults)
    stats_entries: List[dict] = []
    quarantined = 0
    for name in names:
        run = run_scenario(
            get_scenario(name),
            scale=args.scale,
            overrides=overrides,
            workers=args.workers,
            store=store,
            on_error=args.on_error,
            timeout=args.timeout,
            retries=args.retries,
            faults=faults,
        )
        quarantined += len(run.failures)
        print(run.text)
        print()
        if store is not None:
            print(f"[{name}] {run.stats.describe()}", file=sys.stderr)
        stats_entries.append(
            {"scenario": name, "scale": args.scale, **run.stats.to_json()}
        )
    if args.stats_json:
        _write_stats_json(args.stats_json, stats_entries)
    # A quarantined run completed but produced no trustworthy artifact;
    # scripts must see that (a fresh `scenario run` against the same
    # store retries exactly the quarantined cells).
    return 1 if quarantined else 0


def _scenario_report(args: argparse.Namespace) -> int:
    store = _make_store(args)
    if store is None:
        raise ScenarioError("scenario report needs the result store")
    names = (
        scenario_names() if args.name == "all" else [args.name]
    )
    for name in names:
        run = report_scenario(get_scenario(name), store)
        print(run.text)
        print()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser(
        "scenario",
        help="declarative scenario registry: list, run (cached), report",
    )
    scen_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scen_sub.add_parser("list", help="list registered scenarios and params")

    scen_run = scen_sub.add_parser(
        "run", help="run a scenario (or 'all') on the result store"
    )
    scen_run.add_argument("name", help="scenario name or 'all'")
    scen_run.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="parameter defaults: quick = benchmark-sized, full = paper-sized",
    )
    scen_run.add_argument(
        "--param",
        "-p",
        dest="params",
        type=_parse_param,
        action="append",
        metavar="NAME=VALUE",
        help="override one typed scenario parameter (repeatable)",
    )
    scen_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial; results identical either way)",
    )
    scen_run.add_argument(
        "--cache-dir",
        default=_default_cache_dir(),
        help="result-store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    scen_run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from stored records (the default when the store is "
            "enabled; stated explicitly it documents intent in scripts)"
        ),
    )
    scen_run.add_argument(
        "--no-cache",
        action="store_true",
        help="run without the result store (no persistence, no resume)",
    )
    scen_run.add_argument(
        "--stats-json",
        metavar="PATH",
        default=None,
        help=(
            "write per-scenario runner stats (total/cached/played cells, "
            "wall-clock seconds, failed/retried/quarantined counters) as "
            "JSON to PATH, so scripts and CI can assert cache and failure "
            "behaviour instead of parsing stderr"
        ),
    )
    scen_run.add_argument(
        "--on-error",
        choices=("raise", "quarantine"),
        default="raise",
        help=(
            "what a permanently failing lockstep group of cells does: "
            "'raise' aborts the run (default); 'quarantine' records the "
            "failure of each of its cells, finishes "
            "the rest, writes a <name>.failures manifest and exits 1 — "
            "a later run against the same store retries only the "
            "quarantined cells"
        ),
    )
    scen_run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per lockstep group of cells; with "
            "--workers >= 2 a hung group's worker is killed and the "
            "group replayed"
        ),
    )
    scen_run.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "re-executions allowed per lockstep group after transient "
            "errors or timeouts, with exponential backoff (worker "
            "crashes always get one replay)"
        ),
    )
    scen_run.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help=(
            "arm the deterministic chaos harness, e.g. "
            "'seed=7,error=0.3,torn=0.25,attempts=2' "
            "(testing/CI; keys: seed,error,slow,kill,torn,attempts,delay)"
        ),
    )

    scen_report = scen_sub.add_parser(
        "report",
        help="re-render a stored scenario run without executing any cell",
    )
    scen_report.add_argument("name", help="scenario name or 'all'")
    scen_report.add_argument(
        "--cache-dir",
        default=_default_cache_dir(),
        help="result-store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )

    lint = sub.add_parser(
        "lint",
        help=(
            "determinism linter + registry conformance audit "
            "(the byte-identity contract, machine-checked)"
        ),
    )
    add_lint_arguments(lint)

    sweep = sub.add_parser(
        "sweep",
        help="play a scheme x ratio x repetition grid on the sweep runner",
    )
    sweep.add_argument(
        "--schemes",
        type=_parse_csv,
        default=["titfortat", "elastic0.5"],
        help="comma-separated scheme names (see repro.experiments.SCHEMES)",
    )
    sweep.add_argument(
        "--datasets",
        type=_parse_csv,
        default=["control"],
        help="comma-separated dataset registry names",
    )
    sweep.add_argument(
        "--ratios",
        type=_parse_floats,
        default=[0.1, 0.2, 0.4],
        help="comma-separated attack ratios",
    )
    sweep.add_argument("--reps", type=int, default=3, help="repetitions per cell")
    sweep.add_argument("--rounds", type=int, default=20, help="rounds per game")
    sweep.add_argument("--batch-size", type=int, default=100)
    sweep.add_argument("--t-th", type=float, default=0.9, help="headline threshold")
    sweep.add_argument("--seed", type=int, default=0, help="root seed entropy")
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial; results identical either way)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "lint":
        return run_lint(args)

    if args.command == "sweep":
        try:
            print(_sweep(args))
        except (ValueError, KeyError) as exc:  # unknown scheme/dataset, bad workers, ...
            print(f"repro sweep: error: {exc}")
            return 2
        return 0

    try:
        if args.scenario_command == "list":
            print(_scenario_list())
            return 0
        if args.scenario_command == "run":
            return _scenario_run(args)
        return _scenario_report(args)
    except (ScenarioError, ValueError, KeyError) as exc:
        print(f"repro scenario: error: {exc}")
        return 2

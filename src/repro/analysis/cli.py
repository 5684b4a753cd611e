"""Command-line front end shared by ``repro lint`` and
``python -m repro.analysis``.

Semantics:

* **no paths** — full self-audit: lint the installed ``repro`` package
  *and* run the registry conformance auditor.  This is the CI gate and
  must exit 0 at HEAD.
* **explicit paths** — lint only those files/directories (the
  conformance auditor checks the live registries, not arbitrary trees);
  pass ``--conformance`` to run it as well.

``--format json`` emits a machine-readable report (findings as plain
dicts plus a summary block) for CI artifacts.  ``--baseline FILE``
filters out previously accepted findings — matched on
``(rule, relative path, message)`` so line drift does not resurrect
them — and ``--write-baseline FILE`` records the current findings as
that acceptance set.  ``--update-golden`` regenerates the CONF007
golden transcript after an intentional decision-loop change.

Exit codes: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.session import SNAPSHOT_FORMAT
from .diagnostics import Diagnostic, Severity
from .engine import LintEngine
from .rules import all_rules

__all__ = ["add_lint_arguments", "run_lint", "main"]

_CONF_ROWS = [
    ("CONF001", "error", "every shipped strategy has a batched lane"),
    ("CONF002", "error", "stateful components resume byte-identically from a snapshot pickle"),
    ("CONF003", "error", "ComponentSpecs importable, picklable, fingerprint-stable"),
    ("CONF004", "error", "score_kind/accepts_scores pairs are commensurable"),
    ("CONF005", "error", f"{SNAPSHOT_FORMAT} envelope covers state-exporting classes"),
    ("CONF006", "error", "registered lanes declare fusion_family/fusion_params"),
    ("CONF007", "error", "decision loop replays the golden transcript byte-for-byte"),
]


def _default_target() -> str:
    """The installed ``repro`` package directory."""
    return str(Path(__file__).resolve().parents[1])


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to a parser (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files/directories to lint (default: the repro package plus "
            "the registry conformance audit)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--no-conformance",
        action="store_true",
        help="skip the registry conformance auditor (layer 2)",
    )
    parser.add_argument(
        "--conformance",
        action="store_true",
        help="run the conformance auditor even when explicit paths are given",
    )
    parser.add_argument(
        "--no-subprocess-checks",
        action="store_true",
        help=(
            "skip the cross-process fingerprint checks (faster; CI runs "
            "them, pre-commit hooks may not want two interpreter spawns)"
        ),
    )
    parser.add_argument(
        "--no-hints",
        action="store_true",
        help="omit fix hints from the report",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json: findings + summary for CI artifacts)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "suppress findings recorded in this baseline file "
            "(matched on rule + relative path + message)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record the current findings as the acceptance baseline and exit",
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help=(
            "regenerate the CONF007 golden decision transcript "
            "(tests/analysis/golden/) and exit"
        ),
    )


def _list_rules() -> int:
    rows = [(rule.rule_id, str(rule.severity), rule.title) for rule in all_rules()]
    rows.extend(_CONF_ROWS)
    width = max(len(row[0]) for row in rows)
    for rule_id, severity, title in rows:
        print(f"{rule_id:<{width}}  {severity:<7}  {title}")
    return 0


def _baseline_key(finding: Diagnostic) -> Tuple[str, str, str]:
    """Line-drift-immune identity of a finding for baseline matching."""
    path = finding.path
    try:
        path = os.path.relpath(path)
    except ValueError:
        pass
    return (finding.rule, path.replace(os.sep, "/"), finding.message)


def _load_baseline(path: str) -> Set[Tuple[str, str, str]]:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = document.get("findings", document) if isinstance(document, dict) else document
    keys: Set[Tuple[str, str, str]] = set()
    for entry in entries:
        keys.add((str(entry["rule"]), str(entry["path"]), str(entry["message"])))
    return keys


def _write_baseline(path: str, findings: Sequence[Diagnostic]) -> None:
    entries = sorted(
        {_baseline_key(finding) for finding in findings}
    )
    document = {
        "format": "repro.lint-baseline/1",
        "findings": [
            {"rule": rule, "path": rel_path, "message": message}
            for rule, rel_path, message in entries
        ],
    }
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        return _list_rules()
    if args.update_golden:
        from .golden import record_golden

        print(f"golden transcript written: {record_golden()}")
        return 0

    paths: Sequence[str] = args.paths or [_default_target()]
    run_conformance = not args.no_conformance and (
        not args.paths or args.conformance
    )

    findings: List[Diagnostic] = []
    engine = LintEngine(all_rules())
    try:
        findings.extend(engine.lint_paths(paths))
    except FileNotFoundError as exc:
        print(f"repro lint: error: {exc}")
        return 2

    if run_conformance:
        from .conformance import ConformanceAuditor

        findings.extend(
            ConformanceAuditor(
                subprocess_checks=not args.no_subprocess_checks
            ).audit()
        )

    if args.write_baseline:
        _write_baseline(args.write_baseline, findings)
        print(
            f"baseline written: {args.write_baseline} "
            f"({len(findings)} finding(s))"
        )
        return 0

    suppressed = 0
    if args.baseline:
        try:
            accepted = _load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"repro lint: error: unreadable baseline: {exc}")
            return 2
        kept = [f for f in findings if _baseline_key(f) not in accepted]
        suppressed = len(findings) - len(kept)
        findings = kept

    findings = sorted(findings)
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    scope = "lint + conformance" if run_conformance else "lint"

    if args.format == "json":
        report: Dict[str, Any] = {
            "format": "repro.lint-report/1",
            "findings": [f.to_dict() for f in findings],
            "summary": {
                "scope": scope,
                "errors": errors,
                "warnings": warnings,
                "suppressed_by_baseline": suppressed,
            },
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 1 if findings else 0

    for finding in findings:
        print(finding.format(show_hint=not args.no_hints))
    note = f" ({suppressed} baselined)" if suppressed else ""
    if findings:
        print(f"{scope}: {errors} error(s), {warnings} warning(s){note}")
        return 1
    print(f"{scope}: clean{note}")
    return 0


def main(argv: Optional[Sequence[str]] = None, prog: str = "repro lint") -> int:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Determinism linter (REP001-REP008) and registry conformance "
            "auditor (CONF001-CONF007) for the byte-identity contract."
        ),
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))

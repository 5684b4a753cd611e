"""Static analysis for the reproduction's byte-identity contract.

Two layers:

* the **AST determinism linter** (:mod:`repro.analysis.engine`,
  :mod:`repro.analysis.rules`) — rules REP001–REP005 over source text;
* the **registry conformance auditor**
  (:mod:`repro.analysis.conformance`) — imports the live registries and
  checks the protocol lattice (batched lanes, snapshot pickle
  round-trips, ComponentSpec picklability and cross-process fingerprint
  stability, score-kind commensurability, snapshot-envelope coverage).

Run both with ``repro lint`` or ``python -m repro.analysis``.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, Severity
from .engine import LintEngine, ModuleContext, Rule, iter_python_files
from .rules import DEFAULT_RULE_CLASSES, all_rules

__all__ = [
    "Diagnostic",
    "Severity",
    "LintEngine",
    "ModuleContext",
    "Rule",
    "iter_python_files",
    "DEFAULT_RULE_CLASSES",
    "all_rules",
    "default_engine",
]


def default_engine() -> LintEngine:
    """A :class:`LintEngine` loaded with the default rule set."""
    return LintEngine(all_rules())

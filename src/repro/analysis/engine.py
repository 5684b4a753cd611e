"""The determinism linter's rule engine.

One parse per file, one shared :class:`ModuleContext` (source lines,
parent links, resolved import aliases, suppression table), and a flat
list of :class:`Rule` objects that each walk the tree and yield
:class:`~repro.analysis.diagnostics.Diagnostic` findings.  Rules are
deliberately *whole-module* visitors rather than per-node callbacks: the
repo's violation classes (an ``__init__`` body diffed against ``reset``,
a call argument flowing into a seed) need more context than a single
node.  So each tree is walked many times, and :func:`walk` and
:func:`child_nodes` list a node's subtree and children once per parse.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .diagnostics import Diagnostic, Severity
from .suppressions import (
    Suppressions,
    parse_suppressions,
    propagate_def_suppressions,
)

__all__ = [
    "ModuleContext",
    "Rule",
    "LintEngine",
    "child_nodes",
    "iter_python_files",
    "walk",
]


# --------------------------------------------------------------------- #
# tree walking
# --------------------------------------------------------------------- #
def child_nodes(node: ast.AST) -> List[ast.AST]:
    """``list(ast.iter_child_nodes(node))``, computed once per node.

    The linter never mutates a parsed tree, so the list is kept on the
    node itself and every later walk reuses it.
    """
    children: Optional[List[ast.AST]] = node.__dict__.get("_child_nodes")
    if children is None:
        children = list(ast.iter_child_nodes(node))
        node.__dict__["_child_nodes"] = children
    return children


def walk(node: ast.AST) -> List[ast.AST]:
    """``list(ast.walk(node))``, in its breadth-first order, listed once per node.

    Like :func:`child_nodes`, the list is kept on the node; callers only
    iterate it.
    """
    nodes: Optional[List[ast.AST]] = node.__dict__.get("_walk")
    if nodes is None:
        nodes = [node]
        pending = deque([node])
        while pending:
            children = child_nodes(pending.popleft())
            nodes.extend(children)
            pending.extend(children)
        node.__dict__["_walk"] = nodes
    return nodes


# --------------------------------------------------------------------- #
# module context
# --------------------------------------------------------------------- #
@dataclass
class ModuleContext:
    """Everything rules need to know about one parsed source file."""

    path: str
    source: str
    tree: ast.AST
    lines: List[str]
    suppressions: Suppressions
    #: local name -> imported module dotted path (``np`` -> ``numpy``).
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> fully qualified imported symbol
    #: (``default_rng`` -> ``numpy.random.default_rng``).
    symbol_aliases: Dict[str, str] = field(default_factory=dict)
    _parents: Dict[int, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        ctx = cls(
            path=path,
            source=source,
            tree=tree,
            lines=lines,
            suppressions=parse_suppressions(lines),
        )
        propagate_def_suppressions(ctx.suppressions, tree)
        ctx._index_imports()
        ctx._index_parents()
        return ctx

    # ------------------------------------------------------------------ #
    def _index_imports(self) -> None:
        for node in walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.symbol_aliases[local] = f"{node.module}.{alias.name}"

    def _index_parents(self) -> None:
        for parent in walk(self.tree):
            for child in child_nodes(parent):
                self._parents[id(child)] = parent

    # ------------------------------------------------------------------ #
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The node's syntactic parent (``None`` at module level)."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from the node's parent up to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def resolve_call(self, func: ast.expr) -> Optional[str]:
        """Best-effort dotted name of a call target.

        ``np.random.default_rng`` resolves through the import table to
        ``numpy.random.default_rng``; a bare imported ``default_rng``
        resolves the same way; unknown names return ``None``.  Builtins
        resolve to their bare name only while unshadowed by an import.
        """
        parts: List[str] = []
        current = func
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = current.id
        parts.reverse()
        if root in self.symbol_aliases:
            return ".".join([self.symbol_aliases[root], *parts])
        if root in self.module_aliases:
            return ".".join([self.module_aliases[root], *parts])
        return ".".join([root, *parts])

    def is_suppressed(self, diagnostic: Diagnostic) -> bool:
        return self.suppressions.is_suppressed(
            diagnostic.rule, diagnostic.line
        )


# --------------------------------------------------------------------- #
# rules
# --------------------------------------------------------------------- #
class Rule:
    """One determinism rule: a stable id, a severity and a tree check."""

    #: Stable identifier (``REP001`` …) used in reports and ``noqa``.
    rule_id: str = ""
    #: Default severity of this rule's findings.
    severity: Severity = Severity.ERROR
    #: One-line description shown by ``repro lint --list-rules``.
    title: str = ""
    #: Default remediation hint attached to findings.
    fix_hint: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        """Yield every finding of this rule in the module."""
        raise NotImplementedError

    def diagnostic(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Diagnostic:
        """A finding anchored to ``node``'s location."""
        return Diagnostic(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            severity=self.severity,
            message=message,
            hint=hint or self.fix_hint,
        )


# --------------------------------------------------------------------- #
# engine
# --------------------------------------------------------------------- #
def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into the sorted set of ``.py`` files."""
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        else:
            candidates = []
        for candidate in candidates:
            key = str(candidate.resolve())
            if key not in seen:
                seen.add(key)
                yield candidate


class LintEngine:
    """Run a rule set over source files and collect findings."""

    def __init__(self, rules: Sequence[Rule]):
        ids = [rule.rule_id for rule in rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids: {ids}")
        self.rules = list(rules)

    def lint_source(self, source: str, path: str = "<string>") -> List[Diagnostic]:
        """Lint one in-memory module (testing and tooling entry point)."""
        try:
            ctx = ModuleContext.parse(path, source)
        except SyntaxError as exc:
            return [
                Diagnostic(
                    path=path,
                    line=exc.lineno or 1,
                    column=(exc.offset or 0) + 1,
                    rule="REP000",
                    severity=Severity.ERROR,
                    message=f"syntax error: {exc.msg}",
                    hint="fix the syntax error so the file can be audited",
                )
            ]
        findings: List[Diagnostic] = []
        for rule in self.rules:
            for diagnostic in rule.check(ctx):
                if not ctx.is_suppressed(diagnostic):
                    findings.append(diagnostic)
        return sorted(findings)

    def lint_file(self, path: Path) -> List[Diagnostic]:
        return self.lint_source(path.read_text(encoding="utf-8"), str(path))

    def lint_paths(self, paths: Sequence[str]) -> List[Diagnostic]:
        """Lint every ``.py`` file under ``paths``, in stable order."""
        findings: List[Diagnostic] = []
        for path in iter_python_files(paths):
            findings.extend(self.lint_file(path))
        return findings


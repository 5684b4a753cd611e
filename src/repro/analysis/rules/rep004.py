"""REP004 — no mutable defaults or shared mutable class state.

A mutable default argument is one object shared by every call; a
mutable literal assigned in a component class body is one object shared
by every instance.  Either way, two games that should be independent
suddenly share state and byte-identity across repetitions dies.  The
default-argument half applies to every function in the tree; the
class-attribute half is scoped to strategy/judge/injector/stream
component classes (see :func:`~repro.analysis.rules.common
.component_classes`), where instances must be isolated by contract.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Rule, walk
from .common import component_classes, is_mutable_literal

__all__ = ["MutableSharedStateRule"]


class MutableSharedStateRule(Rule):
    rule_id = "REP004"
    title = "no mutable default args / mutable class-level state in components"
    fix_hint = (
        "default to None and build the container in the body, or move the "
        "class attribute into __init__"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        yield from self._check_defaults(ctx)
        yield from self._check_class_state(ctx)

    # ------------------------------------------------------------------ #
    def _check_defaults(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults: List[ast.expr] = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if is_mutable_literal(ctx, default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.diagnostic(
                        ctx,
                        default,
                        f"mutable default argument in `{name}()` is shared "
                        "across calls",
                    )

    def _check_class_state(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for cls in component_classes(ctx):
            for stmt in cls.body:
                value: ast.expr | None = None
                if isinstance(stmt, ast.Assign):
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    value = stmt.value
                if value is not None and is_mutable_literal(ctx, value):
                    yield self.diagnostic(
                        ctx,
                        value,
                        f"mutable class-level attribute on component "
                        f"`{cls.name}` is shared by every instance",
                    )

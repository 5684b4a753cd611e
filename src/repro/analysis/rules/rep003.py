"""REP003 — no unordered iteration feeding canonical output.

Python ``set`` (and ``frozenset``) iteration order depends on insertion
history and hash salting, so a set that leaks into a fingerprint, a
``state_dict()``, or a reducer's canonical payload makes the artifact
byte-unstable.  The rule restricts itself to *canonicalizing* functions
(name matches fingerprint/canon/state_dict/export_state/spec_hash/
cache_key/reduce) and flags set-typed expressions used as an iteration
source or materialized by an order-preserving consumer (``list``,
``tuple``, ``enumerate``, ``str.join``) there.  ``sorted(...)`` is the
sanctioned fix and is never flagged; plain dict iteration is
insertion-ordered and allowed.

Since PR 10 the rule is *interprocedural* (via
:mod:`repro.analysis.dataflow`): inside a canonicalizing function it
also flags

* iteration over (or ordered consumption of) the result of a local
  helper or ``self._*()`` method whose return value is set-typed,
  transitively through call chains;
* a call to a local helper that itself performs unordered set
  iteration — the helper laundering the order instability does not
  launder the taint; and
* passing a set-typed value to a helper parameter the helper iterates
  unordered.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Set

from ..dataflow import ModuleDataflow, is_set_expr
from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Rule, walk
from .common import terminal_name

__all__ = ["UnorderedCanonicalIterationRule"]

_CANONICAL_FUNC = re.compile(
    r"(fingerprint|canon|state_dict|export_state|spec_hash|cache_key"
    r"|store_key|reduce)",
    re.I,
)

#: Order-preserving consumers for which set iteration order leaks out.
_ORDERED_CONSUMERS = {"list", "tuple", "enumerate"}

#: Helpers whose names mark them as order-laundering sinks we never
#: flag calls *to* (sorted output is canonical by construction).
_SANCTIONED_CALLS = {"sorted", "min", "max", "sum", "len", "frozenset", "set"}


class UnorderedCanonicalIterationRule(Rule):
    rule_id = "REP003"
    title = "no set iteration feeding fingerprints/state_dict/reducers"
    fix_hint = "wrap the set in sorted(...) before it reaches canonical output"

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        df = ModuleDataflow.of(ctx)
        for fn in walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _CANONICAL_FUNC.search(fn.name):
                continue
            yield from self._check_function(ctx, df, fn)

    # ------------------------------------------------------------------ #
    def _qualname(
        self, ctx: ModuleContext, fn: ast.AST
    ) -> str:
        parent = ctx.parent(fn)
        name = getattr(fn, "name", "<lambda>")
        if isinstance(parent, ast.ClassDef):
            return f"{parent.name}.{name}"
        return str(name)

    def _check_function(
        self, ctx: ModuleContext, df: ModuleDataflow, fn: ast.AST
    ) -> Iterator[Diagnostic]:
        qual = self._qualname(ctx, fn)
        fn_name = getattr(fn, "name", "<lambda>")

        # Local names bound to a set expression inside this function:
        # `parts = {...}` followed by `"|".join(parts)` is the same
        # leak.  Interprocedurally, a local bound to a call whose callee
        # returns a set is tainted the same way.
        set_names: Set[str] = set()
        for node in walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                if is_set_expr(ctx, node.value) or (
                    isinstance(node.value, ast.Call)
                    and df.returns_set(qual, node.value)
                ):
                    set_names.add(node.targets[0].id)

        def is_setish(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Name) and expr.id in set_names:
                return True
            if isinstance(expr, ast.Call) and df.returns_set(qual, expr):
                return True
            return is_set_expr(ctx, expr)

        flagged: Set[int] = set()

        def emit(
            source: ast.expr, how: str
        ) -> Iterator[Diagnostic]:
            if id(source) in flagged:
                return
            flagged.add(id(source))
            yield self.diagnostic(
                ctx,
                source,
                "set iteration order is unstable but feeds "
                f"{how} inside canonicalizing function "
                f"`{fn_name}()`",
            )

        for node in walk(fn):
            source: Optional[ast.expr] = None
            how = ""
            if isinstance(node, (ast.For, ast.AsyncFor)):
                source, how = node.iter, "a for-loop"
            elif isinstance(node, ast.comprehension):
                source, how = node.iter, "a comprehension"
            elif isinstance(node, ast.Call):
                name = terminal_name(node.func)
                is_join = name == "join" and isinstance(node.func, ast.Attribute)
                if (name in _ORDERED_CONSUMERS or is_join) and node.args:
                    if is_setish(node.args[0]):
                        source, how = node.args[0], f"`{name}(...)`"
                if source is None and name not in _SANCTIONED_CALLS:
                    # Interprocedural sinks: the callee iterates a set
                    # unordered, or we pass a set into a parameter it
                    # iterates unordered.
                    helper = df.performs_unordered_iteration(qual, node)
                    if helper is not None and _CANONICAL_FUNC.search(helper):
                        helper = None  # reported inside the helper itself
                    if helper is not None:
                        yield from emit(
                            node,
                            f"helper `{helper}()` (which iterates a set "
                            "unordered)",
                        )
                        continue
                    for position in df.unordered_param_positions(qual, node):
                        if position < len(node.args) and is_setish(
                            node.args[position]
                        ):
                            yield from emit(
                                node.args[position],
                                f"argument {position} of `{name}(...)` "
                                "(iterated unordered by the callee)",
                            )
            if source is not None and is_setish(source):
                yield from emit(source, how)

"""REP006 — fusion purity: ``fusion_params`` names constants only.

The PR-8 cross-cell fusion planner groups lane tenants by
``fusion_family`` and stacks the columns named in ``fusion_params`` into
one compiled round program.  That program is sound only if the declared
parameter columns are *constants*: packed once at lane build from
init-assigned instance attributes and never written again.  A mutable
column smuggled into ``fusion_params`` (a running EMA, a betrayal
latch) makes the declaration lie — the planner and the CONF006 audit
would treat lane state as re-packable configuration, and a lane rebuilt
from its declaration would silently rewind mid-game state.  Mutable
per-lane state belongs in the separate ``fusion_state`` tuple.

The rule checks, per class declaring a non-empty ``fusion_family``:

* **(A)** the ``fusion_params`` / ``fusion_state`` declarations are
  tuple literals of unique, non-empty string constants;
* **(B)** every traceable ``fusion_params`` entry (one whose backing
  ``self`` column the lane packs in ``__init__``/``build`` from an
  instance attribute of the same name) is never assigned outside the
  build path — not in ``react_many``, not in any other method;
* **(C)** no method nests a closure (``def``/``lambda``) that mutates
  lane state (``self.X = ...`` or ``nonlocal`` writes) — a compiled
  round program must be a pure function of its parameter columns.

Untraceable names (columns packed through method calls like
``inst.first()``) are left to the live CONF006 audit.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..dataflow import ModuleDataflow, walk_body
from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Rule, walk

__all__ = ["FusionPurityRule"]

#: Methods that may (re)pack parameter columns: the lane build path.
_BUILD_METHODS = {"__init__", "build"}


def _class_tuple_decl(
    cls: ast.ClassDef, name: str
) -> Optional[Tuple[ast.stmt, Optional[List[ast.expr]]]]:
    """The class-level ``name = (...)`` declaration, if any.

    Returns ``(stmt, elements)`` with ``elements=None`` when the value
    is not a tuple literal.
    """
    for node in cls.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                value = node.value  # type: ignore[union-attr]
                if isinstance(value, ast.Tuple):
                    return node, value.elts
                return node, None
    return None


def _string_const(cls_family: ast.expr) -> Optional[str]:
    if isinstance(cls_family, ast.Constant) and isinstance(
        cls_family.value, str
    ):
        return cls_family.value
    return None


def _matches(read_name: str, param: str) -> bool:
    """Whether an instance-attribute read backs a declared param name."""
    return read_name == param or read_name.lstrip("_") == param


class FusionPurityRule(Rule):
    rule_id = "REP006"
    title = "fusion_params must name init-assigned, never-mutated constants"
    fix_hint = (
        "move mutable per-lane state out of fusion_params (declare it in "
        "fusion_state) and keep compiled round programs closure-free"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        df = ModuleDataflow.of(ctx)
        for cls in df.class_defs.values():
            family_decl = _class_tuple_decl(cls, "fusion_family")
            if family_decl is None:
                continue
            family_stmt, _ = family_decl
            family = _string_const(
                getattr(family_stmt, "value", None)  # type: ignore[arg-type]
            )
            if not family:
                continue  # fallback/base declarations ("" family)
            yield from self._check_class(ctx, df, cls)

    # ------------------------------------------------------------------ #
    def _check_class(
        self, ctx: ModuleContext, df: ModuleDataflow, cls: ast.ClassDef
    ) -> Iterator[Diagnostic]:
        params: List[str] = []
        for decl_name in ("fusion_params", "fusion_state"):
            decl = _class_tuple_decl(cls, decl_name)
            if decl is None:
                continue
            stmt, elements = decl
            if elements is None:
                yield self.diagnostic(
                    ctx,
                    stmt,
                    f"`{cls.name}.{decl_name}` is not a tuple literal of "
                    "column names",
                    hint="declare the columns as a literal tuple of strings",
                )
                continue
            names = [_string_const(el) for el in elements]
            if any(not name for name in names):
                yield self.diagnostic(
                    ctx,
                    stmt,
                    f"`{cls.name}.{decl_name}` entries must be non-empty "
                    "string constants",
                    hint="declare the columns as a literal tuple of strings",
                )
                continue
            if len(set(names)) != len(names):
                yield self.diagnostic(
                    ctx,
                    stmt,
                    f"`{cls.name}.{decl_name}` repeats a column name",
                    hint="each per-lane column is declared exactly once",
                )
            if decl_name == "fusion_params":
                params = [name for name in names if name]

        if not params:
            yield from self._check_closures(ctx, df, cls)
            return

        view = df.class_view(cls.name)
        build_reachable = view.reachable(set(_BUILD_METHODS))
        backing = self._backing_columns(view, build_reachable, params)

        params_decl = _class_tuple_decl(cls, "fusion_params")
        anchor = params_decl[0] if params_decl is not None else cls

        for param in params:
            for attr in sorted(backing.get(param, set())):
                for method_name in sorted(view.methods):
                    if method_name in build_reachable:
                        continue
                    if attr in view.method_writes(method_name):
                        yield self.diagnostic(
                            ctx,
                            anchor,
                            f"fusion param {param!r} of `{cls.name}` is "
                            f"backed by `self.{attr}`, which "
                            f"`{method_name}()` mutates — fusion params "
                            "must be init-assigned constants",
                        )
                        break

        yield from self._check_closures(ctx, df, cls)

    # ------------------------------------------------------------------ #
    def _backing_columns(
        self, view, build_reachable: Set[str], params: List[str]
    ) -> Dict[str, Set[str]]:
        """param name -> ``self`` columns whose build RHS packs it."""
        backing: Dict[str, Set[str]] = {}
        for method_name in build_reachable:
            summary = view.methods[method_name]
            for node in walk_body(summary.node):
                if not isinstance(node, ast.Assign):
                    continue
                self_attrs = [
                    t.attr
                    for t in node.targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ]
                if not self_attrs:
                    continue
                reads = self._instance_reads(node.value)
                for param in params:
                    if any(_matches(read, param) for read in reads):
                        backing.setdefault(param, set()).update(self_attrs)
        return backing

    @staticmethod
    def _instance_reads(value: ast.expr) -> Set[str]:
        """Attribute/string names the RHS reads off non-self objects."""
        reads: Set[str] = set()
        for node in walk(value):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                root = node.value
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if isinstance(root, ast.Name) and root.id != "self":
                    reads.add(node.attr)
            elif isinstance(node, ast.Call):
                # _column(instances, "name") / getattr(inst, "name")
                name = (
                    node.func.id
                    if isinstance(node.func, ast.Name)
                    else (
                        node.func.attr
                        if isinstance(node.func, ast.Attribute)
                        else None
                    )
                )
                if name in {"_column", "getattr"} and len(node.args) >= 2:
                    literal = node.args[1]
                    if isinstance(literal, ast.Constant) and isinstance(
                        literal.value, str
                    ):
                        reads.add(literal.value)
        return reads

    # ------------------------------------------------------------------ #
    def _check_closures(
        self, ctx: ModuleContext, df: ModuleDataflow, cls: ast.ClassDef
    ) -> Iterator[Diagnostic]:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in walk(method):
                if node is method or not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if self._closure_mutates(node):
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"`{cls.name}.{method.name}` nests a closure that "
                        "mutates lane state — compiled round programs must "
                        "be pure functions of their parameter columns",
                    )

    @staticmethod
    def _closure_mutates(fn: ast.AST) -> bool:
        for node in walk(fn):
            if isinstance(node, ast.Nonlocal):
                return True
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for sub in walk(target):
                        if (
                            isinstance(sub, ast.Attribute)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"
                        ):
                            return True
        return False

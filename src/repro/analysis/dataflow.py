"""Interprocedural dataflow summaries for the determinism rules.

The PR-6 rules were per-statement: REP003 flagged a set iterated *inside*
a canonicalizing function but was blind the moment the iteration moved
into a helper one call away, and REP005 approximated the reset-closure
with a hand-rolled ``self.m()`` walk that missed module-level helpers
(``_shared_reset(self)``) entirely.  This module computes, once per
parsed file, the call-graph facts both rules (and the PR-8/9 surface
rules REP006–REP008) need:

* a **function summary** per module-level function and per method —
  which locals are set-typed, which ``self.X`` attributes the body reads
  and writes, which parameters have attributes assigned on them, and
  which callees (bare local calls and ``self.m()`` calls) it reaches;
* **transitive taint** fixpoints over those summaries — whether a
  function's return value is set-typed, whether its body performs
  order-unstable set iteration (directly or through callees), and which
  of its parameters end up iterated unordered;
* a **class view** with module-local base linearization, exposing
  reachability (``self.m()`` *plus* module helpers that receive
  ``self``) and the attribute read/write closure of any method set.

Summaries are cached on the :class:`~repro.analysis.engine.ModuleContext`
(one parse, one dataflow pass, shared by every rule).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .engine import ModuleContext, child_nodes

__all__ = [
    "FunctionSummary",
    "ClassView",
    "ModuleDataflow",
    "is_set_expr",
    "walk_body",
]


def walk_body(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/classes."""
    pending: List[ast.AST] = list(child_nodes(fn))
    while pending:
        node = pending.pop()
        yield node
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        pending.extend(child_nodes(node))


def is_set_expr(ctx: ModuleContext, node: ast.expr) -> bool:
    """Whether the expression is syntactically set-typed."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        resolved = ctx.resolve_call(node.func)
        if resolved in {"set", "frozenset"}:
            return True
        name = node.func.attr if isinstance(node.func, ast.Attribute) else None
        return name in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        }
    return False


def _root_name(expr: ast.expr) -> Optional[str]:
    """The root ``Name`` of a dotted/subscripted access chain."""
    current = expr
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def _assign_targets(node: ast.stmt) -> List[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def _flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    else:
        yield target


@dataclass(frozen=True)
class FunctionSummary:
    """Per-function syntactic facts (no transitive closure applied)."""

    qualname: str
    node: ast.FunctionDef
    #: Positional parameter names, in order (``self`` included).
    params: Tuple[str, ...]
    #: Methods the body calls as ``self.m(...)``.
    self_calls: FrozenSet[str]
    #: Bare local names the body calls as ``f(...)``.
    local_calls: FrozenSet[str]
    #: ``self.X`` attribute names the body assigns.
    self_writes: FrozenSet[str]
    #: ``self.X`` attribute names the body loads.
    self_reads: FrozenSet[str]
    #: param name -> attribute names assigned on that parameter.
    param_writes: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: param name -> attribute names read on that parameter.
    param_reads: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: Local names bound to syntactically set-typed expressions.
    set_locals: FrozenSet[str] = frozenset()
    #: The body returns a set-typed expression (syntactic only).
    returns_set_literal: bool = False
    #: The body iterates a set-typed value without sorting (syntactic).
    unordered_iteration: bool = False
    #: Parameters the body iterates unordered (directly).
    unordered_params: FrozenSet[str] = frozenset()
    #: Call sites: (callee kind, callee name, positional arg roots).
    calls: Tuple[Tuple[str, str, Tuple[Optional[str], ...]], ...] = ()


#: Order-preserving consumers for which set iteration order leaks out.
_ORDERED_CONSUMERS = {"list", "tuple", "enumerate"}


def _summarize(
    ctx: ModuleContext, qualname: str, fn: ast.FunctionDef
) -> FunctionSummary:
    params = tuple(arg.arg for arg in fn.args.posonlyargs + fn.args.args)
    param_set = set(params)
    self_calls: Set[str] = set()
    local_calls: Set[str] = set()
    self_writes: Set[str] = set()
    self_reads: Set[str] = set()
    param_writes: Dict[str, Set[str]] = {}
    param_reads: Dict[str, Set[str]] = {}
    set_locals: Set[str] = set()
    calls: List[Tuple[str, str, Tuple[Optional[str], ...]]] = []
    returns_set_literal = False
    unordered_iteration = False
    unordered_params: Set[str] = set()

    def is_setish(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name) and expr.id in set_locals:
            return True
        return is_set_expr(ctx, expr)

    # First pass: locals bound to set expressions (order-independent
    # over-approximation: a name once bound to a set stays tainted).
    for node in walk_body(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and is_set_expr(ctx, node.value)
        ):
            set_locals.add(node.targets[0].id)

    for node in walk_body(fn):
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                self_calls.add(node.func.attr)
                arg_roots = tuple(_root_name(a) for a in node.args)
                calls.append(("self", node.func.attr, arg_roots))
            elif isinstance(node.func, ast.Name):
                local_calls.add(node.func.id)
                arg_roots = tuple(_root_name(a) for a in node.args)
                calls.append(("local", node.func.id, arg_roots))
            name = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else node.func.id if isinstance(node.func, ast.Name) else None
            )
            is_join = name == "join" and isinstance(node.func, ast.Attribute)
            if (name in _ORDERED_CONSUMERS or is_join) and node.args:
                if is_setish(node.args[0]):
                    unordered_iteration = True
                if (
                    isinstance(node.args[0], ast.Name)
                    and node.args[0].id in param_set
                    and node.args[0].id != "self"
                ):
                    unordered_params.add(node.args[0].id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if is_setish(node.iter):
                unordered_iteration = True
            if (
                isinstance(node.iter, ast.Name)
                and node.iter.id in param_set
                and node.iter.id != "self"
            ):
                unordered_params.add(node.iter.id)
        elif isinstance(node, ast.comprehension):
            if is_setish(node.iter):
                unordered_iteration = True
            if (
                isinstance(node.iter, ast.Name)
                and node.iter.id in param_set
                and node.iter.id != "self"
            ):
                unordered_params.add(node.iter.id)
        elif isinstance(node, ast.Return) and node.value is not None:
            if is_setish(node.value):
                returns_set_literal = True
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                root = node.value.id
                if isinstance(node.ctx, ast.Load):
                    if root == "self":
                        self_reads.add(node.attr)
                    elif root in param_set:
                        param_reads.setdefault(root, set()).add(node.attr)

        for target in _assign_targets(node) if isinstance(node, ast.stmt) else ():
            for leaf in _flatten_targets(target):
                if isinstance(leaf, ast.Attribute) and isinstance(
                    leaf.value, ast.Name
                ):
                    root = leaf.value.id
                    if root == "self":
                        self_writes.add(leaf.attr)
                    elif root in param_set:
                        param_writes.setdefault(root, set()).add(leaf.attr)

    return FunctionSummary(
        qualname=qualname,
        node=fn,
        params=params,
        self_calls=frozenset(self_calls),
        local_calls=frozenset(local_calls),
        self_writes=frozenset(self_writes),
        self_reads=frozenset(self_reads),
        param_writes={k: frozenset(v) for k, v in param_writes.items()},
        param_reads={k: frozenset(v) for k, v in param_reads.items()},
        set_locals=frozenset(set_locals),
        returns_set_literal=returns_set_literal,
        unordered_iteration=unordered_iteration,
        unordered_params=frozenset(unordered_params),
        calls=tuple(calls),
    )


class ClassView:
    """Method lookup over a class and its module-local base chain."""

    def __init__(self, df: "ModuleDataflow", cls: ast.ClassDef):
        self._df = df
        self.cls = cls
        #: method name -> defining summary (own definitions win).
        self.methods: Dict[str, FunctionSummary] = {}
        seen: Set[str] = set()
        queue: List[ast.ClassDef] = [cls]
        while queue:
            current = queue.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            for node in current.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.methods.setdefault(
                        node.name,
                        df.summary(f"{current.name}.{node.name}"),
                    )
            for base in current.bases:
                base_name = _root_or_attr_name(base)
                local = df.class_defs.get(base_name) if base_name else None
                if local is not None:
                    queue.append(local)

    # ------------------------------------------------------------------ #
    def reachable(self, roots: Set[str]) -> Set[str]:
        """Methods reachable from ``roots`` through ``self.m()`` calls."""
        visited: Set[str] = set()
        queue = [name for name in roots if name in self.methods]
        while queue:
            name = queue.pop()
            if name in visited:
                continue
            visited.add(name)
            queue.extend(
                callee
                for callee in self.methods[name].self_calls
                if callee in self.methods and callee not in visited
            )
        return visited

    def _helper_effects(
        self, names: Set[str], kind: str
    ) -> Set[str]:
        """Attr reads/writes on ``self`` via module helpers ``f(self)``."""
        effects: Set[str] = set()
        for name in names:
            summary = self.methods[name]
            for call_kind, callee, arg_roots in summary.calls:
                if call_kind != "local":
                    continue
                helper = self._df.functions.get(callee)
                if helper is None:
                    continue
                for position, root in enumerate(arg_roots):
                    if root != "self" or position >= len(helper.params):
                        continue
                    param = helper.params[position]
                    table = (
                        helper.param_writes
                        if kind == "writes"
                        else helper.param_reads
                    )
                    effects.update(table.get(param, frozenset()))
        return effects

    def attrs_assigned(self, roots: Set[str]) -> Set[str]:
        """``self.X`` names assigned by ``roots``'s reachability closure.

        Includes attributes assigned by module-level helpers that
        receive ``self`` as an argument (``_shared_reset(self)``).
        """
        names = self.reachable(roots)
        attrs: Set[str] = set()
        for name in names:
            attrs.update(self.methods[name].self_writes)
        attrs.update(self._helper_effects(names, "writes"))
        return attrs

    def method_writes(self, name: str) -> Set[str]:
        """``self.X`` names one method assigns, helpers-via-self included."""
        if name not in self.methods:
            return set()
        attrs = set(self.methods[name].self_writes)
        attrs.update(self._helper_effects({name}, "writes"))
        return attrs

    def attrs_read(self, roots: Set[str]) -> Set[str]:
        """``self.X`` names read by ``roots``'s reachability closure."""
        names = self.reachable(roots)
        attrs: Set[str] = set()
        for name in names:
            attrs.update(self.methods[name].self_reads)
        attrs.update(self._helper_effects(names, "reads"))
        return attrs

    def resolve_self_call(self, method: str) -> Optional[FunctionSummary]:
        """The summary a ``self.method()`` call dispatches to (if local)."""
        return self.methods.get(method)


def _root_or_attr_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


class ModuleDataflow:
    """Call-graph + summary facts for one parsed module, with fixpoints."""

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        #: module-level function name -> summary.
        self.functions: Dict[str, FunctionSummary] = {}
        #: class name -> ClassDef (module-local).
        self.class_defs: Dict[str, ast.ClassDef] = {}
        #: qualified name ("f" or "Cls.m") -> summary.
        self._summaries: Dict[str, FunctionSummary] = {}
        self._views: Dict[str, ClassView] = {}

        tree = ctx.tree
        for node in child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                summary = _summarize(ctx, node.name, node)
                self.functions[node.name] = summary
                self._summaries[node.name] = summary
            elif isinstance(node, ast.ClassDef):
                self.class_defs[node.name] = node
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{node.name}.{sub.name}"
                        self._summaries[qual] = _summarize(ctx, qual, sub)

        self._returns_set: Set[str] = set()
        self._unordered: Set[str] = set()
        self._fixpoint()

    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, ctx: ModuleContext) -> "ModuleDataflow":
        """The module's cached dataflow (built on first request)."""
        cached = getattr(ctx, "_dataflow", None)
        if cached is None:
            cached = cls(ctx)
            ctx._dataflow = cached  # type: ignore[attr-defined]
        return cached

    def summary(self, qualname: str) -> FunctionSummary:
        return self._summaries[qualname]

    def class_view(self, class_name: str) -> ClassView:
        view = self._views.get(class_name)
        if view is None:
            view = ClassView(self, self.class_defs[class_name])
            self._views[class_name] = view
        return view

    # ------------------------------------------------------------------ #
    def _resolve(
        self, caller: FunctionSummary, kind: str, callee: str
    ) -> Optional[FunctionSummary]:
        """Resolve one call edge to a module-local summary (or None)."""
        if kind == "local":
            return self.functions.get(callee)
        # self.m(): dispatch through the caller's class view.
        class_name = caller.qualname.split(".", 1)[0]
        if class_name in self.class_defs:
            return self.class_view(class_name).resolve_self_call(callee)
        return None

    def _fixpoint(self) -> None:
        """Close returns-set and unordered-iteration facts over calls."""
        for qual, summary in self._summaries.items():
            if summary.returns_set_literal:
                self._returns_set.add(qual)
            if summary.unordered_iteration:
                self._unordered.add(qual)

        changed = True
        while changed:
            changed = False
            for qual, summary in self._summaries.items():
                if qual not in self._returns_set:
                    for node in walk_body(summary.node):
                        if isinstance(node, ast.Return) and isinstance(
                            node.value, ast.Call
                        ):
                            resolved = self._resolve_call_node(
                                summary, node.value
                            )
                            if (
                                resolved is not None
                                and resolved.qualname in self._returns_set
                            ):
                                self._returns_set.add(qual)
                                changed = True
                                break
                if qual not in self._unordered:
                    for kind, name, _ in summary.calls:
                        resolved = self._resolve(summary, kind, name)
                        if (
                            resolved is not None
                            and resolved.qualname in self._unordered
                        ):
                            self._unordered.add(qual)
                            changed = True
                            break

    def _resolve_call_node(
        self, caller: FunctionSummary, call: ast.Call
    ) -> Optional[FunctionSummary]:
        if isinstance(call.func, ast.Name):
            return self._resolve(caller, "local", call.func.id)
        if (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "self"
        ):
            return self._resolve(caller, "self", call.func.attr)
        return None

    # ------------------------------------------------------------------ #
    # queries used by the rules
    # ------------------------------------------------------------------ #
    def returns_set(self, caller_qual: str, call: ast.Call) -> bool:
        """Whether ``call``'s return value is set-typed (transitively)."""
        caller = self._summaries.get(caller_qual)
        if caller is None:
            return False
        resolved = self._resolve_call_node(caller, call)
        return resolved is not None and resolved.qualname in self._returns_set

    def performs_unordered_iteration(
        self, caller_qual: str, call: ast.Call
    ) -> Optional[str]:
        """Callee name when ``call`` reaches unordered set iteration."""
        caller = self._summaries.get(caller_qual)
        if caller is None:
            return None
        resolved = self._resolve_call_node(caller, call)
        if resolved is not None and resolved.qualname in self._unordered:
            return resolved.qualname
        return None

    def unordered_param_positions(
        self, caller_qual: str, call: ast.Call
    ) -> List[int]:
        """Positional indices of ``call`` args the callee iterates unordered.

        Positions are *call-site* argument indices (``self`` receivers
        already accounted for on method dispatch).
        """
        caller = self._summaries.get(caller_qual)
        if caller is None:
            return []
        resolved = self._resolve_call_node(caller, call)
        if resolved is None:
            return []
        offset = 0
        if (
            isinstance(call.func, ast.Attribute)
            and resolved.params
            and resolved.params[0] == "self"
        ):
            offset = 1
        positions: List[int] = []
        for i in range(len(call.args)):
            param_index = i + offset
            if param_index < len(resolved.params) and (
                resolved.params[param_index] in resolved.unordered_params
            ):
                positions.append(i)
        return positions

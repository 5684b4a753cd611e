"""Shared AST helpers for the determinism rules."""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set

from ..dataflow import walk_body
from ..engine import ModuleContext, walk

__all__ = [
    "PROTOCOL_BASES",
    "component_classes",
    "class_methods",
    "self_attribute_assigns",
    "target_attr_and_names",
    "is_mutable_literal",
    "terminal_name",
]

#: Protocol base classes whose subclasses are game components with the
#: reset()/export_state() lifecycle contract.
PROTOCOL_BASES = {
    "CollectorStrategy",
    "AdversaryStrategy",
    "QualityEvaluator",
    "StreamSource",
    "Trimmer",
    "PoisonInjector",
}

#: Component-shaped class names: the strategy/judge/injector/stream
#: family the byte-identity contract covers, matched by suffix when the
#: protocol base is not syntactically visible (re-exports, deep bases).
_COMPONENT_SUFFIX = re.compile(
    r"(Collector|Adversary|Strategy|Judge|Trigger|Injector|Evaluator"
    r"|Stream|Source|Trimmer)$"
)

#: Call targets that construct a NumPy RNG.
RNG_CONSTRUCTORS = {"default_rng", "Generator", "RandomState"}


def terminal_name(expr: ast.expr) -> Optional[str]:
    """The last dotted segment of a name/attribute expression."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_component_name(name: str) -> bool:
    return bool(_COMPONENT_SUFFIX.search(name.lstrip("_")))


def component_classes(ctx: ModuleContext) -> List[ast.ClassDef]:
    """Classes with the component lifecycle contract, in source order.

    A class qualifies when a base resolves (by terminal name) to one of
    the protocol bases, when its own name carries a component suffix, or
    when it derives — transitively, within the module — from a class
    that qualifies.
    """
    classes = [
        node for node in walk(ctx.tree) if isinstance(node, ast.ClassDef)
    ]
    by_name = {cls.name: cls for cls in classes}
    qualified: Dict[str, bool] = {}

    def qualifies(cls: ast.ClassDef, stack: Set[str]) -> bool:
        if cls.name in qualified:
            return qualified[cls.name]
        if cls.name in stack:  # defensive: cyclic local bases
            return False
        stack = stack | {cls.name}
        result = _is_component_name(cls.name)
        if not result:
            for base in cls.bases:
                name = terminal_name(base)
                if name is None:
                    continue
                if name in PROTOCOL_BASES or _is_component_name(name):
                    result = True
                    break
                local = by_name.get(name)
                if local is not None and qualifies(local, stack):
                    result = True
                    break
        qualified[cls.name] = result
        return result

    return [cls for cls in classes if qualifies(cls, set())]


def class_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """The class's directly defined methods, by name."""
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def self_attribute_assigns(fn: ast.FunctionDef) -> Dict[str, List[ast.stmt]]:
    """``self.X`` attribute names assigned in the method body.

    Covers plain, annotated, augmented and tuple-unpacking assignments;
    nested function/class bodies are excluded (different ``self``).
    """

    def attr_targets(target: ast.expr) -> Iterator[str]:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield target.attr
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from attr_targets(element)

    assigns: Dict[str, List[ast.stmt]] = {}
    for node in walk_body(fn):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for name in attr_targets(target):
                assigns.setdefault(name, []).append(node)  # type: ignore[arg-type]
    return assigns


def target_attr_and_names(targets: Sequence[ast.expr]) -> Iterator[str]:
    """Every plain or attribute name bound by assignment targets."""
    for target in targets:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, ast.Attribute):
            yield target.attr
        elif isinstance(target, (ast.Tuple, ast.List)):
            yield from target_attr_and_names(target.elts)


_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "collections.defaultdict",
    "collections.deque",
    "collections.OrderedDict",
    "collections.Counter",
}


def is_mutable_literal(ctx: ModuleContext, node: ast.expr) -> bool:
    """Whether an expression builds a fresh mutable container."""
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        resolved = ctx.resolve_call(node.func)
        if resolved in _MUTABLE_CALLS:
            return True
        name = terminal_name(node.func)
        return name in {"defaultdict", "deque", "OrderedDict", "Counter"}
    return False

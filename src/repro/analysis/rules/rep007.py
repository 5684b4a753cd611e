"""REP007 — deferred-writeback safety for lane-synced state.

PR 9 made lane kernels the *temporary* authority over per-instance
state: strategy counters and injector RNG positions diverge inside the
lanes and are written back onto the owning instances only through the
sanctioned surfaces (``finalize``/``sync_lanes``/``flush_all`` and
the build/reset/calibration paths).  A stray write from a play-path
method — ``react_many`` reaching into ``inst._current`` mid-round —
would race the deferred writeback and break batched-equals-solo byte
identity.  Two checks:

* **(A)** inside a lane-synced class (one declaring a non-empty
  ``fusion_family``, or defining ``finalize``/``sync_lanes``/
  ``flush_all``), private attributes of non-``self`` objects may be
  assigned only from the sanctioned surfaces or their helpers;
* **(B)** raw ``Generator`` bit-state (``.bit_generator.state``) may be
  touched only inside the protocol helpers ``rng_state`` /
  ``set_rng_state`` — the one place that states the no-aliasing
  contract snapshots rely on (numpy's getter returns a fresh document
  and its setter copies), and the path every snapshot ``Generator``
  reducer takes (module-wide, not just lane classes).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..dataflow import ModuleDataflow, walk_body
from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Rule, walk

__all__ = ["DeferredWritebackSafetyRule"]

#: Surfaces allowed to write other objects' private state: the
#: writeback protocol plus build/reset/calibration (pre-play) paths.
_SANCTIONED = {
    "__init__",
    "build",
    "fit",
    "fit_reference",
    "reset",
    "finalize",
    "sync_lanes",
    "flush_all",
}

#: Methods whose presence marks a class as owning lane-synced state.
_WRITEBACK_METHODS = {"finalize", "sync_lanes", "flush_all"}

#: The only functions allowed to touch raw Generator bit-state.
_RNG_STATE_FUNCS = {"rng_state", "set_rng_state"}

#: NumPy bit-generator constructors (their ``.state`` is raw bit-state).
_BITGEN_CONSTRUCTORS = {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}


def _declares_family(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "fusion_family":
                value = node.value  # type: ignore[union-attr]
                return isinstance(value, ast.Constant) and bool(value.value)
    return False


def _root_name(expr: ast.expr) -> Optional[str]:
    current = expr
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def _private_foreign_writes(target: ast.expr) -> Iterator[ast.Attribute]:
    """Attribute leaves writing ``X._attr`` where X is not ``self``."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _private_foreign_writes(element)
        return
    leaf = target
    if isinstance(leaf, ast.Subscript):
        leaf = leaf.value  # inst._arr[...] = v mutates inst's state too
    if (
        isinstance(leaf, ast.Attribute)
        and leaf.attr.startswith("_")
        and _root_name(leaf.value) not in (None, "self")
    ):
        yield leaf


class DeferredWritebackSafetyRule(Rule):
    rule_id = "REP007"
    title = "lane-synced state is written back only via sanctioned surfaces"
    fix_hint = (
        "route instance writebacks through finalize()/sync_lanes()/"
        "flush_all(), and raw Generator bit-state through "
        "rng_state()/set_rng_state()"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        df = ModuleDataflow.of(ctx)
        yield from self._check_lane_classes(ctx, df)
        yield from self._check_bit_state(ctx)

    # ------------------------------------------------------------------ #
    # (A) foreign private writes outside the writeback surfaces
    # ------------------------------------------------------------------ #
    def _check_lane_classes(
        self, ctx: ModuleContext, df: ModuleDataflow
    ) -> Iterator[Diagnostic]:
        for cls in df.class_defs.values():
            own_methods = {
                node.name
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if not (
                _declares_family(cls) or own_methods & _WRITEBACK_METHODS
            ):
                continue
            view = df.class_view(cls.name)
            sanctioned = view.reachable(_SANCTIONED)
            for method in cls.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name in sanctioned:
                    continue
                seen_lines: Set[int] = set()
                for node in walk_body(method):
                    if not isinstance(
                        node, (ast.Assign, ast.AugAssign, ast.AnnAssign)
                    ):
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        for leaf in _private_foreign_writes(target):
                            if leaf.lineno in seen_lines:
                                continue
                            seen_lines.add(leaf.lineno)
                            yield self.diagnostic(
                                ctx,
                                leaf,
                                f"`{cls.name}.{method.name}()` writes "
                                f"lane-synced private state "
                                f"`{_root_name(leaf.value)}.{leaf.attr}` "
                                "outside the sanctioned writeback surfaces",
                            )

    # ------------------------------------------------------------------ #
    # (B) raw Generator bit-state outside rng_state/set_rng_state
    # ------------------------------------------------------------------ #
    def _check_bit_state(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for fn in walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name in _RNG_STATE_FUNCS:
                continue
            # Local names aliasing a bit generator: assigned from an
            # expression ending `.bit_generator` or from a bit-generator
            # constructor call.
            aliases: Set[str] = set()
            for node in walk_body(fn):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    value = node.value
                    if (
                        isinstance(value, ast.Attribute)
                        and value.attr == "bit_generator"
                    ):
                        aliases.add(node.targets[0].id)
                    elif isinstance(value, ast.Call):
                        name = (
                            value.func.attr
                            if isinstance(value.func, ast.Attribute)
                            else (
                                value.func.id
                                if isinstance(value.func, ast.Name)
                                else None
                            )
                        )
                        if name in _BITGEN_CONSTRUCTORS:
                            aliases.add(node.targets[0].id)
            seen_lines: Set[int] = set()
            for node in walk_body(fn):
                if not (
                    isinstance(node, ast.Attribute) and node.attr == "state"
                ):
                    continue
                value = node.value
                is_bit_state = (
                    isinstance(value, ast.Attribute)
                    and value.attr == "bit_generator"
                ) or (isinstance(value, ast.Name) and value.id in aliases)
                if not is_bit_state or node.lineno in seen_lines:
                    continue
                seen_lines.add(node.lineno)
                yield self.diagnostic(
                    ctx,
                    node,
                    f"`{fn.name}()` touches raw Generator bit-state "
                    "(`.bit_generator.state`) outside "
                    "rng_state()/set_rng_state()",
                    hint=(
                        "use rng_state()/set_rng_state() from "
                        "repro.core.strategies.base — they hold the "
                        "no-aliasing contract snapshots rely on"
                    ),
                )

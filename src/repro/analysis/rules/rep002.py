"""REP002 — no unstable values flowing into seeds or fingerprints.

``hash()`` is salted per process (PYTHONHASHSEED), ``id()`` is an
address, and wall-clock reads differ per run — none of them may feed a
seed, an entropy pool, or a store fingerprint.  The rule flags a call to
one of those sources when its value syntactically flows into seed-like
context: a ``seed=``-style keyword, an argument of an RNG constructor,
an assignment to a seed/entropy/fingerprint-named binding, or any
expression inside a function whose name says it produces seeds or
fingerprints.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List

from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Rule, walk
from .common import target_attr_and_names, terminal_name

__all__ = ["UnstableSeedMaterialRule"]

#: Call targets whose value is process- or time-dependent.
_UNSTABLE_CALLS = {
    "hash": "salted per process (PYTHONHASHSEED)",
    "id": "a memory address",
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "time.monotonic": "clock time",
    "time.monotonic_ns": "clock time",
    "time.perf_counter": "clock time",
    "time.perf_counter_ns": "clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "uuid.uuid4": "random per call",
    "os.urandom": "OS entropy",
}

_SEED_NAME = re.compile(r"(seed|entropy|fingerprint|cache_key|store_key)", re.I)
_SEED_FUNC = re.compile(r"(seed|entropy|fingerprint|cache_key|store_key)", re.I)

#: Terminal names of calls that consume seed material positionally.
_SEED_SINKS = {"default_rng", "SeedSequence", "RandomState", "seed", "spawn_key"}


class UnstableSeedMaterialRule(Rule):
    rule_id = "REP002"
    title = "no hash()/id()/time.time() flowing into seeds or fingerprints"
    fix_hint = (
        "derive seeds from SeedSequence channels and fingerprints from "
        "canonical_json/spec_fingerprint (stable across processes)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node.func)
            if resolved not in _UNSTABLE_CALLS:
                continue
            sink = self._seed_sink(ctx, node)
            if sink is None:
                continue
            yield self.diagnostic(
                ctx,
                node,
                f"`{resolved}()` is {_UNSTABLE_CALLS[resolved]} "
                f"but flows into {sink}",
            )

    # ------------------------------------------------------------------ #
    def _seed_sink(self, ctx: ModuleContext, node: ast.Call) -> str | None:
        """The seed-like context the call value flows into, if any."""
        for anc in ctx.ancestors(node):
            if isinstance(anc, ast.keyword):
                if anc.arg and _SEED_NAME.search(anc.arg):
                    return f"keyword `{anc.arg}=`"
            elif isinstance(anc, ast.Call) and anc is not node:
                name = terminal_name(anc.func)
                if name in _SEED_SINKS or (name and _SEED_FUNC.search(name)):
                    return f"call to `{name}(...)`"
            elif isinstance(anc, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets: List[ast.expr]
                if isinstance(anc, ast.Assign):
                    targets = list(anc.targets)
                else:
                    targets = [anc.target]
                for name in target_attr_and_names(targets):
                    if _SEED_NAME.search(name):
                        return f"assignment to `{name}`"
            elif isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _SEED_FUNC.search(anc.name):
                    return f"function `{anc.name}()`"
                return None  # stop at the enclosing function boundary
        return None

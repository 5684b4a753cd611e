"""REP005 — ``__init__``-assigned state must be restored by ``reset()``.

The lifecycle contract behind replayable games: any attribute a
component initializes and then mutates during play is mid-game state,
and ``reset()`` must put it back.  The rule diffs attribute sets: it
collects ``self.X`` assignments in ``__init__``, resolves the
*restored* set through the module dataflow layer (``self.m()`` calls
transitively from ``reset``, plus module-level helpers that receive
``self`` — ``_shared_reset(self)`` counts), and flags

* **(A)** init-assigned attributes also mutated in play methods but
  absent from the restored set — a fresh game would inherit stale
  state; and
* **(B)** RNG attributes (``default_rng``/``Generator``/``RandomState``
  construction in ``__init__``) not re-created or restored — two runs
  from the same seed would diverge after the first ``reset()``.

Calibration methods (``fit``, ``fit_reference``) are pre-game setup by
contract and do not count as play.  Base classes defined in the same
module are folded into the method lookup so helper hierarchies (e.g. a
module-local two-level base) are analyzed once, at the class that
defines ``__init__``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from ..dataflow import ModuleDataflow
from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Rule, walk
from .common import (
    class_methods,
    component_classes,
    self_attribute_assigns,
    terminal_name,
)

__all__ = ["UnrestoredInitStateRule"]

#: Lifecycle / calibration methods that never count as "play".
_NON_PLAY = {"__init__", "reset", "export_state", "fit", "fit_reference"}

_RNG_CONSTRUCTORS = {"default_rng", "Generator", "RandomState"}


def _constructs_rng(node: ast.stmt) -> bool:
    """Whether the assignment's RHS builds a NumPy RNG."""
    value = getattr(node, "value", None)
    if value is None:
        return False
    for sub in walk(value):
        if isinstance(sub, ast.Call):
            if terminal_name(sub.func) in _RNG_CONSTRUCTORS:
                return True
    return False


class UnrestoredInitStateRule(Rule):
    rule_id = "REP005"
    title = "__init__-assigned RNG/counter state not restored in reset()"
    fix_hint = (
        "re-create the attribute in reset() (and cover it in "
        "export_state()) so a fresh game starts from a clean slate"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        df = ModuleDataflow.of(ctx)
        for cls in component_classes(ctx):
            if df.class_defs.get(cls.name) is not cls:
                continue  # function-local: outside the module dataflow
            own = class_methods(cls)
            init_fn = own.get("__init__")
            if init_fn is None:
                continue  # analyzed at the class that defines __init__
            view = df.class_view(cls.name)
            reset_reachable = view.reachable({"reset"})
            restored = view.attrs_assigned({"reset"})
            init_assigns = self_attribute_assigns(init_fn)
            # Calibration helpers (reachable from fit/fit_reference) are
            # pre-game setup just like their roots, not play mutation.
            calibration = view.reachable({"fit", "fit_reference"})

            play_mutations: Dict[str, str] = {}
            for name in view.methods:
                if name in _NON_PLAY or name in reset_reachable:
                    continue
                if name in calibration:
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue
                for attr in sorted(view.method_writes(name)):
                    play_mutations.setdefault(attr, name)

            for attr, stmts in sorted(init_assigns.items()):
                anchor = stmts[0]
                if attr in restored:
                    continue
                if attr in play_mutations:
                    yield self.diagnostic(
                        ctx,
                        anchor,
                        f"`{cls.name}.{attr}` is assigned in __init__ and "
                        f"mutated in `{play_mutations[attr]}()` but never "
                        "restored by reset()",
                    )
                elif any(_constructs_rng(stmt) for stmt in stmts):
                    yield self.diagnostic(
                        ctx,
                        anchor,
                        f"`{cls.name}.{attr}` holds an RNG created in "
                        "__init__ but reset() never "
                        "re-creates or restores it",
                    )

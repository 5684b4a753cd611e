"""REP008 — snapshot completeness for mid-game state.

Static companion to the live CONF002 snapshot/restore audit.  A
component whose ``export_state()`` forgets a mid-game attribute still
round-trips its *other* state cleanly, so the bug hides until a restore
lands mid-run and the forgotten counter silently keeps its future
value.  The rule diffs three attribute sets per component class that
defines both ``__init__`` and an ``export_state`` surface:

* ``init``  — ``self.X`` assignments in ``__init__``;
* ``play``  — attributes mutated by play-path methods (everything
  except lifecycle: init/reset/export/import and the calibration
  methods ``fit``/``fit_reference``, plus their transitive helpers);
* ``covered`` — attributes ``export_state()`` reads, unioned with
  attributes ``import_state()`` assigns (either side of the round-trip
  covering the attribute is enough for the static check — the live
  CONF002 audit verifies the actual byte round-trip).

``init ∩ play − covered`` is mid-game state a state round trip would
lose, and each such attribute is flagged at its ``__init__``
assignment.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from ..dataflow import ModuleDataflow
from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Rule
from .common import class_methods, component_classes, self_attribute_assigns

__all__ = ["SnapshotCompletenessRule"]

#: Lifecycle / calibration roots that never count as "play".
_NON_PLAY = {
    "__init__",
    "reset",
    "export_state",
    "import_state",
    "fit",
    "fit_reference",
}


class SnapshotCompletenessRule(Rule):
    rule_id = "REP008"
    title = "export_state/import_state must cover all mid-game state"
    fix_hint = (
        "include the attribute in export_state() and restore it in "
        "import_state() so snapshot/restore round-trips mid-game state"
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
            if "export_state" not in view.methods:
                continue  # no snapshot surface to audit

            covered = view.attrs_read({"export_state"}) | view.attrs_assigned(
                {"import_state"}
            )
            lifecycle = view.reachable(_NON_PLAY)

            play_mutations: Dict[str, str] = {}
            for name in view.methods:
                if name in lifecycle:
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue
                for attr in sorted(view.method_writes(name)):
                    play_mutations.setdefault(attr, name)

            init_assigns = self_attribute_assigns(init_fn)
            for attr, stmts in sorted(init_assigns.items()):
                if attr in covered or attr not in play_mutations:
                    continue
                yield self.diagnostic(
                    ctx,
                    stmts[0],
                    f"`{cls.name}.{attr}` is mutated in "
                    f"`{play_mutations[attr]}()` but export_state()/"
                    "import_state() never covers it — a snapshot restored "
                    "mid-game would silently keep the live value",
                )

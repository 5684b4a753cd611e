"""REP008 — the ``export_state()`` audit view covers mid-game state.

Static companion to the live CONF002 snapshot/restore audit.  A
snapshot pickles the component itself, but ``export_state()`` is the
audit view ``state_dict()`` and the golden transcript read: a
component whose view forgets a mid-game attribute hides the counter
from every check that compares states, so a drift in it goes unseen.
The rule diffs three attribute sets per component class that defines
both ``__init__`` and an ``export_state`` surface:

* ``init``  — ``self.X`` assignments in ``__init__``;
* ``play``  — attributes mutated by play-path methods (everything
  except lifecycle: init/reset/export and the calibration methods
  ``fit``/``fit_reference``, plus their transitive helpers);
* ``covered`` — attributes ``export_state()`` reads, through its own
  helpers (the live CONF002 audit verifies the actual byte
  round-trip).

``init ∩ play − covered`` is mid-game state the audit view leaves out,
and each such attribute is flagged at its ``__init__`` assignment.
"""

from __future__ import annotations

from typing import Dict, Iterator

from ..dataflow import ModuleDataflow
from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Rule
from .common import class_methods, component_classes, self_attribute_assigns

__all__ = ["SnapshotCompletenessRule"]

#: Lifecycle / calibration roots that never count as "play".
_NON_PLAY = {"__init__", "reset", "export_state", "fit", "fit_reference"}


class SnapshotCompletenessRule(Rule):
    rule_id = "REP008"
    title = "export_state must cover all mid-game state"
    fix_hint = (
        "include the attribute in export_state() so state_dict() and "
        "the conformance audit see all mid-game state"
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
                continue  # no audit view to check

            covered = view.attrs_read({"export_state"})
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
                    f"`{play_mutations[attr]}()` but export_state() "
                    "never covers it — state_dict() and the conformance "
                    "audit cannot see it drift",
                )

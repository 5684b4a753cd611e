"""REP001 — no global or legacy RNG.

All randomness in ``src/repro`` must flow from an explicitly seeded
``numpy.random.default_rng(seed)`` (or a ``SeedSequence``-derived
generator).  The stdlib ``random`` module and the legacy global NumPy
API (``np.random.uniform`` …, ``np.random.seed``) read hidden process
state, so serial/parallel and batched/solo runs would diverge.  A bare
``default_rng()`` draws OS entropy and is equally non-reproducible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Rule, walk

__all__ = ["GlobalRNGRule"]

#: The modern, seedable numpy.random surface that is allowed.
_ALLOWED_NUMPY_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "BitGenerator",
}


def _is_unseeded(node: ast.Call) -> bool:
    """A ``default_rng()`` / ``SeedSequence()`` call with no seed material."""
    if node.keywords:
        return False
    if not node.args:
        return True
    return len(node.args) == 1 and (
        isinstance(node.args[0], ast.Constant) and node.args[0].value is None
    )


class GlobalRNGRule(Rule):
    rule_id = "REP001"
    title = "no global/legacy RNG (random.*, np.random.<fn>, bare default_rng())"
    fix_hint = (
        "use numpy.random.default_rng(seed) with a seed derived from the "
        "game's SeedSequence channels"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node.func)
            if resolved is None:
                continue
            if resolved.startswith("random."):
                yield self.diagnostic(
                    ctx,
                    node,
                    f"call to stdlib global RNG `{resolved}`",
                )
            elif resolved.startswith("numpy.random."):
                tail = resolved.split(".", 2)[2]
                if "." in tail:
                    # numpy.random.Generator.method etc. — attribute access
                    # on an allowed class, not a module-level draw.
                    continue
                if tail not in _ALLOWED_NUMPY_RANDOM:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"call to legacy global NumPy RNG `{resolved}`",
                    )
                elif tail in {"default_rng", "SeedSequence"} and _is_unseeded(node):
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"`{resolved}()` without a seed draws OS entropy",
                        hint=(
                            "pass an explicit seed (int or SeedSequence) so "
                            "the stream is reproducible"
                        ),
                    )

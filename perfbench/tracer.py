"""In-memory span recorder for the traced benchmark run.

The traced run wraps the public entry points of each layer *where their
callers look them up* (class attributes for methods; every ``repro.*``
module global bound to the function for plain functions, since
``from ..ml.kmeans import kmeans`` copies the reference into the
importing module).  Nothing under ``src/`` is edited.

Every span records its name, start, end, parent span and the tick or
scenario id it belongs to.  Spans stay in compact in-memory columns and
are written once, when the run ends (:meth:`Tracer.write`).  Per-name
call counts, total time and self time (a span's duration minus the part
its child spans cover) are accumulated online.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: (span name, module, qualified attribute): the layer entry points the
#: traced run wraps.  A target that is gone fails the run.
TARGETS = (
    ("ml.kmeans", "repro.ml.kmeans", "kmeans"),
    ("ml.OneVsRestSVM.fit", "repro.ml.svm", "OneVsRestSVM.fit"),
    ("ml.SelfOrganizingMap.fit", "repro.ml.som", "SelfOrganizingMap.fit"),
    (
        "ldp.ExpectationMaximizationFilter.fit",
        "repro.ldp.emf",
        "ExpectationMaximizationFilter.fit",
    ),
    ("datasets.generate_taxi", "repro.datasets.taxi", "generate_taxi"),
    ("runtime.play_rep_batch", "repro.runtime.spec", "play_rep_batch"),
    ("runtime.play_fused_batch", "repro.runtime.spec", "play_fused_batch"),
    ("core.CollectionGame.run", "repro.core.engine", "CollectionGame.run"),
    (
        "core.BatchedCollectionGame.run",
        "repro.core.engine",
        "BatchedCollectionGame.run",
    ),
    (
        "core.BatchedGameSession.submit",
        "repro.core.session",
        "BatchedGameSession.submit",
    ),
    (
        "core.InjectorLanes.materialize_many",
        "repro.core.fusion",
        "InjectorLanes.materialize_many",
    ),
    ("core.TrimLanes.trim_stack", "repro.core.fusion", "TrimLanes.trim_stack"),
    ("core.GameSession.submit", "repro.core.session", "GameSession.submit"),
    ("core.GameSession.snapshot", "repro.core.session", "GameSession.snapshot"),
    ("core.GameSession.restore", "repro.core.session", "GameSession.restore"),
    (
        "streams.ArrayStream.next_batch",
        "repro.streams.source",
        "ArrayStream.next_batch",
    ),
    (
        "streams.ColumnarBoard.record_decision",
        "repro.streams.board",
        "ColumnarBoard.record_decision",
    ),
    (
        "streams.ColumnarBoard.flush_all",
        "repro.streams.board",
        "ColumnarBoard.flush_all",
    ),
    (
        "streams.PoisonInjector.materialize",
        "repro.streams.injection",
        "PoisonInjector.materialize",
    ),
    (
        "serving.DefenseService.submit_many",
        "repro.serving.service",
        "DefenseService.submit_many",
    ),
)

#: The span whose results' sizes are recorded (snapshot blob bytes).
SIZED_SPAN = "core.GameSession.snapshot"


class Tracer:
    """Collects nested spans and per-name call/self-time totals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        self.result_bytes: List[int] = []
        #: The tick or scenario id stamped on spans opened from now on.
        self.tag = -1
        self._log_name = array("i")
        self._log_parent = array("i")
        self._log_tag = array("i")
        self._log_start = array("d")
        self._log_end = array("d")
        # Open spans: [name id, start, time covered by children, log row].
        self._stack: List[list] = []
        # (holder, attribute, original) for every rebinding made.
        self._installed: List[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        row = len(self._log_name)
        self._log_name.append(nid)
        self._log_parent.append(self._stack[-1][3] if self._stack else -1)
        self._log_tag.append(self.tag)
        self._log_end.append(0.0)
        start = perf_counter()
        self._log_start.append(start)
        self._stack.append([nid, start, 0.0, row])

    def exit(self) -> None:
        end = perf_counter()
        nid, start, children, row = self._stack.pop()
        duration = end - start
        self._log_end[row] = end
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        nid = self.name_id(name)
        enter, leave = self.enter, self.exit
        if name == SIZED_SPAN:
            sizes = self.result_bytes

            @functools.wraps(fn)
            def sized(*args: Any, **kwargs: Any) -> Any:
                enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                sizes.append(len(result))
                return result

            return sized

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry where its callers look it up."""
        for name, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, attr = qualname.rpartition(".")
            holder = getattr(module, owner) if owner else module
            raw = inspect.getattr_static(holder, attr)
            if not owner:
                wrapped = self.wrap(name, raw)
                for loaded, module in list(sys.modules.items()):
                    if module is None or not loaded.startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._rebind(module, key, wrapped)
            elif isinstance(raw, (classmethod, staticmethod)):
                self._rebind(holder, attr, type(raw)(self.wrap(name, raw.__func__)))
            else:
                self._rebind(holder, attr, self.wrap(name, raw))

    def _rebind(self, holder: Any, attr: str, value: Any) -> None:
        self._installed.append((holder, attr, inspect.getattr_static(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped callable, so later calls record nothing."""
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` for every name seen."""
        return {
            name: {
                "calls": self.calls[i],
                "total_s": self.total_s[i],
                "self_s": self.self_s[i],
            }
            for i, name in enumerate(self.names)
        }

    @staticmethod
    def span_cost(calls: int = 20_000) -> float:
        """Seconds one wrapped call adds to a call (median of 5 timings).

        Measured on a throwaway tracer, in the traced process, so the
        tracing overhead is read against a run on the same host phase.
        """

        def nothing() -> None:
            return None

        wrapped = Tracer().wrap("probe", nothing)
        costs = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(calls):
                nothing()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((perf_counter() - t1 - (t1 - t0)) / calls)
        return statistics.median(costs)

    def bytes_mean(self) -> float:
        sizes = self.result_bytes
        return sum(sizes) / len(sizes) if sizes else 0.0

    def write(self, path: str) -> int:
        """Write every recorded span to ``path`` (``.npz``); returns the count."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._log_name, dtype=np.int32),
            parent=np.frombuffer(self._log_parent, dtype=np.int32),
            tag=np.frombuffer(self._log_tag, dtype=np.int32),
            start=np.frombuffer(self._log_start, dtype=np.float64),
            end=np.frombuffer(self._log_end, dtype=np.float64),
        )
        return len(self._log_name)


class Span:
    """Context manager recording one span (for the benchmark's own loops)."""

    __slots__ = ("_tracer", "_nid")

    def __init__(self, tracer: Optional[Tracer], name: str) -> None:
        self._tracer = tracer
        self._nid = tracer.name_id(name) if tracer is not None else -1

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer.enter(self._nid)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._tracer is not None:
            self._tracer.exit()


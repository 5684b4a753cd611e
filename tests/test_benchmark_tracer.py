"""The repository benchmark's traced run must find every entry point.

``perfbench/tracer.py`` wraps the layer entry points listed in its
``TARGETS`` table by module and qualified name, and a traced benchmark
run fails outright when one is gone.  Installing and uninstalling the
tracer here turns a refactor that moves or deletes a traced entry point
into a tier-1 failure instead of a benchmark-only one.  The benchmark
directory is only read, never edited.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracer_module = _load_tracer_module()
    from repro.runtime import spec as runtime_spec

    original = runtime_spec.play_fused_batch
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert len(tracer._installed) >= len(tracer_module.TARGETS)
        assert runtime_spec.play_fused_batch is not original
    finally:
        tracer.uninstall()
    assert runtime_spec.play_fused_batch is original

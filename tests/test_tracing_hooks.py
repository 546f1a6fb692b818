"""The benchmark's per-layer tracer still finds the functions it times.

`perfbench/tracing.py` wraps matchcore call sites by their dotted
names. A refactor that renames or inlines one of them would make that
layer read 0 in the benchmark without any failure, so the tracer is
installed here and the layers it reports missing are pinned. The file
is read and executed in memory, so nothing under perfbench/ is written.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# normalization was merged into `decompose_components`, whose span
# already covers its time; the hook's removal belongs to the benchmark
STALE_LAYERS = {"halfint.normalize_s"}


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_layer_resolves():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert set(missing) <= STALE_LAYERS

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_bench_tracer_patches_every_traced_name():
    # The benchmark's traced run wraps functions and methods by name; a
    # rename or deletion of one of them fails here first.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        restored = tracer.restore()
    assert restored

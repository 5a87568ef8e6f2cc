import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def test_bench_tracer_patches_every_traced_name():
    # The benchmark's traced run wraps functions and methods by name and
    # reads the group caches; a rename or deletion of one of them fails
    # here first, and so does a per-layer metric that the traced run
    # stops reporting.
    import adlv.cli as cli

    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        acc = tracing.install(tracer)
        _report, code = cli.run(cli.JobSpec(command="bgmu", group="A1_sc", mu=(1,)))
        metrics = tracing.layer_metrics(tracer, acc)
    finally:
        restored = tracer.restore()
    assert restored
    assert code == cli.EXIT_OK
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {
        m["name"] for m in declared
        if not m["name"].startswith("units.") and m["name"] != "trace_overhead_ratio"
    }
    assert len(names) == 72
    assert set(metrics) == names
    assert metrics["cli.run.bgmu.total_s"] > 0

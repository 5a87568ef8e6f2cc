"""One cold repetition of a workload, started by run.py in a fresh process.

The memo caches of adlv hang off module-level preset singletons, so a
second repetition in the same process would measure memo hits; each
repetition therefore gets a process of its own.

Protocol on stdout: the line READY once set-up is done (import adlv, then
force the Weyl group and pi_1 of every catalog preset), then, unless
--setup-only, one JSON line with the repetition's results.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="do not compare digests; report them for expected.json")
    args = ap.parse_args()

    import adlv
    from adlv.presets import catalog

    import tracing
    import workloads

    tracer = acc = None
    if args.trace:
        tracer = tracing.Tracer()
        acc = tracing.install(tracer)
    for p in catalog():
        p.datum.weyl
        p.datum.pi1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    prepare, run = workloads.WORKLOADS[args.workload]
    expected = None
    if not args.record:
        expected = json.loads((BENCH / "expected.json").read_text())
        if args.workload == "catalog_queries":
            expected = expected["catalog_queries"]
    if tracer:
        tracer.enabled = False
    inputs = prepare(args.seed)
    if tracer:
        tracer.enabled = True
    t0 = time.perf_counter()
    outcome = run(inputs, expected)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": outcome.latencies_s,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed_ops),
        "messages": outcome.messages,
        "digests": outcome.digests,
        "units": outcome.units,
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "adlv": adlv.__version__,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, acc)
        result["restored"] = tracer.restore()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for adlv.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and BENCHMARK.json) as a sequence of
cold repetitions, each a fresh child process (child.py), one at a time.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the machine
and the units of work done.

--trace 0 reports the end-to-end metrics:
  setup_s       median set-up time over several children, from process
                start through import adlv to forced Weyl groups and pi_1
  wall_s        median time of the workload body, up to checked outputs
  peak_rss_mb   median peak resident set of the workload children
  query_p50_ms  median latency of the workload's calls: the CLI queries of
                catalog_queries, the single sweep call of the others
--trace 1 runs the workload once untraced and once traced, requires both
to give the same report digests, and reports the per-layer metrics of the
traced run, the unit counts and trace_overhead_ratio.

`python3 bench/run.py --record` rewrites expected.json from the current
code; run it only at a commit whose outputs are known to be right.

Children run with PYTHONPATH=src, PYTHONHASHSEED=0 (so call counts
repeat) and ADLV_THREADS unset.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("verify_quick", "picard_certs", "catalog_queries")
UNITS = ("bruhat_pairs", "certificates", "adm_elements", "membership_queries")
SETUP_ONLY_CHILDREN = 3
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("ADLV_THREADS", None)
    return env


def launch(workload: str, seed: int, deadline: float, *flags: str):
    """Run one child; returns (set-up seconds, parsed result or None).

    Set-up is timed from just before the child starts to the arrival of
    its READY line.
    """
    cmd = [sys.executable, str(BENCH / "child.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, bufsize=0)
    buf = b""
    ready_at = None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"{workload}: child passed the time limit")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                break
            buf += chunk
            if ready_at is None and buf.startswith(b"READY\n"):
                ready_at = now
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready_at is None:
        raise BenchError(f"{workload}: child exited with code {code}")
    lines = buf.decode().splitlines()
    result = json.loads(lines[-1]) if "--setup-only" not in flags else None
    return ready_at - t0, result


def failures(results: list[dict]) -> tuple[int, int]:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for msg in r["messages"]:
            print(f"output check failed: {msg}", file=sys.stderr)
    return attempted, failed


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """Set-up-only children, then cold repetitions until `seconds` of
    workload time have run (at least one)."""
    setups = [launch(workload, seed, deadline, "--setup-only")[0]
              for _ in range(SETUP_ONLY_CHILDREN)]
    results = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        setup, result = launch(workload, seed, deadline)
        setups.append(setup)
        results.append(result)
        rep_s = time.monotonic() - t0
        elapsed = time.monotonic() - started
        if elapsed >= seconds or time.monotonic() + 1.5 * rep_s > deadline:
            break
    latencies = [x for r in results for x in r["latencies_s"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "query_p50_ms": (statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
    }
    return results, metrics


def traced(workload: str, seed: int, deadline: float):
    _, plain = launch(workload, seed, deadline)
    _, traced_ = launch(workload, seed, deadline, "--trace")
    results = [plain, traced_]
    mismatch = plain["digests"] != traced_["digests"]
    if mismatch:
        print("traced run's report digests differ from the untraced run's",
              file=sys.stderr)
    if not traced_["restored"]:
        print("tracer left a wrapper in place", file=sys.stderr)
        mismatch = True
    metrics = {name: (value, _unit(name)) for name, value in traced_["layers"].items()}
    for u in UNITS:
        metrics[f"units.{u}"] = (traced_["units"].get(u, 0), "count")
    metrics["trace_overhead_ratio"] = (traced_["wall_s"] / plain["wall_s"], "ratio")
    return results, metrics, mismatch


def _unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    return {
        "calls": "count",
        "self_s": "s",
        "total_s": "s",
        "s": "s",
        "p50_us": "us",
        "per_call_us": "us",
        "p90_ms": "ms",
        "elements": "count",
        "distinct_inputs": "count",
        "bruhat_memo_entries": "count",
        "rw_memo_entries": "count",
    }.get(stat, "ratio")


def machine(results: list[dict]) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "ADLV_THREADS": "unset",
        "PYTHONHASHSEED": "0",
    }


def record(deadline_s: float) -> int:
    """Write expected.json from the outputs of the current code."""
    expected = {}
    for workload in WORKLOADS:
        deadline = time.monotonic() + deadline_s
        _, result = launch(workload, 0, deadline, "--record")
        attempted, failed = failures([result])
        if failed:
            print(f"{workload}: {failed} of {attempted} checks failed; not recording",
                  file=sys.stderr)
            return 1
        if workload == "catalog_queries":
            expected[workload] = dict(sorted(result["digests"].items()))
        else:
            expected.update(result["digests"])
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "adlv" / "__init__.py").is_file() or not (
        ROOT / "tests" / "golden"
    ).is_dir():
        print("run from a checkout of adlv: src/adlv and tests/golden are missing",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.record:
        ap.error("--workload is required")

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.record:
            return record(RUN_LIMIT_S)
        if args.trace:
            results, metrics, mismatch = traced(args.workload, args.seed, deadline)
        else:
            results, metrics = measure(args.workload, args.seed, args.seconds, deadline)
            mismatch = False
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = failures(results)
    units = {u: results[0]["units"].get(u, 0) for u in UNITS}
    wall = statistics.median(r["wall_s"] for r in results[:1 if args.trace else None])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "children": len(results),
        "wall_s_each": [r["wall_s"] for r in results],
        "machine": machine(results),
        "units": units,
        "wall_us_per_unit": {u: wall / n * 1e6 for u, n in units.items() if n},
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and not mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

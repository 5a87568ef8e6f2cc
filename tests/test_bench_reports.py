import importlib.util
import json
import sys
from pathlib import Path

from adlv.verify import VerifyScales, check_picard_suite, run_verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_reports_match_the_benchmark_digests(monkeypatch):
    # The benchmark checks these two reports against its recorded
    # digests; a change to either report fails here before the benchmark.
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    assert workloads.digest(run_verify(VerifyScales.quick())) == expected["verify_quick"]
    picard = check_picard_suite(VerifyScales(picard_qs=(2,)))
    assert workloads.digest(picard) == expected["picard_certs"]

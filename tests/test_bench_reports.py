import importlib.util
import json
import sys
from pathlib import Path

import pytest

from adlv.verify import VerifyScales, check_picard_suite, run_verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    """bench/workloads.py, loaded as a module; no bench file is written."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def expected_digests() -> dict:
    return json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def test_reports_match_the_benchmark_digests(workloads):
    # The benchmark checks these two reports against its recorded
    # digests; a change to either report fails here before the benchmark.
    expected = expected_digests()
    assert workloads.digest(run_verify(VerifyScales.quick())) == expected["verify_quick"]
    picard = check_picard_suite(VerifyScales(picard_qs=(2,)))
    assert workloads.digest(picard) == expected["picard_certs"]


def test_catalog_queries_match_the_benchmark_digests(workloads):
    # Every catalog query against its recorded digest, the golden files
    # and the in_adm answers, as the benchmark checks them.
    inputs = workloads.prepare_catalog_queries(1)
    out = workloads.run_catalog_queries(inputs, expected_digests()["catalog_queries"])
    assert out.failed_ops == set(), out.messages
    assert out.attempted == 1594

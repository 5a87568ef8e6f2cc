"""Acceptance criteria, one test per criterion, at full scale.

Each test prints a single pass/fail line.  The underlying sweeps are the
verify suites; they run once per session and are shared across tests.
Stated runtime bounds are asserted where the criteria carry them.
"""

import hashlib
import json
import time

import pytest

import adlv.admissible as admissible
import adlv.verify as verify
from adlv.affine_weyl import DEFAULT_BUDGET
from adlv.cli import EXIT_COUNTEREXAMPLE, JobSpec, run
from adlv.frobenius import FrobeniusDatum, Plateau
from adlv.verify import (
    ALL_CHECKS,
    VerifyScales,
    check_fixed_point_generators,
    check_min_length_reduction,
    check_picard_suite,
    check_levi_embedding_facts,
    check_sl2_pipeline,
    check_straight_class_containment,
    check_straight_iff_fundamental,
    check_tag_injectivity,
    check_wall_times_tau,
    run_verify,
)

from helpers import clear_memos

SCALES = VerifyScales()
# sha256 of json.dumps(report, sort_keys=True) for each full-scale check:
# any change to a report, counts and witnesses included, fails here.
FULL_REPORT_DIGESTS = {
    "sl2_pipeline": "7a52f8792d29001a4d5c85f4d86dfdf78526474ab49f83d90cf91a841ef1499f",
    "straight_class_containment": "3c40818d946f82707e3c03e645887301f29ef571e448a04855815888e0b70e48",
    "wall_times_tau": "e914406849dd297fce7b525978826c2f9d548ccd1cc2e0301b1b25709c161bc3",
    "min_length_reduction": "c3760dfe4bdcf28b7e803fb0d2ee49d3451478a70011ddc7c54c64caf59e4fcf",
    "tag_injectivity": "d529e99a37bf152dc4461d5cf186ec8f74d164a2402b8b8a62f852a2ff759e01",
    "straight_iff_fundamental": "4c986e545966dbc9894a74a688f7e5edbf4dff1846b2b7e239232fe956cd8e26",
    "fixed_point_generators": "7f1326bf5780d84e170938c8e83419264231608f0100a8753f1dc62e4c41fca5",
    "picard_suite": "c1b0ab25588d04bd2afe47847b530ef57d9a9aefb73f68ec5752906cddd636af",
    "levi_embedding_facts": "1da91f9b27d1e215a162428b2a7471f525e3f0dc7238edf64cdd9739f87d63da",
}
_timings: dict[str, float] = {}
_results: dict[str, dict] = {}


def _run(name, fn):
    if name not in _results:
        t0 = time.perf_counter()
        _results[name] = fn(SCALES)
        _timings[name] = time.perf_counter() - t0
    return _results[name], _timings[name]


def _report(index, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {index}: {label}{suffix}")


def test_criterion_01_sl2_pipeline():
    rep, secs = _run("sl2_pipeline", check_sl2_pipeline)
    _report(1, "SL2 pipeline exact values", rep["pass"], f"{secs:.2f}s")
    assert rep["pass"], rep
    assert secs < 1.0, f"SL2 pipeline took {secs:.2f}s, budget is 1s"


def test_criterion_02_straight_class_containment():
    rep, secs = _run("straight_class_containment", check_straight_class_containment)
    total = sum(r["checked"] for r in rep["runs"])
    _report(2, "straight classes stay in the admissible set", rep["pass"],
            f"{total} elements, {secs:.1f}s")
    assert rep["pass"], rep
    assert secs < 60.0, f"containment sweep took {secs:.1f}s, budget is 60s"


def test_criterion_03_wall_times_tau():
    rep, _secs = _run("wall_times_tau", check_wall_times_tau)
    total = sum(r["checked"] for r in rep["runs"])
    _report(3, "s_j tau stays admissible on simple presets", rep["pass"],
            f"{total} walls")
    assert rep["pass"], rep


def test_criterion_04_minimal_length_reduction():
    rep, secs = _run("min_length_reduction", check_min_length_reduction)
    total = sum(r["checked"] for r in rep["runs"])
    _report(4, "reduction reaches the class minimum", rep["pass"],
            f"{total} elements, {secs:.1f}s")
    assert rep["pass"], rep
    assert secs < 300.0, f"reduction sweep took {secs:.1f}s, budget is 5min"


def test_criterion_05_tag_injectivity():
    rep, _secs = _run("tag_injectivity", check_tag_injectivity)
    classes = sum(r["classes"] for r in rep["runs"])
    _report(5, "straight classes have distinct tags", rep["pass"],
            f"{classes} classes, {rep['counterexample_candidates']} collisions")
    assert rep["pass"], rep
    assert rep["counterexample_candidates"] == 0


def test_criterion_06_straight_iff_fundamental():
    rep, _secs = _run("straight_iff_fundamental", check_straight_iff_fundamental)
    total = sum(r["checked"] for r in rep["runs"])
    _report(6, "straight iff fundamental at the Newton direction", rep["pass"],
            f"{total} elements")
    assert rep["pass"], rep


def test_criterion_07_fixed_point_generators():
    rep, _secs = _run("fixed_point_generators", check_fixed_point_generators)
    _report(7, "longest orbit elements generate the fixed subgroup", rep["pass"],
            f"{len(rep['runs'])} twists")
    assert rep["pass"], rep
    for run in rep["runs"]:
        assert run["generated_in_ball"] == run["fixed_in_ball"]


def test_criterion_08_picard_suite():
    rep, _secs = _run("picard_suite", check_picard_suite)
    certs = sum(r["certificates"] for r in rep["runs"])
    _report(8, "Picard relations, ample cone, descent certificates", rep["pass"],
            f"{certs} certificates, {rep['counterexample_candidates']} singular")
    assert rep["pass"], rep
    assert rep["counterexample_candidates"] == 0


def test_criterion_09_levi_embedding_facts():
    rep, _secs = _run("levi_embedding_facts", check_levi_embedding_facts)
    pairs = sum(r["order_pairs_checked"] for r in rep["runs"])
    _report(9, "Levi admissibility and order embedding facts", rep["pass"],
            f"{pairs} order pairs")
    assert rep["pass"], rep


def test_criterion_10_determinism():
    scales = VerifyScales.quick()
    blob1 = json.dumps(run_verify(scales), sort_keys=True, indent=2)
    blob2 = json.dumps(run_verify(scales), sort_keys=True, indent=2)
    ok = blob1 == blob2
    # the full-scale checks run by the other criteria share the same
    # deterministic report path; compare two fresh full-scale sweeps of
    # the cheapest structural check as well
    rep_a = check_sl2_pipeline(SCALES)
    rep_b = check_sl2_pipeline(SCALES)
    ok = ok and json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)
    _report(10, "verify reports are byte-identical across runs", ok)
    assert ok


@pytest.mark.parametrize("fn", ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_full_scale_report_digest(fn):
    # Reuses the session's sweeps: the criteria above have run each check.
    name = fn.__name__.removeprefix("check_")
    rep, _secs = _run(name, fn)
    blob = json.dumps(rep, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == FULL_REPORT_DIGESTS[name]


def _with_outsider(plateau):
    """plateau, with one member far longer than any admissible element."""

    def patched(self, x, budget=DEFAULT_BUDGET):
        info = plateau(self, x, budget)
        far = x.group.translation((50,) * len(x.lam))
        return Plateau(info.members | {far}, info.descent)

    return patched


# (check, owner, attribute, patch of the original, witness of a failing run):
# each patch breaks one primitive a check relies on.
FAILING_PATHS = (
    (check_straight_class_containment, FrobeniusDatum, "plateau", _with_outsider,
     lambda r: r["violations"]),
    (check_wall_times_tau, admissible, "in_adm", lambda f: lambda d, mu, x: False,
     lambda r: r["failing"]),
    (check_min_length_reduction, FrobeniusDatum, "reduce_to_minimal",
     lambda f: lambda self, x, plateaus, budget=DEFAULT_BUDGET: x,
     lambda r: r["violations"]),
    (check_tag_injectivity, FrobeniusDatum, "tag_of", lambda f: lambda self, x: "one tag",
     lambda r: r["collisions"]),
    (check_straight_iff_fundamental, verify, "is_fundamental", lambda f: lambda *args: False,
     lambda r: r["violations"]),
    (check_fixed_point_generators, verify, "tau_orbits", lambda f: lambda group, perm: [],
     lambda r: r["generated_in_ball"] < r["fixed_in_ball"]),
    (check_picard_suite, verify, "is_ample", lambda f: lambda cls: not f(cls),
     lambda r: r["ample_mismatches"]),
    (check_levi_embedding_facts, verify, "sub_element",
     lambda f: lambda d, y: f(d, y) * d.weyl.simple(0),
     lambda r: r["levi_adm_violations"] and r["order_violations"]),
)


@pytest.fixture
def fresh_memos():
    # A patched primitive may feed the admissible-set memos; drop what it left.
    yield
    clear_memos()


@pytest.mark.parametrize(
    "fn, owner, attr, patch, witness", FAILING_PATHS, ids=[row[0].__name__ for row in FAILING_PATHS]
)
def test_check_fails_with_a_witness(monkeypatch, fresh_memos, fn, owner, attr, patch, witness):
    # Each catalog check reads its pass off its runs: one broken primitive
    # gives a run with a witness, and the check fails.
    monkeypatch.setattr(owner, attr, patch(getattr(owner, attr)))
    report = fn(VerifyScales.quick())
    assert report["pass"] is False
    assert any(witness(run) for run in report["runs"])


def test_verify_exits_4_on_a_failing_check(monkeypatch, fresh_memos):
    monkeypatch.setattr(verify, "is_ample", lambda cls, f=verify.is_ample: not f(cls))
    report, code = run(JobSpec(command="verify", scale="quick"))
    assert code == EXIT_COUNTEREXAMPLE
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["picard_suite"]

"""The benchmark's workloads and the checks on their outputs.

Each workload is a closed loop: one caller issues the next call only after
the previous one returned.  `prepare` builds the inputs from the seed
before timing starts; `run` issues the calls and then checks every output,
and its time up to the end of the checks is the workload's wall time.

Reports are compared as canonical JSON (`sort_keys=True, indent=2`, the
form `adlv.cli._emit` writes) against SHA-256 digests recorded from the
seed commit in `expected.json`, or byte for byte against the golden files
under `tests/golden`.  Reduced words are never compared raw: they depend
on cache history, so a word is checked only by reassembling it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import adlv.admissible as admissible
import adlv.cli as cli
import adlv.verify as verify
from adlv.linalg import dot
from adlv.presets import catalog, preset

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

# Certificates per preset in check_picard_suite at picard_length 8, q = 2.
PICARD_CERTIFICATES = {
    "A1_sc": 17,
    "A1_ad": 34,
    "A2_sc": 326,
    "C2_sc": 65,
    "D4_sc": 5914,
    "G2_sc": 89,
    "GL2": 34,
    "A1xA1_sc": 786,
    "GU_odd(1)": 34,
    "GU_odd(2)": 130,
    "GU_odd(3)": 618,
}

# The invocations behind tests/golden/*.json.
GOLDEN = (
    ("adm_a1_sc.json", dict(command="adm", group="A1_sc", mu=(1,), emit="elements")),
    ("bgmu_a1_ad.json", dict(command="bgmu", group="A1_ad", mu=(1,))),
    ("pi0_a1_sc_basic.json", dict(command="pi0", group="A1_sc", mu=(1,), b="basic")),
    ("pic_cert_a1_sc.json", dict(command="pic-cert", group="A1_sc", mu=(1,), b="maximal")),
    ("straight_c2.json", dict(command="straight", group="C2_sc", mu=(1, 0))),
)

# Commands that take a sigma option, with their class selector.
SIGMA_COMMANDS = (
    ("straight", None),
    ("bgmu", None),
    ("pi0", "basic"),
    ("pi0", "maximal"),
    ("pic-cert", "basic"),
    ("pic-cert", "maximal"),
)
MEMBERSHIP_SAMPLE = 400


def canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def digest(report: dict) -> str:
    return hashlib.sha256(canonical(report).encode()).hexdigest()


def strata_digest(report: dict) -> str:
    """Digest of a pi0 report with its strata in canonical order.

    pi0_predict sorts strata by a reduced word of each element, and
    reduced words depend on cache history, so their order depends on
    the queries before.  The strata are compared as a set here; the
    part of their order that words cannot change, by length, is checked
    separately.
    """
    strata = sorted(report["strata"], key=lambda s: canonical(s["w"]))
    return digest({**report, "strata": strata})


@dataclass
class Outcome:
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    messages: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    latencies_s: list = field(default_factory=list)

    def fail(self, op, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.messages) < 20:
            self.messages.append(message)


def _check_digest(out: Outcome, op, key: str, got: str, expected: dict | None):
    out.digests[key] = got
    if expected is not None and expected.get(key) != got:
        out.fail(op, f"{key}: report digest differs from the recorded one")


# -- verify_quick ------------------------------------------------------------


def prepare_verify_quick(seed: int):
    return verify.VerifyScales.quick()


def run_verify_quick(scales, expected: dict | None) -> Outcome:
    out = Outcome(attempted=1)
    t0 = time.perf_counter()
    try:
        report = verify.run_verify(scales)
    except Exception as exc:  # a failed operation, reported as such
        out.fail(0, f"run_verify raised {exc!r}")
        return out
    out.latencies_s.append(time.perf_counter() - t0)
    _check_digest(out, 0, "verify_quick", digest(report), expected)
    try:
        if not report["pass"]:
            out.fail(0, "verify report does not pass")
        if report["counterexample_candidates"] != 0:
            out.fail(0, "verify report has counterexample candidates")
        by_name = {c["name"]: c for c in report["checks"]}
        out.units["bruhat_pairs"] = sum(
            r["order_pairs_checked"] for r in by_name["levi_embedding_facts"]["runs"]
        )
        out.units["certificates"] = sum(
            r["certificates"] for r in by_name["picard_suite"]["runs"]
        )
    except Exception as exc:
        out.fail(0, f"verify report check raised {exc!r}")
    return out


# -- picard_certs ------------------------------------------------------------


def prepare_picard_certs(seed: int):
    return verify.VerifyScales(picard_qs=(2,))


def run_picard_certs(scales, expected: dict | None) -> Outcome:
    out = Outcome(attempted=1)
    t0 = time.perf_counter()
    try:
        report = verify.check_picard_suite(scales)
    except Exception as exc:
        out.fail(0, f"check_picard_suite raised {exc!r}")
        return out
    out.latencies_s.append(time.perf_counter() - t0)
    _check_digest(out, 0, "picard_certs", digest(report), expected)
    try:
        if not report["pass"]:
            out.fail(0, "picard suite does not pass")
        if report["counterexample_candidates"] != 0:
            out.fail(0, "picard suite found singular operators")
        counts = {r["preset"]: r["certificates"] for r in report["runs"]}
        if counts != PICARD_CERTIFICATES:
            out.fail(0, f"certificate counts differ: {counts}")
        out.units["certificates"] = sum(counts.values())
    except Exception as exc:
        out.fail(0, f"picard report check raised {exc!r}")
    return out


# -- catalog_queries ---------------------------------------------------------


def _query_key(spec: cli.JobSpec) -> str:
    mu = ",".join(map(str, spec.mu))
    return f"{spec.command}|{spec.group}|{spec.sigma}|{mu}|{spec.b}|{spec.emit}"


def catalog_specs() -> list[cli.JobSpec]:
    """Every CLI command over every preset, sigma option and grid
    cocharacter (adm takes no sigma), plus adm for C2_sc (m, 0)."""
    specs = []
    for p in catalog():
        for _label, mu in p.mu_grid:
            specs.append(cli.JobSpec(command="adm", group=p.name, mu=mu))
        for sig in sorted(p.sigmas):
            for _label, mu in p.mu_grid:
                for command, b in SIGMA_COMMANDS:
                    specs.append(
                        cli.JobSpec(command=command, group=p.name, sigma=sig, mu=mu, b=b)
                    )
    for m in (2, 4, 6, 8):
        specs.append(cli.JobSpec(command="adm", group="C2_sc", mu=(m, 0)))
    return specs


def prepare_catalog_queries(seed: int):
    """Queries in seeded order, then in_adm on a seeded sample of the ball
    of radius max_length around the designated omegas of each (preset, mu)."""
    rng = random.Random(seed)
    queries = [(_query_key(s), s, None) for s in catalog_specs()]
    queries += [(name, cli.JobSpec(**kw), name) for name, kw in GOLDEN]
    rng.shuffle(queries)
    membership = []
    for p in catalog():
        d = p.datum
        w = d.weyl
        omegas = [o.element for o in w.omega_elements()]
        for _label, mu in p.mu_grid:
            mu_dom, _ = d.dominant_rep(mu)
            radius = dot(d.two_rho, tuple(int(c) for c in mu_dom))
            ball = w.ball(radius, omegas)
            if len(ball) > MEMBERSHIP_SAMPLE:
                ball = rng.sample(ball, MEMBERSHIP_SAMPLE)
            membership += [(p.name, mu, x) for x in ball]
    rng.shuffle(membership)
    return queries, membership


def run_catalog_queries(inputs, expected: dict | None) -> Outcome:
    queries, membership = inputs
    out = Outcome(attempted=len(queries) + len(membership))
    clock = time.perf_counter
    reports = []
    for key, spec, _golden in queries:
        t0 = clock()
        try:
            report, code = cli.run(spec)
        except Exception as exc:
            out.fail(key, f"{key}: raised {exc!r}")
            continue
        out.latencies_s.append(clock() - t0)
        reports.append((key, spec, code, report))
    answers = []
    for i, (name, mu, x) in enumerate(membership):
        try:
            answers.append(admissible.in_adm(preset(name).datum, mu, x))
        except Exception as exc:
            out.fail(("in_adm", i), f"in_adm {name} {mu}: raised {exc!r}")
            answers.append(None)

    golden = {key: name for key, _spec, name in queries if name}
    adm_elements = 0
    for key, spec, code, report in reports:
        if code != cli.EXIT_OK:
            out.fail(key, f"{key}: exit code {code}")
            continue
        try:
            if spec.command == "adm":
                adm_elements += report["size"]
            if key in golden:
                if canonical(report).encode() != (GOLDEN_DIR / golden[key]).read_bytes():
                    out.fail(key, f"{key}: differs from tests/golden/{golden[key]}")
            elif spec.command == "pi0":
                w = preset(spec.group).datum.weyl
                lengths = [w.length(w.from_json(s["w"])) for s in report["strata"]]
                if lengths != sorted(lengths):
                    out.fail(key, f"{key}: strata are not in order of length")
                _check_digest(out, key, key, strata_digest(report), expected)
            else:
                _check_digest(out, key, key, digest(report), expected)
        except Exception as exc:  # a malformed report fails its query
            out.fail(key, f"{key}: check raised {exc!r}")

    admissible_sets = {}
    for i, ((name, mu, x), got) in enumerate(zip(membership, answers)):
        try:
            d = preset(name).datum
            if (name, mu) not in admissible_sets:
                admissible_sets[(name, mu)] = admissible.adm(d, mu).elements
            if got is not None and got != (x in admissible_sets[(name, mu)]):
                out.fail(("in_adm", i), f"in_adm {name} {mu} {x.key()}: answered {got}")
            w = d.weyl
            word, omega = w.reduced_word(x)
            if w.assemble(word, omega) != x or len(word) != w.length(x):
                out.fail(("in_adm", i), f"reduced word of {name} {x.key()} does not reassemble")
        except Exception as exc:
            out.fail(("in_adm", i), f"in_adm {name} {mu}: check raised {exc!r}")
    out.units["adm_elements"] = adm_elements
    out.units["membership_queries"] = len(membership)
    return out


WORKLOADS = {
    "verify_quick": (prepare_verify_quick, run_verify_quick),
    "picard_certs": (prepare_picard_certs, run_picard_certs),
    "catalog_queries": (prepare_catalog_queries, run_catalog_queries),
}

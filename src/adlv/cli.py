"""Command-line surface.

Every command validates its inputs into a JobSpec, runs, and emits one
deterministic JSON report.  Exit codes: 0 success, 1 bad input, 2
hypothesis violation, 3 budget exceeded, 4 counterexample candidate.
"""

from __future__ import annotations

import json
import sys
import weakref
from dataclasses import dataclass, field

import click

from .admissible import DEFAULT_BUDGET, adm, adm_parahoric
from .errors import (
    AdlvError,
    BudgetExceeded,
    HypothesisViolated,
    SchemaError,
    SingularOperator,
    UnknownPreset,
)
from .fgab import FinAbGroup
from .frobenius import FrobeniusDatum, StraightClassTag
from .levi import pi0_predict
from .newton_bg import b_g_mu, straight_classes
from .picard import descent_certificate
from .presets import catalog, preset
from .verify import SCHEMA_VERSION, VerifyScales, frac_str, run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3
EXIT_COUNTEREXAMPLE = 4


@dataclass
class JobSpec:
    command: str
    group: str | dict | None = None
    sigma: str = "split"
    mu: tuple[int, ...] | None = None
    b: str | None = None
    level: tuple[int, ...] = field(default_factory=tuple)
    budget: int = DEFAULT_BUDGET
    emit: str = "summary"
    scale: str = "full"

    def __post_init__(self):
        if self.budget <= 0:
            raise SchemaError("/budget: must be positive")
        if self.emit not in ("summary", "elements"):
            raise SchemaError("/emit: expected 'summary' or 'elements'")


def _resolve_group(spec: JobSpec):
    if spec.group is None:
        raise SchemaError("/group: missing")
    if isinstance(spec.group, str) and spec.group.strip().startswith("{"):
        try:
            obj = json.loads(spec.group)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"/group: bad JSON ({exc})") from exc
        from .root_datum import build_root_datum

        return build_root_datum(obj), None
    return preset(spec.group).datum, preset(spec.group)


def _resolve_sigma(spec: JobSpec, datum, pre, shared: bool = True) -> FrobeniusDatum:
    """The sigma of the spec: the live one of its value (see _live_sigma)
    if `shared`, else a new one, whose caches end with the query."""
    make = _live_sigma if shared else FrobeniusDatum
    raw = spec.sigma
    if raw.strip().startswith("{"):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"/sigma: bad JSON ({exc})") from exc
        return FrobeniusDatum.from_json(datum, obj)
    name, _, qpart = raw.partition(":")
    q = 2
    if qpart:
        try:
            q = int(qpart)
        except ValueError:
            raise SchemaError("/sigma: q suffix must be an integer") from None
    if pre is None:
        if name != "split":
            raise SchemaError("/sigma: explicit data only support 'split' or JSON")
        return make(datum, None, q)
    return make(datum, pre.sigma_matrix(name), q)


# The live sigma of each (datum object, matrix, q), so that queries share
# one sigma and its Newton data and Smith forms.  A sigma holds its
# datum, so id(datum) is not reused while its entry lives.
_LIVE_SIGMAS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _live_sigma(datum, matrix, q: int) -> FrobeniusDatum:
    key = (id(datum), matrix, q)
    sigma = _LIVE_SIGMAS.get(key)
    if sigma is None:
        sigma = FrobeniusDatum(datum, matrix, q=q)
        _LIVE_SIGMAS[key] = sigma
    return sigma


def _require_mu(spec: JobSpec, datum) -> tuple[int, ...]:
    if spec.mu is None:
        raise SchemaError("/mu: missing")
    if len(spec.mu) != datum.rank:
        raise SchemaError(f"/mu: expected {datum.rank} integers")
    return spec.mu


def _group_json(g: FinAbGroup) -> dict:
    return {
        "invariant_factors": list(g.invariant_factors),
        "shape": g.describe(),
    }


def _tag_json(tag: StraightClassTag) -> dict:
    return {
        "nu": [frac_str(c) for c in tag.nu_bar],
        "kappa": list(tag.kappa0),
        "kappa_sigma": list(tag.kappa_sigma),
    }


def _select_tag(spec: JobSpec, elements):
    if spec.b is None or spec.b == "basic":
        return next(e for e in elements if e.is_minimal)
    if spec.b in ("max", "maximal"):
        return next(e for e in elements if e.is_maximal)
    try:
        idx = int(spec.b)
    except ValueError:
        raise SchemaError("/b: expected 'basic', 'maximal', or an index") from None
    if not 0 <= idx < len(elements):
        raise SchemaError(f"/b: index {idx} out of range 0..{len(elements) - 1}")
    return elements[idx]


# First match wins; every other AdlvError is bad input.
_EXIT_CODES = (
    (HypothesisViolated, EXIT_HYPOTHESIS),
    (BudgetExceeded, EXIT_BUDGET),
    (SingularOperator, EXIT_COUNTEREXAMPLE),
    (AdlvError, EXIT_USAGE),
)


def _error_report(exc: AdlvError) -> tuple[dict, int]:
    """The JSON error body and exit code for a package error."""
    if isinstance(exc, (UnknownPreset, SchemaError)):
        message = str(exc)
    else:
        message = f"{type(exc).__name__}: {exc}"
    code = next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return {"schema_version": SCHEMA_VERSION, "error": message}, code


def run(spec: JobSpec) -> tuple[dict, int]:
    """Execute one command; returns (report, exit code)."""
    try:
        report = _dispatch(spec)
    except AdlvError as exc:
        return _error_report(exc)
    code = EXIT_OK
    if spec.command == "verify" and (
        not report["pass"] or report["counterexample_candidates"]
    ):
        code = EXIT_COUNTEREXAMPLE
    return report, code


def _dispatch(spec: JobSpec) -> dict:
    if spec.command == "verify":
        if spec.group is not None:
            return _targeted_verify(spec)
        scales = VerifyScales() if spec.scale == "full" else VerifyScales.quick()
        return run_verify(scales)
    if spec.command == "presets":
        return {
            "schema_version": SCHEMA_VERSION,
            "command": "presets",
            "presets": [
                {
                    "name": p.name,
                    "rank": p.datum.rank,
                    "positive_roots": len(p.datum.positive_roots),
                    "w0_order": p.datum.weyl.w0_order(),
                    "pi1": _group_json(p.datum.pi1),
                    "sigmas": sorted(p.sigmas),
                    "mu_grid": [
                        {"label": label, "mu": list(mu)} for label, mu in p.mu_grid
                    ],
                    "description": p.description,
                }
                for p in catalog()
            ],
        }

    datum, pre = _resolve_group(spec)
    w = datum.weyl
    n_affine = len(w.simple_affine)
    for i in spec.level:
        if not 0 <= i < n_affine:
            raise SchemaError(
                f"/level: {i} is not an affine simple index 0..{n_affine - 1}"
            )
    if len(set(spec.level)) != len(spec.level):
        raise SchemaError("/level: repeated index")
    base = {
        "schema_version": SCHEMA_VERSION,
        "command": spec.command,
        "group": datum.name or "explicit",
    }

    if spec.command == "adm":
        mu = _require_mu(spec, datum)
        aset = adm(datum, mu, budget=spec.budget)
        out = dict(base)
        out.update(
            {
                "mu": list(mu),
                "tau": w.to_json(aset.tau.element),
                "size": len(aset),
                "max_length": aset.max_length,
                "maximal": [w.to_json(t) for t in aset.maximal],
            }
        )
        if spec.level:
            closed, reps = adm_parahoric(datum, mu, spec.level, budget=spec.budget)
            out["level"] = list(spec.level)
            out["size_level"] = len(closed)
            out["double_coset_reps"] = [w.to_json(r) for r in reps]
        if spec.emit == "elements":
            out["elements"] = [w.to_json(x) for x in aset.sorted_elements]
        return out

    sigma = _resolve_sigma(spec, datum, pre)

    if spec.command == "straight":
        mu = _require_mu(spec, datum)
        classes = straight_classes(datum, sigma, mu, budget=spec.budget)
        return {
            **base,
            "mu": list(mu),
            "classes": [
                {
                    "tag": _tag_json(tag),
                    "size": len(members),
                    "elements": [w.to_json(x) for x in members],
                }
                for tag, members in classes
            ],
        }

    if spec.command == "bgmu":
        mu = _require_mu(spec, datum)
        elements = b_g_mu(datum, sigma, mu, budget=spec.budget)
        return {
            **base,
            "mu": list(mu),
            "elements": [
                {
                    "tag": _tag_json(e.tag),
                    "representative": w.to_json(e.representative),
                    "basic": e.basic,
                    "minimal": e.is_minimal,
                    "maximal": e.is_maximal,
                }
                for e in elements
            ],
        }

    if spec.command == "pi0":
        mu = _require_mu(spec, datum)
        elements = b_g_mu(datum, sigma, mu, budget=spec.budget)
        chosen = _select_tag(spec, elements)
        pred = pi0_predict(
            datum, sigma, mu, chosen.tag, k_set=spec.level, budget=spec.budget
        )
        return {
            **base,
            "mu": list(mu),
            "b": _tag_json(chosen.tag),
            "case": pred.case,
            "group": _group_json(pred.group) if pred.group is not None else None,
            "level": list(pred.level),
            "upper_bound_only": pred.upper_bound_only,
            "note": pred.note,
            "strata": [
                {
                    "w": w.to_json(s.element),
                    "levi_rank": s.levi_rank,
                    "pi1M": _group_json(s.pi1_levi),
                    "essentially_nontrivial": s.essentially_nontrivial,
                    "translation_part_admissible": s.translation_part_admissible,
                }
                for s in pred.strata
            ],
        }

    if spec.command == "pic-cert":
        mu = _require_mu(spec, datum)
        elements = b_g_mu(datum, sigma, mu, budget=spec.budget)
        chosen = _select_tag(spec, elements)
        cert = descent_certificate(sigma, chosen.representative, chosen.representative)
        return {
            **base,
            "mu": list(mu),
            "b": _tag_json(chosen.tag),
            "q": sigma.q,
            "operator": [[frac_str(v) for v in row] for row in cert.operator.matrix],
            "certificate": [frac_str(v) for v in cert.pic_class.values()],
            "difference": [frac_str(v) for v in cert.difference],
            "invertible": cert.invertible,
        }

    raise SchemaError(f"/command: unknown command {spec.command!r}")


def _targeted_verify(spec: JobSpec) -> dict:
    """Run the two admissible-set lemma verifiers on one datum."""
    from .admissible import verify_s_tau_membership, verify_straight_class_containment

    datum, pre = _resolve_group(spec)
    # Its own sigma: the plateaus it caches are not kept past the query.
    sigma = _resolve_sigma(spec, datum, pre, shared=False)
    mu = _require_mu(spec, datum)
    containment = verify_straight_class_containment(datum, sigma, mu, budget=spec.budget)
    wall = verify_s_tau_membership(datum, sigma, mu, budget=spec.budget)
    checks = [
        {"name": "straight_class_containment", "pass": containment["pass"], "runs": [containment]},
        {"name": "wall_times_tau", "pass": wall["pass"], "runs": [wall]},
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "group": datum.name or "explicit",
        "mu": list(mu),
        "pass": all(c["pass"] for c in checks),
        "counterexample_candidates": 0,
        "checks": checks,
    }


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_group_opt = click.option("--group", help="preset name or inline JSON root datum")
_sigma_opt = click.option(
    "--sigma", default="split", show_default=True,
    help="sigma option name, name:q, or inline JSON",
)
_mu_opt = click.option("--mu", help="cocharacter, comma-separated integers")
_b_opt = click.option("--b", help="class selector: basic, maximal, or index")
_level_opt = click.option(
    "--level", default="", help="parahoric K as comma-separated simple indices"
)
_budget_opt = click.option(
    "--budget", default=DEFAULT_BUDGET, show_default=True, type=int
)
_emit_opt = click.option(
    "--emit", default="summary", type=click.Choice(["summary", "elements"])
)
_out_opt = click.option("--out", default=None, help="write the JSON report here")


def _parse_ints(raw: str | None) -> tuple[int, ...] | None:
    if raw is None or raw == "":
        return None
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise SchemaError("/: expected comma-separated integers") from None


@click.group(name="adlv")
def main():
    """Combinatorics of unions of affine Deligne-Lusztig varieties."""


def _execute(command, out, mu=None, level=None, **fields):
    """Build the JobSpec from the parsed options, run it, write the
    report and exit with its code."""
    try:
        spec = JobSpec(
            command=command, mu=_parse_ints(mu), level=_parse_ints(level) or (), **fields
        )
    except SchemaError as exc:
        report, code = _error_report(exc)
    else:
        report, code = run(spec)
    _emit(report, out)
    sys.exit(code)


def _query(command):
    def runner(**options):
        _execute(command=command, **options)

    return runner


for _name in ("adm", "straight", "bgmu", "pi0", "pic-cert"):
    main.command(name=_name)(
        _group_opt(
            _sigma_opt(
                _mu_opt(
                    _b_opt(_level_opt(_budget_opt(_emit_opt(_out_opt(_query(_name))))))
                )
            )
        )
    )


@main.command()
@click.option(
    "--scale", default="full", type=click.Choice(["full", "quick"]), show_default=True
)
@_group_opt
@_sigma_opt
@_mu_opt
@_budget_opt
@_out_opt
def verify(scale, group, sigma, mu, budget, out):
    """Run every property-verification suite; exit 4 on any violation.

    With --group and --mu, run only the admissible-set lemma verifiers
    on that datum.
    """
    _execute("verify", out, mu=mu, scale=scale, group=group, sigma=sigma, budget=budget)


@main.command()
@_out_opt
def presets(out):
    """List the preset catalog."""
    _execute("presets", out)


if __name__ == "__main__":
    main()

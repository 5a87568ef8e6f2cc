"""Command-line surface.

Every command validates its inputs into a JobSpec, runs, and emits one
deterministic JSON report.  Exit codes: 0 success, 1 bad input, 2
hypothesis violation, 3 budget exceeded, 4 counterexample candidate.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, fields, replace
from typing import NoReturn

import click

from .admissible import (
    adm,
    adm_parahoric,
    verify_s_tau_membership,
    verify_straight_class_containment,
)
from .affine_weyl import DEFAULT_BUDGET
from .errors import (
    AdlvError,
    BudgetExceeded,
    HypothesisViolated,
    SchemaError,
    SingularOperator,
    UnknownPreset,
)
from .fgab import FinAbGroup
from .frobenius import FrobeniusDatum, StraightClassTag, prime_of_residue_cardinality, sigma_of
from .levi import pi0_predict
from .newton_bg import b_g_mu, straight_classes
from .picard import descent_certificate
from .presets import catalog, preset
from .root_datum import build_root_datum
from .verify import SCHEMA_VERSION, VerifyScales, _check, frac_str, run_verify, verify_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3
EXIT_COUNTEREXAMPLE = 4

# The JobSpec fields each command reads, and so its CLI options; any
# other field must keep its default.  verify reads group, sigma and mu
# only with a group (the targeted run) and scale only without one.
COMMAND_FIELDS = {
    "adm": ("group", "mu", "level", "budget", "emit"),
    "straight": ("group", "sigma", "mu", "budget"),
    "bgmu": ("group", "sigma", "mu", "budget"),
    "pi0": ("group", "sigma", "mu", "b", "level", "budget"),
    "pic-cert": ("group", "sigma", "mu", "b", "budget"),
    "verify": ("scale", "group", "sigma", "mu", "budget"),
    "presets": (),
}


@dataclass
class JobSpec:
    command: str
    group: str | dict | None = None
    sigma: str = "split"
    mu: tuple[int, ...] | None = None
    b: str | None = None
    level: tuple[int, ...] = ()
    budget: int = DEFAULT_BUDGET
    emit: str = "summary"
    scale: str = "full"

    def __post_init__(self):
        reads = COMMAND_FIELDS.get(self.command) if isinstance(self.command, str) else None
        if reads is None:
            raise SchemaError(f"/command: unknown command {self.command!r}")
        if type(self.budget) is not int or self.budget <= 0:
            raise SchemaError("/budget: expected a positive integer")
        if not isinstance(self.sigma, str):
            raise SchemaError("/sigma: expected a string")
        if not isinstance(self.level, (tuple, list)) or any(
            type(i) is not int for i in self.level
        ):
            raise SchemaError("/level: expected integers")
        if self.b is not None and not (
            self.b in ("basic", "max", "maximal")
            or isinstance(self.b, str) and self.b.isascii() and self.b.isdigit()
        ):
            raise SchemaError("/b: expected 'basic', 'maximal', or an index")
        if self.emit not in ("summary", "elements"):
            raise SchemaError("/emit: expected 'summary' or 'elements'")
        if self.scale not in ("full", "quick"):
            raise SchemaError("/scale: expected 'full' or 'quick'")
        self.level = tuple(self.level)
        where = ""
        if self.command == "verify":
            targeted = self.group is not None
            reads = ("group", "sigma", "mu", "budget") if targeted else ("scale", "budget")
            where = " with a group" if targeted else " without a group"
        for f in fields(self)[1:]:
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise SchemaError(f"/{f.name}: not read by {self.command}{where}")


def _resolve_group(spec: JobSpec):
    """(datum, preset or None) of a preset name, inline JSON or a dict."""
    group = spec.group
    if group is None:
        raise SchemaError("/group: missing")
    if isinstance(group, str) and group.strip().startswith("{"):
        try:
            group = json.loads(group)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"/group: bad JSON ({exc})") from exc
    if isinstance(group, str):
        return preset(group).datum, preset(group)
    return build_root_datum(group), None


def _resolve_sigma(spec: JobSpec, datum, pre) -> tuple[FrobeniusDatum, int]:
    """(sigma, q) of the spec, checked in order: the sigma name, q, the matrix."""
    raw = spec.sigma
    if raw.strip().startswith("{"):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"/sigma: bad JSON ({exc})") from exc
        return FrobeniusDatum.from_json(datum, obj)
    name, colon, qpart = raw.partition(":")
    q = _decimal(qpart, "/sigma: q suffix must be an integer") if colon else 2
    if pre is None and name != "split":
        raise SchemaError("/sigma: explicit data only support 'split' or JSON")
    matrix = None if pre is None else pre.sigma_matrix(name)
    prime_of_residue_cardinality(q)
    return sigma_of(datum, matrix), q


def _require_mu(spec: JobSpec, datum) -> tuple[int, ...]:
    if spec.mu is None:
        raise SchemaError("/mu: missing")
    return datum.cocharacter(spec.mu)


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
    idx = int(spec.b)
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
    if spec.command == "verify" and spec.group is None:
        scales = VerifyScales() if spec.scale == "full" else VerifyScales.quick()
        return run_verify(replace(scales, budget=spec.budget))

    datum, pre = _resolve_group(spec)
    w = datum.weyl
    n_affine = len(w.simple_affine)
    if spec.level and not n_affine:
        raise SchemaError("/level: the group has no affine simple reflections")
    for i in spec.level:
        if not 0 <= i < n_affine:
            raise SchemaError(
                f"/level: {i} is not an affine simple index 0..{n_affine - 1}"
            )
    if len(set(spec.level)) != len(spec.level):
        raise SchemaError("/level: repeated index")
    mu = _require_mu(spec, datum)
    base = {
        "schema_version": SCHEMA_VERSION,
        "command": spec.command,
        "group": datum.name or "explicit",
        "mu": list(mu),
    }

    if spec.command == "adm":
        aset = adm(datum, mu, budget=spec.budget)
        out = {
            **base,
            "tau": w.to_json(aset.tau.element),
            "size": len(aset),
            "max_length": aset.max_length,
            "maximal": [w.to_json(t) for t in aset.maximal],
        }
        if spec.level:
            closed, reps = adm_parahoric(datum, mu, spec.level, budget=spec.budget)
            out["level"] = list(spec.level)
            out["size_level"] = len(closed)
            out["double_coset_reps"] = [w.to_json(r) for r in reps]
        if spec.emit == "elements":
            out["elements"] = [w.to_json(x) for x in aset.sorted_elements]
        return out

    sigma, q = _resolve_sigma(spec, datum, pre)

    if spec.command == "verify":
        # The two admissible-set lemma verifiers on this datum; as in the
        # sweep, s_j tau is checked only for a connected affine diagram
        # and a noncentral mu.
        containment = [verify_straight_class_containment(datum, sigma, mu, budget=spec.budget)]
        wall = []
        if len(datum.components) == 1 and not datum.is_central(mu):
            wall.append(verify_s_tau_membership(datum, mu, budget=spec.budget))
        checks = [
            _check(name, runs, lambda run: not run["pass"])
            for name, runs in (("straight_class_containment", containment), ("wall_times_tau", wall))
        ]
        return {**base, **verify_report(checks)}

    if spec.command == "straight":
        classes = straight_classes(datum, sigma, mu, budget=spec.budget)
        return {
            **base,
            "classes": [
                {
                    "tag": _tag_json(tag),
                    "size": len(members),
                    "elements": [w.to_json(x) for x in members],
                }
                for tag, members in classes
            ],
        }

    elements = b_g_mu(datum, sigma, mu, budget=spec.budget)
    if spec.command == "bgmu":
        return {
            **base,
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

    chosen = _select_tag(spec, elements)
    base["b"] = _tag_json(chosen.tag)
    if spec.command == "pi0":
        pred = pi0_predict(
            datum, sigma, mu, chosen.tag, k_set=spec.level, budget=spec.budget
        )
        return {
            **base,
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

    cert = descent_certificate(sigma, q, chosen.representative)
    return {
        **base,
        "q": q,
        "operator": [[frac_str(v) for v in row] for row in cert.operator],
        "certificate": [frac_str(v) for v in cert.pic_class.values],
        "difference": [frac_str(v) for v in cert.difference],
        # descent_certificate raises on a singular operator.
        "invertible": True,
    }


def _emit(report: dict, code: int, out_path: str | None = None) -> NoReturn:
    """Write the report to out_path, or to stdout, and exit with code.  A
    path that cannot be written ends as bad input, reported on stdout."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            message = f"/out: cannot write {out_path}: {exc.strerror or exc}"
            _emit({"schema_version": SCHEMA_VERSION, "error": message}, EXIT_USAGE)
    else:
        sys.stdout.write(text)
    sys.exit(code)


# One click option per JobSpec field, plus --out.
_OPTIONS = {
    "scale": click.option("--scale", default="full", show_default=True, help="full or quick"),
    "group": click.option("--group", help="preset name or inline JSON root datum"),
    "sigma": click.option(
        "--sigma", default="split", show_default=True,
        help="sigma option name, name:q, or inline JSON",
    ),
    "mu": click.option("--mu", help="cocharacter, comma-separated integers"),
    "b": click.option("--b", help="class selector: basic, maximal, or index"),
    "level": click.option(
        "--level", default="", help="parahoric K as comma-separated simple indices"
    ),
    "budget": click.option("--budget", default=str(DEFAULT_BUDGET), show_default=True),
    "emit": click.option(
        "--emit", default="summary", show_default=True, help="summary or elements"
    ),
    "out": click.option("--out", default=None, help="write the JSON report here"),
}


def _decimal(raw: str, error: str) -> int:
    """raw as an integer if it is ASCII digits with an optional leading
    `-`, else SchemaError(error): the one spelling of --mu, --level,
    --budget and a --sigma q suffix (int() also takes '+7', ' 7', '1_000'
    and non-ASCII digits)."""
    if not re.fullmatch("-?[0-9]+", raw):
        raise SchemaError(error)
    return int(raw)


def _parse_ints(raw: str | None, name: str) -> tuple[int, ...] | None:
    """ASCII decimal integers, comma-separated, for option `name`; None
    for an empty option."""
    if raw is None or raw == "":
        return None
    error = f"/{name}: expected comma-separated integers"
    return tuple(_decimal(e, error) for e in raw.split(","))


class _Commands(click.Group):
    """Click's own usage errors (an unknown command or option, an option
    without its value, no command) end as bad input: JSON and exit 1."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, **{**kwargs, "standalone_mode": False})
        except click.ClickException as exc:
            _emit({"schema_version": SCHEMA_VERSION, "error": exc.format_message()}, EXIT_USAGE)
        except click.Abort:  # an interrupt: as click ends it outside this mode
            sys.exit("Aborted!")


@click.group(name="adlv", cls=_Commands, no_args_is_help=False)
def main():
    """Combinatorics of unions of affine Deligne-Lusztig varieties."""


def _execute(command, out, mu=None, level=None, budget=str(DEFAULT_BUDGET), **options):
    """Build the JobSpec from the parsed options, run it, write the
    report and exit with its code."""
    try:
        spec = JobSpec(
            command=command, mu=_parse_ints(mu, "mu"), level=_parse_ints(level, "level") or (),
            budget=_decimal(budget, "/budget: expected a positive integer"), **options,
        )
    except SchemaError as exc:
        report, code = _error_report(exc)
    else:
        report, code = run(spec)
    _emit(report, code, out)


_HELP = {
    "verify": """Run every property-verification suite; exit 4 on any violation.

    With --group and --mu, run only the admissible-set lemma verifiers
    on that datum.  --mu and --sigma need --group; --scale is for the
    full sweep only.
    """,
    "presets": "List the preset catalog.",
}


def _runner(command):
    def runner(**options):
        _execute(command=command, **options)

    return runner


for _name, _fields in COMMAND_FIELDS.items():
    _command = _runner(_name)
    for _field in reversed(_fields + ("out",)):
        _command = _OPTIONS[_field](_command)
    main.command(name=_name, help=_HELP.get(_name))(_command)


if __name__ == "__main__":
    main()

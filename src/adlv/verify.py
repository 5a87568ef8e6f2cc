"""Property verification suites.

Each check sweeps a structural claim over the preset catalog at a configurable
scale and reports counts plus explicit violation witnesses.  The CLI
`verify` command and the acceptance tests both run these; reports are
deterministic (sorted iteration, no timestamps, exact rationals as
strings).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .admissible import (
    adm,
    adm_elements,
    verify_s_tau_membership,
    verify_straight_class_containment,
)
from .affine_weyl import DEFAULT_BUDGET, closure
from .frobenius import FrobeniusDatum, sigma_of
from .levi import is_fundamental, levi_of, pi0_predict, sub_element, tau_orbits
from .linalg import identity_matrix, mat_mul, mat_vec
from .newton_bg import b_g_mu
from .picard import PicardLattice, PicClass, class_certificates, is_ample
from .presets import Preset, catalog, preset

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class VerifyScales:
    reduction_length: int = 8
    tag_length: int = 12
    fundamental_length: int = 8
    fixed_point_length: int = 10
    picard_length: int = 8
    picard_qs: tuple = (2, 3, 5)
    levi_ball_length: int = 4
    levi_pair_cap: int = 120
    budget: int = DEFAULT_BUDGET

    @classmethod
    def quick(cls) -> "VerifyScales":
        return cls(
            reduction_length=4,
            tag_length=6,
            fundamental_length=5,
            fixed_point_length=6,
            picard_length=4,
            picard_qs=(2,),
            levi_ball_length=3,
            levi_pair_cap=60,
        )


def frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _sigmas(p: Preset) -> list[tuple[str, FrobeniusDatum]]:
    return [(name, sigma_of(p.datum, p.sigmas[name])) for name in sorted(p.sigmas)]


def _designated_omegas(d) -> list:
    return [o.element for o in d.weyl.omega_elements()]


def _check(name: str, runs: list, failed, **totals) -> dict:
    """A catalog check's report: it passes when `failed(run)` is false
    on every run."""
    return {"name": name, "pass": not any(map(failed, runs)), **totals, "runs": runs}


def _witnesses(*fields: str):
    """A run fails when any of these witness fields is nonempty (or nonzero)."""
    return lambda run: any(run[f] for f in fields)


# -- end-to-end rank-one pipeline -----------------------------------------------------------------


def check_sl2_pipeline(scales: VerifyScales) -> dict:
    """End-to-end SL2 numbers: sizes, straight set, predictions."""
    p = preset("A1_sc")
    d = p.datum
    w = d.weyl
    sigma = sigma_of(d)
    aset = adm(d, (1,), budget=scales.budget)
    straights = sigma.straight_elements_in(aset.elements)
    bg = b_g_mu(d, sigma, (1,), budget=scales.budget)
    basic_pred = pi0_predict(d, sigma, (1,), bg[0].tag, budget=scales.budget)
    nonbasic_pred = pi0_predict(d, sigma, (1,), bg[-1].tag, budget=scales.budget)
    got = {
        "adm_size": len(aset),
        "tau_is_identity": aset.tau.element.is_identity(),
        "straights": sorted(w.to_json(x)["lambda"] + [x.u_idx] for x in straights),
        "bg_size": len(bg),
        "basic_group": basic_pred.group.describe(),
        "nonbasic_domain": sorted(
            s.pi1_levi.describe() for s in nonbasic_pred.strata
        ),
    }
    want = {
        "adm_size": 5,
        "tau_is_identity": True,
        "straights": [[-1, 0], [0, 0], [1, 0]],
        "bg_size": 2,
        "basic_group": "0",
        "nonbasic_domain": ["Z", "Z"],
    }
    return {
        "name": "sl2_pipeline",
        "pass": got == want,
        "got": got,
        "want": want,
    }


# -- admissible-set lemmas --------------------------------------------------------------


def check_straight_class_containment(scales: VerifyScales) -> dict:
    """Straight classes meeting the admissible set stay inside it
    (ordinary conjugation, every preset, every grid cocharacter)."""
    runs = []
    for p in catalog():
        sigma = sigma_of(p.datum)
        for label, mu in p.mu_grid:
            rep = verify_straight_class_containment(
                p.datum, sigma, mu, budget=scales.budget
            )
            runs.append(
                {
                    "preset": p.name,
                    "mu": f"{label}:{list(mu)}",
                    "classes": rep["straight_classes"],
                    "checked": rep["straight_elements_checked"],
                    "violations": rep["violations"],
                }
            )
    return _check("straight_class_containment", runs, _witnesses("violations"))


def check_wall_times_tau(scales: VerifyScales) -> dict:
    """s_j tau in Adm for connected diagrams and noncentral mu."""
    runs = []
    for p in catalog():
        if len(p.datum.components) != 1:
            continue
        for label, mu in p.mu_grid:
            if p.datum.is_central(mu):
                continue
            rep = verify_s_tau_membership(p.datum, mu, budget=scales.budget)
            runs.append(
                {
                    "preset": p.name,
                    "mu": f"{label}:{list(mu)}",
                    "checked": rep["checked"],
                    "failing": rep["failing_indices"],
                }
            )
    return _check("wall_times_tau", runs, _witnesses("failing"))


# -- minimal length reduction --------------------------------------------------------------------


def check_min_length_reduction(scales: VerifyScales) -> dict:
    """Reduction stays in x's twisted conjugation component of a padded
    ball and reaches the component's minimal length, for every element
    and sigma option.  The walk never raises length and stays in x's
    W_a-coset, so it never leaves the ball."""
    runs = []
    # A step s y sigma(s) changes length by at most 2.  Padding the ball
    # by 2 lets each component pass one step above every checked element,
    # so the reduction is compared with minima reached through longer
    # elements too.
    pad = scales.reduction_length + 2
    for p in catalog():
        w = p.datum.weyl
        elements = w.ball(pad, _designated_omegas(p.datum), budget=scales.budget)
        in_set = set(elements)
        for sig_name, sigma in _sigmas(p):
            def step(y):
                conjugates = (sigma.conj_step(s.index, y) for s in w.simple_affine)
                return [z for z in conjugates if z in in_set]

            comp_min: list = []
            comp_id: dict = {}
            for x in elements:
                if x in comp_id:
                    continue
                comp = closure([x], step, scales.budget)
                comp_id.update(dict.fromkeys(comp, len(comp_min)))
                comp_min.append(min(map(w.length, comp)))
            bad = []
            checked = 0
            plateaus: dict = {}
            for x in elements:
                if w.length(x) > scales.reduction_length:
                    continue
                checked += 1
                m = sigma.reduce_to_minimal(x, plateaus, scales.budget)
                cid = comp_id[x]
                if comp_id.get(m) != cid or w.length(m) != comp_min[cid]:
                    bad.append(w.to_json(x))
            runs.append(
                {
                    "preset": p.name,
                    "sigma": sig_name,
                    "checked": checked,
                    "components": len(comp_min),
                    "violations": bad,
                }
            )
    return _check("min_length_reduction", runs, _witnesses("violations"))


# -- class tag separation --------------------------------------------------------------------


def check_tag_injectivity(scales: VerifyScales) -> dict:
    """Distinct straight twisted-conjugacy classes carry distinct
    (Newton, Kottwitz) tags; collisions are counterexample candidates."""
    runs = []
    for p in catalog():
        w = p.datum.weyl
        ball = w.ball(scales.tag_length, _designated_omegas(p.datum), budget=scales.budget)
        for sig_name, sigma in _sigmas(p):
            straights = sigma.straight_elements_in(ball)
            plateaus = sigma.plateau_classes(straights, scales.budget)
            classes = [(sigma.tag_of(x), x) for x, _members in plateaus]
            tags: dict = {}
            collisions = []
            for tag, rep in classes:
                if tag in tags:
                    collisions.append(
                        {
                            "tag": repr(tag),
                            "first": w.to_json(tags[tag]),
                            "second": w.to_json(rep),
                        }
                    )
                else:
                    tags[tag] = rep
            runs.append(
                {
                    "preset": p.name,
                    "sigma": sig_name,
                    "straight_elements": len(straights),
                    "classes": len(classes),
                    "collisions": collisions,
                }
            )
    return _check(
        "tag_injectivity",
        runs,
        _witnesses("collisions"),
        counterexample_candidates=sum(len(r["collisions"]) for r in runs),
    )


# -- straight versus fundamental --------------------------------------------------------------------


def check_straight_iff_fundamental(scales: VerifyScales) -> dict:
    """is_straight(w) iff is_fundamental(w, nu_w) over padded balls."""
    runs = []
    for p in catalog():
        d = p.datum
        w = d.weyl
        elements = w.ball(
            scales.fundamental_length, _designated_omegas(d), budget=scales.budget
        )
        for sig_name, sigma in _sigmas(p):
            bad = [
                w.to_json(x)
                for x in elements
                if sigma.is_straight(x)
                != is_fundamental(d, sigma, x, sigma.newton_direction(x))
            ]
            runs.append(
                {
                    "preset": p.name,
                    "sigma": sig_name,
                    "checked": len(elements),
                    "violations": bad,
                }
            )
    return _check("straight_iff_fundamental", runs, _witnesses("violations"))


# -- fixed subgroup generators --------------------------------------------------------------------


def check_fixed_point_generators(scales: VerifyScales) -> dict:
    """The longest elements of finite twist orbits generate exactly the
    twist-fixed part of the affine Weyl group, within a ball.  The
    generated side holds only products of the generators; the fixed side
    is filtered independently."""
    runs = []
    cap = scales.fixed_point_length
    for p in catalog():
        w = p.datum.weyl
        ball = w.coset_ball(cap, budget=scales.budget)
        for sig_name, sigma in _sigmas(p):
            for om in w.omega_elements():
                tau_elt = om.element
                # Ad(tau) . sigma on the affine simple indices.
                orbits = tau_orbits(w, [om.s_permutation[j] for j in sigma.s_permutation])
                finite = [o for o in orbits if o.finite]
                gens = [(o.longest, w.length(o.longest)) for o in finite]
                # "W^sigma is a Coxeter group on the w_J of the finite
                # sigma-orbits J, and l(g_1 ... g_k) = l(g_1) + ... + l(g_k)
                # on its reduced words" (Steinberg, Mem. AMS 80, 1968;
                # Lusztig, Hecke algebras with unequal parameters, 2003,
                # section 16).  Each fixed x in the ball is reached through
                # the suffixes of its reduced word, which all add length.
                def step(y):
                    ly = w.length(y)
                    grown = ((g * y, ly + lg) for g, lg in gens if ly + lg <= cap)
                    return [z for z, lz in grown if w.length(z) == lz]

                generated = closure([w.identity()], step, scales.budget)
                fixed = {x for x in ball if tau_elt * sigma.apply(x) == x * tau_elt}
                runs.append(
                    {
                        "preset": p.name,
                        "sigma": sig_name,
                        "tau_kappa": list(om.pi1_coords),
                        "finite_orbits": len(finite),
                        "orbit_types": sorted(str(o.orbit_type) for o in finite),
                        "generated_in_ball": len(generated),
                        "fixed_in_ball": len(fixed),
                        "pass": generated == fixed,
                    }
                )
    return _check("fixed_point_generators", runs, lambda run: not run["pass"])


# -- Picard lattice suite --------------------------------------------------------------------


def _sign_ratio(i: int, s: int) -> tuple[int, int]:
    """An unreduced ratio for s / 2^i, s in {-1, 0, 1}, with a negative
    denominator at odd i."""
    flip = -1 if i % 2 else 1
    return flip * 2 * s, flip * 2 ** (i + 1)


def check_picard_suite(scales: VerifyScales) -> dict:
    """Coxeter relations on Pic, the ample sign test, and descent
    certificates at every straight element and matching representative.

    is_ample reads only signs, so the ample test builds one class per
    sign pattern over the affine nodes, its coordinates from unreduced
    ratios and, at odd nodes, negative denominators (_sign_ratio)."""
    bond_from_product = {0: 2, 1: 3, 2: 4, 3: 6}
    runs = []
    for p in catalog():
        d = p.datum
        w = d.weyl
        pic = PicardLattice(w)
        n = pic.n
        reflections = [pic.element_action(w.simple(i)) for i in range(n)]
        relation_failures = []
        for i, ri in enumerate(reflections):
            if mat_mul(ri, ri) != identity_matrix(n):
                relation_failures.append(f"s{i}^2")
        for i in range(n):
            for j in range(i + 1, n):
                prod = pic.cartan[i][j] * pic.cartan[j][i]
                m = bond_from_product.get(prod)
                if m is None:
                    continue
                rirj = mat_mul(reflections[i], reflections[j])
                power = identity_matrix(n)
                for _ in range(m):
                    power = mat_mul(power, rirj)
                if power != identity_matrix(n):
                    relation_failures.append(f"(s{i}s{j})^{m}")
        ample_bad = 0
        for signs in product((-1, 0, 1), repeat=n):
            cls = PicClass.from_ratios(2, map(_sign_ratio, range(n), signs))
            if is_ample(cls) != all(s > 0 for s in signs):
                ample_bad += 1
        cert_count = 0
        cert_failures = []
        ball = w.ball(scales.picard_length, _designated_omegas(d), budget=scales.budget)
        # Straight classes do not depend on q: one decomposition per sigma.
        classes = [(sigma, sigma.straight_class_tags(ball)) for _name, sigma in _sigmas(p)]
        for q in scales.picard_qs:
            for sigma, tagged in classes:
                for _tag, members in tagged:
                    for wx, xx, cert in class_certificates(sigma, q, members):
                        cert_count += 1
                        if cert is None:
                            cert_failures.append(
                                {"q": q, "w": w.to_json(wx), "x": w.to_json(xx)}
                            )
        runs.append(
            {
                "preset": p.name,
                "relation_failures": relation_failures,
                "ample_mismatches": ample_bad,
                "certificates": cert_count,
                "certificate_failures": cert_failures,
            }
        )
    return _check(
        "picard_suite",
        runs,
        _witnesses("relation_failures", "ample_mismatches", "certificate_failures"),
        counterexample_candidates=sum(len(r["certificate_failures"]) for r in runs),
    )


# -- Levi embedding facts --------------------------------------------------------------------


def _levi_order_pairs(d, sub, scales: VerifyScales) -> tuple[int, list]:
    """Related pairs a <= b of the Levi's coset ball, and the covers
    c < b whose ambient images are not related.

    The lower interval of b in the Levi is b and the lower intervals of
    its covers (the subword property).  The ball is sorted by length, so
    the capped prefix holds every element shorter than its last one:
    covers are done before b, and every interval lies in the prefix.
    Each b's covers are filed back in `known`, where covers_below finds
    those of s b.
    The ambient order is compared only on covers: a related pair a <= b
    is joined by a chain of covers inside the interval of b, and the
    ambient order is transitive.  A cover c of b is b t for a reflection
    t = s_(a,k), a in Phi_M, of W_{a,M} (Omega_M conjugates reflections
    to reflections), an affine reflection of the ambient group too;
    sub_element is the identity on (lam, u), so i(c) = i(b) t.  Hence
    i(c) <= i(b) iff l(i(c)) < l(i(b)), the definition of the Bruhat
    order (Bjorner-Brenti, Combinatorics of Coxeter Groups, Def. 2.1.1;
    Humphreys, Reflection Groups and Coxeter Groups, Sect. 5.9).
    """
    ball_m = sub.weyl.coset_ball(scales.levi_ball_length, budget=scales.budget)[
        : scales.levi_pair_cap
    ]
    below: dict = {}
    length: dict = {}
    known: dict = {}
    bad = []
    for b in ball_m:
        covers = known[b] = sub.weyl.covers_below(b, known)
        below[b] = {b}.union(*(below[c] for c in covers))
        length[b] = d.weyl.length(sub_element(d, b))
        for c in covers:
            if not length[c] < length[b]:
                bad.append({"x": sub.weyl.to_json(c), "y": sub.weyl.to_json(b)})
    return sum(map(len, below.values())), bad


def check_levi_embedding_facts(scales: VerifyScales) -> dict:
    """Residually split facts: translation parts of straight admissible
    elements are admissible, Levi admissible sets embed, the Levi Bruhat
    order embeds, and straight elements are basic in their Levi."""
    runs = []
    for p in catalog():
        d = p.datum
        w = d.weyl
        sigma = sigma_of(d)
        # The order sweep depends only on the Levi, which directions with
        # the same vanishing roots share; it runs once per Levi.
        order_by_sub: dict = {}
        for label, mu in p.mu_grid:
            aset = adm(d, mu, budget=scales.budget)
            straights = sigma.straight_elements_in(aset.elements)
            t_bad = []
            sub_bad = []
            order_checked = 0
            order_bad = []
            basic_bad = []
            seen_directions = set()
            for x in straights:
                nu = sigma.newton_direction(x)
                sub = levi_of(d, nu)
                if w.translation(x.lam) not in aset.elements:
                    t_bad.append(w.to_json(x))
                # Each Levi set is read once here, so it is enumerated
                # outside the admissible-set memo.
                for y in adm_elements(sub, x.lam, scales.budget):
                    if sub_element(d, y) not in aset.elements:
                        sub_bad.append({"w": w.to_json(x), "y": sub.weyl.to_json(y)})
                # Straight elements are length zero in their Levi and fix nu.
                x_in_sub = sub.weyl.from_matrix(x.lam, x.mat)
                if sub.weyl.length(x_in_sub) != 0 or mat_vec(x.mat, nu) != nu:
                    basic_bad.append(w.to_json(x))
                # Order pairs count once per primitive direction.
                g = gcd(*nu) or 1
                direction = tuple(c // g for c in nu)
                if direction in seen_directions:
                    continue
                seen_directions.add(direction)
                if sub not in order_by_sub:
                    order_by_sub[sub] = _levi_order_pairs(d, sub, scales)
                checked, bad = order_by_sub[sub]
                order_checked += checked
                order_bad.extend(bad)
            runs.append(
                {
                    "preset": p.name,
                    "mu": f"{label}:{list(mu)}",
                    "straights": len(straights),
                    "translation_violations": t_bad,
                    "levi_adm_violations": sub_bad,
                    "order_pairs_checked": order_checked,
                    "order_violations": order_bad,
                    "levi_basic_violations": basic_bad,
                }
            )
    return _check(
        "levi_embedding_facts",
        runs,
        _witnesses(
            "translation_violations",
            "levi_adm_violations",
            "order_violations",
            "levi_basic_violations",
        ),
    )


# -- the orchestrator ---------------------------------------------------------------


ALL_CHECKS = (
    check_sl2_pipeline,
    check_straight_class_containment,
    check_wall_times_tau,
    check_min_length_reduction,
    check_tag_injectivity,
    check_straight_iff_fundamental,
    check_fixed_point_generators,
    check_picard_suite,
    check_levi_embedding_facts,
)


def verify_report(checks: list[dict]) -> dict:
    """The verify report of a list of check reports."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "pass": all(c["pass"] for c in checks),
        "counterexample_candidates": sum(c.get("counterexample_candidates", 0) for c in checks),
        "checks": checks,
    }


def run_verify(scales: VerifyScales | None = None) -> dict:
    scales = scales or VerifyScales()
    return verify_report([fn(scales) for fn in ALL_CHECKS])

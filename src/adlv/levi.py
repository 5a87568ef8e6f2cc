"""Semistandard Levi data, alcove/fundamental tests, and pi_0 predictions.

For a rational direction v, the Levi M_v is spanned by the roots
vanishing on v.  Its Iwahori-Weyl group shares the full cocharacter
lattice, and its affine simple reflections are realized as the walls of
the alcove of M_v containing the base alcove: the sub-datum's `walls`,
built as for the ambient group from the subsystem.  Since the sub-datum
lives on the same lattice, its Weyl elements compare with ambient ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from operator import add
from typing import Sequence

from .admissible import in_adm
from .affine_weyl import DEFAULT_BUDGET, AffineWeylElement, AffineWeylGroup
from .errors import InfiniteParabolic, NotStraight, TagNotInBGMu
from .fgab import FinAbGroup
from .frobenius import FrobeniusDatum, StraightClassTag
from .linalg import dot, mat_mul, mat_vec
from .newton_bg import b_g_mu, straight_classes
from .root_datum import AffineRoot, RootDatum


def levi_of(d: RootDatum, v: Sequence) -> RootDatum:
    """The root datum of M_v, cached per set of roots vanishing on v.

    v may have integer or Fraction entries; v, 2v and -v share one
    entry, since M_v = M_{-v}.  When every root vanishes on v, M_v is d.
    """
    key = tuple(a for a in d.positive_roots if dot(a, v) == 0)
    hit = d._levi_cache.get(key)
    if hit is not None:
        return hit
    if key == d.positive_roots:
        sub = d
    else:
        pos_set = set(key)
        simples = tuple(
            a
            for a in key
            if not any(b != a and tuple(x - y for x, y in zip(a, b)) in pos_set
                       for b in pos_set)
        )
        sub = RootDatum(
            d.rank,
            simples,
            tuple(d.coroot(a) for a in simples),
            name=f"{d.name or 'datum'}|M={simples}",
        )
        assert set(sub.positive_roots) == pos_set, "subsystem closure mismatch"
    d._levi_cache[key] = sub
    return sub


def sub_element(d: RootDatum, x: AffineWeylElement) -> AffineWeylElement:
    """Reinterpret an M_v-group element inside the ambient group."""
    return d.weyl.from_matrix(x.lam, x.mat)


# -- alcove and fundamental tests ---------------------------------------------------


def is_v_alcove(
    d: RootDatum, sigma: FrobeniusDatum, x: AffineWeylElement, v: Sequence
) -> bool:
    """The two conditions for x = t^lam u to be a (v, sigma)-alcove element.

    (1) the linear part of x composed with sigma fixes v;
    (2) on the positive side of v the Iwahori sits inside its
        x-conjugate: every positive (a, k) with <a, v> > 0 stays
        positive after transport through x.

    Condition (2) is stated for the dominant base alcove this package
    fixes; with the opposite alcove convention the same inequalities
    appear with the conjugation inverted.  The preimage of (a, k) is
    (a . u, k + <a, lam>), positive when its level is at least
    [a . u < 0], and the least positive level of a is k = [a < 0]; so (2)
    is  [a < 0] + <a, lam> >= [a . u < 0]  for each a.  Writing a = +-b
    for a positive root b, [a . u < 0] is the length offset of u at b,
    flipped for a = -b (see AffineWeylGroup.left_step).
    """
    v = tuple(v)
    if mat_vec(x.mat, mat_vec(sigma.matrix, v)) != v:
        return False
    for b, off in zip(d.positive_roots, d.weyl.w0_offsets[x.u_idx]):
        side = dot(b, v)
        # a = b: <b, lam> >= off;  a = -b: 1 - <b, lam> >= 1 - off.
        if side > 0 and dot(b, x.lam) < off or side < 0 and dot(b, x.lam) > off:
            return False
    return True


def is_fundamental(
    d: RootDatum, sigma: FrobeniusDatum, x: AffineWeylElement, v: Sequence
) -> bool:
    """(v, sigma)-alcove and Ad(x).sigma permutes the walls of M_v, read
    off the Levi datum without building its Weyl group."""
    return (
        is_v_alcove(d, sigma, x, v)
        and d.weyl.permute_walls(x, levi_of(d, v).walls, sigma.matrix_inv) is not None
    )


# -- tau orbits on the affine simple indices -------------------------------------------


def _cycles(perm: Sequence[int]) -> list[tuple[int, ...]]:
    """The cycles of a permutation of range(n), by least index, each
    traversed as i, perm[i], perm^2[i], ... from its least index."""
    seen: set[int] = set()
    out = []
    for start in range(len(perm)):
        if start not in seen:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            out.append(tuple(cycle))
    return out


@dataclass(frozen=True)
class TauOrbit:
    roots: tuple[AffineRoot, ...]  # orbit in traversal order
    finite: bool
    longest: AffineWeylElement | None  # w0_J when finite
    orbit_type: str | None  # "A" or "B" when finite


def tau_orbits(group: AffineWeylGroup, perm: Sequence[int]) -> list[TauOrbit]:
    """Orbits J of a permutation of the affine simple indices of `group`,
    its `_cycles`, with whether W_J is finite and, if so, its longest
    element and type: "B" when two roots of J have gradients summing to
    a root, "A" otherwise.

    w0_J is reached by a descent walk: from the identity, step by the
    first j in J that is not a left descent, until every j in J is one.
    Each step raises the length by one inside the finite W_J, and w0_J is
    its only element with all of J as left descents.  The walk takes
    l(w0_J) steps, the number of positive roots of the finite root system
    of J's gradients, so at most |Phi^+|.
    """
    out = []
    for orbit in _cycles(perm):
        roots = tuple(group.simple_affine[i].root for i in orbit)
        summing = any(
            tuple(map(add, a.gradient, b.gradient)) in group.datum.root_set
            for a, b in combinations(roots, 2)
        )
        finite = group.parabolic_is_finite(orbit)
        longest = None
        if finite:
            lam, u = group.identity().lam, group.w0_identity
            for _ in range(len(group.datum.positive_roots)):
                for j in orbit:
                    lam_j, u_j, fell = group.left_step(j, lam, u)
                    if not fell:
                        lam, u = lam_j, u_j
                        break
                else:
                    break
            longest = AffineWeylElement(group, lam, u)
        out.append(
            TauOrbit(
                roots=roots,
                finite=finite,
                longest=longest,
                orbit_type=("B" if summing else "A") if finite else None,
            )
        )
    return out


# -- J_b at the Weyl group level ------------------------------------------------------------


@dataclass(frozen=True)
class JbShadow:
    """Generator datum of the sigma-centralizer at the Weyl-group level.

    The group itself is generated by the tau-fixed points of the Levi
    Iwahori (always a generator; not enumerable here), the longest
    elements of the finite tau-orbits, and the tau-fixed length-zero
    part of the Levi.
    """

    levi: RootDatum
    orbits: tuple[TauOrbit, ...]  # all orbits; finite ones carry w0_J
    omega_fixed_group: FinAbGroup
    omega_fixed_reps: tuple[AffineWeylElement, ...]


def jb_shadow(d: RootDatum, sigma: FrobeniusDatum, x: AffineWeylElement) -> JbShadow:
    if not sigma.is_straight(x):
        raise NotStraight("J_b structure is computed at straight elements")
    v = sigma.newton_direction(x)
    levi = levi_of(d, v)
    # x is straight, hence fundamental: Ad(x) . sigma permutes the
    # Levi's walls, which index the Levi group's affine simples.
    perm = d.weyl.permute_walls(x, levi.walls, sigma.matrix_inv)
    assert perm is not None and is_v_alcove(d, sigma, x, v), "straight element must be fundamental"
    sub_w = levi.weyl
    orbits = [
        replace(o, longest=sub_element(d, o.longest)) if o.finite else o
        for o in tau_orbits(sub_w, perm)
    ]
    # tau acts on the length-zero part of the Levi through u_w . sigma.
    f_mat = mat_mul(x.mat, sigma.matrix)
    fixed, gens = levi.pi1.fixed_subgroup(f_mat)
    reps = []
    for g in gens:
        om = sub_w.omega_of(sub_w.translation(g))
        big = sub_element(d, om)
        twisted = x * sigma.apply(big) * x.inverse()
        assert twisted == big, "lift of a tau-fixed class must be tau-fixed"
        reps.append(big)
    return JbShadow(
        levi=levi,
        orbits=tuple(orbits),
        omega_fixed_group=fixed,
        omega_fixed_reps=tuple(reps),
    )


# -- essential noncentrality and pi_0 predictions ---------------------------------------------


def essentially_noncentral(
    d: RootDatum, sigma: FrobeniusDatum | None, mu: Sequence[int]
) -> bool:
    """True iff mu pairs nontrivially with each sigma-orbit of Dynkin
    components; False for a torus.

    A root of component c is an integer combination of the simple roots
    of c, which are roots of c themselves; so mu pairs nontrivially with
    some root of c iff it does with some simple root of c.
    """
    k = len(d.components)
    # Affine simple c is the wall of component c, so sigma permutes the
    # components as it permutes the first k affine simples.
    comp_perm = range(k) if sigma is None else sigma.s_permutation[:k]
    return k > 0 and all(
        any(dot(d.simple_roots[i], mu) for c in orbit for i in d.components[c])
        for orbit in _cycles(comp_perm)
    )


@dataclass(frozen=True)
class Pi0Stratum:
    element: AffineWeylElement
    levi_rank: int
    pi1_levi: FinAbGroup
    essentially_nontrivial: bool
    translation_part_admissible: bool


@dataclass(frozen=True)
class Pi0Prediction:
    case: str  # basic | nonbasic-residually-split | unsupported
    level: tuple[int, ...]  # the parahoric subset K
    note: str
    group: FinAbGroup | None = None  # basic case
    strata: tuple[Pi0Stratum, ...] = ()  # nonbasic case

    @property
    def upper_bound_only(self) -> bool:
        return self.case == "nonbasic-residually-split"


def pi0_predict(
    d: RootDatum,
    sigma: FrobeniusDatum,
    mu: Sequence[int],
    b_tag: StraightClassTag,
    k_set: Sequence[int] = (),
    budget: int = DEFAULT_BUDGET,
) -> Pi0Prediction:
    """Connected-component prediction for one class of B(G, {mu}).

    Basic noncentral classes get the sigma-fixed fundamental group,
    exact at every parahoric level.  Nonbasic classes over a residually
    split group get the disjoint union of Levi fundamental groups
    indexed by the straight elements of the class; that is the domain of
    a surjection, hence only an upper bound, and is marked as such.
    """
    elements = b_g_mu(d, sigma, mu, budget=budget)
    match = next((e for e in elements if e.tag == b_tag), None)
    if match is None:
        raise TagNotInBGMu(f"{b_tag} not in B(G, mu)")
    k_tuple = tuple(sorted(set(k_set)))
    if k_tuple and not d.weyl.parabolic_is_finite(k_tuple):
        raise InfiniteParabolic(f"W_K infinite for K={list(k_tuple)}")

    if match.basic:
        if essentially_noncentral(d, sigma, mu):
            return Pi0Prediction(
                "basic", k_tuple, "valid at every parahoric level", group=sigma.pi1_fixed[0]
            )
        return Pi0Prediction(
            "unsupported", k_tuple, "mu is essentially central; outside the basic theorem"
        )
    if not sigma.residually_split:
        return Pi0Prediction(
            "unsupported", k_tuple, "nonbasic prediction needs a residually split group"
        )

    w = d.weyl
    members = dict(straight_classes(d, sigma, mu, budget=budget))[b_tag]
    if k_tuple:
        members = [x for x in members if not w.has_left_descent_in(x, k_tuple)]
    strata = []
    for x in members:
        levi = levi_of(d, sigma.newton_direction(x))
        strata.append(
            Pi0Stratum(
                element=x,
                levi_rank=levi.n_simple,
                pi1_levi=levi.pi1,
                essentially_nontrivial=essentially_noncentral(levi, None, x.lam),
                translation_part_admissible=in_adm(d, mu, w.translation(x.lam)),
            )
        )
    # By canonical key, which orders strata of equal length without
    # building a reduced word.
    strata.sort(key=lambda s: w.sort_key(s.element))
    return Pi0Prediction(
        "nonbasic-residually-split",
        k_tuple,
        "upper bound (surjection domain), not an exact pi_0",
        strata=tuple(strata),
    )

"""The neutral acceptable set B(G, {mu}) and the obstruction class.

B(G, {mu}) is computed constructively from the straight elements of the
admissible set: group them by (Newton point, Kottwitz) tag, keep the
tags whose Kottwitz coinvariant image is mu-natural and whose Newton
point is dominance-below the sigma-average mu-diamond.  An independent
audit recomputes both defining inequalities on every element returned.

The straight classes and B(G, {mu}) are kept in the admissible sets'
memo, `admissible.MEMO`, keyed by group, sigma, mu and budget and
weighed by the elements they hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .admissible import DEFAULT_BUDGET, MEMO, adm
from .affine_weyl import AffineWeylElement, AffineWeylGroup
from .errors import ExtremalityViolation, NoSolution, TagNotInBGMu
from .fgab import FinAbGroup
from .frobenius import FrobeniusDatum, StraightClassTag
from .linalg import mat_vec, vec_sub
from .root_datum import RootDatum

QVec = tuple[Fraction, ...]


def mu_natural(sigma: FrobeniusDatum, mu: Sequence[int]) -> tuple[int, ...]:
    """Image of the class of mu in the sigma-coinvariants of pi_1."""
    return sigma.pi1_coinvariants.project(tuple(int(x) for x in mu))


def mu_diamond(sigma: FrobeniusDatum, mu: Sequence[int]) -> QVec:
    """Average of the dominant representative over the sigma action."""
    d = sigma.datum
    dom, _ = d.dominant_rep(mu)
    n = sigma.order
    acc = [Fraction(0)] * d.rank
    cur = dom
    for _ in range(n):
        acc = [a + c for a, c in zip(acc, cur)]
        cur = tuple(Fraction(x) for x in mat_vec(sigma.matrix, cur))
    out = tuple(a / n for a in acc)
    assert d.is_dominant(out), "sigma average left the dominant chamber"
    assert tuple(Fraction(x) for x in mat_vec(sigma.matrix, out)) == out
    return out


@dataclass(frozen=True)
class BGMuElement:
    tag: StraightClassTag
    representative: AffineWeylElement
    basic: bool
    is_minimal: bool
    is_maximal: bool


def straight_classes(
    d: RootDatum,
    sigma: FrobeniusDatum,
    mu: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> tuple[tuple[StraightClassTag, tuple[AffineWeylElement, ...]], ...]:
    """The straight elements of Adm({mu}) grouped by (Newton point,
    Kottwitz) tag, smallest Newton point first, each group sorted by
    (length, canonical key)."""
    return _straight_classes(d.weyl, sigma, tuple(int(x) for x in mu), budget)


@MEMO(lambda classes: sum(len(members) for _tag, members in classes))
def _straight_classes(
    w: AffineWeylGroup, sigma: FrobeniusDatum, mu: tuple[int, ...], budget: int
) -> tuple[tuple[StraightClassTag, tuple[AffineWeylElement, ...]], ...]:
    """The body of straight_classes, memoized like admissible._adm; a
    BudgetExceeded is not cached."""
    aset = adm(w.datum, mu, budget=budget)
    return tuple(
        (tag, tuple(members))
        for tag, members in sigma.straight_class_tags(aset.elements)
    )


def b_g_mu(
    d: RootDatum,
    sigma: FrobeniusDatum,
    mu: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> tuple[BGMuElement, ...]:
    """B(G, {mu}) ordered smallest Newton point first.  A tuple, since
    repeated calls share one memoized result."""
    return _b_g_mu(d.weyl, sigma, tuple(int(x) for x in mu), budget)


@MEMO(len)
def _b_g_mu(
    w: AffineWeylGroup, sigma: FrobeniusDatum, mu: tuple[int, ...], budget: int
) -> tuple[BGMuElement, ...]:
    """The body of b_g_mu, memoized like admissible._adm; errors are not
    cached."""
    d = w.datum
    mu_nat = mu_natural(sigma, mu)
    mu_dia = mu_diamond(sigma, mu)

    kept: list[tuple[StraightClassTag, AffineWeylElement]] = []
    for tag, members in straight_classes(d, sigma, mu, budget=budget):
        if tag.kappa_sigma != mu_nat:
            continue
        if not d.dominance_leq(tag.nu_bar, mu_dia):
            continue
        rep = min(members, key=lambda x: (w.length(x),) + x.key())
        kept.append((tag, rep))

    # Independent audit: recompute the defining conditions per element.
    for tag, rep in kept:
        np_ = sigma.newton_point(rep)
        assert np_.nu_bar == tag.nu_bar
        assert sigma.pi1_coinvariants.project(rep.lam) == mu_nat
        assert d.dominance_leq(np_.nu_bar, mu_dia)

    kept.sort(key=lambda tr: (d.pairing_height(tr[0].nu_bar), tr[0].nu_bar))

    tau_tag = sigma.tag_of(adm(d, mu, budget=budget).tau.element)
    lows = [t for t, _ in kept if all(d.dominance_leq(t.nu_bar, o.nu_bar) for o, _ in kept)]
    highs = [t for t, _ in kept if all(d.dominance_leq(o.nu_bar, t.nu_bar) for o, _ in kept)]
    if len(lows) != 1 or lows[0] != tau_tag:
        raise ExtremalityViolation(
            f"minimum of B(G,mu) is not the tau class: {lows}"
        )
    if len(highs) != 1:
        raise ExtremalityViolation(
            f"B(G,mu) has no unique dominance maximum: {highs}"
        )

    out = []
    for tag, rep in kept:
        out.append(
            BGMuElement(
                tag=tag,
                representative=rep,
                basic=all(
                    sum(a[i] * tag.nu_bar[i] for i in range(d.rank)) == 0
                    for a in d.simple_roots
                ),
                is_minimal=tag == lows[0],
                is_maximal=tag == highs[0],
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class ObstructionClass:
    """Coset c . pi_1^sigma solving c - sigma(c) = [mu] - kappa(b)."""

    representative: tuple[int, ...]  # pi_1 coordinates
    representative_lift: tuple[int, ...]  # in the cocharacter lattice
    fixed_subgroup: FinAbGroup
    fixed_generators: tuple[tuple[int, ...], ...]  # lifts in the lattice


def obstruction_class(
    sigma: FrobeniusDatum,
    mu: Sequence[int],
    tag_rep: AffineWeylElement,
) -> ObstructionClass:
    """Solve c - sigma(c) = [mu] - kappa(b) for b represented by tag_rep.

    Solvable exactly when b and mu have the same Kottwitz coinvariant
    image; raises NoSolution otherwise.
    """
    d = sigma.datum
    pi1 = d.pi1
    diff = vec_sub(tuple(int(x) for x in mu), tag_rep.lam)
    c = pi1.solve_crossed(sigma.matrix, diff)
    # Substitute back: (1 - sigma) c must equal diff in pi_1.
    back = vec_sub(c, mat_vec(sigma.matrix, c))
    if pi1.project(back) != pi1.project(diff):
        raise NoSolution("substitution check failed")
    fixed, gens = sigma.pi1_fixed
    return ObstructionClass(
        representative=pi1.project(c),
        representative_lift=tuple(c),
        fixed_subgroup=fixed,
        fixed_generators=tuple(tuple(g) for g in gens),
    )


def tag_index(
    elements: Sequence[BGMuElement], tag: StraightClassTag
) -> int:
    for i, e in enumerate(elements):
        if e.tag == tag:
            return i
    raise TagNotInBGMu(f"{tag} is not in B(G, mu)")

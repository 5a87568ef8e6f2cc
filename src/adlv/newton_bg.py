"""The neutral acceptable set B(G, {mu}) and the obstruction class.

B(G, {mu}) is computed constructively from the straight elements of the
admissible set: group them by (Newton point, Kottwitz) tag, keep the
tags whose Kottwitz coinvariant image is mu-natural and whose Newton
point is dominance-below the sigma-average mu-diamond.  An independent
audit checks each kept Newton point against the twisted power of its
representative, which does not use the Newton data (P, N).

The straight classes and B(G, {mu}) are kept on their group by the
admissible sets' memo, `admissible.memo`, keyed by sigma, mu and budget
and weighed by the elements they hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .admissible import adm, memo
from .affine_weyl import DEFAULT_BUDGET, AffineWeylElement, AffineWeylGroup
from .errors import ExtremalityViolation, NoSolution
from .fgab import FinAbGroup
from .frobenius import FrobeniusDatum, StraightClassTag
from .linalg import mat_vec, vec_sub
from .root_datum import RootDatum

QVec = tuple[Fraction, ...]


def mu_natural(sigma: FrobeniusDatum, mu: Sequence[int]) -> tuple[int, ...]:
    """Image of the class of mu in the sigma-coinvariants of pi_1."""
    return sigma.pi1_coinvariants.project(sigma.datum.cocharacter(mu))


def mu_diamond(sigma: FrobeniusDatum, mu: Sequence[int]) -> QVec:
    """Average of the dominant representative over the sigma action,
    summed in integers and divided by the order of sigma once."""
    d = sigma.datum
    cur = d.dominant_word(d.cocharacter(mu))[0]
    acc = [0] * d.rank
    for _ in range(sigma.order):
        acc = [a + c for a, c in zip(acc, cur)]
        cur = mat_vec(sigma.matrix, cur)
    assert d.is_dominant(acc), "sigma average left the dominant chamber"
    assert mat_vec(sigma.matrix, acc) == tuple(acc)
    return tuple(Fraction(a, sigma.order) for a in acc)


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
    return _straight_classes(d.weyl, sigma, d.cocharacter(mu), budget)


@memo(lambda classes: sum(len(members) for _tag, members in classes))
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
    return _b_g_mu(d.weyl, sigma, d.cocharacter(mu), budget)


@memo(len)
def _b_g_mu(
    w: AffineWeylGroup, sigma: FrobeniusDatum, mu: tuple[int, ...], budget: int
) -> tuple[BGMuElement, ...]:
    """The body of b_g_mu, memoized like admissible._adm; errors are not
    cached."""
    d = w.datum
    mu_nat = mu_natural(sigma, mu)
    mu_dia = mu_diamond(sigma, mu)

    # Classes come in (pairing height, nu) order with members sorted by
    # (length, key), so the filter keeps that order and members[0] is the
    # least member.
    kept = [
        (tag, members[0])
        for tag, members in straight_classes(d, sigma, mu, budget=budget)
        if tag.kappa_sigma == mu_nat and d.dominance_leq(tag.nu_bar, mu_dia)
    ]

    # Independent audit: the twisted power rep sigma(rep) ... sigma^{n-1}(rep),
    # multiplied out until n is a multiple of the order of sigma and the
    # power is a translation, is t^{n nu}; its dominant representative is
    # n times the tag's Newton point.
    for tag, rep in kept:
        power, twist, n = rep, sigma.apply(rep), 1
        while n % sigma.order or power.u_idx != w.w0_identity:
            power, twist, n = power * twist, sigma.apply(twist), n + 1
        assert d.dominant_word(power.lam)[0] == [n * c for c in tag.nu_bar]

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
                basic=d.is_central(tag.nu_bar),
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
    diff = vec_sub(d.cocharacter(mu), tag_rep.lam)
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

"""Admissible sets: downward Bruhat closures of the translations t^{x(mu)}.

Enumeration closes the maximal translations under covers, by
`affine_weyl.closure` with step `covers_below` (the covers of x come
from those of s x for a left descent s, by the lifting property), which
never needs a Bruhat comparison.

Membership of one element, `in_adm`, gives the answer of the Bruhat
tests against every maximal translation t^lam, lam in W0 mu, and
usually makes one of them:

1. x must lie in the W_a-coset of t^mu (kappa) and have length at
   most l(t^mu).
2. x <= t^{lam_C}, for C the Weyl chamber of the alcove x(a0) and
   lam_C the element of W0 mu on the closure of C, proves membership,
   as t^{lam_C} is one of the maxima.  C is found in integers: for
   x = (lam, u), the vector N lam + u(2 rho^vee) is N times the image of
   an interior point of a0, so it lies in C.
3. Otherwise x must lie in the permissible set Perm(mu): x(v) - v in
   Conv(W0 mu) for every vertex v of the base alcove a0.  Failing that
   proves non-membership, because Adm(mu) lies in Perm(mu)
   (Kottwitz-Rapoport; Haines-Ngo, "Alcoves associated to special
   fibers of local models", Amer. J. Math. 124 (2002), who also prove
   equality when every factor is of type A).  The test runs in
   integers on the vertices scaled by a common denominator.
4. The other maxima are tested only for x in Perm(mu) not below
   t^{lam_C}.  A member lies below the translation of its own chamber
   (Haines-He, "Vertexwise criteria for admissibility of alcoves",
   Amer. J. Math. 139 (2017)), so this step finds none, but the answer
   does not rest on that.

The enumeration and the naive all-maxima scan cross-check `in_adm` on
every catalog ball in the test suite.

The sets, the membership data, and the straight classes and B(G, {mu})
of `newton_bg` are kept on their group by `memo`, least recently used
first, up to `affine_weyl.CACHE_BOUND` Weyl group elements per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, wraps
from typing import Callable, NamedTuple, Sequence

from . import affine_weyl
from .affine_weyl import DEFAULT_BUDGET, AffineWeylElement, AffineWeylGroup, OmegaElt, closure
from .errors import BudgetExceeded, HypothesisViolated, InfiniteParabolic
from .frobenius import FrobeniusDatum
from .linalg import dot, mat_vec
from .root_datum import RootDatum

IntVec = tuple[int, ...]


def memo(weigh: Callable[[object], int]):
    """Memoize a body whose first argument is an AffineWeylGroup, keyed by
    the body and its other positional arguments.

    Each group keeps its own entries, `group.memo_entries[key] = (value,
    weight)`, least recently used first, so they go with the group.  The
    weight of a value is the number of Weyl group elements it holds (at
    least 1); a hit moves its entry to the end.
    """

    def decorate(body):
        @wraps(body)
        def memoized(group: AffineWeylGroup, *args):
            key = (body, args)
            entries = group.memo_entries
            entry = entries.pop(key, None)
            if entry is not None:
                entries[key] = entry
                return entry[0]
            value = body(group, *args)
            _keep(group, key, value, max(1, weigh(value)))
            return value

        return memoized

    return decorate


def _keep(group: AffineWeylGroup, key: tuple, value: object, weight: int) -> None:
    """Store a value the body returned, then drop the group's least recent
    entries while their weights sum past CACHE_BOUND; the sum is kept in
    group.memo_held, so a store reads only the entries it drops.  A value
    heavier than the bound is not stored, and an error never reaches
    here."""
    bound = affine_weyl.CACHE_BOUND
    if weight > bound:
        return
    entries = group.memo_entries
    entries[key] = (value, weight)
    group.memo_held += weight
    while group.memo_held > bound:
        _value, dropped = entries.pop(next(iter(entries)))
        group.memo_held -= dropped


def translation_orbit(d: RootDatum, mu: Sequence[int]) -> list[IntVec]:
    """The finite Weyl orbit of mu, deduplicated and sorted."""
    def step(lam):
        return (tuple(mat_vec(m, lam)) for m in d.simple_reflections)

    return sorted(closure([d.cocharacter(mu)], step))


def tau_mu(d: RootDatum, mu: Sequence[int]) -> OmegaElt:
    """The length-zero element in the same W_a-coset as t^mu."""
    w = d.weyl
    return w.omega_elt(w.omega_of(w.translation(d.cocharacter(mu))))


@dataclass(frozen=True)
class AdmissibleSet:
    datum: RootDatum
    mu: IntVec
    tau: OmegaElt
    elements: frozenset[AffineWeylElement]

    # Built when read, so that the set holds one copy of its maxima.
    @property
    def maximal(self) -> tuple[AffineWeylElement, ...]:
        return maximal_translations(self.datum, self.mu)

    @property
    def max_length(self) -> int:
        return dot(self.datum.two_rho, self.datum.dominant_word(self.mu)[0])

    @cached_property
    def sorted_elements(self) -> tuple[AffineWeylElement, ...]:
        return tuple(sorted(self.elements, key=self.datum.weyl.sort_key))

    def __contains__(self, x: AffineWeylElement) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)


def maximal_translations(d: RootDatum, mu: Sequence[int]) -> tuple[AffineWeylElement, ...]:
    w = d.weyl
    return tuple(w.translation(lam) for lam in translation_orbit(d, mu))


def adm(d: RootDatum, mu: Sequence[int], budget: int = DEFAULT_BUDGET) -> AdmissibleSet:
    """Enumerate Adm({mu}) by closing the maximal translations under covers."""
    return _adm(d.weyl, d.cocharacter(mu), budget)


@memo(len)
def _adm(w: AffineWeylGroup, mu: IntVec, budget: int) -> AdmissibleSet:
    """The body of adm, memoized.  Keyed by the group object, not the
    datum: equal data built apart have distinct groups, and a set's
    elements are bound to one of them.  A BudgetExceeded is not cached."""
    d = w.datum
    # Enumerate first: tau_mu walks a reduced word as long as l(t^mu),
    # which adm_elements checks against the budget.
    elements = adm_elements(d, mu, budget)
    return AdmissibleSet(datum=d, mu=mu, tau=tau_mu(d, mu), elements=frozenset(elements))


def adm_elements(d: RootDatum, mu: Sequence[int], budget: int = DEFAULT_BUDGET) -> set:
    """The elements of Adm({mu}), closed from the maximal translations
    under covers and not memoized; raises BudgetExceeded past `budget`."""
    # A chain of l(t^mu) + 1 elements from t^mu down to tau lies in Adm.
    if dot(d.two_rho, d.dominant_word(mu)[0]) >= budget:
        raise BudgetExceeded("admissible set", budget)
    covers = partial(d.weyl.covers_below, known={})
    return closure(maximal_translations(d, mu), covers, budget, "admissible set")


def in_adm(d: RootDatum, mu: Sequence[int], x: AffineWeylElement) -> bool:
    """Whether x lies in Adm({mu}): the answer of testing x <= t^lam for
    every lam in W0 mu, in four steps.

    1. Prune by kappa and by length.
    2. True when x <= t^{lam_C}, for C the chamber of x(a0): exact, as
       t^{lam_C} is one of the maxima.
    3. False when x is not in Perm(mu): exact, as Adm(mu) lies in
       Perm(mu) (Haines-Ngo 2002).
    4. Otherwise the other maxima.  A member lies below t^{lam_C}
       (Haines-He 2017), so this step finds none; it stays so that the
       answer never depends on that.

    >>> from adlv.presets import preset
    >>> d = preset("C2_sc").datum
    >>> ball = d.weyl.ball(dot(d.two_rho, (1, 1)))
    >>> {x for x in ball if in_adm(d, (1, 1), x)} == adm(d, (1, 1)).elements
    True
    """
    w = d.weyl
    data = _membership_data(w, d.cocharacter(mu))
    if w.kappa(x) != data.kappa or w.length(x) > data.max_length:
        return False
    chamber = _chamber_maximum(d, data, x)
    if w.bruhat_leq(x, chamber):
        return True
    if not _in_perm(d, data, x):
        return False
    return any(w.bruhat_leq(x, t) for t in data.maxima if t != chamber)


def _chamber_maximum(d: RootDatum, data: _Membership, x: AffineWeylElement) -> AffineWeylElement:
    """The maximum t^{lam_C} for the chamber C of the alcove x(a0).

    v = N lam + u(2 rho^vee) is N x(p) for the point p = 2 rho^vee / N
    inside a0, so v lies in the open chamber C, and lam_C is the lam in
    W0 mu with <alpha, lam> <alpha, v> >= 0 for every positive root.
    """
    alcove = d.base_alcove
    n = alcove.interior_den
    v = [n * c + e for c, e in zip(x.lam, mat_vec(x.mat, alcove.interior))]
    signs = [dot(a, v) for a in d.positive_roots]
    for t, pairings in zip(data.maxima, data.pairings):
        if all(p * s >= 0 for p, s in zip(pairings, signs)):
            return t
    raise AssertionError(f"no maximal translation on the chamber of {x}")


def _in_perm(d: RootDatum, data: _Membership, x: AffineWeylElement) -> bool:
    """x(v) - v in Conv(W0 mu) at every vertex v of a0, for x in the
    W_a-coset of t^mu (Kottwitz-Rapoport's Perm(mu)).

    In integers: D (x(v) - v) is brought to the dominant chamber and
    compared with D mu_dom on the fundamental weights.  The difference of
    the two already lies in the coroot span, as x and t^mu share a
    coset, so it is a nonnegative sum of simple coroots exactly when
    every fundamental weight pairs nonnegatively with it.  The vertices
    that are 0 on every component of a0 but one suffice, since x(v) - v
    and Conv(W0 mu) split over the components.
    """
    alcove = d.base_alcove
    m = x.mat
    lam = [alcove.vertex_den * c for c in x.lam]
    for vertex in alcove.vertices:
        image = [c + e - f for c, e, f in zip(lam, mat_vec(m, vertex), vertex)]
        dominant, _ = d.dominant_word(image)
        for weight, bound in zip(alcove.weights, data.bounds):
            if dot(weight, dominant) > bound:
                return False
    return True


class _Membership(NamedTuple):
    """What in_adm reads per group and mu."""

    kappa: tuple[int, ...]  # kappa(t^mu)
    max_length: int  # l(t^mu)
    maxima: tuple[AffineWeylElement, ...]  # t^lam, lam in W0 mu
    pairings: tuple[IntVec, ...]  # <alpha, lam> over the positive roots, per maximum
    bounds: IntVec  # <omega_i, D mu_dom> per scaled fundamental weight


@memo(lambda data: len(data.maxima))
def _membership_data(w: AffineWeylGroup, mu: IntVec) -> _Membership:
    """The membership data of mu, kept per group and mu."""
    d = w.datum
    mu_dom = tuple(d.dominant_word(mu)[0])
    alcove = d.base_alcove
    maxima = maximal_translations(d, mu)
    return _Membership(
        kappa=w.kappa(w.translation(mu)),
        max_length=dot(d.two_rho, mu_dom),
        maxima=maxima,
        pairings=tuple(tuple(dot(a, t.lam) for a in d.positive_roots) for t in maxima),
        bounds=tuple(alcove.vertex_den * dot(wt, mu_dom) for wt in alcove.weights),
    )


def audit_downward_closed(d: RootDatum, elements: frozenset) -> list:
    """Covers that escape the set; empty iff Bruhat-downward closed."""
    covers = partial(d.weyl.covers_below, known={})
    return [(x, below) for x in elements for below in covers(x) if below not in elements]


def adm_parahoric(
    d: RootDatum,
    mu: Sequence[int],
    k_set: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> tuple[frozenset, tuple]:
    """(Adm^K as an element set, Adm_K as minimal double-coset reps).

    Adm^K = W_K Adm W_K is closed by one-generator multiplications on
    both sides; its downward closure is audited before returning.
    """
    w = d.weyl
    if not w.parabolic_is_finite(k_set):
        raise InfiniteParabolic(f"W_K infinite for K={sorted(k_set)}")
    base = adm(d, mu, budget=budget)
    gens = [w.simple(i) for i in k_set]

    def step(x):
        return [cand for g in gens for cand in (g * x, x * g)]

    closed = frozenset(closure(base.elements, step, budget, "Adm^K"))
    escapes = audit_downward_closed(d, closed)
    if escapes:
        x, below = escapes[0]
        raise AssertionError(
            f"Adm^K fails downward closure at {x} -> {below}; implementation bug"
        )
    reps = {w.min_double_coset_rep(x, k_set) for x in closed}
    return closed, tuple(sorted(reps, key=w.sort_key))


# -- verifiers -------------------------------------------------------------------


def verify_straight_class_containment(
    d: RootDatum,
    sigma: FrobeniusDatum,
    mu: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """For each straight class meeting Adm({mu}), check that the whole
    set of straight elements of that class lies in Adm({mu}).

    Straight elements of a class form one equal-length twisted
    conjugation plateau, so the class is swept by plateau closure.  The
    lemma is for a residually split sigma; any other sigma raises
    HypothesisViolated.
    """
    if not sigma.residually_split:
        raise HypothesisViolated("straight class containment needs a residually split sigma")
    aset = adm(d, mu, budget=budget)
    classes = sigma.plateau_classes(sigma.straight_elements_in(aset.elements), budget)
    violations = [
        {"class_of": d.weyl.to_json(x), "witness": d.weyl.to_json(y)}
        for x, members in classes
        for y in members
        if y not in aset.elements
    ]
    return {
        "mu": list(mu),
        "straight_classes": len(classes),
        "straight_elements_checked": sum(len(members) for _x, members in classes),
        "violations": violations,
        "pass": not violations,
    }


def verify_s_tau_membership(
    d: RootDatum,
    mu: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Check s_j tau_mu in Adm({mu}) for every affine simple reflection.

    Requires a connected affine diagram and noncentral mu.
    """
    mu = d.cocharacter(mu)
    if len(d.components) != 1:
        raise HypothesisViolated("affine Dynkin diagram is not connected")
    if d.is_central(mu):
        raise HypothesisViolated("mu is central")
    w = d.weyl
    tau = tau_mu(d, mu)
    failures = []
    for s in w.simple_affine:
        cand = s.element * tau.element
        if not in_adm(d, mu, cand):
            failures.append(s.index)
    return {
        "mu": list(mu),
        "checked": len(w.simple_affine),
        "failing_indices": failures,
        "pass": not failures,
    }

"""Admissible sets: downward Bruhat closures of the translations t^{x(mu)}.

Enumeration walks cover relations downward from the maximal translations
(the covers of x come from its right inversions, by the strong exchange
condition), which never needs a Bruhat comparison.  The ADM_MEMO_SIZE
most recent sets are kept, keyed by group, mu and budget.  Membership
tests for external elements use the memoized Bruhat recursion against
the maximal translations, kept for the ADM_MEMO_SIZE most recent (group,
mu); the two routes cross-check each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .affine_weyl import AffineWeylElement, AffineWeylGroup, OmegaElt
from .errors import BudgetExceeded, HypothesisViolated, InfiniteParabolic
from .frobenius import FrobeniusDatum
from .linalg import dot, mat_vec
from .root_datum import RootDatum

IntVec = tuple[int, ...]

DEFAULT_BUDGET = 5_000_000
ADM_MEMO_SIZE = 16


def translation_orbit(d: RootDatum, mu: Sequence[int]) -> list[IntVec]:
    """The finite Weyl orbit of mu, deduplicated and sorted."""
    seen = {tuple(int(x) for x in mu)}
    stack = list(seen)
    while stack:
        lam = stack.pop()
        for m in d.simple_reflections:
            nu = tuple(mat_vec(m, lam))
            if nu not in seen:
                seen.add(nu)
                stack.append(nu)
    return sorted(seen)


def tau_mu(d: RootDatum, mu: Sequence[int]) -> OmegaElt:
    """The length-zero element in the same W_a-coset as t^mu."""
    w = d.weyl
    return w.omega_elt(w.omega_of(w.translation(mu)))


@dataclass(frozen=True)
class AdmissibleSet:
    datum: RootDatum
    mu: IntVec
    mu_dominant: IntVec
    maximal: tuple[AffineWeylElement, ...]
    tau: OmegaElt
    elements: frozenset[AffineWeylElement]

    @property
    def max_length(self) -> int:
        return dot(self.datum.two_rho, self.mu_dominant)

    @cached_property
    def sorted_elements(self) -> tuple[AffineWeylElement, ...]:
        w = self.datum.weyl
        return tuple(sorted(self.elements, key=lambda x: (w.length(x),) + x.key()))

    def __contains__(self, x: AffineWeylElement) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)


def maximal_translations(d: RootDatum, mu: Sequence[int]) -> tuple[AffineWeylElement, ...]:
    w = d.weyl
    return tuple(w.translation(lam) for lam in translation_orbit(d, mu))


def adm(d: RootDatum, mu: Sequence[int], budget: int = DEFAULT_BUDGET) -> AdmissibleSet:
    """Enumerate Adm({mu}) by closing the maximal translations under covers."""
    return _adm(d.weyl, tuple(int(x) for x in mu), budget)


@lru_cache(maxsize=ADM_MEMO_SIZE)
def _adm(w: AffineWeylGroup, mu: IntVec, budget: int) -> AdmissibleSet:
    """The body of adm, memoized.  Keyed by the group object, not the
    datum: equal data built apart have distinct groups, and a set's
    elements are bound to one of them.  A BudgetExceeded is not cached."""
    d = w.datum
    mu_dom_q, _ = d.dominant_rep(mu)
    mu_dom = tuple(int(x) for x in mu_dom_q)
    maxima = maximal_translations(d, mu)
    seen: set[AffineWeylElement] = set(maxima)
    frontier = list(maxima)
    while frontier:
        nxt = []
        for x in frontier:
            for below in w.covers_below(x):
                if below not in seen:
                    seen.add(below)
                    nxt.append(below)
                    if len(seen) > budget:
                        raise BudgetExceeded(
                            f"admissible set exceeds node budget {budget}"
                        )
        frontier = nxt
    return AdmissibleSet(
        datum=d,
        mu=mu,
        mu_dominant=mu_dom,
        maximal=maxima,
        tau=tau_mu(d, mu),
        elements=frozenset(seen),
    )


def in_adm(d: RootDatum, mu: Sequence[int], x: AffineWeylElement) -> bool:
    """Membership via Bruhat tests against each maximal translation.

    Prunes by Kottwitz class and length before any Bruhat recursion;
    agrees with the naive all-x scan (tested).
    """
    w = d.weyl
    kappa_mu, max_length, maxima = _membership_data(w, tuple(int(c) for c in mu))
    if w.kappa(x) != kappa_mu:
        return False
    if w.length(x) > max_length:
        return False
    return any(w.bruhat_leq(x, t) for t in maxima)


@lru_cache(maxsize=ADM_MEMO_SIZE)
def _membership_data(
    w: AffineWeylGroup, mu: IntVec
) -> tuple[tuple[int, ...], int, tuple[AffineWeylElement, ...]]:
    """kappa(t^mu), the length of t^mu, and the maximal translations:
    what in_adm tests x against, kept per group and mu."""
    d = w.datum
    mu_dom_q, _ = d.dominant_rep(mu)
    max_length = dot(d.two_rho, tuple(int(c) for c in mu_dom_q))
    return w.kappa(w.translation(mu)), max_length, maximal_translations(d, mu)


def audit_downward_closed(d: RootDatum, elements: frozenset) -> list:
    """Covers that escape the set; empty iff Bruhat-downward closed."""
    w = d.weyl
    bad = []
    for x in elements:
        for below in w.covers_below(x):
            if below not in elements:
                bad.append((x, below))
    return bad


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
    seen = set(base.elements)
    frontier = list(base.elements)
    gens = [w.simple(i) for i in k_set]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                for cand in (g * x, x * g):
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
                        if len(seen) > budget:
                            raise BudgetExceeded(
                                f"Adm^K exceeds node budget {budget}"
                            )
        frontier = nxt
    closed = frozenset(seen)
    escapes = audit_downward_closed(d, closed)
    if escapes:
        x, below = escapes[0]
        raise AssertionError(
            f"Adm^K fails downward closure at {x} -> {below}; implementation bug"
        )
    reps = {w.min_double_coset_rep(x, k_set) for x in closed}
    reps_sorted = tuple(sorted(reps, key=lambda x: (w.length(x),) + x.key()))
    return closed, reps_sorted


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
    conjugation plateau, so the class is swept by plateau closure.
    """
    aset = adm(d, mu, budget=budget)
    straights = sigma.straight_elements_in(aset.elements)
    seen: set[AffineWeylElement] = set()
    classes = 0
    checked = 0
    violations = []
    for x in straights:
        if x in seen:
            continue
        classes += 1
        members = sigma.plateau(x, budget).members
        for y in members:
            seen.add(y)
            checked += 1
            if y not in aset.elements:
                violations.append(
                    {
                        "class_of": d.weyl.to_json(x),
                        "witness": d.weyl.to_json(y),
                    }
                )
    return {
        "mu": list(mu),
        "straight_classes": classes,
        "straight_elements_checked": checked,
        "violations": violations,
        "pass": not violations,
    }


def verify_s_tau_membership(
    d: RootDatum,
    sigma: FrobeniusDatum,
    mu: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Check s_j tau_mu in Adm({mu}) for every affine simple reflection.

    Requires a connected affine diagram and noncentral mu.
    """
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

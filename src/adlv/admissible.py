"""Admissible sets: downward Bruhat closures of the translations t^{x(mu)}.

Enumeration walks cover relations downward from the maximal translations
(the covers of x come from its right inversions, by the strong exchange
condition), which never needs a Bruhat comparison.  Membership tests
for external elements use the memoized Bruhat recursion against the
maximal translations; the two routes cross-check each other in the test
suite.

The sets, the membership data and the straight classes and B(G, {mu})
of `newton_bg` share one least-recently-used memo, MEMO, bounded by the
number of Weyl group elements its values hold: DEFAULT_BUDGET, the most
one admissible set may hold.  Entries are stored on their group, so a
datum that is no longer referenced takes its entries with it.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Sequence

from .affine_weyl import AffineWeylElement, AffineWeylGroup, OmegaElt
from .errors import BudgetExceeded, HypothesisViolated, InfiniteParabolic
from .frobenius import FrobeniusDatum
from .linalg import dot, mat_vec
from .root_datum import RootDatum

IntVec = tuple[int, ...]

DEFAULT_BUDGET = 5_000_000


class ElementMemo:
    """A least-recently-used memo bounded by weight, the number of Weyl
    group elements a value holds (at least 1 per entry).

    `memo(weigh)` decorates a body whose first argument is an
    AffineWeylGroup; the body and its other positional arguments are the
    key.  An entry is stored on its group, in `group.memo_entries`, and
    the memo refers to it only weakly, so a group that nothing else
    references is collected with its entries.  Past `bound`, the least
    recently used entries are dropped; a value heavier than `bound` is
    returned but not kept, and an error is never kept.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self._held = 0
        # Weak reference to each entry -> its weight, least recent first.
        self._order: OrderedDict[weakref.ref, int] = OrderedDict()
        # References to entries collected with their group.  The weakref
        # callback may run inside any allocation, so it only appends here.
        self._gone: list[weakref.ref] = []
        self._on_gone = self._gone.append

    @property
    def held(self) -> int:
        """The total weight of the entries still alive."""
        self._forget_gone()
        return self._held

    def __call__(self, weigh: Callable[[object], int]):
        def decorate(body):
            @wraps(body)
            def memoized(group: AffineWeylGroup, *args):
                key = (body, args)
                entry = group.memo_entries.get(key)
                if entry is not None:
                    self._order.move_to_end(entry.ref)
                    return entry.value
                value = body(group, *args)
                self._keep(group.memo_entries, key, value, max(1, weigh(value)))
                return value

            return memoized

        return decorate

    def _keep(self, home: dict, key: tuple, value: object, weight: int) -> None:
        self._forget_gone()
        if weight > self.bound:
            return
        entry = _Entry(home, key, value, self._on_gone)
        home[key] = entry
        self._order[entry.ref] = weight
        self._held += weight
        while self._held > self.bound:
            self._drop(next(iter(self._order)))

    def _drop(self, ref: weakref.ref) -> None:
        self._held -= self._order.pop(ref)
        entry = ref()
        if entry is not None:
            del entry.home[entry.key]

    def _forget_gone(self) -> None:
        while self._gone:
            weight = self._order.pop(self._gone.pop(), None)
            if weight is not None:
                self._held -= weight

    def clear(self) -> None:
        while self._order:
            self._drop(next(iter(self._order)))
        self._gone.clear()


class _Entry:
    """One memo entry: `home` is its group's `memo_entries`, and `ref`
    the memo's weak reference to it."""

    __slots__ = ("home", "key", "value", "ref", "__weakref__")

    def __init__(self, home: dict, key: tuple, value: object, on_gone) -> None:
        self.home = home
        self.key = key
        self.value = value
        self.ref = weakref.ref(self, on_gone)


MEMO = ElementMemo(DEFAULT_BUDGET)


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


@MEMO(len)
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


@MEMO(lambda data: len(data[2]))
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

import gc
import itertools
import random
import warnings
import weakref
from fractions import Fraction

import pytest

from adlv import admissible, affine_weyl, cli
from adlv.admissible import (
    adm,
    adm_parahoric,
    audit_downward_closed,
    in_adm,
    maximal_translations,
    tau_mu,
    verify_s_tau_membership,
    verify_straight_class_containment,
)
from adlv.affine_weyl import DEFAULT_BUDGET, AffineWeylGroup, closure
from adlv.errors import BudgetExceeded, HypothesisViolated, InfiniteParabolic, SchemaError
from adlv.frobenius import FrobeniusDatum, sigma_of
from adlv.newton_bg import b_g_mu, mu_diamond, mu_natural, obstruction_class, straight_classes
from adlv.presets import catalog, preset
from adlv.root_datum import RootDatum

from helpers import (
    alcove_vertices,
    caches_within_bound,
    clear_memos,
    deletion_covers,
    is_right_descent,
    memo_weight,
    naive_in_adm,
    perm_oracle,
    subword_set,
)


def test_adm_zero_is_identity():
    for name in ("A1_sc", "C2_sc", "GL2"):
        d = preset(name).datum
        aset = adm(d, (0,) * d.rank)
        assert set(aset.elements) == {d.weyl.identity()}
        assert aset.tau.element.is_identity()


def test_adm_a1_example():
    d = preset("A1_sc").datum
    w = d.weyl
    aset = adm(d, (1,))
    assert len(aset) == 5
    expected = {
        w.identity(),
        w.simple(0),
        w.simple(1),
        w.translation((1,)),
        w.translation((-1,)),
    }
    assert set(aset.elements) == expected
    assert aset.max_length == 2


def test_adm_equals_union_of_subword_intervals():
    for name in ("A1_ad", "C2_sc", "A1xA1_sc", "GU_odd(2)"):
        p = preset(name)
        d = p.datum
        for _label, mu in p.mu_grid:
            aset = adm(d, mu)
            oracle = set()
            for t in maximal_translations(d, mu):
                oracle |= subword_set(d.weyl, t)
            assert set(aset.elements) == oracle


def test_adm_downward_closed_and_maximal_structure():
    for name in ("A1_ad", "A2_sc", "C2_sc", "GU_odd(2)"):
        p = preset(name)
        d = p.datum
        w = d.weyl
        for _label, mu in p.mu_grid:
            aset = adm(d, mu)
            assert audit_downward_closed(d, aset.elements) == []
            covered = set()
            for x in aset.elements:
                covered.update(w.covers_below(x))
            maximal = set(aset.elements) - covered
            assert maximal == set(aset.maximal)
            for t in aset.maximal:
                assert w.length(t) == aset.max_length
            # tau is the unique Bruhat minimum
            for x in aset.elements:
                assert w.bruhat_leq(aset.tau.element, x)


def test_covers_below_matches_deletions_on_every_catalog_adm():
    # Top down with one dict, as the closure runs, and standalone.
    for p in catalog():
        d = p.datum
        w = d.weyl
        for _label, mu in p.mu_grid:
            elements = adm(d, mu).elements
            known = {}
            for x in sorted(elements, key=lambda e: (-w.length(e), e.key())):
                expected = deletion_covers(w, x)
                for covers in (w.covers_below(x, known), w.covers_below(x)):
                    assert len(covers) == len(set(covers))
                    assert set(covers) == expected, (p.name, mu, x)
            assert known == {}


def test_adm_closure_empties_its_cover_dict(monkeypatch):
    # covers_below takes each entry out as it returns it, so the one dict
    # of the closure never keeps the whole set.
    dicts = []
    covers_below = AffineWeylGroup.covers_below

    def spying(self, x, known=None):
        dicts.append(known)
        return covers_below(self, x, known)

    monkeypatch.setattr(AffineWeylGroup, "covers_below", spying)
    for name, mu in (("C2_sc", (4, 0)), ("G2_sc", (2, 1)), ("A1xA1_sc", (3, 2))):
        c = preset(name).datum
        d = RootDatum(c.rank, c.simple_roots, c.simple_coroots, name=f"{name}_fresh")
        dicts.clear()
        aset = adm(d, mu)
        assert len(dicts) == len(aset)
        assert all(k is dicts[0] for k in dicts)
        assert dicts[0] == {}


def test_adm_size_invariant_under_orbit_duality():
    d = preset("C2_sc").datum
    mu = (1, 1)
    neg_dom, _ = d.dominant_rep(tuple(-x for x in mu))
    assert len(adm(d, mu)) == len(adm(d, tuple(int(x) for x in neg_dom)))


def test_tau_mu_examples():
    assert tau_mu(preset("A1_sc").datum, (1,)).element.is_identity()
    d = preset("A1_ad").datum
    tau = tau_mu(d, (1,))
    assert tau.element == d.weyl.from_json({"lambda": [1], "w0_word": [0]})
    # GU_odd: the shimura cocharacter has central tau = t^z
    gu = preset("GU_odd(2)").datum
    tau_gu = tau_mu(gu, (1, 0, 1))
    assert gu.weyl.length(tau_gu.element) == 0
    assert gu.is_central(tau_gu.element.lam)
    assert gu.pi1.project(tau_gu.element.lam) == gu.pi1.project((1, 0, 1))
    assert tau_gu.element.lam == (0, 0, 1)


def membership_balls():
    """(preset name, datum, mu, ball) for every catalog grid mu: the ball
    of radius l(t^mu) over the designated omegas, which holds Adm(mu)."""
    for p in catalog():
        d = p.datum
        w = d.weyl
        omegas = [o.element for o in w.omega_elements()]
        for _label, mu in p.mu_grid:
            yield p.name, d, mu, w.ball(adm(d, mu).max_length, omegas)


def test_in_adm_examples_and_naive_agreement():
    d = preset("A1_sc").datum
    w = d.weyl
    assert in_adm(d, (1,), w.identity())
    assert not in_adm(d, (1,), w.translation((2,)))
    for name, dd, mu, ball in membership_balls():
        elements = adm(dd, mu).elements
        for x in ball:
            assert in_adm(dd, mu, x) == (x in elements) == naive_in_adm(dd, mu, x), (name, mu, x)


@pytest.mark.parametrize("pick", [0, -1])
def test_in_adm_answer_rests_on_no_chamber_fact(monkeypatch, pick):
    # With any maximum in place of the chamber's, and the Perm(mu) test
    # passing everything, members and non-members alike reach the scan
    # of the other maxima, which must still give the naive answer.
    monkeypatch.setattr(admissible, "_chamber_maximum", lambda d, data, x: data.maxima[pick])
    monkeypatch.setattr(admissible, "_in_perm", lambda d, data, x: True)
    for name, d, mu, ball in membership_balls():
        for x in ball:
            assert in_adm(d, mu, x) == naive_in_adm(d, mu, x), (name, mu, x)


def test_perm_test_matches_fraction_oracle_and_contains_adm():
    # Adm(mu) lies in Perm(mu) (Kottwitz-Rapoport); Haines-Ngo prove
    # equality when every factor is of type A.  Elsewhere a difference
    # is a finding, reported as a warning.
    type_a = {"A1_sc", "A1_ad", "A2_sc", "GL2", "A1xA1_sc"}
    for name, d, mu, ball in membership_balls():
        w = d.weyl
        data = admissible._membership_data(w, mu)
        vertices = alcove_vertices(d)
        elements = adm(d, mu).elements
        beyond = 0
        for x in ball:
            perm = perm_oracle(d, mu, x, vertices)
            if w.kappa(x) == data.kappa:
                assert admissible._in_perm(d, data, x) == perm, (name, mu, x)
            if x in elements:
                assert perm, (name, mu, x)
            elif perm:
                beyond += 1
        if name in type_a:
            assert beyond == 0, (name, mu)
        elif beyond:
            warnings.warn(f"{name} {mu}: {beyond} elements of Perm(mu) outside Adm(mu)")


def test_in_adm_bruhat_work(monkeypatch):
    # One Bruhat comparison for a member (the chamber test), one for a
    # non-member outside Perm(mu), none for one pruned by kappa or length.
    d = preset("D4_sc").datum
    w = d.weyl
    mu = (1, 2, 1, 1)
    aset = adm(d, mu)
    kappa = w.kappa(w.translation(mu))
    vertices = alcove_vertices(d)
    calls = []
    leq = AffineWeylGroup.bruhat_leq

    def counting(group, x, y):
        calls.append((x, y))
        return leq(group, x, y)

    monkeypatch.setattr(AffineWeylGroup, "bruhat_leq", counting)
    members = rejected = 0
    for x in w.ball(aset.max_length, [o.element for o in w.omega_elements()]):
        calls.clear()
        in_adm(d, mu, x)
        if w.kappa(x) != kappa or w.length(x) > aset.max_length:
            assert calls == [], x
        elif x in aset.elements:
            members += 1
            assert len(calls) == 1, x
        elif not perm_oracle(d, mu, x, vertices):
            rejected += 1
            assert len(calls) == 1, x
    assert members == len(aset) and rejected > 0


def test_tau_in_adm_and_members():
    for p in catalog():
        d = p.datum
        for _label, mu in p.mu_grid:
            assert in_adm(d, mu, tau_mu(d, mu).element)


def test_budget_exceeded():
    d = preset("C2_sc").datum
    with pytest.raises(BudgetExceeded):
        adm(d, (1, 1), budget=3)
    # Still raised once the full set is memoized: errors are not cached.
    assert len(adm(d, (1, 1))) > 3
    with pytest.raises(BudgetExceeded):
        adm(d, (1, 1), budget=3)


def test_budget_below_the_translation_length_fails_before_the_walk(monkeypatch):
    # Adm(mu) holds a chain of l(t^mu) + 1 elements, so a budget of
    # l(t^mu) fails with no cover walked; at l(t^mu) + 1 the closure runs
    # (and raises the same error itself), and at |Adm| it succeeds.
    c2 = preset("C2_sc").datum
    d = RootDatum(c2.rank, c2.simple_roots, c2.simple_coroots, name=c2.name)
    size = len(adm(d, (1, 1)))
    top = d.weyl.length(d.weyl.translation((1, 1)))
    assert size > top + 1
    walks = []
    covers_below = d.weyl.covers_below
    monkeypatch.setattr(
        d.weyl, "covers_below", lambda *a, **k: walks.append(a) or covers_below(*a, **k)
    )
    for budget, walked in ((top, False), (top + 1, True)):
        with pytest.raises(BudgetExceeded, match=f"^admissible set exceeds node budget {budget}$"):
            adm(d, (1, 1), budget=budget)
        assert bool(walks) == walked
    assert len(adm(d, (1, 1), budget=size)) == size


def test_every_enumeration_meets_its_budget_exactly():
    # A budget equal to the size of the set returns it; one below raises,
    # naming the set and the caller's budget.  Seeds and coset starts
    # count, and the cosets of one ball share its budget.
    c2 = preset("C2_sc").datum
    a2 = preset("A2_sc").datum
    sigma = sigma_of(a2)
    x = a2.weyl.translation((-1, -1))
    filed = {}
    assert sigma.reduce_to_minimal(x, filed) == x

    def orbit_step(z):
        return [z + 1] if z < 9 else []

    cases = [
        ("closure", 3, lambda b: closure([1, 2, 3], lambda z: (), b)),
        ("orbit", 10, lambda b: closure([0], orbit_step, b, "orbit")),
        ("ball", 13, lambda b: preset("A1_ad").datum.weyl.coset_ball(6, budget=b)),
        ("admissible set", 41, lambda b: adm(c2, (1, 1), budget=b).elements),
        ("Adm^K", 22, lambda b: adm_parahoric(c2, (1, 0), (1,), budget=b)[0]),
        ("plateau", 6, lambda b: sigma.plateau(x, b).members),
        # The plateau filed above, under the default budget, read again.
        ("plateau", 6, lambda b: filed[sigma.reduce_to_minimal(x, filed, b)].members),
    ]
    for name in ("A1_ad", "GL2"):
        w = preset(name).datum.weyl
        omegas = [o.element for o in w.omega_elements()]
        cases.append(("ball", 26, lambda b, w=w, omegas=omegas: w.ball(6, omegas, budget=b)))
        with pytest.raises(BudgetExceeded, match="^ball exceeds node budget 20$"):
            w.ball(6, omegas, budget=20)
        e = w.identity()
        cases.append(("ball", 1, lambda b, w=w, e=e: w.ball(0, [e, e], budget=b)))
    for what, size, run in cases:
        got = run(size)
        assert len(got) == size and got == run(DEFAULT_BUDGET), what
        with pytest.raises(BudgetExceeded) as caught:
            run(size - 1)
        assert str(caught.value) == f"{what} exceeds node budget {size - 1}"


def test_adm_memo_bounded_and_equal_to_cold():
    for p in catalog():
        d = p.datum
        for _label, mu in p.mu_grid:
            first = adm(d, mu)
            again = adm(d, mu)
            assert again is first
            assert all(x.group is d.weyl for x in again.elements)
            # An equal datum built apart has its own group, so it gets its
            # own set rather than the one bound to d.weyl.
            fresh = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name=d.name)
            cold = adm(fresh, mu)
            assert all(x.group is fresh.weyl for x in cold.elements)
            assert again == cold
    assert caches_within_bound()


def test_memo_evicts_least_recent_by_weight(monkeypatch, memo_runs):
    # A bound of two C2_sc sets: an LRU by element count, over-heavy
    # values returned but not kept, errors never kept.
    d = preset("C2_sc").datum
    w = d.weyl
    fresh = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name=d.name)
    cold = {mu: adm(fresh, mu) for mu in ((0, 0), (1, 0), (1, 1), (2, 0))}
    bound = len(cold[(1, 0)]) + len(cold[(1, 1)])
    assert len(cold[(2, 0)]) > bound
    monkeypatch.setattr(affine_weyl, "CACHE_BOUND", bound)
    clear_memos()

    def held_mus():
        # The entries of d's group, least recently used first.
        return [args[0] for body, args in w.memo_entries if body is admissible._adm.__wrapped__]

    first = adm(d, (1, 0))
    adm(d, (1, 1))
    assert held_mus() == [(1, 0), (1, 1)]
    assert adm(d, (1, 0)) is first
    assert held_mus() == [(1, 1), (1, 0)]
    runs = memo_runs["_adm"]
    heavy = adm(d, (2, 0))
    assert heavy == cold[(2, 0)] and memo_runs["_adm"] == runs + 1
    assert held_mus() == [(1, 1), (1, 0)]
    assert adm(d, (2, 0)) is not heavy and memo_runs["_adm"] == runs + 2
    # One more element evicts the least recent set, (1, 1).
    assert adm(d, (0, 0)) == cold[(0, 0)]
    assert held_mus() == [(1, 0), (0, 0)]
    assert len(w.memo_entries) == 2
    assert memo_weight(w) == len(cold[(1, 0)]) + 1 <= bound
    for mu, aset in cold.items():
        assert adm(d, mu) == aset
        assert memo_weight(w) <= bound
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            adm(d, (1, 1), budget=3)
    assert all(args[-1] != 3 for _body, args in w.memo_entries)


def test_memo_entries_go_with_their_group(monkeypatch):
    # Entries live on their group: a datum nothing references is
    # collected with its entries, and the bound is per group, so its
    # entries never evict those of another group.
    d = preset("C2_sc").datum
    bound = len(adm(d, (2, 0))) + len(maximal_translations(d, (1, 1)))
    monkeypatch.setattr(affine_weyl, "CACHE_BOUND", bound)
    clear_memos()
    adm(d, (1, 0))
    kept = memo_weight(d.weyl)
    fresh = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name=d.name)
    group = weakref.ref(fresh.weyl)
    adm(fresh, (2, 0))
    in_adm(fresh, (1, 1), fresh.weyl.translation((1, 1)))
    assert memo_weight(fresh.weyl) == bound < memo_weight(fresh.weyl) + kept
    assert memo_weight(d.weyl) == kept
    del fresh
    gc.collect()
    assert group() is None
    assert memo_weight(d.weyl) == kept
    assert [p.datum for p in catalog() if p.datum.weyl.memo_entries] == [d]
    assert len(d.weyl.memo_entries) == 1


def test_memo_keeps_its_held_weight_as_a_running_total(monkeypatch):
    # A few hundred random stores, hits and evictions under a bound of
    # 40, some values over it: after each call group.memo_held is the sum
    # of the entries' weights, and a store reads no more entries than it
    # drops, so n stores on one group cost O(n), not O(n^2).
    class Watched(dict):
        read = 0

        def __iter__(self):
            for key in super().__iter__():
                self.read += 1
                yield key

        def values(self):
            self.read += len(self)
            return super().values()

        def items(self):
            self.read += len(self)
            return super().items()

    def weight(k):
        return k % 12 + 1 if k < 22 else 41

    @admissible.memo(lambda value: value)
    def weighed(group, k):
        return weight(k)

    d = preset("A1_sc").datum
    group = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name=d.name).weyl
    entries = group.memo_entries = Watched()
    monkeypatch.setattr(affine_weyl, "CACHE_BOUND", 40)
    rng = random.Random(11)
    hits = drops = 0
    for _ in range(400):
        k = rng.randrange(24)
        hit = (weighed.__wrapped__, (k,)) in entries
        before, read = len(entries), entries.read
        assert weighed(group, k) == weight(k)
        dropped = before + (not hit and k < 22) - len(entries)
        assert entries.read - read <= dropped
        assert group.memo_held == memo_weight(group) <= 40
        hits += hit
        drops += dropped
    assert hits > 50 and drops > 100


def test_one_groups_memo_never_evicts_anothers(monkeypatch):
    # Under a bound of one C2_sc set, a group that fills its memo drops
    # only its own least recent entries, whatever another group holds.
    a2, c2 = preset("A2_sc").datum, preset("C2_sc").datum
    bound = len(adm(c2, (1, 1)))
    monkeypatch.setattr(affine_weyl, "CACHE_BOUND", bound)

    def held_mus(d):
        return [args[0] for _body, args in d.weyl.memo_entries]

    for held, mu, filler in ((c2, (1, 1), a2), (a2, (2, 1), c2)):
        clear_memos()
        kept = adm(held, mu)
        filled = 0
        for other in ((1, 0), (0, 1), (1, 1), (0, 0)):
            filled += len(adm(filler, other))
            assert held_mus(held) == [mu] and memo_weight(held.weyl) == len(kept)
            assert memo_weight(filler.weyl) <= bound
        assert filled > bound
        assert held_mus(filler)[-1] == (0, 0) and len(held_mus(filler)) < 4
        assert adm(held, mu) is kept


def test_adm_parahoric_trivial_k():
    d = preset("A1_sc").datum
    aset = adm(d, (1,))
    closed, reps = adm_parahoric(d, (1,), ())
    assert closed == aset.elements
    assert set(reps) == set(aset.elements)


def test_adm_parahoric_example():
    d = preset("A1_sc").datum
    w = d.weyl
    aset = adm(d, (1,))
    closed, reps = adm_parahoric(d, (1,), (1,))
    assert set(aset.elements) <= closed
    # brute force W_K Adm W_K
    wk = (w.identity(), w.simple(1))
    brute = {u * x * v for u in wk for x in aset.elements for v in wk}
    assert closed == brute
    for r in reps:
        assert not w.has_left_descent_in(r, (1,))
        assert not is_right_descent(w, 1, r)
    assert w.min_double_coset_rep(w.translation((1,)), (1,)) in reps


def test_adm_parahoric_infinite():
    d = preset("A1_sc").datum
    with pytest.raises(InfiniteParabolic):
        adm_parahoric(d, (1,), (0, 1))


def test_adm_is_the_intersection_over_maximal_parahorics():
    """Haines-He, "Vertexwise criteria for admissibility of alcoves",
    Amer. J. Math. 139 (2017): an alcove is mu-admissible iff it is
    mu-admissible at each vertex of the base alcove.  In the Iwahori-Weyl
    group, Adm(mu) = intersection of W_K Adm(mu) W_K over the maximal K
    with W_K finite, which drop one affine simple node from each Dynkin
    component.

    Every catalog (preset, mu) but D4_sc, whose Adm^K reach 4,800
    elements and take seconds.  One K alone does not suffice: on A2_sc
    (1, 1) each Adm^K has 42 elements against 25.
    """
    sizes = {}
    for p in catalog():
        d = p.datum
        if p.name == "D4_sc":
            continue
        k = len(d.components)
        # Affine simple c is the wall of component c, and k + i is the
        # simple reflection of simple root i.
        nodes = [(c,) + tuple(k + i for i in comp) for c, comp in enumerate(d.components)]
        for _label, mu in p.mu_grid:
            aset = adm(d, mu).elements
            meet = None
            for dropped in itertools.product(*nodes):
                k_set = [i for i in range(len(d.weyl.simple_affine)) if i not in dropped]
                closed, _reps = adm_parahoric(d, mu, k_set)
                sizes.setdefault((p.name, mu), []).append(len(closed))
                meet = closed if meet is None else meet & closed
            assert meet == aset, (p.name, mu)
    assert len(sizes) == 17
    assert sizes["A2_sc", (1, 1)] == [42, 42, 42] and len(adm(preset("A2_sc").datum, (1, 1))) == 25


def test_lemma_containment_runs():
    d = preset("A1_sc").datum
    sig = FrobeniusDatum(d)
    rep = verify_straight_class_containment(d, sig, (1,))
    assert rep["pass"] and rep["straight_classes"] == 2
    rep0 = verify_straight_class_containment(d, sig, (0,))
    assert rep0["pass"] and rep0["straight_elements_checked"] == 1


def test_s_tau_verifier():
    d = preset("A1_sc").datum
    rep = verify_s_tau_membership(d, (1,))
    assert rep["pass"] and rep["checked"] == 2
    with pytest.raises(HypothesisViolated):
        verify_s_tau_membership(d, (0,))  # central mu
    d2 = preset("A1xA1_sc").datum
    with pytest.raises(HypothesisViolated):
        verify_s_tau_membership(d2, (1, 1))  # not simple
    c2 = preset("C2_sc").datum
    rep2 = verify_s_tau_membership(c2, (1, 0))
    assert rep2["pass"]


# Cocharacters of the wrong rank or with entries that are not integers.
# Unchecked, a short mu kept adm and in_adm running without end on A2, a
# float was truncated, and a long mu gave three-entry Newton points.
BAD_MU = [(1,), (1, 1, 1), (1.5, 1), (True, 1), (Fraction(1), 1)]
_A2 = preset("A2_sc").datum
_A2_SPLIT = FrobeniusDatum(_A2)
MU_ENTRY_POINTS = {
    "adm": lambda mu: adm(_A2, mu),
    "in_adm": lambda mu: in_adm(_A2, mu, _A2.weyl.identity()),
    "maximal_translations": lambda mu: maximal_translations(_A2, mu),
    "straight_classes": lambda mu: straight_classes(_A2, _A2_SPLIT, mu),
    "b_g_mu": lambda mu: b_g_mu(_A2, _A2_SPLIT, mu),
    "mu_natural": lambda mu: mu_natural(_A2_SPLIT, mu),
    "obstruction_class": lambda mu: obstruction_class(_A2_SPLIT, mu, _A2.weyl.identity()),
    "mu_diamond": lambda mu: mu_diamond(_A2_SPLIT, mu),
    "tau_mu": lambda mu: tau_mu(_A2, mu),
    "verify_s_tau_membership": lambda mu: verify_s_tau_membership(_A2, mu),
}


@pytest.mark.parametrize("mu", BAD_MU)
@pytest.mark.parametrize("entry", sorted(MU_ENTRY_POINTS))
def test_mu_is_checked_at_each_entry_point(entry, mu):
    with pytest.raises(SchemaError, match="^/mu: expected 2 integers$"):
        MU_ENTRY_POINTS[entry](mu)


@pytest.mark.parametrize("mu", BAD_MU)
@pytest.mark.parametrize("command", ["adm", "straight", "bgmu", "pi0", "pic-cert", "verify"])
def test_mu_is_checked_by_every_cli_command(command, mu):
    report, code = cli.run(cli.JobSpec(command=command, group="A2_sc", mu=mu))
    assert code == cli.EXIT_USAGE
    assert report["error"] == "/mu: expected 2 integers"


def test_cocharacter_returns_an_integer_tuple():
    assert _A2.cocharacter([1, -2]) == (1, -2)
    assert adm(_A2, [1, 1]) is adm(_A2, (1, 1))

import gc
import random
import weakref

import pytest

from adlv import admissible
from adlv.admissible import (
    MEMO,
    adm,
    adm_parahoric,
    audit_downward_closed,
    in_adm,
    maximal_translations,
    tau_mu,
    verify_s_tau_membership,
    verify_straight_class_containment,
)
from adlv.errors import BudgetExceeded, HypothesisViolated, InfiniteParabolic
from adlv.frobenius import FrobeniusDatum
from adlv.presets import catalog, preset
from adlv.root_datum import RootDatum

from helpers import naive_in_adm, subword_set


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


def test_adm_size_invariant_under_orbit_duality():
    d = preset("C2_sc").datum
    mu = (1, 1)
    neg_dom, _ = d.dominant_rep(tuple(-x for x in mu))
    assert len(adm(d, mu)) == len(adm(d, tuple(int(x) for x in neg_dom)))


def test_tau_mu_examples():
    assert tau_mu(preset("A1_sc").datum, (1,)).element.is_identity()
    d = preset("A1_ad").datum
    tau = tau_mu(d, (1,))
    assert tau.element == d.weyl.from_finite_word((1,), (0,))
    # GU_odd: the shimura cocharacter has central tau = t^z
    gu = preset("GU_odd(2)").datum
    tau_gu = tau_mu(gu, (1, 0, 1))
    assert gu.weyl.length(tau_gu.element) == 0
    assert gu.is_central(tau_gu.element.lam)
    assert gu.pi1.project(tau_gu.element.lam) == gu.pi1.project((1, 0, 1))
    assert tau_gu.element.lam == (0, 0, 1)


def test_in_adm_examples_and_naive_agreement():
    d = preset("A1_sc").datum
    w = d.weyl
    assert in_adm(d, (1,), w.identity())
    assert not in_adm(d, (1,), w.translation((2,)))
    rng = random.Random(21)
    for name in ("A1_ad", "C2_sc", "GL2"):
        p = preset(name)
        dd = p.datum
        ww = dd.weyl
        mu = p.mu_grid[0][1]
        ball = ww.ball(6, [o.element for o in ww.omega_elements()])
        for _ in range(80):
            x = rng.choice(ball)
            assert in_adm(dd, mu, x) == naive_in_adm(dd, mu, x)


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
    assert MEMO.held <= MEMO.bound


def test_memo_evicts_least_recent_by_weight(monkeypatch, memo_runs):
    # A bound of two C2_sc sets: an LRU by element count, over-heavy
    # values returned but not kept, errors never kept.
    d = preset("C2_sc").datum
    w = d.weyl
    fresh = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name=d.name)
    cold = {mu: adm(fresh, mu) for mu in ((0, 0), (1, 0), (1, 1), (2, 0))}
    bound = len(cold[(1, 0)]) + len(cold[(1, 1)])
    assert len(cold[(2, 0)]) > bound
    monkeypatch.setattr(MEMO, "bound", bound)
    MEMO.clear()

    def held_mus():
        # The entries of d's group, least recently used first.
        entries = [ref() for ref in MEMO._order]
        assert all(e.home is w.memo_entries for e in entries)
        return [e.key[1][0] for e in entries if e.key[0] is admissible._adm.__wrapped__]

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
    assert MEMO.held == len(cold[(1, 0)]) + 1 <= MEMO.bound
    for mu, aset in cold.items():
        assert adm(d, mu) == aset
        assert MEMO.held <= MEMO.bound
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            adm(d, (1, 1), budget=3)
    assert all(args[-1] != 3 for _body, args in w.memo_entries)


def test_memo_entries_go_with_their_group():
    # Entries live on their group: a datum nothing references is
    # collected with its entries, and their weight leaves the total.
    d = preset("C2_sc").datum
    MEMO.clear()
    adm(d, (1, 0))
    kept = MEMO.held
    fresh = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name=d.name)
    group = weakref.ref(fresh.weyl)
    adm(fresh, (2, 0))
    in_adm(fresh, (1, 1), fresh.weyl.translation((1, 1)))
    assert MEMO.held > kept
    del fresh
    gc.collect()
    assert group() is None
    assert MEMO.held == kept and len(MEMO._order) == 1
    assert len(d.weyl.memo_entries) == 1


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
    wk = w.parabolic_elements((1,))
    brute = {u * x * v for u in wk for x in aset.elements for v in wk}
    assert closed == brute
    for r in reps:
        assert not w.has_left_descent_in(r, (1,))
        assert not w.has_right_descent_in(r, (1,))
    assert w.min_double_coset_rep(w.translation((1,)), (1,)) in reps


def test_adm_parahoric_infinite():
    d = preset("A1_sc").datum
    with pytest.raises(InfiniteParabolic):
        adm_parahoric(d, (1,), (0, 1))


def test_lemma_containment_runs():
    d = preset("A1_sc").datum
    sig = FrobeniusDatum(d)
    rep = verify_straight_class_containment(d, sig, (1,))
    assert rep["pass"] and rep["straight_classes"] == 2
    rep0 = verify_straight_class_containment(d, sig, (0,))
    assert rep0["pass"] and rep0["straight_elements_checked"] == 1


def test_s_tau_verifier():
    d = preset("A1_sc").datum
    sig = FrobeniusDatum(d)
    rep = verify_s_tau_membership(d, sig, (1,))
    assert rep["pass"] and rep["checked"] == 2
    with pytest.raises(HypothesisViolated):
        verify_s_tau_membership(d, sig, (0,))  # central mu
    d2 = preset("A1xA1_sc").datum
    with pytest.raises(HypothesisViolated):
        verify_s_tau_membership(d2, FrobeniusDatum(d2), (1, 1))  # not simple
    c2 = preset("C2_sc").datum
    rep2 = verify_s_tau_membership(c2, FrobeniusDatum(c2), (1, 0))
    assert rep2["pass"]

from fractions import Fraction

import pytest

from adlv.admissible import MEMO, adm
from adlv.errors import BudgetExceeded, NoSolution, TagNotInBGMu
from adlv.frobenius import FrobeniusDatum
from adlv.linalg import mat_vec, vec_sub
from adlv.newton_bg import (
    b_g_mu,
    mu_diamond,
    mu_natural,
    obstruction_class,
    straight_classes,
    tag_index,
)
from adlv.presets import catalog, preset
from adlv.root_datum import RootDatum


def test_mu_diamond_split_is_dominant_rep():
    d = preset("C2_sc").datum
    sig = FrobeniusDatum(d)
    assert mu_diamond(sig, (0, -2)) == d.dominant_rep((0, -2))[0]


def test_mu_diamond_flip_average():
    p = preset("A2_sc")
    sig = FrobeniusDatum(p.datum, p.sigmas["flip"])
    mu = (2, 1)  # dominant and not flip-symmetric
    assert p.datum.is_dominant(mu)
    dia = mu_diamond(sig, mu)
    flipped = tuple(Fraction(x) for x in mat_vec(sig.matrix, mu))
    expected = tuple((Fraction(a) + b) / 2 for a, b in zip(mu, flipped))
    assert dia == expected
    assert dia == (Fraction(3, 2), Fraction(3, 2))


def test_mu_natural():
    d = preset("A1_ad").datum
    sig = FrobeniusDatum(d)
    assert mu_natural(sig, (1,)) == (1,)
    assert mu_natural(sig, (2,)) == (0,)


def test_bgmu_a1_example():
    d = preset("A1_sc").datum
    sig = FrobeniusDatum(d)
    elements = b_g_mu(d, sig, (1,))
    assert len(elements) == 2
    basic, top = elements
    assert basic.basic and basic.is_minimal and not basic.is_maximal
    assert basic.tag.nu_bar == (Fraction(0),)
    assert not top.basic and top.is_maximal
    assert top.tag.nu_bar == (Fraction(1),)
    # dominance chain: basic <= everything <= maximal
    for e in elements:
        assert d.dominance_leq(basic.tag.nu_bar, e.tag.nu_bar)
        assert d.dominance_leq(e.tag.nu_bar, top.tag.nu_bar)


def test_bgmu_minimum_is_tau_class():
    for name in ("A1_sc", "A1_ad", "C2_sc", "GU_odd(2)"):
        p = preset(name)
        d = p.datum
        sig = FrobeniusDatum(d)
        for _label, mu in p.mu_grid:
            elements = b_g_mu(d, sig, mu)
            aset = adm(d, mu)
            tau_tag = sig.tag_of(aset.tau.element)
            mins = [e for e in elements if e.is_minimal]
            assert len(mins) == 1 and mins[0].tag == tau_tag
            tops = [e for e in elements if e.is_maximal]
            assert len(tops) == 1
            # dominance chain: basic <= every tag <= maximal
            for e in elements:
                assert d.dominance_leq(mins[0].tag.nu_bar, e.tag.nu_bar)
                assert d.dominance_leq(e.tag.nu_bar, tops[0].tag.nu_bar)
            # representatives are straight elements of the admissible set
            for e in elements:
                assert sig.is_straight(e.representative)
                assert e.representative in aset.elements


def test_bgmu_central_mu_singleton():
    d = preset("GU_odd(2)").datum
    sig = FrobeniusDatum(d)
    elements = b_g_mu(d, sig, (0, 0, 1))  # central cocharacter
    assert len(elements) == 1
    assert elements[0].basic and elements[0].is_minimal and elements[0].is_maximal


def test_bgmu_translation_parts_admissible():
    # section 8.1(b) on the output representatives, sigma trivial
    from adlv.admissible import in_adm

    for name in ("A2_sc", "C2_sc"):
        p = preset(name)
        d = p.datum
        sig = FrobeniusDatum(d)
        for _label, mu in p.mu_grid:
            for e in b_g_mu(d, sig, mu):
                assert in_adm(d, mu, d.weyl.translation(e.representative.lam))


def test_tag_index_and_missing():
    d = preset("A1_sc").datum
    sig = FrobeniusDatum(d)
    elements = b_g_mu(d, sig, (1,))
    assert tag_index(elements, elements[1].tag) == 1
    fake = sig.tag_of(d.weyl.translation((2,)))
    with pytest.raises(TagNotInBGMu):
        tag_index(elements, fake)


def test_obstruction_tau_case():
    d = preset("A1_ad").datum
    sig = FrobeniusDatum(d)
    elements = b_g_mu(d, sig, (1,))
    basic = elements[0]
    oc = obstruction_class(sig, (1,), basic.representative)
    assert oc.representative == d.pi1.zero()
    assert oc.fixed_subgroup.invariant_factors == (2,)


def test_obstruction_residually_split_degenerate():
    d = preset("A1_ad").datum
    sig = FrobeniusDatum(d)
    # sigma trivial: c - sigma(c) = 0, so solvable iff [mu] = kappa(b)
    tau = d.weyl.from_finite_word((1,), (0,))
    oc = obstruction_class(sig, (1,), tau)
    assert oc.representative == d.pi1.zero()
    with pytest.raises(NoSolution):
        obstruction_class(sig, (1,), d.weyl.identity())


def test_obstruction_swap_product_by_snf():
    # A1_ad x A1_ad with the swap Frobenius: pi1 = (Z/2)^2, sigma swaps
    d = RootDatum(2, ((1, 0), (0, 1)), ((2, 0), (0, 2)), name="A1adxA1ad")
    sig = FrobeniusDatum(d, ((0, 1), (1, 0)))
    mu = (1, 0)
    rep = d.weyl.translation((0, 1))  # kappa(b) = (0,1)
    oc = obstruction_class(sig, mu, rep)
    c = oc.representative_lift
    back = vec_sub(c, mat_vec(sig.matrix, c))
    assert d.pi1.project(back) == d.pi1.project(vec_sub(mu, rep.lam))
    # fixed subgroup of the swap on (Z/2)^2 is the diagonal Z/2
    assert oc.fixed_subgroup.invariant_factors == (2,)


def test_bgmu_memo_hits_and_equals_cold():
    for p in catalog():
        d = p.datum
        for name in sorted(p.sigmas):
            for _label, mu in p.mu_grid:
                first = b_g_mu(d, FrobeniusDatum(d, p.sigmas[name]), mu)
                # A sigma built anew per call is equal, so this is a hit.
                again = b_g_mu(d, FrobeniusDatum(d, p.sigmas[name]), mu)
                assert again is first and isinstance(first, tuple)
                classes = straight_classes(d, FrobeniusDatum(d, p.sigmas[name]), mu)
                assert straight_classes(d, FrobeniusDatum(d, p.sigmas[name]), mu) is classes
                # An equal datum built apart has its own group and gets
                # its own result, with elements of that group.
                fresh = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name=d.name)
                cold = b_g_mu(fresh, FrobeniusDatum(fresh, p.sigmas[name]), mu)
                assert cold is not first and cold == first
                assert all(e.representative.group is fresh.weyl for e in cold)
                cold_classes = straight_classes(
                    fresh, FrobeniusDatum(fresh, p.sigmas[name]), mu
                )
                assert cold_classes == classes
                assert all(
                    x.group is fresh.weyl for _tag, xs in cold_classes for x in xs
                )
    assert MEMO.held <= MEMO.bound


def test_bgmu_budget_raises_after_success():
    d = preset("C2_sc").datum
    sig = FrobeniusDatum(d)
    assert len(b_g_mu(d, sig, (1, 1))) > 1
    # Errors are not cached, and a tight budget is its own memo key.
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            b_g_mu(d, sig, (1, 1), budget=3)
        with pytest.raises(BudgetExceeded):
            straight_classes(d, sig, (1, 1), budget=3)

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from adlv import verify
from adlv.admissible import adm
from adlv.affine_weyl import closure
from adlv.errors import NotStraight, TagNotInBGMu
from adlv.frobenius import FrobeniusDatum
from adlv.levi import (
    essentially_noncentral,
    is_fundamental,
    is_v_alcove,
    jb_shadow,
    levi_of,
    pi0_predict,
    sub_element,
    tau_orbits,
)
from adlv.linalg import dot
from adlv.newton_bg import b_g_mu
from adlv.presets import catalog, preset
from adlv.root_datum import RootDatum, from_cartan_matrix
from adlv.verify import VerifyScales, check_fixed_point_generators, check_levi_embedding_facts

import helpers
from helpers import (
    clear_memos,
    deletion_covers,
    finite_group_by_matrices,
    fixed_subgroup_by_products,
    group_order,
    levi_order_pairs_by_bruhat,
    tau_orbits_by_walls,
    v_alcove_oracle,
    wall_twist_by_conjugation,
)


def walls(levi):
    """The walls of a Levi datum's alcove, its affine simple roots."""
    return [root for root, _coroot in levi.walls]


def test_levi_full_and_torus():
    d = preset("A1_sc").datum
    assert levi_of(d, (0,)) is d
    torus = levi_of(d, (1,))
    assert torus.n_simple == 0
    assert torus.pi1.invariant_factors == (0,)  # pi1(T) = lattice
    assert walls(torus) == []


def test_levi_on_a_wall():
    d = preset("C2_sc").datum
    # v on the alpha_1 wall: <alpha_1, v> = 0 keeps the short root system
    v = (Fraction(1), Fraction(1))
    assert dot(d.simple_roots[0], v) == 0
    levi = levi_of(d, v)
    assert levi.n_simple == 1
    assert len(walls(levi)) == 2
    # the two walls are reflections of an affine A1 line inside C2
    grads = {r.gradient for r in walls(levi)}
    assert grads == {(1, -1), (-1, 1)}
    # scaling v does not change the Levi (cache and filters agree)
    assert levi_of(d, (2, 2)) is levi


def test_levi_wall_invariants():
    d = preset("C2_sc").datum
    w = d.weyl
    v = (Fraction(1), Fraction(1))
    sub = levi_of(d, v)
    ambient_walls = {s.root for s in w.simple_affine}
    # every wall fixes the direction v and has length one inside the Levi
    from adlv.linalg import mat_vec

    for root in walls(sub):
        refl = w.reflection(root)
        assert tuple(mat_vec(refl.mat, v)) == v
        in_sub = sub.weyl.from_matrix(refl.lam, refl.mat)
        assert sub.weyl.length(in_sub) == 1
    # the walls need not be ambient walls
    assert any(root not in ambient_walls for root in walls(sub))
    # the walls generate the affine part of the Levi Weyl group: compare
    # a generated ball with the kappa-trivial coset ball of the Levi
    gens = [sub.weyl.from_matrix(w.reflection(r).lam, w.reflection(r).mat)
            for r in walls(sub)]
    generated = {sub.weyl.identity()}
    frontier = [sub.weyl.identity()]
    while frontier:
        nxt = []
        for y in frontier:
            for g in gens:
                z = g * y
                if sub.weyl.length(z) <= 4 and z not in generated:
                    generated.add(z)
                    nxt.append(z)
        frontier = nxt
    affine_part = {x for x in sub.weyl.coset_ball(4)}
    assert generated == affine_part


def test_levi_order_matches_ambient():
    d = preset("C2_sc").datum
    sub = levi_of(d, (Fraction(1), Fraction(1)))
    ball = sub.weyl.coset_ball(4)
    for a in ball:
        for b in ball:
            if sub.weyl.bruhat_leq(a, b):
                assert d.weyl.bruhat_leq(
                    sub_element(d, a), sub_element(d, b)
                )


def test_v_alcove_examples():
    d = preset("A1_sc").datum
    w = d.weyl
    sig = FrobeniusDatum(d)
    assert is_v_alcove(d, sig, w.identity(), (0,))
    assert is_v_alcove(d, sig, w.translation((1,)), (1,))
    assert not is_v_alcove(d, sig, w.translation((-1,)), (1,))
    assert is_v_alcove(d, sig, w.translation((-1,)), (-1,))


def test_v_alcove_against_oracle():
    # Every preset and sigma; besides the random directions, x's own
    # Newton vector, which x . sigma always fixes.
    rng = random.Random(31)
    for p in catalog():
        d = p.datum
        for sig_name in sorted(p.sigmas):
            sig = FrobeniusDatum(d, p.sigmas[sig_name])
            ball = d.weyl.ball(4)
            vs = [
                tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d.rank))
                for _ in range(6)
            ] + [(Fraction(0),) * d.rank]
            for x in ball[:: max(1, len(ball) // 40)]:
                for v in vs + [sig.newton_direction(x)]:
                    assert is_v_alcove(d, sig, x, v) == v_alcove_oracle(d, sig, x, v)


def test_fundamental_examples():
    d = preset("A1_sc").datum
    w = d.weyl
    sig = FrobeniusDatum(d)
    t = w.translation((1,))
    assert is_fundamental(d, sig, t, sig.newton_direction(t))
    assert not is_fundamental(d, sig, w.simple(0), (0,))
    assert is_fundamental(d, sig, w.identity(), (0,))
    wad = preset("A1_ad").datum.weyl
    sig_ad = FrobeniusDatum(preset("A1_ad").datum)
    tau = wad.from_json({"lambda": [1], "w0_word": [0]})
    assert is_fundamental(preset("A1_ad").datum, sig_ad, tau, (0,))


def test_straight_iff_fundamental_small():
    for name in ("A1_ad", "A2_sc", "A1xA1_sc"):
        p = preset(name)
        d = p.datum
        for sig_name in sorted(p.sigmas):
            sig = FrobeniusDatum(d, p.sigmas[sig_name])
            for x in d.weyl.ball(5, [o.element for o in d.weyl.omega_elements()]):
                nu = sig.newton_direction(x)
                assert sig.is_straight(x) == is_fundamental(d, sig, x, nu)


def test_is_fundamental_builds_no_levi_group():
    # is_fundamental reads each Levi datum's walls; of the data in the
    # Levi cache, only the ambient one has a Weyl group.
    for name, sig_name in (("C2_sc", "split"), ("A2_sc", "flip")):
        p = preset(name)
        d = RootDatum(p.datum.rank, p.datum.simple_roots, p.datum.simple_coroots)
        sig = FrobeniusDatum(d, p.sigmas[sig_name])
        fundamental = [
            x for x in d.weyl.ball(4, [o.element for o in d.weyl.omega_elements()])
            if is_fundamental(d, sig, x, sig.newton_direction(x))
        ]
        levis = [m for m in d._levi_cache.values() if m is not d]
        assert fundamental and levis, name
        assert [m for m in levis if "weyl" in vars(m)] == [], name


def test_tau_orbits_identity():
    d = preset("C2_sc").datum
    sig = FrobeniusDatum(d)
    orbits = tau_orbits(d.weyl, sig.s_permutation)
    assert len(orbits) == 3
    for o in orbits:
        assert len(o.roots) == 1
        assert o.finite and o.orbit_type == "A"
        assert o.longest == d.weyl.reflection(o.roots[0])


def test_tau_orbit_infinite_bond_excluded():
    # GL2's free Omega generator swaps the two walls of the affine A1
    # diagram; together they generate the infinite dihedral group.
    d = preset("GL2").datum
    w = d.weyl
    sig = FrobeniusDatum(d)
    free = w.omega_elements()[1]
    orbits = tau_orbits(w, [free.s_permutation[j] for j in sig.s_permutation])
    assert len(orbits) == 1
    assert len(orbits[0].roots) == 2
    assert not orbits[0].finite
    assert orbits[0].longest is None and orbits[0].orbit_type is None


def test_tau_orbit_types_a_and_b():
    # A1 x A1 swap: commuting pair, type A, longest = product of the two.
    p = preset("A1xA1_sc")
    d = p.datum
    sig = FrobeniusDatum(d, p.sigmas["swap"])
    orbits = tau_orbits(d.weyl, sig.s_permutation)
    finite_sizes = sorted(len(o.roots) for o in orbits)
    assert finite_sizes == [2, 2]
    for o in orbits:
        assert o.finite and o.orbit_type == "A"
        r0, r1 = o.roots
        assert o.longest == d.weyl.reflection(r0) * d.weyl.reflection(r1)
        assert (o.longest * o.longest).is_identity()

    # A2 flip: the two finite walls are adjacent, their sum is a root:
    # type B with the long element of the A2 factor.
    p2 = preset("A2_sc")
    d2 = p2.datum
    sig2 = FrobeniusDatum(d2, p2.sigmas["flip"])
    orbits2 = tau_orbits(d2.weyl, sig2.s_permutation)
    by_size = {len(o.roots): o for o in orbits2}
    assert by_size[1].orbit_type == "A"
    pair = by_size[2]
    assert pair.finite and pair.orbit_type == "B"
    r0, r1 = pair.roots
    assert tuple(a + b for a, b in zip(r0.gradient, r1.gradient)) in d2.root_set
    # longest element of the finite A2 parabolic has length 3
    assert d2.weyl.length(pair.longest) == 3


def _twists(p):
    """(sigma, Omega element, the index permutation of Ad(tau) . sigma)
    for every sigma of the preset and every designated Omega element."""
    d = p.datum
    for sig_name in sorted(p.sigmas):
        sig = FrobeniusDatum(d, p.sigmas[sig_name])
        for om in d.weyl.omega_elements():
            yield sig, om, [om.s_permutation[j] for j in sig.s_permutation]


def test_w0j_is_longest_by_enumeration():
    for p in catalog():
        d = p.datum
        w = d.weyl
        for _sig, _om, perm in _twists(p):
            for o in tau_orbits(w, perm):
                if not o.finite:
                    continue
                gens = [w.reflection(r) for r in o.roots]
                group = closure([w.identity()], lambda y: [g * y for g in gens])
                assert o.longest in group
                top = max(w.length(z) for z in group)
                assert [z for z in group if w.length(z) == top] == [o.longest], p.name


@pytest.fixture(scope="module")
def quick_fixed_report():
    return check_fixed_point_generators(VerifyScales.quick())


def test_fixed_point_generators_match_two_sided_closure(quick_fixed_report):
    # Run by run, the generated count against the padded closure of the
    # same generators under products on both sides.
    cap = VerifyScales.quick().fixed_point_length
    runs = iter(quick_fixed_report["runs"])
    for p in catalog():
        w = p.datum.weyl
        for _sig, _om, perm in _twists(p):
            gens = [o.longest for o in tau_orbits(w, perm) if o.finite]
            run = next(runs)
            assert run["preset"] == p.name
            assert run["generated_in_ball"] == len(fixed_subgroup_by_products(w, gens, cap))
    assert next(runs, None) is None
    assert quick_fixed_report["pass"]


def test_fixed_point_check_fails_on_a_moved_generator(monkeypatch):
    # A twist that swaps two walls moves each of their reflections; given
    # one as the generator of its orbit, the check fails on that twist.
    def one_wall(group, perm):
        return [
            replace(o, longest=group.reflection(o.roots[0]))
            if o.finite and len(o.roots) == 2
            else o
            for o in tau_orbits(group, perm)
        ]

    monkeypatch.setattr(verify, "tau_orbits", one_wall)
    report = check_fixed_point_generators(VerifyScales.quick())
    want = [
        all(len(o.roots) != 2 for o in tau_orbits(p.datum.weyl, perm) if o.finite)
        for p in catalog()
        for _sig, _om, perm in _twists(p)
    ]
    assert [run["pass"] for run in report["runs"]] == want
    assert not all(want)


def test_tau_orbits_match_wall_following_oracle():
    # The index permutation against following the walls through
    # Ad(tau) . sigma, the Cartan block's minors and an enumeration of W_J.
    for p in catalog():
        d = p.datum
        w = d.weyl
        for sig, om, perm in _twists(p):
            got = [vars(o) for o in tau_orbits(w, perm)]
            twist = wall_twist_by_conjugation(d, sig, om.element, walls(d))
            assert got == tau_orbits_by_walls(d, twist)


def test_jb_shadow_orbits_match_wall_following_oracle():
    # At every straight element of every catalog Adm(mu) and sigma, the
    # orbits on the Levi's own indices, embedded in the ambient group.
    for p in catalog():
        d = p.datum
        for sig_name in sorted(p.sigmas):
            sig = FrobeniusDatum(d, p.sigmas[sig_name])
            for _label, mu in p.mu_grid:
                for x in sig.straight_elements_in(adm(d, mu).elements):
                    jb = jb_shadow(d, sig, x)
                    twist = wall_twist_by_conjugation(d, sig, x, walls(jb.levi))
                    want = tau_orbits_by_walls(d, twist)
                    assert [vars(o) for o in jb.orbits] == want, (p.name, sig_name, x)


def test_jb_shadow_examples():
    d = preset("A1_sc").datum
    w = d.weyl
    sig = FrobeniusDatum(d)
    # basic element: full Levi, singleton orbits, trivial fixed Omega
    jb = jb_shadow(d, sig, w.identity())
    assert jb.levi is d
    assert sorted(len(o.roots) for o in jb.orbits) == [1, 1]
    assert group_order(jb.omega_fixed_group) == 1
    # torus case: no orbits, fixed Omega = lattice
    t = w.translation((1,))
    jb2 = jb_shadow(d, sig, t)
    assert jb2.levi.n_simple == 0
    assert jb2.orbits == ()
    assert jb2.omega_fixed_group.invariant_factors == (0,)
    assert [r.lam for r in jb2.omega_fixed_reps] == [(1,)]
    with pytest.raises(NotStraight):
        jb_shadow(d, sig, w.simple(0))


def test_jb_shadow_rotation():
    # triality-fixed walls of D4: center and the fused outer orbit
    p = preset("D4_sc")
    d = p.datum
    sig = FrobeniusDatum(d, p.sigmas["triality"])
    jb = jb_shadow(d, sig, d.weyl.identity())
    sizes = sorted(len(o.roots) for o in jb.orbits)
    assert sizes == [1, 1, 3]
    assert all(o.finite for o in jb.orbits)


def test_essentially_noncentral():
    d = preset("A1_sc").datum
    sig = FrobeniusDatum(d)
    assert not essentially_noncentral(d, sig, (0,))
    assert essentially_noncentral(d, sig, (1,))
    p = preset("A1xA1_sc")
    d2 = p.datum
    swap = FrobeniusDatum(d2, p.sigmas["swap"])
    split = FrobeniusDatum(d2)
    # supported on one factor: noncentral for the swapped form, central
    # on the second factor for the split form
    assert essentially_noncentral(d2, swap, (1, 0))
    assert not essentially_noncentral(d2, split, (1, 0))
    assert essentially_noncentral(d2, split, (1, 1))
    torus = levi_of(d, (1,))
    assert not essentially_noncentral(torus, None, (1,))


def test_essentially_noncentral_matches_positive_root_scan():
    # Simple roots against every positive root: each catalog
    # (preset, sigma) with its grid and mu = 0, the Levi of every pi0
    # stratum with sigma = None, as pi0_predict asks, and a bare torus.
    cases = []
    for p in catalog():
        d = p.datum
        for name in sorted(p.sigmas):
            sigma = FrobeniusDatum(d, p.sigmas[name])
            for mu in [m for _label, m in p.mu_grid] + [(0,) * d.rank]:
                cases.append((d, sigma, mu))
                for e in b_g_mu(d, sigma, mu):
                    for s in pi0_predict(d, sigma, mu, e.tag).strata:
                        levi = levi_of(d, sigma.newton_direction(s.element))
                        cases.append((levi, None, s.element.lam))
    cases.append((RootDatum(2, (), ()), None, (1, 0)))
    answers = [essentially_noncentral(*case) for case in cases]
    assert answers == [helpers.essentially_noncentral_by_roots(*case) for case in cases]
    assert set(answers) == {True, False}


def test_pi0_predict_basic_and_nonbasic():
    d = preset("A1_sc").datum
    sig = FrobeniusDatum(d)
    bg = b_g_mu(d, sig, (1,))
    basic = pi0_predict(d, sig, (1,), bg[0].tag)
    assert basic.case == "basic"
    assert group_order(basic.group) == 1
    assert not basic.upper_bound_only

    nonbasic = pi0_predict(d, sig, (1,), bg[1].tag)
    assert nonbasic.case == "nonbasic-residually-split"
    assert nonbasic.upper_bound_only
    assert len(nonbasic.strata) == 2
    for s in nonbasic.strata:
        assert s.pi1_levi.invariant_factors == (0,)
        assert s.levi_rank == 0
        assert s.translation_part_admissible

    d2 = preset("A1_ad").datum
    sig2 = FrobeniusDatum(d2)
    bg2 = b_g_mu(d2, sig2, (1,))
    basic2 = pi0_predict(d2, sig2, (1,), bg2[0].tag)
    assert basic2.group.invariant_factors == (2,)


def test_pi0_predict_parahoric_filter():
    d = preset("A1_sc").datum
    sig = FrobeniusDatum(d)
    bg = b_g_mu(d, sig, (1,))
    pred = pi0_predict(d, sig, (1,), bg[1].tag, k_set=(1,))
    # ^K W filter: t^{-alpha^vee} has a left descent at s_1, so the two
    # Iwahori strata fuse into one at this parahoric level
    assert len(pred.strata) == 1
    assert pred.strata[0].element == d.weyl.translation((1,))
    assert not d.weyl.has_left_descent_in(pred.strata[0].element, (1,))


def test_pi0_predict_unsupported_cases():
    # central mu with basic tag: outside the basic theorem
    d = preset("GU_odd(2)").datum
    sig = FrobeniusDatum(d)
    bg = b_g_mu(d, sig, (0, 0, 1))
    pred = pi0_predict(d, sig, (0, 0, 1), bg[0].tag)
    assert pred.case == "unsupported"

    # nonbasic with nontrivial sigma: outside the residually split theorem
    p = preset("A2_sc")
    d2 = p.datum
    flip = FrobeniusDatum(d2, p.sigmas["flip"])
    bg2 = b_g_mu(d2, flip, (1, 1))
    nonbasic_tags = [e for e in bg2 if not e.basic]
    if nonbasic_tags:
        pred2 = pi0_predict(d2, flip, (1, 1), nonbasic_tags[0].tag)
        assert pred2.case == "unsupported"

    with pytest.raises(TagNotInBGMu):
        fake = sig.tag_of(d.weyl.translation((3, 0, 0)))
        pi0_predict(d, sig, (1, 0, 1), fake)


def test_levi_sub_datum_shared_per_vanishing_roots():
    d = preset("C2_sc").datum
    # Two regular directions: no root vanishes on either.
    first = levi_of(d, (3, 1))
    assert first.positive_roots == ()
    assert levi_of(d, (1, 3)) is first


def test_levi_cache_holds_one_entry_per_vanishing_set():
    # C2 has six Levis: G itself, one of semisimple rank one per positive
    # root, and the torus; v, 2v, -v and v / 2 share one entry.
    d = from_cartan_matrix(((2, -1), (-2, 2)))
    box = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    for v in box:
        levi_of(d, v)
    assert len(d._levi_cache) == 6
    for v in box:
        m = levi_of(d, v)
        assert levi_of(d, tuple(2 * c for c in v)) is m
        assert levi_of(d, tuple(-c for c in v)) is m
        assert levi_of(d, tuple(Fraction(c, 2) for c in v)) is m
    assert len(d._levi_cache) == 6


def _straight_levis(p):
    """The distinct Levis of the straight elements of each grid Adm(mu)."""
    d = p.datum
    sigma = FrobeniusDatum(d)
    levis = {}
    for _label, mu in p.mu_grid:
        for x in sigma.straight_elements_in(adm(d, mu).elements):
            levis.setdefault(levi_of(d, sigma.newton_direction(x)))
    return list(levis)


def test_levi_of_central_direction_is_the_datum():
    # Every root vanishes on 0 and on each central direction, so the
    # Levi is the datum itself, not a second datum of the whole group.
    for p in catalog():
        d = p.datum
        box = itertools.product(range(-2, 3), repeat=d.rank)
        central = [v for v in box if not any(dot(a, v) for a in d.simple_roots)]
        assert len(central) > 1 or d.rank == d.n_simple
        for v in central:
            assert levi_of(d, v) is d, (p.name, v)
            assert levi_of(d, tuple(Fraction(c, 3) for c in v)) is d


def test_w0_tables_match_matrix_search():
    # Every preset, and every Levi of the sweep: most are not standard,
    # so their simple roots are not ambient simple roots.
    for p in catalog():
        for datum in [p.datum] + _straight_levis(p):
            w = datum.weyl
            want = finite_group_by_matrices(datum)
            mul = want.pop("mul")
            got = {name: getattr(w, name) for name in want}
            assert got == want, (p.name, datum.name)
            n = w.w0_order()
            products = [[w.finite_index(w.w0_words[u], v) for v in range(n)] for u in range(n)]
            assert products == mul, (p.name, datum.name)


@pytest.mark.parametrize("scales", [VerifyScales.quick(), VerifyScales()], ids=["quick", "full"])
def test_levi_order_pairs_match_ambient_bruhat(scales):
    # Covers compared by ambient length give the counts and violations
    # of the ambient descent recursion, on every Levi of the sweep.
    for p in catalog():
        d = p.datum
        for sub in _straight_levis(p):
            got = verify._levi_order_pairs(d, sub, scales)
            assert got == levi_order_pairs_by_bruhat(d, sub, scales), (p.name, sub.name)


def test_levi_order_pairs_match_ambient_bruhat_on_a_broken_embedding(monkeypatch):
    # x -> x . s_0 still sends c = b t to the image of b times the
    # reflection s_0 t s_0, so length decides there too: both routes
    # report the same failing covers.
    def broken(d, x):
        return sub_element(d, x) * d.weyl.simple(0)

    monkeypatch.setattr(verify, "sub_element", broken)
    monkeypatch.setattr(helpers, "sub_element", broken)
    failing = 0
    for p in catalog():
        d = p.datum
        for sub in _straight_levis(p):
            got = verify._levi_order_pairs(d, sub, VerifyScales.quick())
            assert got == levi_order_pairs_by_bruhat(d, sub, VerifyScales.quick())
            failing += bool(got[1])
    assert failing


def test_interval_closure_matches_bruhat_recursion():
    # Closing covers (the subword property) and the descent recursion
    # are independent routes to the Bruhat order.
    for p in catalog():
        for levi in _straight_levis(p):
            w = levi.weyl
            ball = w.ball(2, [o.element for o in w.omega_elements()])
            ball_set = set(ball)
            for b in ball:
                assert closure([b], w.covers_below) & ball_set == {
                    a for a in ball if w.bruhat_leq(a, b)
                }, (p.name, levi.name, b)


def test_covers_below_matches_deletions_on_levi_balls():
    # The Levi coset balls of the order check, in its order and with its
    # dict, and standalone.
    scales = VerifyScales()
    for p in catalog():
        for levi in _straight_levis(p):
            w = levi.weyl
            ball = w.coset_ball(scales.levi_ball_length)[: scales.levi_pair_cap]
            known = {}
            for b in ball:
                expected = deletion_covers(w, b)
                covers = known[b] = w.covers_below(b, known)
                assert set(covers) == set(w.covers_below(b)) == expected
                assert len(covers) == len(expected)


def test_levi_sets_stay_out_of_the_memo(memo_runs):
    # The check reads each Levi admissible set once: only the grid sets
    # are memoized, and no proper Levi sub-datum's group holds an entry.
    clear_memos()
    check_levi_embedding_facts(VerifyScales.quick())
    assert memo_runs["_adm"] == sum(len(p.mu_grid) for p in catalog())
    for p in catalog():
        for levi in _straight_levis(p):
            if levi is not p.datum:
                assert levi.weyl.memo_entries == {}, (p.name, levi.name)


@pytest.fixture(scope="module")
def quick_levi_report():
    return check_levi_embedding_facts(VerifyScales.quick())


def test_levi_order_pairs_quick_total(quick_levi_report):
    runs = quick_levi_report["runs"]
    assert sum(r["order_pairs_checked"] for r in runs) == 33_720
    assert quick_levi_report["pass"]


def _order_sweep_by_all_pairs(p, embed) -> list:
    """(mu label, related pairs, failing cover pairs as JSON, any failing pair)
    per grid cocharacter of the quick Levi order sweep, done by all
    pairs: every primitive direction on its own, the Levi order by the
    descent recursion, each related pair compared through `embed`.  A
    failing pair is a cover when the lengths differ by one."""
    scales = VerifyScales.quick()
    d = p.datum
    sigma = FrobeniusDatum(d)
    out = []
    for label, mu in p.mu_grid:
        checked = 0
        covers = []
        any_bad = False
        seen = set()
        for x in sigma.straight_elements_in(adm(d, mu).elements):
            nu = sigma.newton_direction(x)
            g = gcd(*nu) or 1
            direction = tuple(c // g for c in nu)
            if direction in seen:
                continue
            seen.add(direction)
            sw = levi_of(d, nu).weyl
            ball = sw.coset_ball(scales.levi_ball_length)[: scales.levi_pair_cap]
            for a in ball:
                for b in ball:
                    if not sw.bruhat_leq(a, b):
                        continue
                    checked += 1
                    if not d.weyl.bruhat_leq(embed(d, a), embed(d, b)):
                        any_bad = True
                        if sw.length(b) == sw.length(a) + 1:
                            pair = {"x": sw.to_json(a), "y": sw.to_json(b)}
                            covers.append(json.dumps(pair, sort_keys=True))
        out.append((f"{label}:{list(mu)}", checked, covers, any_bad))
    return out


def _assert_order_runs_match_all_pairs(report, embed) -> int:
    """Compare the order fields of the A2_sc and C2_sc runs with the
    all-pairs sweep; return how many runs fail the order embedding."""
    failing = 0
    for name in ("A2_sc", "C2_sc"):
        got = [r for r in report["runs"] if r["preset"] == name]
        want = _order_sweep_by_all_pairs(preset(name), embed)
        assert len(got) == len(want)
        for run, (mu, checked, covers, any_bad) in zip(got, want):
            assert run["mu"] == mu
            assert run["order_pairs_checked"] == checked
            assert bool(run["order_violations"]) == any_bad
            # Reported pairs are exactly the failing covers.
            reported = [json.dumps(pair, sort_keys=True) for pair in run["order_violations"]]
            assert sorted(reported) == sorted(covers)
            failing += any_bad
    return failing


def test_levi_order_sweep_matches_all_pairs(quick_levi_report):
    assert _assert_order_runs_match_all_pairs(quick_levi_report, sub_element) == 0


def test_levi_order_check_fails_with_all_pairs_on_a_broken_embedding(monkeypatch):
    # x -> x . s_0 on the embedded element does not keep the order; the
    # cover check and the all-pairs sweep fail on the same runs.
    def broken(d, x):
        return sub_element(d, x) * d.weyl.simple(0)

    monkeypatch.setattr(verify, "sub_element", broken)
    report = check_levi_embedding_facts(VerifyScales.quick())
    assert not report["pass"]
    assert _assert_order_runs_match_all_pairs(report, broken) > 0


def test_sigma_supports_of_adm_cover_the_finite_orbits_when_basic_theorem_applies():
    """The combinatorial step of the basic case, as read from Goertz-He
    (Cambridge J. Math. 2015, section 2) and He (Annals 2014, section 4);
    a reading, not the source paper's quoted statement.

    Let tau be the length-zero element of Adm(mu) and tau.sigma its
    permutation of the affine simple nodes.
    (a) s_i tau lies in Adm(mu) exactly for the nodes i, the affine node
        included, of the Dynkin components where mu is noncentral.
    (b) For x = w tau in Adm(mu), supp_sigma(x) is the tau.sigma-closure
        of supp(w).  The union of the supp_sigma(x) with W_{supp_sigma(x)}
        finite contains every finite tau.sigma-orbit exactly when mu is
        essentially noncentral.  Each such x gives classical
        Deligne-Lusztig pieces, one per parahoric P_{supp_sigma(x)} of
        J_tau, and (b) says that these meet every finite orbit.
    Cases: the catalog grid, mu = 0 for each (preset, sigma), and the
    central GL2 mu = (1, 1).
    """
    cases = [
        (p, name, mu)
        for p in catalog()
        for name in sorted(p.sigmas)
        for mu in [m for _label, m in p.mu_grid] + [(0,) * p.datum.rank]
    ]
    cases.append((preset("GL2"), "split", (1, 1)))
    answers = []
    for p, name, mu in cases:
        d = p.datum
        w = d.weyl
        sigma = FrobeniusDatum(d, p.sigmas[name])
        aset = adm(d, mu)
        tau = aset.tau.element
        k = len(d.components)
        noncentral = {helpers.component_of_root(d, a) for a in d.positive_roots if dot(a, mu)}
        node_component = list(range(k)) + [helpers.component_of_root(d, a) for a in d.simple_roots]
        nodes = range(len(node_component))
        s_tau = {i for i in nodes if w.simple(i) * tau in aset}
        assert s_tau == {i for i in nodes if node_component[i] in noncentral}, (p.name, name, mu)
        perm = w.permute_walls(tau, matrix_inv=sigma.matrix_inv)
        covered = set()
        for x in aset.elements:
            word, omega = w.reduced_word(x)
            assert omega == tau
            supp = closure(word, lambda i: (perm[i],))
            if w.parabolic_is_finite(sorted(supp)):
                covered |= supp
        orbits = {frozenset(closure([i], lambda j: (perm[j],))) for i in nodes}
        finite = [o for o in orbits if w.parabolic_is_finite(sorted(o))]
        supported = all(o <= covered for o in finite)
        assert supported == essentially_noncentral(d, sigma, mu), (p.name, name, mu)
        answers.append(supported)
    assert len(cases) == 37 and set(answers) == {True, False}

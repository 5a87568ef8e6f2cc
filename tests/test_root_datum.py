import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlv.errors import NonIntegralCartan, NonReducedSystem, NotDominantInput, UnknownPreset
from adlv.frobenius import FrobeniusDatum
from adlv.linalg import dot, mat_vec
from adlv.newton_bg import b_g_mu
from adlv.presets import catalog, preset
from adlv.root_datum import RootDatum, build_root_datum, from_cartan_matrix

from helpers import (
    alcove_vertices,
    dominance_grid_oracle,
    dominance_leq_by_fractions,
    dominant_rep_oracle,
)


def orbit_closure_count(d) -> int:
    """Independent positive-root count: orbit of the simples under the
    full reflection set, intersected with the nonnegative cone."""
    roots = set(d.simple_roots)
    changed = True
    while changed:
        changed = False
        for a in list(roots):
            av = d.coroot(a)
            for b in list(roots):
                img = tuple(
                    b[i] - dot(b, av) * a[i] for i in range(d.rank)
                )
                for c in (img, tuple(-x for x in img)):
                    if c not in roots and c in d.root_set:
                        roots.add(c)
                        changed = True
    return len(roots & set(d.positive_roots))


def test_preset_examples():
    a1 = preset("A1_sc").datum
    assert a1.rank == 1
    assert len(a1.positive_roots) == 1
    assert a1.two_rho == (2,)
    assert len(preset("C2_sc").datum.positive_roots) == 4
    for m in (1, 2, 3):
        gu = preset(f"GU_odd({m})").datum
        assert gu.weyl.w0_order() == 2**m * __import__("math").factorial(m)
        # affine Weyl part is Z^m: the coroots span exactly the first m
        # coordinates of the lattice
        from adlv.fgab import lattice_basis

        basis = lattice_basis(gu.simple_coroots, gu.rank)
        spanned = {tuple(b) for b in basis}
        units = {tuple(1 if i == j else 0 for i in range(gu.rank)) for j in range(m)}
        from adlv.fgab import solve_int

        cols = tuple(zip(*basis))
        assert all(solve_int(cols, u) is not None for u in units)
        assert len(basis) == m


def test_cartan_invariants_all_presets():
    for p in catalog():
        d = p.datum
        a = d.cartan
        for i in range(d.n_simple):
            assert a[i][i] == 2
            for j in range(d.n_simple):
                if i != j:
                    assert a[i][j] <= 0
                    assert (a[i][j] == 0) == (a[j][i] == 0)
        # every coroot pairs integrally with every root (ints by type,
        # so check consistency of the table instead)
        for root, coroot in d.coroot_table.items():
            assert dot(root, coroot) == 2
        # reduced
        for root in d.root_set:
            assert tuple(2 * x for x in root) not in d.root_set


def test_reflection_closure_idempotent_and_counted():
    for p in catalog():
        d = p.datum
        rebuilt = RootDatum(d.rank, d.simple_roots, d.simple_coroots)
        assert rebuilt.positive_roots == d.positive_roots
        assert orbit_closure_count(d) == len(d.positive_roots)


def test_two_rho_pairing_identity():
    rng = random.Random(7)
    for p in catalog():
        d = p.datum
        for _ in range(20):
            lam = tuple(rng.randint(-4, 4) for _ in range(d.rank))
            assert dot(d.two_rho, lam) == sum(dot(a, lam) for a in d.positive_roots)


def test_dominant_rep_examples():
    d = preset("A1_sc").datum
    dom, wit = d.dominant_rep((-1,))
    assert dom == (Fraction(1),)
    assert tuple(mat_vec(wit, (-1,))) == dom
    dom2, wit2 = d.dominant_rep((5,))
    assert dom2 == (Fraction(5),)
    assert wit2 == ((1,),)

    c2 = preset("C2_sc").datum
    nu = (Fraction(3), Fraction(1))
    image = tuple(mat_vec(c2.simple_reflections[0], mat_vec(c2.simple_reflections[1], nu)))
    back, wit3 = c2.dominant_rep(image)
    assert back == nu
    assert tuple(mat_vec(wit3, image)) == nu


def test_dominant_rep_orbit_invariance():
    rng = random.Random(11)
    for p in catalog():
        d = p.datum
        for _ in range(200 // len(catalog()) + 5):
            v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d.rank))
            dom, _ = d.dominant_rep(v)
            moved = v
            for _ in range(rng.randint(0, 4)):
                moved = tuple(mat_vec(rng.choice(d.simple_reflections), moved))
            dom2, _ = d.dominant_rep(moved)
            assert dom == dom2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_dominant_rep_matches_fraction_loop(data):
    d = data.draw(st.sampled_from([p.datum for p in catalog()]))
    if data.draw(st.booleans()):
        entry = st.integers(-20, 20)
    else:
        entry = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
    v = tuple(data.draw(entry) for _ in range(d.rank))
    dom, wit = d.dominant_rep(v)
    dom_o, wit_o = dominant_rep_oracle(d, v)
    assert dom == dom_o and wit == wit_o
    assert [type(c) for c in dom] == [type(c) for c in dom_o] == [Fraction] * d.rank
    assert [type(c) for row in wit for c in row] == [type(c) for row in wit_o for c in row]


def test_base_alcove_against_fraction_geometry():
    for p in catalog():
        d = p.datum
        alcove = d.base_alcove
        # The chamber probe lies strictly inside a0.
        probe = tuple(Fraction(c, alcove.interior_den) for c in alcove.interior)
        assert all(dot(a, probe) > 0 for a in d.simple_roots)
        assert all(dot(theta, probe) < 1 for theta in d.highest_roots)
        # The vertices, 0 on every component but one, are those of a0.
        vertices = [tuple(Fraction(c, alcove.vertex_den) for c in v) for v in alcove.vertices]
        assert len(vertices) == 1 + d.n_simple
        assert set(vertices) <= set(alcove_vertices(d))
        # Fundamental weights, each scaled by a positive integer.
        for i, weight in enumerate(alcove.weights):
            pairs = [dot(weight, av) for av in d.simple_coroots]
            assert pairs[i] > 0 and all(x == 0 for j, x in enumerate(pairs) if j != i)


def test_dominance_examples_and_oracle():
    a1 = preset("A1_sc").datum
    assert a1.dominance_leq((0,), (1,))
    assert a1.dominance_leq((1,), (1,))
    assert not a1.dominance_leq((1,), (0,))
    with pytest.raises(NotDominantInput):
        a1.dominance_leq((-1,), (0,))

    c2 = preset("C2_sc").datum
    rng = random.Random(3)
    pairs = 0
    while pairs < 25:
        lam = tuple(rng.randint(0, 3) for _ in range(2))
        lam2 = tuple(rng.randint(0, 3) for _ in range(2))
        if not (c2.is_dominant(lam) and c2.is_dominant(lam2)):
            continue
        pairs += 1
        assert c2.dominance_leq(lam, lam2) == dominance_grid_oracle(c2, lam, lam2)


def test_dominance_with_central_directions_against_oracle():
    # GL2 and GU_odd(2) have a central direction, so a difference of
    # dominant vectors may have a central part; it is never <= 0.  Every
    # pair of dominant half-integral vectors in a box; coroot coefficients
    # of the differences are halves in [0, 3], inside the oracle's grid.
    halves = [Fraction(k, 2) for k in range(-3, 4)]
    boxes = {
        "GL2": product(halves, halves),
        "GU_odd(2)": product(halves[3:], halves[3:], halves[2:5]),
    }
    for name, box in boxes.items():
        d = preset(name).datum
        doms = [v for v in box if d.is_dominant(v)]
        for lam in doms:
            for lam2 in doms:
                assert d.dominance_leq(lam, lam2) == dominance_grid_oracle(
                    d, lam, lam2, max_num=4, max_den=2
                )
    gl2, gu = preset("GL2").datum, preset("GU_odd(2)").datum
    assert gl2.dominance_leq((0, 0), (1, -1))
    assert not gl2.dominance_leq((0, 0), (1, 0))
    assert gu.dominance_leq((0, 0, 0), (1, 0, 0))
    assert not gu.dominance_leq((0, 0, 0), (1, 0, Fraction(1, 2)))


def test_dominance_matches_the_fraction_route_on_newton_points():
    # dominance_leq scales both arguments over one common denominator;
    # the oracle takes the difference in Fractions.  Every ordered pair of
    # Newton points of the catalog's B(G, mu) classes.
    pairs = 0
    for p in catalog():
        d = p.datum
        for sig_name in sorted(p.sigmas):
            sig = FrobeniusDatum(d, p.sigmas[sig_name])
            for _label, mu in p.mu_grid:
                nus = [e.tag.nu_bar for e in b_g_mu(d, sig, mu)]
                for nu in nus:
                    for nu2 in nus:
                        assert d.dominance_leq(nu, nu2) == dominance_leq_by_fractions(
                            d, nu, nu2
                        ), (p.name, sig_name, mu, nu, nu2)
                        pairs += 1
    assert pairs == 313
    # Either position non-dominant; equal coroot parts with equal and
    # with different central parts (GL2).
    gl2, half = preset("GL2").datum, Fraction(1, 2)
    for lam, lam2 in (((-half, half), (1, 0)), ((1, 0), (-half, half))):
        for route in (gl2.dominance_leq, partial(dominance_leq_by_fractions, gl2)):
            with pytest.raises(NotDominantInput):
                route(lam, lam2)
    for lam, lam2, want in (((half, half), (1, 0), True), ((half, half), (1, half), False)):
        assert gl2.dominance_leq(lam, lam2) == dominance_leq_by_fractions(gl2, lam, lam2) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_dominance_matches_the_fraction_route_on_mixed_denominators(data):
    # lam is the dominant representative of a vector whose entries have
    # their own denominators, and lam2 is lam plus a nonnegative rational
    # combination of coroots, or another such representative; integral
    # entries are sometimes ints.  A lam2 that is not dominant raises on
    # both routes.
    d = data.draw(st.sampled_from([p.datum for p in catalog()]))
    entry = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))

    def mixed(v):
        return tuple(int(c) if c.denominator == 1 and data.draw(st.booleans()) else c for c in v)

    lam = d.dominant_rep([data.draw(entry) for _ in range(d.rank)])[0]
    if data.draw(st.booleans()):
        lam2 = list(lam)
        for av in d.simple_coroots:
            c = data.draw(entry.map(abs))
            lam2 = [x + c * y for x, y in zip(lam2, av)]
    else:
        lam2 = d.dominant_rep([data.draw(entry) for _ in range(d.rank)])[0]
    lam, lam2 = mixed(lam), mixed(lam2)
    if d.is_dominant(lam2):
        assert d.dominance_leq(lam, lam2) == dominance_leq_by_fractions(d, lam, lam2)
    else:
        for route in (d.dominance_leq, partial(dominance_leq_by_fractions, d)):
            with pytest.raises(NotDominantInput):
                route(lam, lam2)
            with pytest.raises(NotDominantInput):
                route(lam2, lam)


def test_dominance_partial_order():
    c2 = preset("C2_sc").datum
    rng = random.Random(5)
    doms = []
    while len(doms) < 8:
        v = tuple(rng.randint(0, 4) for _ in range(2))
        if c2.is_dominant(v):
            doms.append(v)
    for a in doms:
        assert c2.dominance_leq(a, a)
        for b in doms:
            if c2.dominance_leq(a, b) and c2.dominance_leq(b, a):
                assert a == b
            for c in doms:
                if c2.dominance_leq(a, b) and c2.dominance_leq(b, c):
                    assert c2.dominance_leq(a, c)


def test_pi1_examples():
    assert preset("A1_sc").datum.pi1.invariant_factors == ()
    assert preset("A1_ad").datum.pi1.invariant_factors == (2,)
    assert preset("GL2").datum.pi1.invariant_factors == (0,)
    g = preset("A1_ad").datum.pi1
    assert g.project((1,)) != g.project((0,))
    assert g.project((2,)) == g.project((0,))


def test_quasi_minuscule():
    assert preset("A1_sc").datum.quasi_minuscule() == (1,)
    assert preset("C2_sc").datum.quasi_minuscule() == (1, 0)
    assert preset("A2_sc").datum.quasi_minuscule() == (1, 1)
    assert preset("D4_sc").datum.quasi_minuscule() == (1, 2, 1, 1)
    g2 = preset("G2_sc").datum
    qm = g2.quasi_minuscule()
    assert g2.is_dominant(qm)
    assert dot(g2.two_rho, qm) > 0


def test_build_errors():
    with pytest.raises(UnknownPreset):
        preset("E8_oops")
    with pytest.raises(NonIntegralCartan):
        RootDatum(1, ((1,),), ((1,),))  # <a, a^vee> = 1
    with pytest.raises(NonIntegralCartan):
        from_cartan_matrix(((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(NonIntegralCartan):
        RootDatum(2, ((2, 0), (4, 0)), ((1, 0), (2, 0)))  # dependent simples
    with pytest.raises(NonIntegralCartan):
        from_cartan_matrix(((2, -2), (-2, 2)))  # affine type: closure infinite
    with pytest.raises(NonIntegralCartan):
        build_root_datum({"rank": 1})
    # a doubled root is caught by the Cartan gates before closure ever
    # sees it; NonReducedSystem remains as an internal defense
    with pytest.raises((NonIntegralCartan, NonReducedSystem)):
        RootDatum(2, ((1, 0), (2, 0)), ((2, 0), (1, 0)))


def test_explicit_json_datum():
    d = build_root_datum(
        {"rank": 2, "simple_roots": [[1, -1]], "simple_coroots": [[1, -1]]}
    )
    assert d.pi1.invariant_factors == (0,)
    assert len(d.positive_roots) == 1

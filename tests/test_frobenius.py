import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from adlv.affine_weyl import DEFAULT_BUDGET
from adlv.errors import BudgetExceeded, SchemaError
from adlv.frobenius import FrobeniusDatum, prime_of_residue_cardinality, sigma_of
from adlv.linalg import mat_inv_unimodular, mat_mul, mat_vec
from adlv.presets import catalog, preset
from adlv.root_datum import RootDatum
from adlv.verify import VerifyScales, check_min_length_reduction, run_verify

from helpers import (
    clear_memos,
    conjugation_orbit,
    plateau_by_products,
    sigma_to_json,
    tag_by_fractions,
    twisted_power,
    wall_permutation_by_roots,
)


def split(name):
    p = preset(name)
    return p.datum, FrobeniusDatum(p.datum)


def test_sigma_validation():
    d = preset("A2_sc").datum
    with pytest.raises(SchemaError):
        FrobeniusDatum(d, ((1, 1), (0, 1)))  # not a root permutation
    with pytest.raises(SchemaError):
        prime_of_residue_cardinality(1)
    flip = FrobeniusDatum(d, preset("A2_sc").sigmas["flip"])
    assert not flip.residually_split
    assert flip.order == 2


def sweep_matrices(n):
    """Every {-1, 0, 1} matrix of size n <= 3; for n = 4, every signed
    permutation matrix and 3,000 seeded random {-1, 0, 1} matrices."""
    if n <= 3:
        entries = product((-1, 0, 1), repeat=n * n)
    else:
        rng = random.Random(4)
        signed = (
            [sgn[r] * (c == perm[r]) for r in range(n) for c in range(n)]
            for perm in permutations(range(n))
            for sgn in product((-1, 1), repeat=n)
        )
        randoms = ([rng.choice((-1, 0, 1)) for _ in range(n * n)] for _ in range(3000))
        entries = list(signed) + list(randoms)
    return {tuple(tuple(e[r * n:(r + 1) * n]) for r in range(n)) for e in entries}


def test_wall_check_matches_root_and_coroot_oracle():
    # sigma is checked on the walls alone; the oracle checks every root
    # and coroot, then the walls.  Both must accept the same matrices
    # and find the same wall permutation.
    accepted = swept = 0
    for p in catalog():
        d = p.datum
        for m in sorted(sweep_matrices(d.rank)):
            try:
                got = FrobeniusDatum(d, m).s_permutation
            except SchemaError:
                got = None
            assert got == wall_permutation_by_roots(d, m), (p.name, m)
            accepted += got is not None
            swept += 1
    assert (swept, accepted) == (26943, 22)


def test_apply_matches_matrix_conjugation():
    # sigma(t^lam u) = t^{M lam} M u M^-1, against sigma(u) read off
    # relabelled reduced words.
    for p in catalog():
        d = p.datum
        w = d.weyl
        lam = tuple(range(1, d.rank + 1))
        for sig_name, m in sorted(p.sigmas.items()):
            sig = FrobeniusDatum(d, m)
            inv = mat_inv_unimodular(sig.matrix)
            for u in w.w0_list:
                image = w.from_matrix(mat_vec(sig.matrix, lam), mat_mul(mat_mul(sig.matrix, u), inv))
                assert sig.apply(w.from_matrix(lam, u)) == image, (p.name, sig_name, u)


def test_sigma_on_simples_flip():
    p = preset("A2_sc")
    sig = FrobeniusDatum(p.datum, p.sigmas["flip"])
    # finite nodes are S-indices 1 and 2; the flip swaps them and fixes
    # the affine node 0
    assert sig.s_permutation == (0, 2, 1)
    w = p.datum.weyl
    assert sig.apply(w.simple(1)) == w.simple(2)


def test_sigma_length_preserving_and_involutive_step():
    p = preset("A2_sc")
    w = p.datum.weyl
    sig = FrobeniusDatum(p.datum, p.sigmas["flip"])
    ball = w.ball(5)
    for x in ball:
        assert w.length(sig.apply(x)) == w.length(x)
    # sigma_conj twice by a sigma-fixed s returns to start
    s0 = w.simple(0)
    for x in ball[:40]:
        assert sig.conj_step(0, sig.conj_step(0, x)) == x


def test_residue_cardinality_by_exact_roots():
    # Large primes are accepted without trial division.
    for q in (10**18 + 3, 2**61 - 1):
        t0 = time.perf_counter()
        assert prime_of_residue_cardinality(q) == q
        assert time.perf_counter() - t0 < 0.01
    assert prime_of_residue_cardinality((2**31 - 1) ** 2) == 2**31 - 1
    assert prime_of_residue_cardinality(2**10) == 2
    assert prime_of_residue_cardinality(3**40) == 3
    for q, message in (
        (1, "must be at least 2"),
        (6, "6 is not a prime power"),
        ((2**31 - 1) * (2**31 + 11), "is not a prime power"),
        (2**64, r"must be below 2\^64"),
    ):
        with pytest.raises(SchemaError, match=message):
            prime_of_residue_cardinality(q)


def test_residue_cardinality_matches_trial_division():
    def by_trial_division(q):
        p = next(p for p in range(2, q + 1) if q % p == 0)
        while q % p == 0:
            q //= p
        return p if q == 1 else None

    for q in range(2, 3000):
        try:
            got = prime_of_residue_cardinality(q)
        except SchemaError:
            got = None
        assert got == by_trial_division(q), q


def test_conj_step_matches_products():
    for p in catalog():
        w = p.datum.weyl
        xs = w.ball(3, [o.element for o in w.omega_elements()])
        for sig_name in sorted(p.sigmas):
            sig = FrobeniusDatum(p.datum, p.sigmas[sig_name])
            for x in xs:
                for s in w.simple_affine:
                    assert sig.conj_step(s.index, x) == (
                        s.element * x * sig.apply(s.element)
                    ), (p.name, sig_name, x, s.index)


def test_plateau_matches_product_reference():
    # Members and canonical descent against plateaus closed with the
    # products s x sigma(s) and full lengths.
    for name, sig_name in (("A2_sc", "flip"), ("D4_sc", "triality")):
        p = preset(name)
        w = p.datum.weyl
        sig = FrobeniusDatum(p.datum, p.sigmas[sig_name])
        for x in w.ball(3, [o.element for o in w.omega_elements()]):
            info = sig.plateau(x)
            assert (set(info.members), info.descent) == plateau_by_products(sig, x)


def test_triality_has_order_three():
    p = preset("D4_sc")
    sig = FrobeniusDatum(p.datum, p.sigmas["triality"])
    assert sig.order == 3
    perm = sig.s_permutation
    seen = set()
    cur = 1
    # S-index order: 0 = affine node, 1..4 = finite nodes
    for _ in range(3):
        seen.add(cur)
        cur = perm[cur]
    assert cur == 1 and len(seen) == 3


def test_newton_examples():
    d, sig = split("A1_sc")
    w = d.weyl
    t = w.translation((1,))
    assert sig.tag_of(t).nu_bar == (Fraction(1),) and sig._newton_data(t.u_idx)[1] == 1
    assert sig.tag_of(w.translation((-1,))).nu_bar == (Fraction(1),)
    assert sig.tag_of(w.simple(1)).nu_bar == (Fraction(0),)
    assert sig.tag_of(w.simple(0)).nu_bar == (Fraction(0),)
    assert sig.newton_direction(w.simple(0)) == (0,)


def test_newton_sigma_trivial_translation():
    d, sig = split("C2_sc")
    w = d.weyl
    dom, _ = d.dominant_rep((0, -2))
    assert sig.tag_of(w.translation((0, -2))).nu_bar == dom


def test_kottwitz_examples():
    d, sig = split("A1_sc")
    tag = sig.tag_of(d.weyl.translation((1,)))
    assert (tag.kappa0, tag.kappa_sigma) == ((), ())
    d2, sig2 = split("A1_ad")
    tau = d2.weyl.from_json({"lambda": [1], "w0_word": [0]})
    tag = sig2.tag_of(tau)
    assert (tag.kappa0, tag.kappa_sigma) == ((1,), (1,))


def test_straight_examples():
    d, sig = split("A1_sc")
    w = d.weyl
    assert sig.is_straight(w.identity())
    assert sig.is_straight(w.translation((1,)))
    assert not sig.is_straight(w.simple(0))
    for p in catalog():
        s = FrobeniusDatum(p.datum)
        for om in p.datum.weyl.omega_elements():
            assert s.is_straight(om.element)


def test_straight_iff_power_additive():
    for name in ("A1_ad", "A2_sc", "C2_sc"):
        p = preset(name)
        for sig_name in sorted(p.sigmas):
            sig = FrobeniusDatum(p.datum, p.sigmas[sig_name])
            w = p.datum.weyl
            for x in w.ball(4, [o.element for o in w.omega_elements()]):
                powers = []
                cur = w.identity()
                twist = x
                for _k in range(1, 7):
                    cur = cur * twist
                    twist = sig.apply(twist)
                    powers.append(w.length(cur))
                additive = all(
                    powers[k] == (k + 1) * w.length(x) for k in range(6)
                )
                assert additive == sig.is_straight(x)


def test_newton_invariant_under_twisted_conjugation():
    for name in ("A1_ad", "A2_sc"):
        p = preset(name)
        for sig_name in sorted(p.sigmas):
            sig = FrobeniusDatum(p.datum, p.sigmas[sig_name])
            w = p.datum.weyl
            for x in w.ball(6):
                nu = sig.tag_of(x).nu_bar
                for s in w.simple_affine:
                    y = sig.conj_step(s.index, x)
                    assert sig.tag_of(y).nu_bar == nu


def test_kappa_constant_on_classes_in_coinvariants():
    p = preset("A1_ad")
    sig = FrobeniusDatum(p.datum)
    w = p.datum.weyl
    rng = random.Random(12)
    ball = w.ball(4, [o.element for o in w.omega_elements()])
    for _ in range(60):
        x, g = rng.choice(ball), rng.choice(ball)
        tw = g * x * sig.apply(g.inverse())
        assert sig.tag_of(tw).kappa_sigma == sig.tag_of(x).kappa_sigma


def test_tag_matches_fraction_route():
    """tag_of, in integers, against the Newton vector made dominant in
    Fractions and the two Kottwitz projections, on every catalog sigma;
    and newton_direction, P lam, against the twisted power's translation.

    Every catalog sigma is split or acts on a trivial pi_1, so its two
    Kottwitz classes agree; the swap on A1_ad x A1_ad, where pi_1 =
    (Z/2)^2 and the coinvariants are Z/2, tells them apart."""
    ad2 = RootDatum(2, ((1, 0), (0, 1)), ((2, 0), (0, 2)), name="A1adxA1ad")
    cases = [(p.datum, name, p.sigmas[name]) for p in catalog() for name in sorted(p.sigmas)]
    cases.append((ad2, "swap", ((0, 1), (1, 0))))
    for d, sig_name, matrix in cases:
        w = d.weyl
        sig = FrobeniusDatum(d, matrix)
        for x in w.ball(4, [o.element for o in w.omega_elements()]):
            tag = sig.tag_of(x)
            got = (tag.nu_bar, tag.kappa0, tag.kappa_sigma)
            assert got == tag_by_fractions(sig, x), (d.name, sig_name, x)
            assert sig.newton_direction(x) == twisted_power(sig, x)[0].lam, (d.name, x)


def test_reduce_examples():
    d, sig = split("A1_sc")
    w = d.weyl
    # s0 s1 s0 = t^{2 alpha^vee} s_alpha reduces to length 1
    x = w.simple(0) * w.simple(1) * w.simple(0)
    m = sig.reduce_to_minimal(x, {})
    assert w.length(m) == 1
    assert m in conjugation_orbit(sig, x)
    # already-minimal elements come back unchanged
    t = w.translation((1,))
    assert sig.reduce_to_minimal(t, {}) == t


def test_reduce_against_orbit_oracle():
    for name in ("A1_sc", "A1_ad", "A2_sc", "GL2"):
        p = preset(name)
        for sig_name in sorted(p.sigmas):
            sig = FrobeniusDatum(p.datum, p.sigmas[sig_name])
            w = p.datum.weyl
            plateaus = {}
            for x in w.ball(5, [o.element for o in w.omega_elements()]):
                m = sig.reduce_to_minimal(x, plateaus)
                orbit = conjugation_orbit(sig, x)
                assert m in orbit
                assert w.length(m) == min(w.length(y) for y in orbit)


def test_straight_class_is_single_plateau():
    # all minimal length elements of a straight class form one plateau
    p = preset("C2_sc")
    sig = FrobeniusDatum(p.datum)
    w = p.datum.weyl
    straights = sig.straight_elements_in(w.ball(8))
    seen = set()
    for x in straights:
        if x in seen:
            continue
        members = sig.plateau(x, 100000).members
        seen.update(members)
        for y in members:
            assert sig.is_straight(y)
        # every other straight with the same tag at the same length and
        # kappa must be in this plateau
        tag = sig.tag_of(x)
        for y in straights:
            if y not in members and sig.tag_of(y) == tag:
                assert w.length(y) != w.length(x) or y in members


def test_plateau_descent_is_least_shorter_conjugate():
    # The canonical descent: the first (member, simple index) in key
    # order whose twisted conjugate is shorter, found by a second scan.
    for name in ("A2_sc", "C2_sc"):
        p = preset(name)
        w = p.datum.weyl
        for sig_name in sorted(p.sigmas):
            sig = FrobeniusDatum(p.datum, p.sigmas[sig_name])
            for x in w.ball(4, [o.element for o in w.omega_elements()]):
                info = sig.plateau(x)
                shorter = [
                    (y, s.index)
                    for y in sorted(info.members, key=lambda e: e.key())
                    for s in w.simple_affine
                    if w.length(sig.conj_step(s.index, y)) < w.length(x)
                ]
                assert info.descent == (shorter[0] if shorter else None), (name, x)


def test_plateau_budget():
    d, sig = split("C2_sc")
    w = d.weyl
    x = w.simple(0) * w.simple(1)
    with pytest.raises(BudgetExceeded):
        sig.plateau(x, budget=1)
    # A plateau kept by an earlier reduction obeys the budget too.
    plateaus = {}
    sig.reduce_to_minimal(x, plateaus)
    assert plateaus[x].members == sig.plateau(x).members
    assert len(sig.plateau(x).members) == 2
    with pytest.raises(BudgetExceeded):
        sig.reduce_to_minimal(x, plateaus, budget=1)


def test_tags_group_translations():
    d, sig = split("A1_sc")
    w = d.weyl
    tags = sig.straight_class_tags([w.translation((1,)), w.translation((-1,)), w.identity()])
    assert len(tags) == 2
    sizes = sorted(len(members) for _tag, members in tags)
    assert sizes == [1, 2]


def test_sigma_json_roundtrip():
    p = preset("A2_sc")
    sig = FrobeniusDatum(p.datum, p.sigmas["flip"])
    sig2, q = FrobeniusDatum.from_json(p.datum, sigma_to_json(sig, 5))
    assert sig2 is sigma_of(p.datum, p.sigmas["flip"]) and sig2 == sig and q == 5
    with pytest.raises(SchemaError, match="^/q: residue cardinality 6 is not a prime power$"):
        FrobeniusDatum.from_json(p.datum, sigma_to_json(sig, 6))
    with pytest.raises(SchemaError):
        FrobeniusDatum.from_json(p.datum, {"lattice_matrix": [[1, 0]]})
    with pytest.raises(SchemaError):
        FrobeniusDatum.from_json(p.datum, {"lattice_matrix": [[1, "x"], [0, 1]]})


def test_sigma_value_equality():
    p = preset("A2_sc")
    d = p.datum
    flip = FrobeniusDatum(d, p.sigmas["flip"])
    again = FrobeniusDatum(d, p.sigmas["flip"])
    assert flip == again and hash(flip) == hash(again)
    assert FrobeniusDatum(d) == FrobeniusDatum(d)
    # An equal datum built apart gives an equal sigma.
    fresh = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name=d.name)
    assert FrobeniusDatum(fresh, p.sigmas["flip"]) == flip
    assert flip != FrobeniusDatum(d)
    assert FrobeniusDatum(preset("A1_sc").datum) != FrobeniusDatum(preset("A1_ad").datum)


def test_sigma_of_keeps_one_sigma_per_matrix():
    p = preset("A2_sc")
    d = p.datum
    flip = sigma_of(d, p.sigmas["flip"])
    assert sigma_of(d, [list(row) for row in p.sigmas["flip"]]) is flip
    assert sigma_of(d) is sigma_of(d, p.sigmas["split"]) is not flip
    assert d._sigma_cache[p.sigmas["flip"]] is flip
    held = dict(d._sigma_cache)
    with pytest.raises(SchemaError):
        sigma_of(d, ((1, 1), (0, 1)))
    assert d._sigma_cache == held


def test_quick_verify_builds_one_sigma_per_preset_matrix(monkeypatch):
    # One sigma per (preset, matrix) serves every check, so each Newton
    # datum is computed once per (datum, matrix, u); a second sweep builds
    # nothing.
    clear_memos()
    for p in catalog():
        p.datum._sigma_cache.clear()
    built, computed = [], []
    init, newton_data = FrobeniusDatum.__init__, FrobeniusDatum._newton_data

    def counting_init(self, datum, matrix=None):
        built.append((datum.name, matrix))
        init(self, datum, matrix)

    def counting_newton_data(self, u_idx):
        if u_idx not in self._newton_cache:
            computed.append((self.datum.name, self.matrix, u_idx))
        return newton_data(self, u_idx)

    monkeypatch.setattr(FrobeniusDatum, "__init__", counting_init)
    monkeypatch.setattr(FrobeniusDatum, "_newton_data", counting_newton_data)
    report = run_verify(VerifyScales.quick())
    assert sorted(built) == sorted(
        (p.name, p.sigmas[name]) for p in catalog() for name in p.sigmas
    )
    assert len(built) == 14
    assert len(computed) == len(set(computed)) == 488
    assert run_verify(VerifyScales.quick()) == report
    assert (len(built), len(computed)) == (14, 488)


def test_min_length_reduction_builds_each_plateau_once(monkeypatch):
    # The check keeps one plateau dict per (preset, sigma), so a plateau
    # met by several walks is built once.
    kept, built = {}, []
    reduce, plateau = FrobeniusDatum.reduce_to_minimal, FrobeniusDatum.plateau

    def recording_reduce(self, x, plateaus, budget=DEFAULT_BUDGET):
        kept[id(plateaus)] = (self, plateaus)
        return reduce(self, x, plateaus, budget)

    def counting_plateau(self, x, budget=DEFAULT_BUDGET):
        info = plateau(self, x, budget)
        built.append((self, info.members))
        return info

    monkeypatch.setattr(FrobeniusDatum, "reduce_to_minimal", recording_reduce)
    monkeypatch.setattr(FrobeniusDatum, "plateau", counting_plateau)
    report = check_min_length_reduction(VerifyScales.quick())
    assert report["pass"]
    assert len(built) == len(set(built))
    held = {
        (sigma, info.members)
        for sigma, plateaus in kept.values()
        for info in plateaus.values()
    }
    assert set(built) == held
    assert len(kept) == len(report["runs"]) == 14

from dataclasses import replace
from fractions import Fraction

import pytest

import adlv.picard as picard_module
from adlv.errors import AdlvError, NotStraight, SchemaError, SingularOperator
from adlv.frobenius import FrobeniusDatum, prime_of_residue_cardinality
from adlv.linalg import identity_matrix, mat_mul
from adlv.picard import (
    DescentCertificate,
    PicardLattice,
    PicClass,
    class_certificates,
    descent_certificate,
    is_ample,
)
from adlv.presets import catalog, preset
from adlv.verify import VerifyScales, check_picard_suite

from helpers import (
    certificate_by_operator,
    reflection_action,
    s_permutation_by_conjugation,
)


def permutation_action(n, perm):
    """The Picard operator of a diagram permutation: eps_c -> eps_perm[c]."""
    return tuple(
        tuple(1 if perm[c] == r else 0 for c in range(n)) for r in range(n)
    )


def test_prime_of_residue_cardinality():
    assert prime_of_residue_cardinality(2) == 2
    assert prime_of_residue_cardinality(9) == 3
    assert prime_of_residue_cardinality(32) == 2
    with pytest.raises(AdlvError):
        prime_of_residue_cardinality(6)
    with pytest.raises(AdlvError):
        prime_of_residue_cardinality(1)


def test_pic_class_p_power_denominators():
    cls = PicClass(2, (Fraction(3, 4), Fraction(-1), Fraction(0)))
    assert cls.values == (Fraction(3, 4), Fraction(-1), Fraction(0))
    with pytest.raises(AdlvError, match="^coefficient 1/3 has a denominator prime to 2$"):
        PicClass(2, (Fraction(1, 3),))
    with pytest.raises(AdlvError, match="^coefficient 1/6 has a denominator prime to 3$"):
        PicClass.from_ratios(3, [(1, 3), (-1, -6)])
    assert PicClass.from_ratios(3, [(6, 9), (4, -2)]).values == (Fraction(2, 3), Fraction(-2))


def test_reflection_action_affine_a1():
    w = preset("A1_sc").datum.weyl
    pic = PicardLattice(w)
    s1 = reflection_action(pic, 1)
    # s1 eps1 = -eps1 + 2 eps0 per the Cartan matrix ((2,-2),(-2,2))
    assert [row[1] for row in s1] == [2, -1]
    assert [row[0] for row in s1] == [1, 0]
    assert mat_mul(s1, s1) == identity_matrix(2)


def test_involutions_and_coxeter_relations_all_presets():
    bond = {0: 2, 1: 3, 2: 4, 3: 6}
    for p in catalog():
        pic = PicardLattice(p.datum.weyl)
        n = pic.n
        for i in range(n):
            m = reflection_action(pic, i)
            assert mat_mul(m, m) == identity_matrix(n)
        for i in range(n):
            for j in range(i + 1, n):
                prod = pic.cartan[i][j] * pic.cartan[j][i]
                m_ij = bond.get(prod)
                if m_ij is None:
                    continue
                two = mat_mul(reflection_action(pic, i), reflection_action(pic, j))
                power = identity_matrix(n)
                for _ in range(m_ij):
                    power = mat_mul(power, two)
                assert power == identity_matrix(n)


def test_word_and_sigma_actions():
    # sigma acts as q times its diagram permutation, which is the
    # certificate operator at x = w = e.
    for p in catalog():
        e = p.datum.weyl.identity()
        n = len(e.group.simple_affine)
        for name in sorted(p.sigmas):
            sig = FrobeniusDatum(p.datum, p.sigmas[name])
            perm = permutation_action(n, sig.s_permutation)
            want = tuple(tuple(3 * v for v in row) for row in perm)
            assert descent_certificate(sig, 3, e).operator == want, (p.name, name)
    w = preset("A1_sc").datum.weyl
    pic = PicardLattice(w)
    # word of t^{alpha^vee} = s0 s1 equals the direct matrix product
    t_op = pic.element_action(w.translation((1,)))
    manual = mat_mul(reflection_action(pic, 0), reflection_action(pic, 1))
    assert t_op == manual
    # translation operators are unipotent: (M - 1)^2 = 0 in rank 2
    m_minus = tuple(
        tuple(t_op[r][c] - (1 if r == c else 0) for c in range(2))
        for r in range(2)
    )
    assert mat_mul(m_minus, m_minus) == ((0, 0), (0, 0))


def test_omega_action_has_factor_one():
    p = preset("A1_ad")
    w = p.datum.weyl
    pic = PicardLattice(w)
    om = w.omega_elements()[1]
    op = pic.element_action(om.element)
    assert sorted(x for row in op for x in row) == [0, 0, 1, 1]


def matrix_action(pic, x):
    """x's Picard operator as the product of the full reflection matrices
    along its reduced word, then omega's permutation by conjugation."""
    w = pic.group
    word, omega = w.reduced_word(x)
    manual = identity_matrix(pic.n)
    for i in word:
        manual = mat_mul(manual, reflection_action(pic, i))
    return mat_mul(manual, permutation_action(pic.n, s_permutation_by_conjugation(w, omega)))


def test_element_action_matches_matrix_products_all_presets():
    # The column updates must agree with the product of the full
    # reflection and permutation matrices along the reduced word.
    for p in catalog():
        w = p.datum.weyl
        pic = PicardLattice(w)
        omegas = [o.element for o in w.omega_elements()]
        for x in w.ball(3, omegas):
            assert pic.element_action(x) == matrix_action(pic, x)


def test_certificates_by_the_element_x_sigma_w_inverse():
    # The operator M = T_x A_w^{-1}, formed when read; independently, it
    # is q A(y) P_sigma for the one element y = x sigma(w^{-1}), since
    # P_sigma A(v) = A(sigma(v)) P_sigma.  Then (M - 1) L is the stated
    # difference, in Fractions.
    checked = 0
    for p in catalog():
        w = p.datum.weyl
        pic = PicardLattice(w)
        omegas = [o.element for o in w.omega_elements()]
        for name in sorted(p.sigmas):
            sigma = FrobeniusDatum(p.datum, p.sigmas[name])
            p_sigma = permutation_action(pic.n, sigma.s_permutation)
            for _tag, members in sigma.straight_class_tags(w.ball(4, omegas)):
                for wx, xx, cert in class_certificates(sigma, 2, members):
                    assert cert is not None, (p.name, name, wx, xx)
                    y = xx * sigma.apply(wx.inverse())
                    op = tuple(
                        tuple(2 * v for v in row)
                        for row in mat_mul(matrix_action(pic, y), p_sigma)
                    )
                    assert op == cert.operator, (p.name, name, wx, xx)
                    values = cert.pic_class.values
                    diff = tuple(
                        sum(m * v for m, v in zip(row, values)) - v_r
                        for row, v_r in zip(op, values)
                    )
                    assert diff == cert.difference, (p.name, name, wx, xx)
                    checked += 1
    assert checked == 733


def test_certificates_match_the_route_that_forms_the_operator():
    # Solving (T_x - A_w) z = 1 and setting L = A_w z solves (M - 1) L = 1
    # for M = T_x A_w^{-1}.  The route that forms M from the full
    # reflection matrices and solves in Fractions must give the same
    # None-ness, class, difference and operator, pair by pair.
    checked = 0
    for p in catalog():
        w = p.datum.weyl
        pic = PicardLattice(w)
        omegas = [o.element for o in w.omega_elements()]
        ball = w.ball(4, omegas)
        for name in sorted(p.sigmas):
            sigma = FrobeniusDatum(p.datum, p.sigmas[name])
            p_sigma = permutation_action(pic.n, sigma.s_permutation)
            classes = sigma.straight_class_tags(ball)
            for q in (2, 3, 5):
                for _tag, members in classes:
                    twisted = {
                        m: tuple(
                            tuple(q * v for v in row)
                            for row in mat_mul(matrix_action(pic, m), p_sigma)
                        )
                        for m in members
                    }
                    inverse = {m: matrix_action(pic, m.inverse()) for m in members}
                    for wx, xx, cert in class_certificates(sigma, q, members):
                        # q is prime here, so it is also the residue characteristic.
                        want = certificate_by_operator(twisted[xx], inverse[wx], q)
                        got = cert and (cert.operator, cert.pic_class, cert.difference)
                        assert got == want, (p.name, name, q, wx, xx)
                        checked += 1
    assert checked == 3 * 733


def test_class_certificates_build_one_action_per_member(monkeypatch):
    calls = []
    element_action = PicardLattice.element_action

    def counting(self, x):
        calls.append(x)
        return element_action(self, x)

    monkeypatch.setattr(PicardLattice, "element_action", counting)
    p = preset("D4_sc")
    w = p.datum.weyl
    sizes = []
    for name in sorted(p.sigmas):
        sigma = FrobeniusDatum(p.datum, p.sigmas[name])
        for _tag, members in sigma.straight_class_tags(w.ball(3)):
            calls.clear()
            pairs = list(class_certificates(sigma, 3, members))
            assert len(pairs) == len(members) ** 2
            assert calls == list(members), (name, members)
            sizes.append(len(members))
    assert max(sizes) > 1


def test_is_ample():
    assert is_ample(PicClass(2, (Fraction(1),) * 3))
    assert not is_ample(PicClass(2, (Fraction(1), Fraction(0))))
    assert is_ample(PicClass(2, (Fraction(1, 2), Fraction(2))))
    assert not is_ample(PicClass(2, (Fraction(1, 2), Fraction(-1, 4))))


def test_descent_certificate_split_examples():
    p = preset("A1_sc")
    d = p.datum
    w = d.weyl
    t = w.translation((1,))
    cert2 = descent_certificate(FrobeniusDatum(d), 2, t)
    assert isinstance(cert2, DescentCertificate)
    assert cert2.operator == ((2, 0), (0, 2))
    assert cert2.pic_class.values == (Fraction(1), Fraction(1))
    assert cert2.difference == (1, 1)
    assert all(type(v) is int for v in cert2.difference)
    cert3 = descent_certificate(FrobeniusDatum(d), 3, t)
    assert cert3.pic_class.values == (Fraction(1), Fraction(1))
    assert cert3.difference == (2, 2)


def test_descent_certificate_rotation_case():
    # basic tau with a diagram rotation: operator is q times a
    # permutation, eigenvalues q.zeta never 1
    p = preset("A1_ad")
    d = p.datum
    w = d.weyl
    sig = FrobeniusDatum(d)
    tau = w.from_json({"lambda": [1], "w0_word": [0]})
    cert = descent_certificate(sig, 2, tau)
    assert all(v > 0 for v in cert.difference)
    vals = sorted(x for row in cert.operator for x in row)
    assert vals == [0, 0, 2, 2]  # 2 . permutation


def test_descent_certificate_rejects_non_straight():
    w = preset("A1_sc").datum.weyl
    sig = FrobeniusDatum(w.datum)
    with pytest.raises(NotStraight):
        descent_certificate(sig, 2, w.simple(0))


def test_certificate_routines_check_q():
    # q is an argument of the Picard layer, checked at each public routine.
    w = preset("A1_sc").datum.weyl
    t = w.translation((1,))
    for q, message in ((6, "is not a prime power"), (1, "must be at least 2")):
        with pytest.raises(SchemaError, match=message):
            descent_certificate(FrobeniusDatum(w.datum), q, t)
        with pytest.raises(SchemaError, match=message):
            next(class_certificates(FrobeniusDatum(w.datum), q, [t]))


def test_descent_certificate_rejects_zero_determinant(monkeypatch):
    # A singular M - 1 is a counterexample candidate even where the
    # system (M - 1) L = target happens to be consistent.
    d = preset("A1_sc").datum
    t = d.weyl.translation((1,))
    monkeypatch.setattr(
        picard_module, "solve_bareiss", lambda a, rhs: ((0,) * len(rhs), 0)
    )
    with pytest.raises(SingularOperator):
        descent_certificate(FrobeniusDatum(d), 2, t)


def test_class_certificates_reject_a_non_straight_member():
    d = preset("A1_sc").datum
    w = d.weyl
    sigma = FrobeniusDatum(d)
    with pytest.raises(NotStraight):
        next(class_certificates(sigma, 2, [w.translation((1,)), w.simple(0)]))


def test_class_certificates_yield_none_at_zero_determinant(monkeypatch):
    d = preset("A1_sc").datum
    w = d.weyl
    members = [w.translation((1,)), w.translation((-1,))]
    monkeypatch.setattr(
        picard_module, "solve_bareiss", lambda a, rhs: ((0,) * len(rhs), 0)
    )
    got = list(class_certificates(FrobeniusDatum(d), 2, members))
    assert [c for _w, _x, c in got] == [None] * 4


def test_picard_suite_fails_on_every_singular_pair(monkeypatch):
    # With every operator singular, each certified pair is a listed
    # failure and a counterexample candidate, and the suite fails.
    monkeypatch.setattr(
        picard_module, "solve_bareiss", lambda a, rhs: ((0,) * len(rhs), 0)
    )
    report = check_picard_suite(VerifyScales.quick())
    runs = report["runs"]
    assert all(len(r["certificate_failures"]) == r["certificates"] for r in runs)
    assert report["counterexample_candidates"] == sum(r["certificates"] for r in runs) > 0
    assert report["pass"] is False


def test_class_certificates_mixed_tag_pairs():
    # w and x straight with the same tag but different elements
    p = preset("A1_sc")
    d = p.datum
    w = d.weyl
    sig = FrobeniusDatum(d)
    t_plus, t_minus = w.translation((1,)), w.translation((-1,))
    assert sig.tag_of(t_plus) == sig.tag_of(t_minus)
    pairs = {(wx, xx): c for wx, xx, c in class_certificates(sig, 5, [t_plus, t_minus])}
    cert = pairs[t_plus, t_minus]
    assert all(v > 0 for v in cert.difference)
    # Every denominator is a power of 5: it divides 5^30.
    assert all(5**30 % v.denominator == 0 for v in cert.pic_class.values)


def test_picard_suite_decomposes_once_per_sigma(monkeypatch):
    # Straight classes do not depend on q: the suite decomposes the ball
    # once per (preset, sigma) and certifies each class for every q.
    calls = []
    tags = FrobeniusDatum.straight_class_tags

    def counting_tags(self, elements):
        calls.append(self)
        return tags(self, elements)

    monkeypatch.setattr(FrobeniusDatum, "straight_class_tags", counting_tags)
    one = check_picard_suite(VerifyScales.quick())
    calls.clear()
    three = check_picard_suite(replace(VerifyScales.quick(), picard_qs=(2, 3, 5)))
    assert len(calls) == len(set(calls)) == 14
    assert three["pass"] and three["counterexample_candidates"] == 0
    assert [r["certificates"] for r in three["runs"]] == [
        3 * r["certificates"] for r in one["runs"]
    ]

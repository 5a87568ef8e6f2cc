import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import adlv
from adlv.admissible import adm, in_adm
from adlv.affine_weyl import AffineRoot, AffineWeylElement
from adlv.errors import BudgetExceeded, DatumMismatch, InfiniteParabolic
from adlv.linalg import dot, vec_mat
from adlv.presets import catalog, preset
from adlv.root_datum import RootDatum, build_root_datum, from_cartan_matrix

from helpers import ball_length_counts_oracle, length_oracle, subword_set

SMALL = ["A1_sc", "A1_ad", "A2_sc", "C2_sc", "G2_sc", "GL2", "A1xA1_sc", "GU_odd(2)"]


def random_elements(w, rng, count, max_len=6):
    ball = w.ball(max_len, [o.element for o in w.omega_elements()])
    return [rng.choice(ball) for _ in range(count)]


def test_multiply_invert_roundtrip():
    rng = random.Random(1)
    for name in ("A1_sc", "C2_sc", "GL2"):
        w = preset(name).datum.weyl
        for x in random_elements(w, rng, 170):
            assert (x * x.inverse()).is_identity()
            assert (x.inverse() * x).is_identity()


def test_translation_multiplication():
    w = preset("C2_sc").datum.weyl
    assert w.translation((1, 0)) * w.translation((0, 2)) == w.translation((1, 2))


def test_a1_s0_s1_product():
    w = preset("A1_sc").datum.weyl
    assert w.simple(0) * w.simple(1) == w.translation((1,))


def test_datum_mismatch():
    x = preset("A1_sc").datum.weyl.identity()
    y = preset("A1_ad").datum.weyl.identity()
    with pytest.raises(DatumMismatch):
        _ = x * y


def test_length_examples():
    w = preset("A1_sc").datum.weyl
    assert w.length(w.identity()) == 0
    assert w.length(w.translation((1,))) == 2
    assert w.length(w.simple(0)) == 1  # t^{alpha^vee} s_alpha


def test_dominant_translation_length():
    for p in catalog():
        d = p.datum
        for _label, mu in p.mu_grid:
            dom, _ = d.dominant_rep(mu)
            dom = tuple(int(x) for x in dom)
            assert d.weyl.length(d.weyl.translation(dom)) == dot(d.two_rho, dom)


def test_length_against_hyperplane_oracle():
    rng = random.Random(2)
    for name in SMALL:
        w = preset(name).datum.weyl
        for x in random_elements(w, rng, 25):
            assert w.length(x) == length_oracle(w, x)


def test_length_subadditive_and_simple_step():
    for name in ("A1_ad", "C2_sc", "A1xA1_sc"):
        w = preset(name).datum.weyl
        ball = w.ball(6, [o.element for o in w.omega_elements()])
        for x in ball:
            for s in w.simple_affine:
                assert abs(w.length(s.element * x) - w.length(x)) == 1
        rng = random.Random(3)
        for _ in range(60):
            x, y = rng.choice(ball), rng.choice(ball)
            assert w.length(x * y) <= w.length(x) + w.length(y)


def test_reduced_word_examples_and_roundtrip():
    w = preset("A1_sc").datum.weyl
    assert w.reduced_word(w.identity()) == ((), w.identity())
    word, om = w.reduced_word(w.translation((1,)))
    assert word == (0, 1) and om.is_identity()

    wad = preset("A1_ad").datum.weyl
    tau = wad.from_finite_word((1,), (0,))
    word2, om2 = wad.reduced_word(tau)
    assert word2 == () and om2 == tau

    rng = random.Random(4)
    for name in SMALL:
        wn = preset(name).datum.weyl
        for x in random_elements(wn, rng, 20):
            word, om = wn.reduced_word(x)
            assert len(word) == wn.length(x)
            assert wn.assemble(word, om) == x


def test_bruhat_examples():
    w = preset("A1_sc").datum.weyl
    t = w.translation((1,))
    assert w.bruhat_leq(t, t)
    assert w.bruhat_leq(w.simple(0), t)
    assert w.bruhat_leq(w.simple(1), t)
    assert not w.bruhat_leq(t, w.simple(0))
    wad = preset("A1_ad").datum.weyl
    tau = wad.from_finite_word((1,), (0,))
    assert not wad.bruhat_leq(wad.identity(), tau)  # different Omega cosets


def test_bruhat_long_chain_without_recursion():
    # The descent chain from t^1000 down to e has length 2000, deeper than
    # the interpreter's recursion limit.
    d = from_cartan_matrix(((2,),), name="A1_fresh")
    w = d.weyl
    assert in_adm(d, (1000,), w.identity())
    # One memo entry per step of the chain against t^-1000, the first
    # maximal translation tried.
    assert len(w._bruhat_cache) == 2000
    assert w.bruhat_leq(w.translation((2,)), w.translation((1000,)))
    assert not w.bruhat_leq(w.translation((-1000,)), w.translation((1000,)))


def test_bruhat_against_subword_oracle():
    # full agreement on the length <= 6 ball of every preset; pairs are
    # deterministically subsampled once the ball gets large
    rng = random.Random(6)
    for p in catalog():
        w = p.datum.weyl
        ball = w.ball(6, [o.element for o in w.omega_elements()])
        xs = ball if len(ball) <= 150 else sorted(
            {rng.choice(ball) for _ in range(150)}, key=lambda e: e.key()
        )
        ys = ball if len(ball) <= 150 else sorted(
            {rng.choice(ball) for _ in range(150)}, key=lambda e: e.key()
        )
        for y in ys:
            below = subword_set(w, y)
            for x in xs:
                assert w.bruhat_leq(x, y) == (x in below)


def deletion_covers(w, x):
    """The strong exchange condition without the inversion ranges: the
    single-letter deletions of one reduced word that drop the length by
    one."""
    word, omega = w.reduced_word(x)
    deletions = set()
    for j in range(len(word)):
        cand = w.assemble(word[:j] + word[j + 1:], omega)
        if w.length(cand) == len(word) - 1:
            deletions.add(cand)
    return deletions


def test_covers_are_length_one_down():
    rng = random.Random(5)
    for p in catalog():
        w = p.datum.weyl
        d = w.datum
        ball = w.ball(5)
        xs = ball if len(ball) <= 150 else sorted(
            {rng.choice(ball) for _ in range(150)}, key=lambda e: e.key()
        )
        for x in xs:
            lx = w.length(x)
            assert set(w.covers_below(x)) == deletion_covers(w, x)
            # The levels k with x . s_(a,k) < x, one integer range per
            # positive root, hold l(x) levels in all.
            m_inv = w.w0_list[w.w0_inv[x.u_idx]]
            levels = 0
            for a in d.positive_roots:
                b = vec_mat(a, m_inv)
                pb = dot(b, x.lam)
                if b in d.positive_set:
                    ks = range(0, pb) if pb > 0 else range(pb, 0)
                else:
                    ks = range(0, pb + 1) if pb >= 0 else range(pb + 1, 0)
                for k in ks:
                    assert w.length(x * w.reflection(AffineRoot(a, k))) < lx
                levels += len(ks)
            assert levels == length_oracle(w, x)


def test_covers_below_work_is_linear(monkeypatch):
    # The covers of t^200 cost at most l(x) length evaluations and no
    # element products (a reduced word, its prefixes and suffixes cost
    # about 3 l(x) products).
    a1 = preset("A1_sc").datum
    w = RootDatum(a1.rank, a1.simple_roots, a1.simple_coroots, name="A1_sc").weyl
    x = w.translation((200,))
    lx = w.length(x)
    counts = {"length_of": 0, "mul": 0}
    length_of = w.length_of
    mul = AffineWeylElement.__mul__

    def counting_length_of(lam, u_idx):
        counts["length_of"] += 1
        return length_of(lam, u_idx)

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(w, "length_of", counting_length_of)
    monkeypatch.setattr(AffineWeylElement, "__mul__", counting_mul)
    covers = w.covers_below(x)
    assert counts["length_of"] <= lx == 400
    assert counts["mul"] == 0
    assert len(covers) == 2


def test_covers_of_long_translations_match_deletions():
    # Long level ranges, where all but the three evaluated levels are
    # decided by convexity; the covers of the covers too.
    for name, mu in (("A1_sc", (40,)), ("C2_sc", (6, 0)), ("G2_sc", (2, 1))):
        w = preset(name).datum.weyl
        x = w.translation(mu)
        for y in [x] + w.covers_below(x):
            covers = w.covers_below(y)
            assert len(covers) == len(set(covers))
            assert set(covers) == deletion_covers(w, y)


def test_covers_below_evaluates_three_levels_per_range(monkeypatch):
    # The candidate length is convex along a level range, so a range costs
    # at most three length evaluations however long it is.
    for name, mu in (("A1_sc", (200,)), ("C2_sc", (6, 0)), ("G2_sc", (2, 1))):
        d = preset(name).datum
        w = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name=d.name).weyl
        per_range = Counter()
        level_length = w._level_length

        def counting(pairings, slopes, offsets, k):
            per_range[tuple(slopes), offsets] += 1
            return level_length(pairings, slopes, offsets, k)

        monkeypatch.setattr(w, "_level_length", counting)
        x = w.translation(mu)
        for y in [x] + w.covers_below(x):
            per_range.clear()
            w.covers_below(y)
            assert 0 < len(per_range) <= len(d.positive_roots)
            assert max(per_range.values()) <= 3


def test_descents_match_length_oracle():
    # The affine-root sign tests against lengths counted by separating
    # hyperplanes, for every affine simple on both sides.
    rng = random.Random(11)
    for p in catalog():
        w = p.datum.weyl
        ball = w.ball(5)
        xs = ball if len(ball) <= 150 else sorted(
            {rng.choice(ball) for _ in range(150)}, key=lambda e: e.key()
        )
        for x in xs:
            lx = length_oracle(w, x)
            for s in w.simple_affine:
                left = length_oracle(w, s.element * x) < lx
                right = length_oracle(w, x * s.element) < lx
                assert w.is_left_descent(s.index, x.lam, x.u_idx) == left
                assert w.is_right_descent(s.index, x) == right
            assert w.left_descent(x) == next(
                (s.index for s in w.simple_affine
                 if length_oracle(w, s.element * x) < lx),
                None,
            )


def test_bruhat_length_work_is_constant(monkeypatch):
    # Descents come from affine-root signs, so the chain from t^200 down
    # to e computes l(x) and l(y) once and never again.
    a1 = preset("A1_sc").datum
    w = RootDatum(a1.rank, a1.simple_roots, a1.simple_coroots, name="A1_sc").weyl
    calls = []
    length_of = w.length_of

    def counting_length_of(lam, u_idx):
        calls.append(lam)
        return length_of(lam, u_idx)

    monkeypatch.setattr(w, "length_of", counting_length_of)
    assert w.bruhat_leq(w.identity(), w.translation((200,)))
    assert len(calls) <= 2
    assert len(w._bruhat_cache) == 400


def test_reduced_words_independent_of_cache_history():
    d = preset("C2_sc").datum
    adm(d, (4, 0))
    fresh = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name="C2_sc").weyl
    for x in adm(d, (2, 0)).elements:
        word, omega = d.weyl.reduced_word(x)
        word2, omega2 = fresh.reduced_word(AffineWeylElement(fresh, x.lam, x.u_idx))
        assert (word, omega.key()) == (word2, omega2.key())


def test_omega_elements():
    assert len(preset("A1_sc").datum.weyl.omega_elements()) == 1
    oms = preset("A1_ad").datum.weyl.omega_elements()
    assert len(oms) == 2
    nontrivial = oms[1]
    assert nontrivial.element.lam == (1,)
    assert nontrivial.s_permutation == (1, 0)

    gl = preset("GL2").datum.weyl
    gl_oms = gl.omega_elements()
    assert len(gl_oms) == 2  # torsion-trivial class + one free generator
    free = gl_oms[1]
    assert gl.length(free.element) == 0
    assert free.pi1_coords != (0,)
    assert sorted(free.s_permutation) == [0, 1]


def test_omega_normalizes_walls():
    for name in ("A1_ad", "GL2", "GU_odd(2)"):
        w = preset(name).datum.weyl
        for om in w.omega_elements():
            perm = om.s_permutation
            assert sorted(perm) == list(range(len(w.simple_affine)))
            for s in w.simple_affine:
                conj = om.element * s.element * om.element.inverse()
                assert conj == w.simple(perm[s.index])


def test_kappa_homomorphism():
    w = preset("A1_ad").datum.weyl
    rng = random.Random(8)
    for x in random_elements(w, rng, 15):
        for y in random_elements(w, rng, 3):
            pi1 = w.datum.pi1
            assert w.kappa(x * y) == pi1.coord_add(w.kappa(x), w.kappa(y))


def assert_ball_matches_bott_formula(w, max_length, omega):
    ball = w.coset_ball(max_length, omega)
    assert ball == sorted(ball, key=lambda x: (w.length(x),) + x.key())
    assert len(set(ball)) == len(ball)
    assert all(w.kappa(x) == w.kappa(omega) for x in ball)
    counts = [0] * (max_length + 1)
    for x in ball:
        counts[w.length(x)] += 1
    assert counts == ball_length_counts_oracle(w.datum, max_length)


def test_coset_ball_counts_match_bott_formula():
    for p in catalog():
        w = p.datum.weyl
        max_length = 8 if p.datum.rank >= 3 else 12
        for o in w.omega_elements():
            assert_ball_matches_bott_formula(w, max_length, o.element)
    torus = build_root_datum({"rank": 1, "simple_roots": [], "simple_coroots": []})
    tw = torus.weyl
    for lam in ((0,), (3,)):
        assert tw.coset_ball(12, tw.translation(lam)) == [tw.translation(lam)]
        assert_ball_matches_bott_formula(tw, 12, tw.translation(lam))


def test_coset_ball_of_any_coset_element():
    for p in catalog():
        w = p.datum.weyl
        for o in w.omega_elements():
            x = w.simple(0) * o.element
            assert w.length(x) == 1
            assert w.coset_ball(4, x) == w.coset_ball(4, o.element)


def test_coset_ball_budget_raises_never_truncates():
    w = preset("D4_sc").datum.weyl
    with pytest.raises(BudgetExceeded):
        w.coset_ball(8, budget=100)
    full = w.coset_ball(8)
    assert w.coset_ball(8, budget=len(full)) == full


def test_runtime_needs_only_click():
    """A fresh process enumerates balls and runs a verify check without
    loading numpy (pytest plugins may load it here, so a subprocess)."""
    code = (
        "import sys\n"
        "from adlv.presets import preset\n"
        "from adlv.verify import VerifyScales, check_min_length_reduction\n"
        "w = preset('A1_ad').datum.weyl\n"
        "w.ball(6, [o.element for o in w.omega_elements()])\n"
        "assert check_min_length_reduction(VerifyScales.quick())['pass']\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(adlv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in deps] == ["click"]


def test_min_coset_reps_examples():
    w = preset("A1_sc").datum.weyl
    k = (1,)
    reps = list(w.min_coset_reps(k, 2, side="left"))
    assert reps == [w.identity(), w.simple(0), w.translation((1,))]
    # double coset of t^{alpha^vee} under K = {s1} has minimum s0
    rep = w.min_double_coset_rep(w.translation((1,)), k)
    assert rep == w.simple(0)
    assert w.length(rep) == 1
    # K empty: everything is its own representative
    ball = w.ball(2)
    assert list(w.min_coset_reps((), 2)) == ball


def test_min_coset_reps_descent_free():
    w = preset("C2_sc").datum.weyl
    k = (1, 2)
    for x in w.min_coset_reps(k, 4, side="double"):
        assert not w.has_left_descent_in(x, k)
        assert not w.has_right_descent_in(x, k)


def test_infinite_parabolic():
    w = preset("A1_sc").datum.weyl
    with pytest.raises(InfiniteParabolic):
        list(w.min_coset_reps((0, 1), 2))
    with pytest.raises(InfiniteParabolic):
        w.parabolic_elements((0, 1))
    assert len(w.parabolic_elements((0,))) == 2


def test_affine_root_action_consistency():
    rng = random.Random(9)
    for name in ("A1_ad", "C2_sc"):
        w = preset(name).datum.weyl
        d = w.datum
        roots = sorted(d.root_set)
        for x in random_elements(w, rng, 15, max_len=4):
            for a in roots:
                root = AffineRoot(a, rng.randint(-3, 3))
                image = w.act_on_affine_root(x, root)
                assert w.preimage_affine_root(x, image) == root
                # conjugation of reflections matches the root action
                assert x * w.reflection(root) * x.inverse() == w.reflection(image)


def test_element_json_roundtrip():
    w = preset("C2_sc").datum.weyl
    rng = random.Random(10)
    for x in random_elements(w, rng, 20):
        blob = json.dumps(w.to_json(x))
        assert w.from_json(json.loads(blob)) == x


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(
    lam=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    word=st.lists(st.integers(0, 1), max_size=5),
)
def test_length_formula_matches_oracle_hypothesis(lam, word):
    w = preset("C2_sc").datum.weyl
    x = w.from_finite_word(lam, tuple(word))
    assert w.length(x) == length_oracle(w, x)

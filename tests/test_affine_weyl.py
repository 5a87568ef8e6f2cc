import gc
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
from adlv import affine_weyl
from adlv.admissible import adm, in_adm
from adlv.affine_weyl import AffineRoot, AffineWeylElement, AffineWeylGroup, closure
from adlv.errors import BudgetExceeded, DatumMismatch, InfiniteParabolic
from adlv.linalg import dot, vec_mat
from adlv.presets import catalog, preset
from adlv.root_datum import RootDatum, build_root_datum, from_cartan_matrix
from adlv.verify import VerifyScales, run_verify

from helpers import (
    affine_root_image,
    ball_length_counts_oracle,
    coset_ball_by_steps,
    deletion_covers,
    is_right_descent,
    length_oracle,
    lowest_descent_by_steps,
    preimage_affine_root,
    reduced_word_by_steps,
    s_permutation_by_conjugation,
    subword_set,
)

SMALL = ["A1_sc", "A1_ad", "A2_sc", "C2_sc", "G2_sc", "GL2", "A1xA1_sc", "GU_odd(2)"]


def random_elements(w, rng, count, max_len=6):
    ball = w.ball(max_len, [o.element for o in w.omega_elements()])
    return [rng.choice(ball) for _ in range(count)]


def test_descent_kernels_match_a_step_every_wall_oracle():
    # _lowest_descent and coset_ball read each wall's descent bit from
    # its pairing and build only the step they take; the oracles call
    # left_step at every wall.  Every preset, every coset ball of radius
    # <= 4 over Omega.  The neutral ball comes first and by the oracle, so
    # that a wrong descent fails here before Omega's reduced words run.
    checked = 0
    for p in catalog():
        w = p.datum.weyl
        for x in coset_ball_by_steps(w, 4, w.identity()):
            got = w._lowest_descent(x.lam, x.u_idx)
            want = lowest_descent_by_steps(w, x.lam, x.u_idx)
            assert got == want, (p.name, x.key())
        for om in w.omega_elements():
            for r in range(5):
                got = w.ball(r, [om.element])
                assert got == coset_ball_by_steps(w, r, om.element), (p.name, r)
            for x in w.ball(4, [om.element]):
                at = (p.name, x)
                got = w._lowest_descent(x.lam, x.u_idx)
                assert got == lowest_descent_by_steps(w, x.lam, x.u_idx), at
                word, omega = w.reduced_word(x)
                assert (word, omega) == reduced_word_by_steps(w, x), at
                assert w.assemble(word, omega) == x
                checked += 1
    assert checked == 477


def test_reads_of_an_element_leave_every_group_cache_unchanged():
    # repr, keys, length and kappa read the element and the W0 tables
    # only; a repr that walked reduced words would file them, and with a
    # wrong descent kernel would never return.
    caches = ("_rw_cache", "_bruhat_cache", "_right_steps", "memo_entries")
    for p in catalog():
        w = AffineWeylGroup(p.datum)
        ball = w.ball(3, [o.element for o in w.omega_elements()])
        before = {name: dict(getattr(w, name)) for name in caches}
        held = w.memo_held
        for x in ball:
            repr(x), x.key(), w.sort_key(x), w.to_json(x), w.length(x), w.kappa(x)
        assert {name: dict(getattr(w, name)) for name in caches} == before, p.name
        assert w.memo_held == held


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
    tau = wad.from_json({"lambda": [1], "w0_word": [0]})
    word2, om2 = wad.reduced_word(tau)
    assert word2 == () and om2 == tau

    rng = random.Random(4)
    for name in SMALL:
        wn = preset(name).datum.weyl
        for x in random_elements(wn, rng, 20):
            word, om = wn.reduced_word(x)
            assert len(word) == wn.length(x)
            assert wn.assemble(word, om) == x
            # assemble's left steps against element products
            prod = om
            for i in reversed(word):
                prod = wn.simple(i) * prod
            assert prod == x
    # An omega over another datum is refused, even with an empty word.
    w1 = preset("A1_sc").datum.weyl
    for word in ((), (0, 1)):
        with pytest.raises(DatumMismatch):
            w1.assemble(word, wad.identity())


def test_bruhat_examples():
    w = preset("A1_sc").datum.weyl
    t = w.translation((1,))
    assert w.bruhat_leq(t, t)
    assert w.bruhat_leq(w.simple(0), t)
    assert w.bruhat_leq(w.simple(1), t)
    assert not w.bruhat_leq(t, w.simple(0))
    wad = preset("A1_ad").datum.weyl
    tau = wad.from_json({"lambda": [1], "w0_word": [0]})
    assert not wad.bruhat_leq(wad.identity(), tau)  # different Omega cosets


def test_bruhat_long_chain_without_recursion(monkeypatch):
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
    # Under a smaller bound the memo keeps the first CACHE_BOUND pairs of
    # the chain, and the answers stay the same.
    monkeypatch.setattr(affine_weyl, "CACHE_BOUND", 500)
    w = from_cartan_matrix(((2,),), name="A1_bounded").weyl
    assert w.bruhat_leq(w.identity(), w.translation((1000,)))
    assert len(w._bruhat_cache) == 500
    assert w.bruhat_leq(w.translation((2,)), w.translation((1000,)))
    assert not w.bruhat_leq(w.translation((-1000,)), w.translation((1000,)))
    assert len(w._bruhat_cache) <= 500


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


def test_covers_are_length_one_down():
    # Every cover is x times an affine reflection: x s_(a,k) for one of
    # the l(x) levels k with x s_(a,k) < x, one integer range per
    # positive root, taken where the length falls by exactly one.
    rng = random.Random(5)
    for p in catalog():
        w = p.datum.weyl
        d = w.datum
        positive = frozenset(d.positive_roots)
        ball = w.ball(5)
        xs = ball if len(ball) <= 150 else sorted(
            {rng.choice(ball) for _ in range(150)}, key=lambda e: e.key()
        )
        for x in xs:
            lx = w.length(x)
            covers = set(w.covers_below(x))
            assert covers == deletion_covers(w, x)
            m_inv = w.w0_list[w.w0_inv[x.u_idx]]
            levels = 0
            by_reflection = set()
            for a in d.positive_roots:
                b = vec_mat(a, m_inv)
                pb = dot(b, x.lam)
                if b in positive:
                    ks = range(0, pb) if pb > 0 else range(pb, 0)
                else:
                    ks = range(0, pb + 1) if pb >= 0 else range(pb + 1, 0)
                for k in ks:
                    y = x * w.reflection(AffineRoot(a, k))
                    assert w.length(y) < lx
                    if w.length(y) == lx - 1:
                        by_reflection.add(y)
                levels += len(ks)
            assert levels == length_oracle(w, x)
            assert covers == by_reflection


def _count_left_steps(monkeypatch, w) -> Counter:
    counts = Counter()
    left_step = w.left_step

    def counting(i, lam, u_idx):
        counts["left_step"] += 1
        return left_step(i, lam, u_idx)

    monkeypatch.setattr(w, "left_step", counting)
    return counts


def test_covers_below_work_is_linear(monkeypatch):
    # Standalone, the covers of t^200 walk its descent chain once: at
    # most two left steps to find each lowest descent and one per coatom
    # of the element below, with no length and no element product (a
    # reduced word, its prefixes and suffixes cost about 3 l(x) products).
    a1 = preset("A1_sc").datum
    w = RootDatum(a1.rank, a1.simple_roots, a1.simple_coroots, name="A1_sc").weyl
    x = w.translation((200,))
    lx = w.length(x)
    counts = _count_left_steps(monkeypatch, w)
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
    assert counts["left_step"] <= 4 * lx == 1600
    assert counts["length_of"] == counts["mul"] == 0
    assert len(covers) == 2


def test_covers_of_long_translations_match_deletions():
    # Long descent chains, with and without a dict; the covers of the
    # covers too.
    for name, mu in (("A1_sc", (40,)), ("C2_sc", (6, 0)), ("G2_sc", (2, 1))):
        w = preset(name).datum.weyl
        x = w.translation(mu)
        known = {}
        for y in [x] + w.covers_below(x):
            expected = deletion_covers(w, y)
            for covers in (w.covers_below(y), w.covers_below(y, known)):
                assert len(covers) == len(set(covers))
                assert set(covers) == expected


def test_covers_below_costs_one_left_step_per_coatom(monkeypatch):
    # With one dict for a top-down closure, each element y of the
    # interval is walked once: at most |S~| left steps find its lowest
    # left descent s, then one left step per coatom of s y.  The dict
    # ends empty.
    for name, mu in (("A1_sc", (200,)), ("C2_sc", (6, 0)), ("G2_sc", (2, 1))):
        d = preset(name).datum
        w = RootDatum(d.rank, d.simple_roots, d.simple_coroots, name=d.name).weyl
        n_simple = len(w.simple_affine)
        counts = _count_left_steps(monkeypatch, w)
        known = {}
        interval = closure([w.translation(mu)], lambda y: w.covers_below(y, known))
        monkeypatch.undo()
        assert known == {}
        bound = 0
        for y in interval:
            bound += n_simple
            ly = w.length(y)
            below = [w.simple(i) * y for i in range(n_simple)]
            sy = next((z for z in below if w.length(z) < ly), None)
            if sy is not None:
                bound += len(w.covers_below(sy))
        assert counts["left_step"] <= bound


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
                assert w.left_step(s.index, x.lam, x.u_idx)[2] == left
                assert is_right_descent(w, s.index, x) == right


def test_simple_steps_match_products_and_length_oracle():
    # left_step and right_step against the products s_i x and x s_i, and
    # each fell bit against lengths counted by separating hyperplanes.
    pairs = 0
    for p in catalog():
        w = p.datum.weyl
        for x in w.ball(4, [o.element for o in w.omega_elements()]):
            lx = length_oracle(w, x)
            for s in w.simple_affine:
                for step, product in (
                    (w.left_step, s.element * x),
                    (w.right_step, x * s.element),
                ):
                    lam, u, fell = step(s.index, x.lam, x.u_idx)
                    assert AffineWeylElement(w, lam, u) == product
                    assert fell == (length_oracle(w, product) < lx)
                pairs += 1
    assert pairs > 1000


def test_right_step_table_is_bounded_after_quick_verify():
    # One entry per (finite part, affine simple) at most, on every group
    # the sweep built, Levi groups included.
    run_verify(VerifyScales.quick())
    groups = [g for g in gc.get_objects() if isinstance(g, AffineWeylGroup)]
    assert any(g._right_steps for g in groups)
    for g in groups:
        assert len(g._right_steps) <= g.w0_order() * len(g.simple_affine)


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


def test_s_permutation_matches_conjugation_oracle():
    # permute_walls against forming omega s omega^{-1}.
    for p in catalog():
        w = p.datum.weyl
        omegas = [o.element for o in w.omega_elements()]
        seen = set(omegas) | {w.omega_of(x) for x in w.ball(4, omegas)}
        for om in seen:
            assert w.permute_walls(om) == s_permutation_by_conjugation(w, om), (p.name, om)
    w = preset("A1_sc").datum.weyl
    assert w.permute_walls(w.simple(0)) is None


def test_kappa_homomorphism():
    w = preset("A1_ad").datum.weyl
    pi1 = w.datum.pi1
    rng = random.Random(8)
    for x in random_elements(w, rng, 15):
        for y in random_elements(w, rng, 3):
            lam_sum = tuple(a + b for a, b in zip(x.lam, y.lam))
            assert w.kappa(x * y) == pi1.project(lam_sum)


def assert_ball_matches_bott_formula(w, max_length, omega):
    ball = w.ball(max_length, [omega])
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
        assert tw.ball(12, [tw.translation(lam)]) == [tw.translation(lam)]
        assert_ball_matches_bott_formula(tw, 12, tw.translation(lam))


def test_coset_ball_of_any_coset_element():
    for p in catalog():
        w = p.datum.weyl
        for o in w.omega_elements():
            x = w.simple(0) * o.element
            assert w.length(x) == 1
            assert w.ball(4, [x]) == w.ball(4, [o.element])


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
    # double coset of t^{alpha^vee} under K = {s1} has minimum s0
    rep = w.min_double_coset_rep(w.translation((1,)), k)
    assert rep == w.simple(0)
    assert w.length(rep) == 1
    # K empty: everything is its own representative
    for x in w.ball(2):
        assert w.min_double_coset_rep(x, ()) == x


def test_infinite_parabolic():
    w = preset("A1_sc").datum.weyl
    assert w.parabolic_is_finite((0,))
    with pytest.raises(InfiniteParabolic):
        w.min_double_coset_rep(w.translation((1,)), (0, 1))


def test_affine_root_action_consistency():
    # The image of an affine root under x, taken as its preimage under
    # x^{-1}, inverts the preimage and matches the conjugation of
    # reflections; permute_walls agrees with it on the base alcove's walls.
    rng = random.Random(9)
    for name in ("A1_ad", "C2_sc", "GL2"):
        w = preset(name).datum.weyl
        d = w.datum
        roots = sorted(d.root_set)
        walls = [root for root, _coroot in d.walls]
        omegas = [o.element for o in w.omega_elements()]
        for x in random_elements(w, rng, 15, max_len=4) + omegas:
            for a in roots:
                root = AffineRoot(a, rng.randint(-3, 3))
                image = affine_root_image(w, x, root)
                assert preimage_affine_root(w, x, image) == root
                assert x * w.reflection(root) * x.inverse() == w.reflection(image)
            images = [affine_root_image(w, x, f) for f in walls]
            want = tuple(map(walls.index, images)) if set(images) <= set(walls) else None
            assert w.permute_walls(x) == want, (name, x)
            assert (want is not None) == (w.length(x) == 0)


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
    x = w.from_json({"lambda": lam, "w0_word": word})
    assert w.length(x) == length_oracle(w, x)

"""Independent oracles used by the test suite.

Everything here recomputes quantities by a different route than the
package: lengths by counting separating hyperplanes, Bruhat order by
subword enumeration, admissibility by the naive all-orbit scan, the
permissible set by Fraction geometry.  The oracles deliberately avoid
the code paths they check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

from adlv import affine_weyl
from adlv.affine_weyl import AffineRoot, AffineWeylElement
from adlv.errors import NotDominantInput
from adlv.linalg import (
    dot,
    identity_matrix,
    mat_det,
    mat_inv_unimodular,
    mat_mul,
    mat_vec,
    principal_minors_positive,
    solve_bareiss,
    solve_fraction,
    vec_mat,
)
from adlv.levi import sub_element
from adlv.newton_bg import mu_diamond, mu_natural
from adlv.picard import PicClass
from adlv.presets import catalog


def clear_memos() -> None:
    """Empty the admissible-set memo of every catalog group, and zero its
    held weight."""
    for p in catalog():
        p.datum.weyl.memo_entries.clear()
        p.datum.weyl.memo_held = 0


def memo_weight(group) -> int:
    """The number of Weyl group elements the group's memo entries hold."""
    return sum(weight for _value, weight in group.memo_entries.values())


def caches_within_bound() -> bool:
    """Whether every cache of every catalog group holds at most
    affine_weyl.CACHE_BOUND: Bruhat pairs, reduced words, memo weight."""
    bound = affine_weyl.CACHE_BOUND
    return all(
        len(w._bruhat_cache) <= bound and len(w._rw_cache) <= bound and memo_weight(w) <= bound
        for w in (p.datum.weyl for p in catalog())
    )


def is_positive_affine(d, root: AffineRoot) -> bool:
    """(a, k) is positive on the base alcove: k >= 0 for a positive root
    a, k >= 1 for a negative one."""
    if root.gradient in frozenset(d.positive_roots):
        return root.level >= 0
    if root.gradient in d.root_set:
        return root.level >= 1
    raise ValueError(f"{root.gradient} is not a root")


def preimage_affine_root(w, x: AffineWeylElement, root: AffineRoot) -> AffineRoot:
    """The root that x sends to `root`: the function f . x on the apartment."""
    grad = vec_mat(root.gradient, w.w0_list[x.u_idx])
    return AffineRoot(grad, root.level + dot(root.gradient, x.lam))


def affine_root_image(w, x: AffineWeylElement, root: AffineRoot) -> AffineRoot:
    """The root that x sends `root` to, f . x^{-1}: its preimage under
    the group inverse of x."""
    return preimage_affine_root(w, x.inverse(), root)


def wall_twist_by_conjugation(d, sigma, x: AffineWeylElement, walls) -> dict:
    """Ad(x) . sigma on a list of walls (affine roots of d's roots), as a
    dict: each wall f goes to the wall whose reflection is the product
    x sigma(s_f) x^{-1}, or to None when that is no wall's reflection."""
    w = d.weyl
    by_reflection = {w.reflection(f): f for f in walls}
    return {
        f: by_reflection.get(x * sigma.apply(w.reflection(f)) * x.inverse()) for f in walls
    }


def is_right_descent(w, i: int, x: AffineWeylElement) -> bool:
    """l(x s_i) < l(x), as the left descent s_i of x^{-1}."""
    y = x.inverse()
    return w.left_step(i, y.lam, y.u_idx)[2]


def apply_affine(x: AffineWeylElement, point):
    """The affine action of x = t^lam u on the apartment: p -> lam + u(p)."""
    return tuple(a + b for a, b in zip(x.lam, mat_vec(x.mat, point)))


def group_order(g):
    """The order of a finitely generated abelian group, None when infinite."""
    factors = g.invariant_factors
    return None if 0 in factors else prod(factors)


def s_permutation_by_conjugation(w, omega: AffineWeylElement) -> tuple[int, ...]:
    """The permutation of the affine simples by omega, found by forming
    omega s omega^{-1} and searching the simple reflections for it."""
    inv = omega.inverse()
    perm = []
    for s in w.simple_affine:
        conj = omega * s.element * inv
        perm.append(next(t.index for t in w.simple_affine if t.element == conj))
    return tuple(perm)


def sigma_to_json(sigma, q: int) -> dict:
    """The inline JSON of a Frobenius datum and q, as `--sigma` reads it."""
    return {"lattice_matrix": [list(r) for r in sigma.matrix], "q": q}


def wall_permutation_by_roots(d, matrix) -> tuple[int, ...] | None:
    """The permutation of the base alcove's walls by the lattice
    automorphism `matrix`, or None when it is no Frobenius: found by
    checking that the transpose-inverse maps every root to a root and
    every coroot to the coroot of the image, and then that it maps each
    wall to a wall."""
    if mat_det(matrix) not in (1, -1):
        return None
    inv = mat_inv_unimodular(matrix)
    for a in d.root_set:
        image = vec_mat(a, inv)
        if image not in d.root_set or d.coroot_table[image] != mat_vec(matrix, d.coroot_table[a]):
            return None
    w = d.weyl
    index = {s.root: s.index for s in w.simple_affine}
    images = [AffineRoot(vec_mat(s.root.gradient, inv), s.root.level) for s in w.simple_affine]
    if any(r not in index for r in images):
        return None
    return tuple(index[r] for r in images)


def tau_orbits_by_walls(d, tau: dict) -> list[dict]:
    """The orbits of the wall map tau (a dict over the walls, in their
    order), each with its fields as levi.tau_orbits reports them, found
    by following the walls through tau, testing the Cartan block of each
    orbit by its leading principal minors, and enumerating W_J inside
    d.weyl to take its element of greatest length."""
    w = d.weyl
    seen = set()
    out = []
    for beta in tau:
        if beta in seen:
            continue
        orbit = [beta]
        cur = tau[beta]
        while cur != beta:
            assert cur in tau, "tau does not permute the walls"
            orbit.append(cur)
            cur = tau[cur]
        seen.update(orbit)
        n = len(orbit)
        cart = tuple(
            tuple(dot(orbit[j].gradient, d.coroot(orbit[i].gradient)) for j in range(n))
            for i in range(n)
        )
        finite = principal_minors_positive(cart)
        longest = None
        if finite:
            gens = [w.reflection(r) for r in orbit]
            dist = {w.identity(): 0}
            frontier = [w.identity()]
            while frontier:
                nxt = []
                for y in frontier:
                    for g in gens:
                        z = g * y
                        if z not in dist:
                            dist[z] = dist[y] + 1
                            nxt.append(z)
                frontier = nxt
            top = max(dist.values())
            (longest,) = [y for y, k in dist.items() if k == top]
        pairs = tuple(
            (i, j)
            for i, j in combinations(range(n), 2)
            if tuple(a + b for a, b in zip(orbit[i].gradient, orbit[j].gradient)) in d.root_set
        )
        out.append(
            {
                "roots": tuple(orbit),
                "finite": finite,
                "orbit_type": ("B" if pairs else "A") if finite else None,
                "longest": longest,
            }
        )
    return out


def component_of_root(d, root) -> int:
    """Index of the Dynkin component whose simple roots expand `root`."""
    coeffs = d.simple_coefficients(root)
    return next(c for c, comp in enumerate(d.components) if any(coeffs[i] for i in comp))


def essentially_noncentral_by_roots(d, sigma, mu) -> bool:
    """The positive-root scan: some positive root of each sigma-orbit of
    components pairs nontrivially with mu; False for a torus.  The
    orbits are closed under sigma's permutation of the affine walls of
    the components, the first len(d.components) affine simples."""
    k = len(d.components)
    perm = range(k) if sigma is None else sigma.s_permutation[:k]
    orbits = {frozenset(affine_weyl.closure([c], lambda j: (perm[j],))) for c in range(k)}
    return bool(orbits) and all(
        any(component_of_root(d, a) in orbit and dot(a, mu) for a in d.positive_roots)
        for orbit in orbits
    )


def fraction_rank(mat) -> int:
    """Rank of a rational matrix by Gauss-Jordan elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def fixed_dimension(m) -> int:
    """dim V^m for V = Q^n: n - rank(m - 1)."""
    n = len(m)
    return n - fraction_rank([[m[i][j] - (i == j) for j in range(n)] for i in range(n)])


def chai_rank(sigma, element) -> Fraction:
    """Chai's rank r(b) = <rho, nu_b> - def(b) / 2 of a B(G, mu) element,
    with def(b) = dim V^sigma - dim V^{u sigma} for V = X_*(T)_Q and u
    the finite part of the class's representative."""
    u_sigma = mat_mul(element.representative.mat, sigma.matrix)
    defect = fixed_dimension(sigma.matrix) - fixed_dimension(u_sigma)
    return (dot(sigma.datum.two_rho, element.tag.nu_bar) - defect) / 2


def reflection_action(pic, i: int):
    """The full matrix of s_i on the Picard lattice:
    eps_i -> eps_i - sum_j A_ij eps_j, other basis vectors fixed."""
    a = pic.cartan
    return tuple(
        tuple((1 if r == c else 0) - (a[i][r] if c == i else 0) for c in range(pic.n))
        for r in range(pic.n)
    )


def certificate_by_operator(twisted, inverse, p: int):
    """(operator, class, difference) of the descent certificate by the
    route that forms M: M = twisted . inverse, (M - 1) L = (1, ..., 1)
    solved in Fractions, L scaled by the least positive integer that
    leaves only powers of p in its denominators, and the difference
    (M - 1) L recomputed from the scaled class.  None when
    det(M - 1) = 0."""
    op = mat_mul(twisted, inverse)
    n = len(op)
    m_minus_one = tuple(
        tuple(v - (r == c) for c, v in enumerate(row)) for r, row in enumerate(op)
    )
    if mat_det(m_minus_one) == 0:
        return None
    values = solve_fraction(m_minus_one, (1,) * n)
    scale = 1
    for v in values:
        den = v.denominator
        while den % p == 0:
            den //= p
        scale = scale * den // gcd(scale, den)
    cls = PicClass(p, tuple(scale * v for v in values))
    difference = mat_vec(m_minus_one, cls.values)
    return op, cls, difference


def length_oracle(w, x: AffineWeylElement) -> int:
    """Number of affine hyperplanes separating the base alcove from its
    image, counted as positive affine roots made negative by transport
    through x."""
    d = w.datum
    count = 0
    bound = max(
        (abs(dot(a, x.lam)) for a in d.positive_roots), default=0
    ) + 2
    for a in d.root_set:
        for k in range(-bound, bound + 1):
            root = AffineRoot(a, k)
            if not is_positive_affine(d, root):
                continue
            if not is_positive_affine(d, preimage_affine_root(w, x, root)):
                count += 1
    return count


def dominant_rep_oracle(d, v):
    """Dominant representative and witness by reflecting the Fraction
    vector itself and multiplying the witness matrix step by step."""
    cur = tuple(Fraction(x) for x in v)
    wit = identity_matrix(d.rank)
    while True:
        for i in range(d.n_simple):
            if dot(d.simple_roots[i], cur) < 0:
                cur = tuple(mat_vec(d.simple_reflections[i], cur))
                wit = mat_mul(d.simple_reflections[i], wit)
                break
        else:
            return cur, wit


def twisted_power(sigma, x):
    """(x sigma(x) ... sigma^{n-1}(x), n), multiplied out in the group for
    the least n that is a multiple of the order of sigma and makes the
    power a translation t^v."""
    unit = x.group.identity().u_idx
    power, twist, n = x, sigma.apply(x), 1
    while n % sigma.order or power.u_idx != unit:
        power, twist, n = power * twist, sigma.apply(twist), n + 1
    return power, n


def tag_by_fractions(sigma, x):
    """(nu_bar, kappa0, kappa_sigma) of x without the package's (P, N):
    for the twisted power t^v of x over n steps, v / n is made dominant
    in Fractions by dominant_rep, and lam is projected to pi_1 and to its
    sigma-coinvariants."""
    power, n = twisted_power(sigma, x)
    nu_bar, _ = sigma.datum.dominant_rep(tuple(Fraction(c, n) for c in power.lam))
    return nu_bar, sigma.datum.pi1.project(x.lam), sigma.pi1_coinvariants.project(x.lam)


def ball_length_counts_oracle(d, max_length: int) -> list[int]:
    """Number of elements of each length 0..max_length in one W_a-coset,
    by Bott's formula: sum_l #{x : l(x) = l} t^l equals
    prod_i (1 + t + ... + t^{m_i}) / (1 - t^{m_i}) over the exponents
    m_i.  The number of exponents equal to k is the number of positive
    roots of height k minus the number of height k + 1."""
    heights = [sum(d.simple_coefficients(a)) for a in d.positive_roots]
    exponents = []
    for k in range(1, max(heights, default=0) + 1):
        exponents += [k] * (heights.count(k) - heights.count(k + 1))
    series = [1] + [0] * max_length

    def times(factor):
        return [
            sum(series[i - j] * factor[j] for j in range(i + 1))
            for i in range(max_length + 1)
        ]

    for m in exponents:
        series = times([1 if j <= m else 0 for j in range(max_length + 1)])
        series = times([1 if j % m == 0 else 0 for j in range(max_length + 1)])
    return series


def subword_set(w, y: AffineWeylElement) -> set:
    """All elements <= y: subwords of one reduced word times the same
    length-zero part."""
    word, omega = w.reduced_word(y)
    out = set()
    n = len(word)
    for r in range(n + 1):
        for positions in combinations(range(n), r):
            sub = tuple(word[i] for i in positions)
            out.add(w.assemble(sub, omega))
    return out


def deletion_covers(w, x) -> set:
    """The strong exchange condition: the single-letter deletions of one
    reduced word that drop the length by one."""
    word, omega = w.reduced_word(x)
    deletions = set()
    for j in range(len(word)):
        cand = w.assemble(word[:j] + word[j + 1:], omega)
        if w.length(cand) == len(word) - 1:
            deletions.add(cand)
    return deletions


def naive_in_adm(d, mu, x) -> bool:
    """Membership scan over every maximal translation, no pruning."""
    from adlv.admissible import maximal_translations

    w = d.weyl
    return any(w.bruhat_leq(x, t) for t in maximal_translations(d, mu))


def alcove_vertices(d) -> list[tuple[Fraction, ...]]:
    """Every vertex of the base alcove, in the span of the coroots.

    Per component, a vertex lies on all the walls of the component's
    affine simple roots (the finite simple roots and 1 - theta) but one;
    the base alcove is the product of its components, so its vertices
    are the sums of one vertex per component.
    """
    w = d.weyl
    per_component = []
    for ci, comp in enumerate(d.components):
        walls = [w.simple_affine[ci].root] + [AffineRoot(d.simple_roots[i], 0) for i in comp]
        basis = [d.simple_coroots[i] for i in comp]
        points = []
        for skip in range(len(walls)):
            rows = [r for k, r in enumerate(walls) if k != skip]
            coeffs = solve_fraction(
                tuple(tuple(dot(r.gradient, b) for b in basis) for r in rows),
                [Fraction(-r.level) for r in rows],
            )
            points.append(tuple(dot(coeffs, col) for col in zip(*basis)))
        per_component.append(points)
    return [
        tuple(sum(col, Fraction(0)) for col in zip(*choice))
        for choice in product(*per_component)
    ]


def perm_oracle(d, mu, x, vertices=None) -> bool:
    """x in Perm(mu): x lies in the W_a-coset of t^mu and x(v) - v lies
    in Conv(W0 mu) at every vertex v of the base alcove, decided over
    Fractions by dominant_rep and dominance_leq."""
    w = d.weyl
    if w.kappa(x) != w.kappa(w.translation(mu)):
        return False
    mu_dom, _ = d.dominant_rep(mu)
    for v in vertices if vertices is not None else alcove_vertices(d):
        moved, _ = d.dominant_rep(tuple(a - b for a, b in zip(apply_affine(x, v), v)))
        if not d.dominance_leq(moved, mu_dom):
            return False
    return True


def conjugation_orbit(sigma, x, buffer: int = 2) -> set:
    """The twisted conjugation orbit of x, explored through elements of
    length at most l(x) + buffer."""
    w = sigma.datum.weyl
    cap = w.length(x) + buffer
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for s in w.simple_affine:
                z = sigma.conj_step(s.index, y)
                if w.length(z) <= cap and z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return seen


def plateau_by_products(sigma, x) -> tuple[set, tuple | None]:
    """(members, descent) of the plateau of x, with each conjugate formed
    as the product s x sigma(s) and compared by length."""
    w = sigma.datum.weyl
    lx = w.length(x)
    members = {x}
    frontier = [x]
    shorter = []
    while frontier:
        nxt = []
        for y in frontier:
            for s in w.simple_affine:
                z = s.element * y * sigma.apply(s.element)
                lz = w.length(z)
                if lz < lx:
                    shorter.append((y, s.index))
                elif lz == lx and z not in members:
                    members.add(z)
                    nxt.append(z)
        frontier = nxt
    return members, min(shorter, key=lambda d: (d[0].key(), d[1]), default=None)


def fixed_subgroup_by_products(w, gens, cap: int) -> set:
    """Products of `gens` of length at most cap: the closure of the
    identity under left and right products by the generators inside a
    ball padded by the longest generator, cut back to cap."""
    pad = cap + max((w.length(g) for g in gens), default=0)

    def step(y):
        return [z for g in gens for z in (g * y, y * g) if w.length(z) <= pad]

    return {z for z in affine_weyl.closure([w.identity()], step) if w.length(z) <= cap}


def v_alcove_oracle(d, sigma, x, v, window: int = 40) -> bool:
    """Same inequalities as is_v_alcove but with a brutally large window
    and no per-root bound reasoning."""
    w = d.weyl
    vv = tuple(Fraction(c) for c in v)
    if tuple(mat_vec(x.mat, mat_vec(sigma.matrix, vv))) != vv:
        return False
    for a in d.root_set:
        if dot(a, vv) <= 0:
            continue
        for k in range(-window, window + 1):
            root = AffineRoot(a, k)
            if is_positive_affine(d, root) and not is_positive_affine(
                d, preimage_affine_root(w, x, root)
            ):
                return False
    return True


def dominance_grid_oracle(d, lam, lam2, max_num: int = 12, max_den: int = 4) -> bool:
    """Decide lam <= lam2 by scanning a bounded rational coefficient grid
    for the coroot combination."""
    diff = tuple(Fraction(b) - Fraction(a) for a, b in zip(lam, lam2))
    n = d.n_simple
    grid = sorted(
        {Fraction(k, den) for den in range(1, max_den + 1) for k in range(0, max_num * den + 1)}
    )

    def rec(i, acc):
        if i == n:
            return all(x == 0 for x in acc)
        for c in grid:
            nxt = tuple(
                acc[r] - c * d.simple_coroots[i][r] for r in range(d.rank)
            )
            if rec(i + 1, nxt):
                return True
        return False

    return rec(0, diff)


def dominance_leq_by_fractions(d, lam, lam2) -> bool:
    """dominance_leq by the Fraction route: dominance checked on the
    arguments as given, then D = lam2 - lam in Fractions, scaled over
    the lcm of D's own denominators."""
    if not d.is_dominant(lam) or not d.is_dominant(lam2):
        raise NotDominantInput("dominance order compares dominant coweights")
    diff = [Fraction(b) - Fraction(a) for a, b in zip(lam, lam2)]
    den = lcm(*(x.denominator for x in diff))
    scaled = [x.numerator * (den // x.denominator) for x in diff]
    alcove = d.base_alcove
    pairs = [dot(weight, scaled) for weight in alcove.weights]
    span = [
        sum(p * av[r] for p, av in zip(pairs, d.simple_coroots))
        for r in range(d.rank)
    ]
    return span == [alcove.weight_den * x for x in scaled] and all(p >= 0 for p in pairs)


def lowest_descent_by_steps(w, lam, u):
    """(i, lam', u') for the lowest left descent of (lam, u): left_step
    at every wall i = 0, 1, ... until one falls; None at length zero."""
    for i in range(len(w.simple_affine)):
        lam_i, u_i, fell = w.left_step(i, lam, u)
        if fell:
            return i, lam_i, u_i
    return None


def reduced_word_by_steps(w, x):
    """(word, omega) of x by peeling lowest_descent_by_steps."""
    word = []
    lam, u = x.lam, x.u_idx
    while (step := lowest_descent_by_steps(w, lam, u)) is not None:
        i, lam, u = step
        word.append(i)
    return tuple(word), AffineWeylElement(w, lam, u)


def coset_ball_by_steps(w, max_length: int, start) -> list:
    """coset_ball from the length-zero element `start`, with left_step at
    every wall of every element, keeping the steps that did not fall,
    each level sorted by key."""
    level, out = [start], [start]
    for _ in range(max_length):
        found = set()
        for x in level:
            for i in range(len(w.simple_affine)):
                lam, u, fell = w.left_step(i, x.lam, x.u_idx)
                if not fell:
                    found.add(AffineWeylElement(w, lam, u))
        level = sorted(found, key=AffineWeylElement.key)
        out.extend(level)
    return out


def finite_group_by_matrices(d) -> dict:
    """The finite Weyl group tables of d by breadth-first search on
    matrices: each product of a simple reflection with a known element
    is formed and looked up by its matrix, and the length offset of u at
    a positive root a is read off whether a . u is a positive root.
    "mul" is the full product table, mul[u][v] the index of u . v, the
    reference for W0 products; the group itself keeps no such table."""
    gens = list(d.simple_reflections)
    ident = identity_matrix(d.rank)
    index = {ident: 0}
    order = [ident]
    words = [()]
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for gi, g in enumerate(gens):
                prod = mat_mul(g, m)
                if prod not in index:
                    index[prod] = len(order)
                    order.append(prod)
                    words.append((gi,) + words[index[m]])
                    nxt.append(prod)
        frontier = nxt
    mul = [[index[mat_mul(a, b)] for b in order] for a in order]
    positive = frozenset(d.positive_roots)
    return {
        "w0_list": tuple(order),
        "w0_index": index,
        "w0_words": tuple(words),
        "mul": mul,
        "w0_inv": tuple(row.index(0) for row in mul),
        "w0_offsets": tuple(
            tuple(0 if vec_mat(a, m) in positive else 1 for a in d.positive_roots)
            for m in order
        ),
    }


def levi_order_pairs_by_bruhat(d, sub, scales) -> tuple[int, list]:
    """(related pairs, failing covers as JSON) of the Levi order check,
    with each cover compared by the descent recursion in the ambient
    group on the embedded elements, rather than by ambient length."""
    ball_m = sub.weyl.coset_ball(scales.levi_ball_length, budget=scales.budget)[
        : scales.levi_pair_cap
    ]
    below = {}
    image = {}
    known = {}
    bad = []
    for b in ball_m:
        covers = known[b] = sub.weyl.covers_below(b, known)
        below[b] = {b}.union(*(below[c] for c in covers))
        image[b] = sub_element(d, b)
        for c in covers:
            if not d.weyl.bruhat_leq(image[c], image[b]):
                bad.append({"x": sub.weyl.to_json(c), "y": sub.weyl.to_json(b)})
    return sum(map(len, below.values())), bad


def b_g_mu_by_kottwitz(sigma, mu, radius: int) -> set:
    """The (Newton point, kappa_sigma) pairs of B(G, {mu}) by Kottwitz's
    classification, with no affine Weyl group, Adm or straightness.

    Kottwitz, "Isocrystals with additional structure. II", Compositio
    Math. 109 (1997), sections 4-6, paraphrased (the text is not in this
    repository), for G quasi-split and unramified with Frobenius sigma:
    - b is determined by (nu_b, kappa_G(b)).
    - Each b in B(G) comes from exactly one sigma-stable standard Levi
      M = M_J, as a basic class of M whose Newton point is G-dominant and
      M-regular: <alpha_i, nu> = 0 exactly for i in J.
    - The basic classes of M are pi_1(M)_sigma through kappa_M; the class
      of the image of lambda has Newton point the sigma-average of the
      projection of lambda to X_*(Z_M)_Q, pr_J(lambda), the point of
      lambda + Q<alpha_j^vee : j in J> on which every alpha_j, j in J,
      vanishes; its kappa_G is the image of lambda in pi_1(G)_sigma.
    - B(G, {mu}) is the set of b with kappa_G(b) = mu-natural and
      nu_b <= mu-diamond in the dominance order.
    lambda runs over the box |lambda_i| <= radius of lattice coordinates.
    That the box holds a lift of every class is not proved here: a
    caller checks that a larger box gives the same set.
    """
    d = sigma.datum
    n = len(d.simple_roots)
    # sigma sends alpha_i^vee to alpha_{perm[i]}^vee.
    perm = [d.simple_coroots.index(mat_vec(sigma.matrix, c)) for c in d.simple_coroots]
    mu_nat = mu_natural(sigma, mu)
    mu_dia = mu_diamond(sigma, mu)
    box = range(-radius, radius + 1)
    kappas = {lam: sigma.pi1_coinvariants.project(lam) for lam in product(box, repeat=d.rank)}
    lams = [lam for lam, kappa in kappas.items() if kappa == mu_nat]
    pairs = set()
    for mask in range(1 << n):
        J = [i for i in range(n) if mask >> i & 1]
        if {perm[i] for i in J} != set(J):
            continue
        cartan = [[dot(d.simple_roots[i], d.simple_coroots[j]) for j in J] for i in J]
        seen = set()
        for lam in lams:
            # cartan y = det <alpha_J, lam>, so det pr_J(lam) = det lam - sum y_j alpha_j^vee.
            y, det = solve_bareiss(cartan, [dot(d.simple_roots[i], lam) for i in J])
            pr = tuple(
                det * c - sum(yj * d.simple_coroots[j][r] for yj, j in zip(y, J))
                for r, c in enumerate(lam)
            )
            if pr in seen:
                continue
            seen.add(pr)
            total = [0] * d.rank
            for _ in range(sigma.order):
                total = [t + c for t, c in zip(total, pr)]
                pr = mat_vec(sigma.matrix, pr)
            nu = tuple(Fraction(t, det * sigma.order) for t in total)
            pairing = [dot(a, nu) for a in d.simple_roots]
            dominant = all(p >= 0 for p in pairing)
            regular = all((p == 0) == (i in J) for i, p in enumerate(pairing))
            if dominant and regular and d.dominance_leq(nu, mu_dia):
                pairs.add((nu, kappas[lam]))
    return pairs

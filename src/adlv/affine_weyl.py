"""Extended affine Weyl group W = lattice x finite Weyl group.

Elements are pairs (lambda, u) with u a finite Weyl group element acting
on the cocharacter lattice; multiplication is
(lambda, u)(mu, v) = (lambda + u.mu, uv).  The Iwahori-Matsumoto formula
gives the length; the affine simple reflections are the finite ones plus
t^{theta_c} s_{theta_c} for the highest root theta_c of each component.

Index convention for the affine simple set: indices 0..k-1 are the
affine reflections of the k Dynkin components (in component order),
indices k.. are the finite simple reflections in simple-root order.  For
a connected diagram this is the classical labelling with node 0 affine.

The group object owns all caches (finite Weyl group tables, Bruhat
memo); elements are immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import BudgetExceeded, DatumMismatch, InfiniteParabolic, SchemaError
from .linalg import (
    Mat,
    dot,
    identity_matrix,
    mat_mul,
    mat_vec,
    principal_minors_positive,
    vec_mat,
)
from .root_datum import MAX_W0_ORDER, AffineRoot, RootDatum, reflection_matrix

IntVec = tuple[int, ...]

# The most elements an enumeration visits before it raises BudgetExceeded.
DEFAULT_BUDGET = 5_000_000

# The most each group's memos hold: Bruhat pairs, reduced words, and
# the Weyl group elements of its admissible-set memo entries.  Read at
# call time, so that a test can lower it.
CACHE_BOUND = DEFAULT_BUDGET


def closure(
    seeds: Iterable,
    step: Callable[[object], Iterable],
    budget: int = DEFAULT_BUDGET,
    what: str = "closure",
) -> set:
    """The least set holding `seeds` and closed under `step`, by
    breadth-first search, one frontier at a time: Bruhat intervals (step
    = covers_below with one dict for the closure; from seeds of one
    length each frontier is one length level), Weyl orbits, Adm^K and
    twisted-conjugation plateaus.

    Raises BudgetExceeded, naming the set `what`, once the seeds or a
    step take the set past `budget` elements, rather than truncating.
    """
    seen = set(seeds)
    if len(seen) > budget:
        raise BudgetExceeded(what, budget)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for y in step(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > budget:
                        raise BudgetExceeded(what, budget)
        frontier = nxt
    return seen


@dataclass(frozen=True, slots=True)
class AffineWeylElement:
    group: "AffineWeylGroup"
    lam: IntVec
    u_idx: int

    @property
    def mat(self) -> Mat:
        return self.group.w0_list[self.u_idx]

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        g = self.group
        if other.group is not g and other.group.datum != g.datum:
            raise DatumMismatch("elements live over different root data")
        m = g.w0_list[self.u_idx]
        lam = tuple(a + b for a, b in zip(self.lam, mat_vec(m, other.lam)))
        return AffineWeylElement(g, lam, g.finite_index(g.w0_words[self.u_idx], other.u_idx))

    def inverse(self) -> "AffineWeylElement":
        g = self.group
        inv_idx = g.w0_inv[self.u_idx]
        lam = tuple(-x for x in mat_vec(g.w0_list[inv_idx], self.lam))
        return AffineWeylElement(g, lam, inv_idx)

    def is_identity(self) -> bool:
        return self.u_idx == self.group.w0_identity and all(x == 0 for x in self.lam)

    def key(self) -> tuple:
        """Canonical sort key; deterministic across runs."""
        return (self.lam, self.u_idx)

    def __eq__(self, other):
        return (
            isinstance(other, AffineWeylElement)
            and self.lam == other.lam
            and self.u_idx == other.u_idx
            and (self.group is other.group or self.group.datum == other.group.datum)
        )

    def __hash__(self):
        return hash((self.lam, self.u_idx))

    def __repr__(self):
        """lambda and the W0 word, as to_json gives them: no group work."""
        return f"W(lambda={self.lam}, w0_word={self.group.w0_words[self.u_idx]})"


@dataclass(frozen=True)
class OmegaElt:
    """Length-zero element together with its action on the affine diagram."""

    element: AffineWeylElement
    s_permutation: tuple[int, ...]
    pi1_coords: tuple[int, ...]


class AffineSimple(NamedTuple):
    index: int
    root: AffineRoot
    coroot: IntVec
    element: AffineWeylElement


class AffineWeylGroup:
    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.n_components = len(datum.components)
        self._build_finite_group()
        self._build_affine_simples()
        self._bruhat_cache: dict[tuple, bool] = {}
        self._rw_cache: dict[tuple, tuple] = {}
        # right_step's per-(u, i) data, filled on first use; at most
        # |W0| . |S~| entries.
        self._right_steps: dict[tuple[int, int], tuple] = {}
        # This group's entries of the admissible-set memo (admissible.memo),
        # key -> (value, weight), least recently used first; they go with
        # the group.  memo_held is the sum of their weights.
        self.memo_entries: dict[tuple, tuple] = {}
        self.memo_held = 0

    # -- finite Weyl group tables -------------------------------------------

    def _build_finite_group(self) -> None:
        # W0 acts simply transitively on the orbit of the regular dominant
        # p = 2 rho^vee, the sum of the positive coroots, so u(p) keys u;
        # s_a q = q - <a, q> a^vee.  One queue over the orbit meets the
        # points in breadth-first order and gives each its matrix and word.
        d = self.datum

        def reflect(q: IntVec, a: IntVec, av: IntVec) -> IntVec:
            c = dot(a, q)
            return tuple(x - c * y for x, y in zip(q, av))

        gens = list(zip(d.simple_reflections, d.simple_roots, d.simple_coroots))
        points: list[IntVec] = [d.two_rho_vee]
        index: dict[IntVec, int] = {d.two_rho_vee: 0}
        order: list[Mat] = [identity_matrix(d.rank)]
        words: list[tuple[int, ...]] = [()]
        for i, q in enumerate(points):
            for g, (s_g, a, av) in enumerate(gens):
                image = reflect(q, a, av)
                if image not in index:
                    if len(points) == MAX_W0_ORDER:
                        raise SchemaError(
                            f"/simple_roots: the finite Weyl group exceeds"
                            f" the maximum order {MAX_W0_ORDER}"
                        )
                    index[image] = len(points)
                    points.append(image)
                    order.append(mat_mul(s_g, order[i]))
                    words.append((g,) + words[i])
        self.w0_list: tuple[Mat, ...] = tuple(order)
        self.w0_index: dict[Mat, int] = {m: i for i, m in enumerate(order)}
        self.w0_words: tuple[tuple[int, ...], ...] = tuple(words)
        self.w0_identity = 0
        # One row per wall ((a, k), a^vee): row[u] indexes s_a . u.
        self._wall_rows: tuple[tuple[int, ...], ...] = tuple(
            tuple(index[reflect(q, a, av)] for q in points) for (a, _k), av in d.walls
        )
        self.w0_inv: tuple[int, ...] = tuple(self.finite_index(word[::-1]) for word in words)
        # Length offsets: 1 when u^{-1}(a) is negative, i.e. <a, u(p)> < 0.
        self.w0_offsets: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(dot(a, q) < 0) for a in d.positive_roots) for q in points
        )

    def w0_order(self) -> int:
        return len(self.w0_list)

    # -- affine simple reflections -------------------------------------------

    def _build_affine_simples(self) -> None:
        d = self.datum
        simples = self.simple_affine = tuple(
            AffineSimple(i, root, coroot, self.reflection(root))
            for i, (root, coroot) in enumerate(d.walls)
        )
        assert all(self.length(s.element) == 1 for s in simples), (
            "alcove walls must be length-one reflections"
        )
        self.affine_cartan: Mat = tuple(
            tuple(dot(sj.root.gradient, si.coroot) for sj in simples)
            for si in simples
        )
        # Per affine simple s_i = t^{-k a^vee} s_a: a, k, the index j of the
        # positive root +-a, flip = 1 when a = -theta is negative, a^vee
        # and the W0 index of s_a (see right_step).
        pos_index = {r: j for j, r in enumerate(d.positive_roots)}
        descent_data = []
        for s in simples:
            a, k = s.root
            flip = a not in pos_index
            j = pos_index[tuple(-c for c in a) if flip else a]
            descent_data.append((a, k, j, int(flip), s.coroot, s.element.u_idx))
        self._descent_data = tuple(descent_data)

    def identity(self) -> AffineWeylElement:
        return AffineWeylElement(self, (0,) * self.datum.rank, self.w0_identity)

    def translation(self, lam: Sequence[int]) -> AffineWeylElement:
        return AffineWeylElement(self, tuple(int(x) for x in lam), self.w0_identity)

    def from_matrix(self, lam: Sequence[int], mat: Mat) -> AffineWeylElement:
        idx = self.w0_index.get(mat)
        if idx is None:
            raise DatumMismatch("matrix is not an element of the finite Weyl group")
        return AffineWeylElement(self, tuple(int(x) for x in lam), idx)

    def finite_index(self, letters: Sequence[int], u: int = 0) -> int:
        """The W0 index of s_{i_1} ... s_{i_k} . u, for finite simple
        letters i_j, by one wall row per letter, last letter first."""
        rows = self._wall_rows[self.n_components:]
        for i in reversed(letters):
            u = rows[i][u]
        return u

    def reflection(self, root: AffineRoot) -> AffineWeylElement:
        """s_{(a,k)} = t^{-k a^vee} s_a."""
        d = self.datum
        a = root.gradient
        av = d.coroot(a)
        m = reflection_matrix(d.rank, a, av)
        lam = tuple(-root.level * x for x in av)
        return self.from_matrix(lam, m)

    def simple(self, i: int) -> AffineWeylElement:
        return self.simple_affine[i].element

    # -- length and reduced words ---------------------------------------------

    def length_of(self, lam: IntVec, u_idx: int) -> int:
        pairings = [sum(map(mul, a, lam)) for a in self.datum.positive_roots]
        return sum(map(abs, map(sub, pairings, self.w0_offsets[u_idx])))

    def length(self, x: AffineWeylElement) -> int:
        return self.length_of(x.lam, x.u_idx)

    def sort_key(self, x: AffineWeylElement) -> tuple:
        """(length, canonical key): the order of element lists in reports."""
        return (self.length(x),) + x.key()

    def left_step(self, i: int, lam: IntVec, u_idx: int) -> tuple[IntVec, int, bool]:
        """(lam', u', fell) with s_i x = (lam', u') for x = (lam, u), and
        fell = l(s_i x) < l(x).

        With s_i = t^{-k a^vee} s_a and c = k + <a, lam>, s_i x is
        (lam - c a^vee, s_a u).  s_i x < x iff the wall of s_i separates
        the base alcove from its image under x, i.e. iff the affine root
        (a, k) of s_i composed with x is negative.  That root has gradient
        a . u, negative exactly where the length offset of u at +-a is 1
        (0 for a = -theta), and level c; a root is negative when its level
        is below 1 (negative gradient) or below 0 (positive gradient).  One
        pairing gives both, with no product or length.
        """
        a, k, j, flip, av, s_idx = self._descent_data[i]
        c = k + sum(map(mul, a, lam))
        return (
            tuple(l - c * v for l, v in zip(lam, av)),
            self._wall_rows[i][u_idx],
            c < self.w0_offsets[u_idx][j] ^ flip,
        )

    def right_step(self, i: int, lam: IntVec, u_idx: int) -> tuple[IntVec, int, bool]:
        """(lam', u', fell) with x s_i = (lam', u') for x = (lam, u), and
        fell = l(x s_i) < l(x).

        x s_i = (lam - k u(a^vee), u s_a), and s_i is a right descent of x
        iff it is a left descent of x^{-1} = (-u^{-1} lam, u^{-1}), i.e.
        iff k - <a . u^{-1}, lam> < off[u^{-1}][j] ^ flip.  Everything but
        lam depends on (u, i) only and is kept in _right_steps.
        """
        hit = self._right_steps.get((u_idx, i))
        if hit is None:
            a, k, j, flip, av, s_idx = self._descent_data[i]
            u_inv = self.w0_inv[u_idx]
            hit = (
                k,
                vec_mat(a, self.w0_list[u_inv]),
                tuple(k * v for v in mat_vec(self.w0_list[u_idx], av)),
                self.finite_index(self.w0_words[u_idx], s_idx),
                self.w0_offsets[u_inv][j] ^ flip,
            )
            self._right_steps[u_idx, i] = hit
        k, b, shift, v_idx, bound = hit
        return tuple(map(sub, lam, shift)), v_idx, k - sum(map(mul, b, lam)) < bound

    def _lowest_descent(self, lam: IntVec, u_idx: int) -> tuple[int, IntVec, int] | None:
        """(i, lam', u') for the lowest left descent s_i of x = (lam, u),
        with s_i x = (lam', u'); None at length zero.  Each wall's bit is
        read from its one pairing c = k + <a, lam> as in left_step, and
        lam' is built only for the wall that falls."""
        offsets = self.w0_offsets[u_idx]
        for i, (a, k, j, flip, av, _s) in enumerate(self._descent_data):
            c = k + sum(map(mul, a, lam))
            if c < offsets[j] ^ flip:
                return i, tuple(l - c * v for l, v in zip(lam, av)), self._wall_rows[i][u_idx]
        return None

    def reduced_word(self, x: AffineWeylElement) -> tuple[tuple[int, ...], AffineWeylElement]:
        """Word (i_1..i_l) and omega with x = s_{i_1} ... s_{i_l} omega,
        peeling the lowest left descent at each step.  The memo of words
        is cleared when it holds CACHE_BOUND of them."""
        key = x.key()
        hit = self._rw_cache.get(key)
        if hit is not None:
            return hit
        word: list[int] = []
        lam, u = x.lam, x.u_idx
        while (step := self._lowest_descent(lam, u)) is not None:
            i, lam, u = step
            word.append(i)
        cur = AffineWeylElement(self, lam, u)
        assert self.length(cur) == 0
        out = (tuple(word), cur)
        if len(self._rw_cache) >= CACHE_BOUND:
            self._rw_cache.clear()
        self._rw_cache[key] = out
        return out

    def assemble(self, word: Sequence[int], omega: AffineWeylElement | None = None) -> AffineWeylElement:
        """s_{i_1} ... s_{i_l} omega, by one left step per letter."""
        if omega is None:
            omega = self.identity()
        elif omega.group is not self and omega.group.datum != self.datum:
            raise DatumMismatch("elements live over different root data")
        lam, u = omega.lam, omega.u_idx
        for i in reversed(word):
            lam, u, _fell = self.left_step(i, lam, u)
        return AffineWeylElement(self, lam, u)

    # -- Omega ------------------------------------------------------------------

    def omega_of(self, x: AffineWeylElement) -> AffineWeylElement:
        return self.reduced_word(x)[1]

    def kappa(self, x: AffineWeylElement) -> tuple[int, ...]:
        """Kottwitz projection to pi_1 = lattice / coroot lattice."""
        return self.datum.pi1.project(x.lam)

    def permute_walls(
        self, x: AffineWeylElement, walls: Sequence | None = None, matrix_inv: Mat | None = None
    ) -> tuple[int, ...] | None:
        """The permutation pi with Ad(x) . sigma sending walls[i] to
        walls[pi(i)], or None when some image is not in `walls`.

        `walls` defaults to the base alcove's, `datum.walls`, and may be
        a Levi datum's on the same lattice; sigma is the lattice
        automorphism with inverse matrix `matrix_inv`, the identity by
        default.  For x = (lam, u), Ad(x) . sigma sends the affine root
        (a, k) to (g, k - <g, lam>) with g = a . M^-1 . u^-1, which
        matches conjugation: s_{x . f} = x s_f x^{-1}.
        """
        walls = self.datum.walls if walls is None else walls
        index = {root: i for i, (root, _coroot) in enumerate(walls)}
        back = self.w0_list[self.w0_inv[x.u_idx]]
        if matrix_inv is not None:
            back = mat_mul(matrix_inv, back)
        perm = []
        for (a, k), _coroot in walls:
            g = vec_mat(a, back)
            j = index.get((g, k - dot(g, x.lam)))
            if j is None:
                return None
            perm.append(j)
        return tuple(perm)

    def omega_elt(self, x: AffineWeylElement) -> OmegaElt:
        assert self.length(x) == 0
        return OmegaElt(x, self.permute_walls(x), self.kappa(x))

    def omega_elements(self) -> list[OmegaElt]:
        """One length-zero element per torsion class of pi_1, plus one
        designated generator per free class."""
        pi1 = self.datum.pi1
        coords = itertools.chain(pi1.torsion_elements(), pi1.free_generator_coords())
        return [self.omega_elt(self.omega_of(self.translation(pi1.lift(c)))) for c in coords]

    # -- Bruhat order ------------------------------------------------------------

    def bruhat_leq(self, x: AffineWeylElement, y: AffineWeylElement) -> bool:
        """Descent recursion; order only relates elements of one W_a-coset."""
        if self.kappa(x) != self.kappa(y):
            return False
        return self._bruhat(x.lam, x.u_idx, y.lam, y.u_idx)

    def _bruhat(self, xl: IntVec, xu: int, yl: IntVec, yu: int) -> bool:
        """Walks the descent chain down to a known answer, then memoizes
        every pair on the chain with it, first clearing the memo when the
        chain would take it past CACHE_BOUND.  A loop, not recursion: the
        chain is as long as l(y).

        Each step takes the lowest left descent s of y and replaces y by
        s y, and x by s x when s is a descent of x too, both by left_step.
        Descents are read off affine-root signs, so l(x) and l(y) are
        computed once per chain and then decremented with the moves.
        """
        chain = []
        lx = ly = None
        while True:
            if xl == yl and xu == yu:
                res = True
                break
            key = (xl, xu, yl, yu)
            hit = self._bruhat_cache.get(key)
            if hit is not None:
                res = hit
                break
            chain.append(key)
            if ly is None:
                lx = self.length_of(xl, xu)
                ly = self.length_of(yl, yu)
            if lx >= ly:
                res = False
                break
            # ly > lx >= 0, so y has a descent.
            i, yl, yu = self._lowest_descent(yl, yu)
            ly -= 1
            sxl, sxu, fell = self.left_step(i, xl, xu)
            if fell:
                xl, xu, lx = sxl, sxu, lx - 1
        cache = self._bruhat_cache
        if len(cache) + len(chain) > CACHE_BOUND:
            cache.clear()
            del chain[CACHE_BOUND:]
        for key in chain:
            cache[key] = res
        return res

    def covers_below(
        self, x: AffineWeylElement, known: dict | None = None
    ) -> list[AffineWeylElement]:
        """Elements covered by x in the Bruhat order, sy first for the
        lowest left descent s of x.

        By the lifting property (Deodhar's property Z, Invent. Math. 39
        (1977); Bjorner-Brenti, Combinatorics of Coxeter Groups, Sect. 2.2),
        for a left descent s of y the interval [e, y] is
        [e, sy] union s[e, sy], so the coatoms of y are sy and the s z for
        the coatoms z of sy with s z > z.  The walk goes down the lowest
        left descents of x, in a loop, to an element filed in `known` or
        one of length zero (no coatoms), then back up the chain with one
        left step per coatom; its `fell` bit is the test s z > z.

        `known` is the caller's dict, one per group and enumeration; each
        chain element's coatoms are filed in it, and x's own entry is
        taken out when it is returned, so a top-down closure whose seeds
        share one length leaves it empty.  A chain files elements before
        the closure reaches them: for D4_sc Adm((2,0,0,0)) the dict holds
        at most 4,214 of the 13,257 elements.
        """
        if known is None:
            known = {}
        chain = []
        y = x
        while y not in known:
            step = self._lowest_descent(y.lam, y.u_idx)
            if step is None:
                known[y] = []
                break
            i, lam, u = step
            chain.append((y, i))
            y = AffineWeylElement(self, lam, u)
        below = known[y]
        for up, i in reversed(chain):
            covers = [y]
            for z in below:
                lam, u, fell = self.left_step(i, z.lam, z.u_idx)
                if not fell:
                    covers.append(AffineWeylElement(self, lam, u))
            known[up] = below = covers
            y = up
        return known.pop(x)

    # -- ball enumeration ----------------------------------------------------------

    def _ball(
        self, max_length: int, starts: Iterable[AffineWeylElement], budget: int
    ) -> list[AffineWeylElement]:
        """All elements of length <= max_length in the W_a-cosets of the
        length-zero `starts`, one coset after another.

        Breadth-first search from each start: level k is the set of left
        steps s . x with x in level k - 1 and s an affine simple reflection
        that is not a left descent of x, so that s . x has length k; each
        wall's bit is read from its pairing as in left_step, and only the
        ascents are built.  It holds every element s_{i_1} ... s_{i_k} omega
        of length k, since dropping the first letter of a reduced word
        leaves one of length k - 1.  Each coset sorted by (length, canonical
        key); one count spans every coset, starts included, and raises
        BudgetExceeded once it passes `budget`, rather than truncating.
        """
        out: list[AffineWeylElement] = []
        for start in starts:
            out.append(start)
            if len(out) > budget:
                raise BudgetExceeded("ball", budget)
            level = [start]
            for _ in range(max_length):
                found: set[AffineWeylElement] = set()
                for x in level:
                    lam, u = x.lam, x.u_idx
                    offsets = self.w0_offsets[u]
                    for i, (a, k, j, flip, av, _s) in enumerate(self._descent_data):
                        c = k + sum(map(mul, a, lam))
                        if c < offsets[j] ^ flip:
                            continue
                        y = AffineWeylElement(
                            self, tuple(l - c * v for l, v in zip(lam, av)), self._wall_rows[i][u]
                        )
                        if y not in found:
                            found.add(y)
                            if len(out) + len(found) > budget:
                                raise BudgetExceeded("ball", budget)
                level = sorted(found, key=AffineWeylElement.key)
                out.extend(level)
        return out

    def coset_ball(self, max_length: int, budget: int = DEFAULT_BUDGET) -> list[AffineWeylElement]:
        """The elements of W_a, the neutral coset, of length <= max_length."""
        return self._ball(max_length, [self.identity()], budget)

    def ball(
        self,
        max_length: int,
        omegas: Iterable[AffineWeylElement] | None = None,
        budget: int = DEFAULT_BUDGET,
    ) -> list[AffineWeylElement]:
        """The elements of length <= max_length in the W_a-cosets of `omegas`,
        the neutral one by default, coset by coset; they share one budget."""
        omegas = [self.identity()] if omegas is None else omegas
        return self._ball(max_length, map(self.omega_of, omegas), budget)

    # -- parabolic quotients ---------------------------------------------------------

    def parabolic_is_finite(self, k_set: Sequence[int]) -> bool:
        sub = tuple(
            tuple(self.affine_cartan[i][j] for j in k_set) for i in k_set
        )
        return principal_minors_positive(sub)

    def has_left_descent_in(self, x: AffineWeylElement, k_set: Sequence[int]) -> bool:
        return any(self.left_step(i, x.lam, x.u_idx)[2] for i in k_set)

    def min_double_coset_rep(self, x: AffineWeylElement, k_set: Sequence[int]) -> AffineWeylElement:
        """The minimal element of W_K x W_K, by peeling descents: left
        ones first, then right ones, each in the order of k_set."""
        if not self.parabolic_is_finite(k_set):
            raise InfiniteParabolic(f"W_K for K={sorted(k_set)} is infinite")
        steps = [(step, i) for step in (self.left_step, self.right_step) for i in k_set]
        lam, u = x.lam, x.u_idx
        while True:
            for step, i in steps:
                lam_i, u_i, fell = step(i, lam, u)
                if fell:
                    lam, u = lam_i, u_i
                    break
            else:
                return AffineWeylElement(self, lam, u)

    # -- serialization ---------------------------------------------------------------------

    def to_json(self, x: AffineWeylElement) -> dict:
        return {
            "lambda": list(x.lam),
            "w0_word": list(self.w0_words[x.u_idx]),
        }

    def from_json(self, obj: dict) -> AffineWeylElement:
        lam = tuple(int(x) for x in obj["lambda"])
        return AffineWeylElement(self, lam, self.finite_index(obj["w0_word"]))

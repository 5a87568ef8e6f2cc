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

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, DatumMismatch, InfiniteParabolic
from .linalg import (
    Mat,
    Vec,
    dot,
    identity_matrix,
    mat_mul,
    mat_vec,
    principal_minors_positive,
    vec_mat,
)
from .root_datum import RootDatum, reflection_matrix

IntVec = tuple[int, ...]


class AffineRoot(NamedTuple):
    """Affine root a + k: the function x -> <a, x> + k on the apartment."""

    gradient: IntVec
    level: int


@dataclass(frozen=True)
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
        return AffineWeylElement(g, lam, g.w0_mul[self.u_idx][other.u_idx])

    def inverse(self) -> "AffineWeylElement":
        g = self.group
        inv_idx = g.w0_inv[self.u_idx]
        lam = tuple(-x for x in mat_vec(g.w0_list[inv_idx], self.lam))
        return AffineWeylElement(g, lam, inv_idx)

    @property
    def length(self) -> int:
        return self.group.length_of(self.lam, self.u_idx)

    def is_identity(self) -> bool:
        return self.u_idx == self.group.w0_identity and all(x == 0 for x in self.lam)

    def apply(self, point: Sequence) -> Vec:
        """Affine action on the apartment: x -> lambda + u(x)."""
        return tuple(
            a + b for a, b in zip(self.lam, mat_vec(self.mat, point))
        )

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
        word, omega = self.group.reduced_word(self)
        tail = f"*omega{omega.lam}" if not omega.is_identity() else ""
        return f"W[{'.'.join(map(str, word)) or 'e'}{tail}]"


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
        self._build_finite_group()
        self._build_affine_simples()
        self._bruhat_cache: dict[tuple, bool] = {}
        self._rw_cache: dict[tuple, tuple] = {}
        # This group's entries of admissible.MEMO, which go with the group.
        self.memo_entries: dict[tuple, object] = {}

    # -- finite Weyl group tables -------------------------------------------

    def _build_finite_group(self) -> None:
        d = self.datum
        gens = list(d.simple_reflections)
        ident = identity_matrix(d.rank)
        index: dict[Mat, int] = {ident: 0}
        order: list[Mat] = [ident]
        words: list[tuple[int, ...]] = [()]
        # The breadth-first search visits indices in increasing order, so
        # left[g][k] ends up indexing gens[g] . order[k].  step[i - 1] =
        # (g, p) records order[i] = gens[g] . order[p], with p < i.
        left: list[list[int]] = [[] for _ in gens]
        step: list[tuple[int, int]] = []
        frontier = [0]
        while frontier:
            nxt = []
            for idx in frontier:
                m = order[idx]
                for gi, gmat in enumerate(gens):
                    prod = mat_mul(gmat, m)
                    if prod not in index:
                        index[prod] = len(order)
                        order.append(prod)
                        words.append((gi,) + words[idx])
                        step.append((gi, idx))
                        nxt.append(index[prod])
                    left[gi].append(index[prod])
            frontier = nxt
        self.w0_list: tuple[Mat, ...] = tuple(order)
        self.w0_index: dict[Mat, int] = index
        self.w0_words: tuple[tuple[int, ...], ...] = tuple(words)
        self.w0_identity = 0
        n = len(order)
        # order[i] . order[k] = gens[g] . (order[p] . order[k]).
        self.w0_mul = [list(range(n))]
        for g, p in step:
            row = left[g]
            self.w0_mul.append([row[j] for j in self.w0_mul[p]])
        self.w0_inv = [row.index(0) for row in self.w0_mul]
        # Length offsets: entry is 0 when u^{-1}(a) stays positive, else 1.
        pos = d.positive_roots
        posset = d.positive_set
        offs = []
        for m in order:
            offs.append(tuple(0 if vec_mat(a, m) in posset else 1 for a in pos))
        self.w0_offsets: tuple[tuple[int, ...], ...] = tuple(offs)
        # (a, a^vee, W0 index of s_a) per positive root, for covers_below.
        self._root_reflections = tuple(
            (a, d.coroot(a), index[reflection_matrix(d.rank, a, d.coroot(a))])
            for a in pos
        )

    def w0_order(self) -> int:
        return len(self.w0_list)

    # -- affine simple reflections -------------------------------------------

    def _build_affine_simples(self) -> None:
        d = self.datum
        simples: list[AffineSimple] = []
        for theta in d.highest_roots:
            grad = tuple(-x for x in theta)
            coroot = tuple(-x for x in d.coroot(theta))
            elt = self.reflection(AffineRoot(grad, 1))
            simples.append(AffineSimple(len(simples), AffineRoot(grad, 1), coroot, elt))
        for i in range(d.n_simple):
            root = AffineRoot(d.simple_roots[i], 0)
            elt = self.reflection(root)
            simples.append(
                AffineSimple(len(simples), root, d.simple_coroots[i], elt)
            )
        self.simple_affine: tuple[AffineSimple, ...] = tuple(simples)
        assert all(self.length(s.element) == 1 for s in simples), (
            "alcove walls must be length-one reflections"
        )
        self.n_components = len(d.components)
        self.affine_cartan: Mat = tuple(
            tuple(dot(sj.root.gradient, si.coroot) for sj in simples)
            for si in simples
        )
        self._simple_by_root = {s.root: s.index for s in simples}
        # Per affine simple (a, k): a, k, the index j of the positive root
        # +-a, and flip = 1 when a = -theta is negative; see is_left_descent.
        pos_index = {r: j for j, r in enumerate(d.positive_roots)}
        descent_data = []
        for s in simples:
            a, k = s.root
            flip = a not in pos_index
            j = pos_index[tuple(-c for c in a) if flip else a]
            descent_data.append((a, k, j, int(flip)))
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

    def from_finite_word(self, lam: Sequence[int], word: Sequence[int]) -> AffineWeylElement:
        m = identity_matrix(self.datum.rank)
        for i in word:
            m = mat_mul(m, self.datum.simple_reflections[i])
        return self.from_matrix(lam, m)

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
        pairings = [dot(a, lam) for a in self.datum.positive_roots]
        return sum(map(abs, map(operator.sub, pairings, self.w0_offsets[u_idx])))

    def length(self, x: AffineWeylElement) -> int:
        return self.length_of(x.lam, x.u_idx)

    def is_left_descent(self, i: int, lam: IntVec, u_idx: int) -> bool:
        """l(s_i x) < l(x) for x = (lam, u), from the sign of one affine root.

        s_i x < x iff the wall of s_i separates the base alcove from its
        image under x, i.e. iff the affine root (a, k) of s_i composed with
        x is negative.  That root has gradient a . u, negative exactly
        where the length offset of u at +-a is 1 (0 for a = -theta), and
        level k + <a, lam>; a root is negative when its level is below 1
        (negative gradient) or below 0 (positive gradient).
        """
        a, k, j, flip = self._descent_data[i]
        return k + dot(a, lam) < self.w0_offsets[u_idx][j] ^ flip

    def is_right_descent(self, i: int, x: AffineWeylElement) -> bool:
        """l(x s_i) < l(x): x sends the affine root of s_i to a negative one."""
        return not self.is_positive_affine(
            self.act_on_affine_root(x, self.simple_affine[i].root)
        )

    def left_descent(self, x: AffineWeylElement) -> int | None:
        """Lowest affine-simple index i with l(s_i x) < l(x), or None;
        decided by is_left_descent, with no product or length."""
        for i in range(len(self.simple_affine)):
            if self.is_left_descent(i, x.lam, x.u_idx):
                return i
        return None

    def reduced_word(self, x: AffineWeylElement) -> tuple[tuple[int, ...], AffineWeylElement]:
        """Word (i_1..i_l) and omega with x = s_{i_1} ... s_{i_l} omega."""
        key = x.key()
        hit = self._rw_cache.get(key)
        if hit is not None:
            return hit
        word: list[int] = []
        cur = x
        while True:
            i = self.left_descent(cur)
            if i is None:
                break
            word.append(i)
            cur = self.simple(i) * cur
        assert self.length(cur) == 0
        out = (tuple(word), cur)
        self._rw_cache[key] = out
        return out

    def assemble(self, word: Sequence[int], omega: AffineWeylElement | None = None) -> AffineWeylElement:
        cur = omega if omega is not None else self.identity()
        for i in reversed(word):
            cur = self.simple(i) * cur
        return cur

    def finite_reduced_word(self, u_idx: int) -> tuple[int, ...]:
        """Reduced word of a finite Weyl element over the simple roots."""
        return self.w0_words[u_idx]

    # -- Omega ------------------------------------------------------------------

    def omega_of(self, x: AffineWeylElement) -> AffineWeylElement:
        return self.reduced_word(x)[1]

    def kappa(self, x: AffineWeylElement) -> tuple[int, ...]:
        """Kottwitz projection to pi_1 = lattice / coroot lattice."""
        return self.datum.pi1.project(x.lam)

    def s_permutation_of(self, omega: AffineWeylElement) -> tuple[int, ...]:
        """Permutation of the affine simple set induced by conjugation."""
        inv = omega.inverse()
        perm = []
        for s in self.simple_affine:
            conj = omega * s.element * inv
            idx = next(
                (t.index for t in self.simple_affine if t.element == conj), None
            )
            if idx is None:
                raise DatumMismatch("element does not normalize the base alcove")
            perm.append(idx)
        return tuple(perm)

    def omega_elt(self, x: AffineWeylElement) -> OmegaElt:
        assert self.length(x) == 0
        return OmegaElt(x, self.s_permutation_of(x), self.kappa(x))

    def omega_elements(self) -> list[OmegaElt]:
        """One length-zero element per torsion class of pi_1, plus one
        designated generator per free class."""
        pi1 = self.datum.pi1
        out = []
        for coords in pi1.torsion_elements():
            lam = pi1.lift(coords)
            out.append(self.omega_elt(self.omega_of(self.translation(lam))))
        for coords in pi1.free_generator_coords():
            lam = pi1.lift(coords)
            out.append(self.omega_elt(self.omega_of(self.translation(lam))))
        return out

    # -- Bruhat order ------------------------------------------------------------

    def bruhat_leq(self, x: AffineWeylElement, y: AffineWeylElement) -> bool:
        """Descent recursion; order only relates elements of one W_a-coset."""
        if self.kappa(x) != self.kappa(y):
            return False
        return self._bruhat(x.lam, x.u_idx, y.lam, y.u_idx)

    def _bruhat(self, xl: IntVec, xu: int, yl: IntVec, yu: int) -> bool:
        """Walks the descent chain down to a known answer, then memoizes
        every pair on the chain with it.  A loop, not recursion: the
        chain is as long as l(y).

        Each step takes the lowest left descent s of y and replaces y by
        s y, and x by s x when s is a descent of x too.  Descents are read
        off affine-root signs, so l(x) and l(y) are computed once per
        chain and then decremented with the moves.
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
            y = AffineWeylElement(self, yl, yu)
            s = self.simple_affine[self.left_descent(y)]
            sy = s.element * y
            yl, yu = sy.lam, sy.u_idx
            ly -= 1
            if self.is_left_descent(s.index, xl, xu):
                sx = s.element * AffineWeylElement(self, xl, xu)
                xl, xu = sx.lam, sx.u_idx
                lx -= 1
        for key in chain:
            self._bruhat_cache[key] = res
        return res

    def covers_below(self, x: AffineWeylElement) -> list[AffineWeylElement]:
        """Elements covered by x in the Bruhat order.

        By the strong exchange condition the covers are the x . s_beta of
        length l(x) - 1, with beta running over the right inversions of
        x.  For x = (lam, u) and a positive root a, put b = a . u^{-1}
        and p = <b, lam>: x sends the affine root of s_(a,k) to one with
        gradient b and level k - p, so the levels k with x . s_(a,k) < x
        form one integer range, and the ranges hold l(x) levels in all.
        Each candidate x . s_(a,k) = (lam - k u(a^vee), u s_a) is one
        vector update and one table lookup.

        Along one range the candidate length is the convex function
        k -> sum_c |<c, lam> - k <c, u(a^vee)> - off(c)| over positive
        roots c, and it is at most l(x) - 1 on the whole range.  So an
        interior level is a cover exactly when every level is, and
        `_level_length` is evaluated at most three times per range.
        """
        lam, u = x.lam, x.u_idx
        u_inv = self.w0_inv[u]
        # <b, lam> = <a, u^{-1} lam>, and b is negative exactly where the
        # length offsets of u^{-1} are 1.
        lam_back = mat_vec(self.w0_list[u_inv], lam)
        b_negative = self.w0_offsets[u_inv]
        m = self.w0_list[u]
        row = self.w0_mul[u]
        ranges = []
        lx = 0
        for (a, av, s_idx), neg in zip(self._root_reflections, b_negative):
            p = dot(a, lam_back)
            if neg:
                lo, hi = (0, p) if p >= 0 else (p + 1, -1)
            else:
                lo, hi = (0, p - 1) if p > 0 else (p, -1)
            if lo <= hi:
                lx += hi - lo + 1
                ranges.append((mat_vec(m, av), row[s_idx], lo, hi))
        pos = self.datum.positive_roots
        pairings = [dot(c, lam) for c in pos]
        out = []
        for uav, v_idx, lo, hi in ranges:
            slopes = [dot(c, uav) for c in pos]
            offsets = self.w0_offsets[v_idx]

            def is_cover(k):
                return self._level_length(pairings, slopes, offsets, k) == lx - 1

            if hi - lo >= 2 and is_cover(lo + 1):
                levels = range(lo, hi + 1)
            else:
                levels = [k for k in ((lo,) if lo == hi else (lo, hi)) if is_cover(k)]
            for k in levels:
                cand = tuple(l - k * c for l, c in zip(lam, uav))
                out.append(AffineWeylElement(self, cand, v_idx))
        return out

    @staticmethod
    def _level_length(pairings, slopes, offsets, k: int) -> int:
        """l(lam - k v, u') from the pairings <c, lam> and <c, v> over the
        positive roots c and the length offsets of u'."""
        return sum(abs(p - k * s - o) for p, s, o in zip(pairings, slopes, offsets))

    def bruhat_interval_below(self, y: AffineWeylElement) -> set[AffineWeylElement]:
        """All x <= y, by closing under covers."""
        seen = {y}
        frontier = [y]
        while frontier:
            nxt = []
            for w in frontier:
                for c in self.covers_below(w):
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        return seen

    # -- ball enumeration ----------------------------------------------------------

    def coset_ball(
        self,
        max_length: int,
        omega: AffineWeylElement | None = None,
        budget: int = 5_000_000,
    ) -> list[AffineWeylElement]:
        """All elements of length <= max_length in the W_a-coset of omega.

        Breadth-first search from the length-zero element of the coset:
        level k is the set of products s . x with x in level k - 1 and s
        an affine simple reflection that is not a left descent of x, so
        that s . x has length k; the product is formed only then.  It
        holds every element s_{i_1} ... s_{i_k} omega of length k, since
        dropping the first letter of a reduced word leaves one of length
        k - 1.  Sorted by (length, canonical key); raises BudgetExceeded
        once more than `budget` elements are visited, rather than
        truncating.
        """
        start = self.identity() if omega is None else self.omega_of(omega)
        level = [start]
        out = [start]
        for k in range(1, max_length + 1):
            found: set[AffineWeylElement] = set()
            for x in level:
                for s in self.simple_affine:
                    if self.is_left_descent(s.index, x.lam, x.u_idx):
                        continue
                    y = s.element * x
                    if y not in found:
                        found.add(y)
                        if len(out) + len(found) > budget:
                            raise BudgetExceeded(f"ball exceeds node budget {budget}")
            level = sorted(found, key=AffineWeylElement.key)
            out.extend(level)
        return out

    def ball(
        self,
        max_length: int,
        omegas: Iterable[AffineWeylElement] | None = None,
        budget: int = 5_000_000,
    ) -> list[AffineWeylElement]:
        """Union of coset balls; defaults to the neutral coset only."""
        if omegas is None:
            omegas = [self.identity()]
        out = []
        for om in omegas:
            out.extend(self.coset_ball(max_length, om, budget=budget))
        return out

    # -- parabolic quotients ---------------------------------------------------------

    def parabolic_is_finite(self, k_set: Sequence[int]) -> bool:
        sub = tuple(
            tuple(self.affine_cartan[i][j] for j in k_set) for i in k_set
        )
        return principal_minors_positive(sub)

    def parabolic_elements(self, k_set: Sequence[int]) -> list[AffineWeylElement]:
        """All elements of W_K; requires W_K finite."""
        if not self.parabolic_is_finite(k_set):
            raise InfiniteParabolic(f"W_K for K={sorted(k_set)} is infinite")
        gens = [self.simple(i) for i in k_set]
        seen = {self.identity().key(): self.identity()}
        frontier = [self.identity()]
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    cand = g * w
                    if cand.key() not in seen:
                        seen[cand.key()] = cand
                        nxt.append(cand)
            frontier = nxt
        return sorted(seen.values(), key=lambda x: (self.length(x),) + x.key())

    def has_left_descent_in(self, x: AffineWeylElement, k_set: Sequence[int]) -> bool:
        return any(self.is_left_descent(i, x.lam, x.u_idx) for i in k_set)

    def has_right_descent_in(self, x: AffineWeylElement, k_set: Sequence[int]) -> bool:
        return any(self.is_right_descent(i, x) for i in k_set)

    def min_coset_reps(
        self,
        k_set: Sequence[int],
        max_length: int,
        side: str = "left",
        omegas: Iterable[AffineWeylElement] | None = None,
        budget: int = 5_000_000,
    ) -> Iterator[AffineWeylElement]:
        """Length-bounded minimal representatives.

        side='left' yields representatives of W_K \\ W (no left descent),
        side='right' those of W / W_K, side='double' those of
        W_K \\ W / W_K.
        """
        if not self.parabolic_is_finite(k_set):
            raise InfiniteParabolic(f"W_K for K={sorted(k_set)} is infinite")
        for x in self.ball(max_length, omegas, budget=budget):
            left_ok = not self.has_left_descent_in(x, k_set)
            right_ok = not self.has_right_descent_in(x, k_set)
            if side == "left" and left_ok:
                yield x
            elif side == "right" and right_ok:
                yield x
            elif side == "double" and left_ok and right_ok:
                yield x

    def min_double_coset_rep(self, x: AffineWeylElement, k_set: Sequence[int]) -> AffineWeylElement:
        """The minimal element of W_K x W_K, by peeling descents."""
        if not self.parabolic_is_finite(k_set):
            raise InfiniteParabolic(f"W_K for K={sorted(k_set)} is infinite")
        cur = x
        while True:
            for i in k_set:
                if self.is_left_descent(i, cur.lam, cur.u_idx):
                    cur = self.simple(i) * cur
                    break
            else:
                for i in k_set:
                    if self.is_right_descent(i, cur):
                        cur = cur * self.simple(i)
                        break
                else:
                    return cur

    # -- affine root actions ------------------------------------------------------------

    def is_positive_affine(self, root: AffineRoot) -> bool:
        if root.gradient in self.datum.positive_set:
            return root.level >= 0
        if root.gradient in self.datum.root_set:
            return root.level >= 1
        raise ValueError(f"{root.gradient} is not a root")

    def act_on_affine_root(self, x: AffineWeylElement, root: AffineRoot) -> AffineRoot:
        """Conjugation action on affine roots: the function f . x^{-1}.

        Matches element conjugation: s_{x . f} = x s_f x^{-1}; in
        particular length-zero elements permute the walls of the base
        alcove.
        """
        minv = self.w0_list[self.w0_inv[x.u_idx]]
        grad = vec_mat(root.gradient, minv)
        return AffineRoot(grad, root.level - dot(grad, x.lam))

    def preimage_affine_root(self, x: AffineWeylElement, root: AffineRoot) -> AffineRoot:
        """The root mapped onto `root` by act_on_affine_root(x, .)."""
        grad = vec_mat(root.gradient, self.w0_list[x.u_idx])
        return AffineRoot(grad, root.level + dot(root.gradient, x.lam))

    # -- serialization ---------------------------------------------------------------------

    def to_json(self, x: AffineWeylElement) -> dict:
        return {
            "lambda": list(x.lam),
            "w0_word": list(self.finite_reduced_word(x.u_idx)),
        }

    def from_json(self, obj: dict) -> AffineWeylElement:
        return self.from_finite_word(obj["lambda"], obj["w0_word"])

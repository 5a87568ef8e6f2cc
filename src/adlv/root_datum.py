"""Reduced root data: the static arena for all Weyl-group combinatorics.

A root datum consists of a lattice Z^rank (cocharacters), simple roots
as integer covectors, and simple coroots as integer vectors.  Roots pair
with cocharacters by the dot product.  The full positive system is
produced by reflection closure from the simple roots and every root
carries its coroot.

Only reduced systems are supported; non-reduced relative systems must be
presented pre-reduced, which is the convention all length and Bruhat
computations rely on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import NonIntegralCartan, NonReducedSystem, NotDominantInput, SchemaError
from .fgab import FinAbGroup
from .linalg import (
    Mat,
    dot,
    identity_matrix,
    mat_det,
    mat_mul,
    principal_minors_positive,
    solve_bareiss,
)

IntVec = tuple[int, ...]
QVec = tuple[Fraction, ...]

# Bounds on what an inline root datum may ask for; the presets go up to
# rank 4, 4 simple roots and |W0| = 192.  MAX_RANK bounds the lattice.
# The Cartan check takes 2^n determinants for n simple roots, and the
# group build keeps a matrix, a word and one row entry per wall for each
# element of W0, so these two bound the time and memory a small JSON
# input can cost.  Every finite Weyl group on n simple roots has
# |W0| >= 2^n, so MAX_SIMPLE_ROOTS loses nothing that MAX_W0_ORDER would
# allow.
MAX_RANK = 64
MAX_SIMPLE_ROOTS = 12
MAX_W0_ORDER = 5040


def reflection_matrix(rank: int, root: Sequence[int], coroot: Sequence[int]) -> Mat:
    """Matrix of s_a acting on the cocharacter lattice: x - <a, x> a^vee."""
    return tuple(
        tuple((1 if r == c else 0) - coroot[r] * root[c] for c in range(rank))
        for r in range(rank)
    )


class AffineRoot(NamedTuple):
    """Affine root a + k: the function x -> <a, x> + k on the apartment."""

    gradient: IntVec
    level: int


class BaseAlcove(NamedTuple):
    """Integer data of the base alcove a0: the points p with
    <alpha_i, p> > 0 for every simple root and <theta, p> < 1 for every
    highest root theta."""

    # 2 rho^vee, the sum of the positive coroots, and N > <theta, 2 rho^vee>
    # for every highest root, so that 2 rho^vee / N lies inside a0.
    interior: IntVec
    interior_den: int
    # D and the vectors D v for v = 0 and v = omega_i^vee / m_i, where
    # theta = sum m_i alpha_i over the component of i: the vertices of a0
    # that are 0 on every component but one.
    vertex_den: int
    vertices: tuple[IntVec, ...]
    # The fundamental weights omega_i in the span of the roots,
    # <omega_i, alpha_j^vee> = delta_ij, each scaled to an integer covector
    # by weight_den = det of the Cartan matrix.
    weights: tuple[IntVec, ...]
    weight_den: int


class RootDatum:
    """Immutable after construction; share freely."""

    def __init__(
        self,
        rank: int,
        simple_roots: Sequence[Sequence[int]],
        simple_coroots: Sequence[Sequence[int]],
        name: str = "",
    ):
        if rank <= 0:
            raise NonIntegralCartan("rank must be a positive integer")
        self.rank = rank
        self.simple_roots: tuple[IntVec, ...] = tuple(
            tuple(int(x) for x in a) for a in simple_roots
        )
        self.simple_coroots: tuple[IntVec, ...] = tuple(
            tuple(int(x) for x in a) for a in simple_coroots
        )
        self.name = name
        if len(self.simple_roots) != len(self.simple_coroots):
            raise NonIntegralCartan("need as many coroots as roots")
        for v in self.simple_roots + self.simple_coroots:
            if len(v) != rank:
                raise NonIntegralCartan("root/coroot length differs from rank")
        self.n_simple = len(self.simple_roots)
        self.cartan = tuple(
            tuple(dot(self.simple_roots[j], self.simple_coroots[i])
                  for j in range(self.n_simple))
            for i in range(self.n_simple)
        )
        self._validate_cartan()
        self._close_roots()
        self._validate_reduced()
        self.two_rho: IntVec = tuple(
            sum(a[i] for a in self.positive_roots) for i in range(rank)
        )
        self.two_rho_vee: IntVec = tuple(
            sum(self.coroot(a)[i] for a in self.positive_roots) for i in range(rank)
        )
        self.simple_reflections: tuple[Mat, ...] = tuple(
            reflection_matrix(rank, self.simple_roots[i], self.simple_coroots[i])
            for i in range(self.n_simple)
        )
        self.components = self._components()
        self.highest_roots: tuple[IntVec, ...] = tuple(
            self._highest_root(c) for c in self.components
        )
        # Filled by levi.levi_of: one Levi datum per set of vanishing
        # positive roots, so directions with the same Levi share its Weyl
        # group and memos.
        self._levi_cache: dict = {}
        # Filled by frobenius.sigma_of: one Frobenius per valid matrix.
        self._sigma_cache: dict = {}

    # -- construction helpers ------------------------------------------------

    def _validate_cartan(self) -> None:
        a = self.cartan
        n = self.n_simple
        for i in range(n):
            if a[i][i] != 2:
                raise NonIntegralCartan(f"A[{i}][{i}] = {a[i][i]} != 2")
            for j in range(n):
                if i != j:
                    if a[i][j] > 0:
                        raise NonIntegralCartan(f"A[{i}][{j}] = {a[i][j]} > 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise NonIntegralCartan(f"A[{i}][{j}] zero pattern asymmetric")
        # Simple roots must be linearly independent for the closure to be a
        # genuine positive system; over Q that is a nonsingular Gram matrix.
        roots = self.simple_roots
        if mat_det(tuple(tuple(dot(r, c) for c in roots) for r in roots)) == 0:
            raise NonIntegralCartan("simple roots are linearly dependent")
        # Reflection closure terminates exactly for finite type.
        if not principal_minors_positive(a):
            raise NonIntegralCartan("Cartan matrix is not of finite type")

    def _close_roots(self) -> None:
        """Reflection closure; fills positive_roots, the coroot table and
        the simple coefficients, which s_i changes at i alone: the
        coefficient of alpha_i in s_i a is that in a minus <a, alpha_i^vee>.
        """
        coroot: dict[IntVec, IntVec] = {}
        coeffs: dict[IntVec, IntVec] = {}
        n = self.n_simple
        frontier = [
            (a, av, tuple(int(i == j) for j in range(n)))
            for i, (a, av) in enumerate(zip(self.simple_roots, self.simple_coroots))
        ]
        for a, av, c in frontier:
            coroot[a], coeffs[a] = av, c
        while frontier:
            nxt = []
            for a, av, c in frontier:
                for i in range(n):
                    pa = dot(a, self.simple_coroots[i])
                    b = tuple(
                        a[k] - pa * self.simple_roots[i][k] for k in range(self.rank)
                    )
                    pv = dot(self.simple_roots[i], av)
                    bv = tuple(
                        av[k] - pv * self.simple_coroots[i][k] for k in range(self.rank)
                    )
                    if b not in coroot:
                        coroot[b] = bv
                        coeffs[b] = tuple(x - pa * (j == i) for j, x in enumerate(c))
                        nxt.append((b, bv, coeffs[b]))
                    elif coroot[b] != bv:
                        raise NonIntegralCartan("inconsistent coroot closure")
            frontier = nxt
        self.coroot_table = coroot
        self._coeff_table = coeffs
        positives = [(sum(c), a) for a, c in coeffs.items() if all(x >= 0 for x in c)]
        positives.sort()
        self.positive_roots: tuple[IntVec, ...] = tuple(a for _h, a in positives)
        self.root_set = frozenset(coroot)
        if 2 * len(self.positive_roots) != len(coroot):
            raise NonReducedSystem("positive roots do not split the system in half")

    def _validate_reduced(self) -> None:
        for a in self.root_set:
            if tuple(2 * x for x in a) in self.root_set:
                raise NonReducedSystem(f"root {a} and its double both occur")

    def _components(self) -> tuple[tuple[int, ...], ...]:
        n = self.n_simple
        seen = [False] * n
        comps = []
        for i in range(n):
            if seen[i]:
                continue
            stack, comp = [i], []
            seen[i] = True
            while stack:
                k = stack.pop()
                comp.append(k)
                for j in range(n):
                    if not seen[j] and self.cartan[k][j] != 0:
                        seen[j] = True
                        stack.append(j)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def _highest_root(self, comp: tuple[int, ...]) -> IntVec:
        best = None
        best_h = -1
        for a in self.positive_roots:
            coeffs = self.simple_coefficients(a)
            if any(coeffs[i] and i not in comp for i in range(self.n_simple)):
                continue
            h = sum(coeffs)
            if h > best_h:
                best_h, best = h, a
        assert best is not None
        return best

    # -- basic queries ---------------------------------------------------------

    def simple_coefficients(self, root: Sequence[int]) -> IntVec:
        """Expansion of a root over the simple roots (integer coefficients)."""
        return self._coeff_table[tuple(root)]

    def coroot(self, root: Sequence[int]) -> IntVec:
        return self.coroot_table[tuple(root)]

    def is_dominant(self, v: Sequence) -> bool:
        return all(dot(a, v) >= 0 for a in self.simple_roots)

    def is_central(self, v: Sequence) -> bool:
        """Pairs to zero with every root."""
        return all(dot(a, v) == 0 for a in self.simple_roots)

    def cocharacter(self, mu: Sequence[int]) -> IntVec:
        """mu as a tuple of `rank` integers, the one check a cocharacter
        passes on its way into the package; SchemaError otherwise."""
        mu = tuple(mu) if isinstance(mu, Iterable) else ()
        if len(mu) != self.rank or not all(type(c) is int for c in mu):
            raise SchemaError(f"/mu: expected {self.rank} integers")
        return mu

    def dominant_word(self, v: Sequence[int]) -> tuple[list[int], list[int]]:
        """The dominant vector of the W0-orbit of the integer vector v, and
        the simple reflections i_1, ..., i_k that took v there, in the
        order applied: s_{i_k} ... s_{i_1} v is the result.

        Reflects by  x - <alpha_i, x> alpha_i^vee  at the first simple
        root with <alpha_i, x> < 0, in integers, until there is none.
        """
        cur = list(v)
        word = []
        while True:
            for i, (a, av) in enumerate(zip(self.simple_roots, self.simple_coroots)):
                p = dot(a, cur)
                if p < 0:
                    cur = [c - p * cv for c, cv in zip(cur, av)]
                    word.append(i)
                    break
            else:
                return cur, word

    def dominant_rep(self, v: Sequence) -> tuple[QVec, Mat]:
        """Dominant representative of the W0-orbit of v and a witness w.

        The witness matrix satisfies  witness . v = result.  Runs
        dominant_word on the integer numerator of v over the lcm of its
        denominators.
        """
        q = [Fraction(x) for x in v]
        den = lcm(*(x.denominator for x in q))
        cur, word = self.dominant_word([x.numerator * (den // x.denominator) for x in q])
        wit = identity_matrix(self.rank)
        for i in word:
            wit = mat_mul(self.simple_reflections[i], wit)
        return tuple(Fraction(c, den) for c in cur), wit

    def dominance_leq(self, lam: Sequence, lam2: Sequence) -> bool:
        """lam <= lam2 in dominance order; both must be dominant.

        In integers: both arguments are scaled by the lcm den of all their
        denominators (an int's is 1) to a and a2, D = a2 - a, and p_i =
        <det omega_i, D> from the scaled fundamental weights of
        base_alcove.  sum_i p_i alpha_i^vee is det times the part of D in
        the span of the coroots, so lam <= lam2 exactly when that sum is
        det D (D has no central part) and every p_i >= 0.  Both tests,
        and the dominance check, are homogeneous, so any common positive
        scale gives the same answer.
        """
        den = lcm(*(x.denominator for x in lam), *(x.denominator for x in lam2))
        a = [x.numerator * (den // x.denominator) for x in lam]
        a2 = [x.numerator * (den // x.denominator) for x in lam2]
        if not self.is_dominant(a) or not self.is_dominant(a2):
            raise NotDominantInput("dominance order compares dominant coweights")
        scaled = [y - x for x, y in zip(a, a2)]
        alcove = self.base_alcove
        pairs = [dot(weight, scaled) for weight in alcove.weights]
        span = [
            sum(p * av[r] for p, av in zip(pairs, self.simple_coroots))
            for r in range(self.rank)
        ]
        return span == [alcove.weight_den * x for x in scaled] and all(p >= 0 for p in pairs)

    @cached_property
    def pi1(self) -> FinAbGroup:
        """The quotient of the lattice by the coroot lattice, in Smith form."""
        return FinAbGroup.from_columns(self.rank, self.simple_coroots)

    def quasi_minuscule(self) -> IntVec:
        """Sum over components of the coroot of the highest root."""
        acc = [0] * self.rank
        for theta in self.highest_roots:
            tv = self.coroot(theta)
            acc = [x + y for x, y in zip(acc, tv)]
        return tuple(acc)

    @cached_property
    def walls(self) -> tuple[tuple[AffineRoot, IntVec], ...]:
        """The walls of the base alcove with their coroots, in affine index
        order: (-theta_c, 1) with -theta_c^vee for each component c, then
        (alpha_i, 0) with alpha_i^vee for each simple root."""
        return tuple(
            (AffineRoot(tuple(-x for x in theta), 1), tuple(-x for x in self.coroot(theta)))
            for theta in self.highest_roots
        ) + tuple((AffineRoot(a, 0), av) for a, av in zip(self.simple_roots, self.simple_coroots))

    @cached_property
    def base_alcove(self) -> BaseAlcove:
        """The chamber probe, vertices and fundamental weights that
        admissible.in_adm reads, solved once in integers by Cramer's rule."""
        n, rank = self.n_simple, self.rank
        interior = self.two_rho_vee
        interior_den = 1 + max((dot(a, interior) for a in self.positive_roots), default=0)

        def in_span(basis, coeffs, scale=1):
            return tuple(scale * sum(c * b[r] for c, b in zip(coeffs, basis)) for r in range(rank))

        units = [[int(i == j) for j in range(n)] for i in range(n)]
        # A Cartan matrix of finite type has det > 0, and the solves return
        # y with cartan . y = det e_i: omega_i = sum_k y_k alpha_k / det.
        weights = tuple(
            in_span(self.simple_roots, solve_bareiss(self.cartan, e)[0]) for e in units
        )
        # omega_i^vee = sum_k y_k alpha_k^vee / det, from the transpose
        # <alpha_j, alpha_k^vee>; m_i is the coefficient of alpha_i in the
        # highest root of its component.
        det = mat_det(self.cartan) if n else 1
        m = [sum(c) for c in zip(*map(self.simple_coefficients, self.highest_roots))]
        vertex_den = det * lcm(*m)
        pairing = tuple(zip(*self.cartan))
        vertices = ((0,) * rank,) + tuple(
            in_span(self.simple_coroots, solve_bareiss(pairing, e)[0], vertex_den // (det * mi))
            for e, mi in zip(units, m)
        )
        return BaseAlcove(interior, interior_den, vertex_den, vertices, weights, det)

    @cached_property
    def weyl(self):
        """The extended affine Weyl machinery bound to this datum."""
        from .affine_weyl import AffineWeylGroup

        return AffineWeylGroup(self)

    def __eq__(self, other):
        return (
            isinstance(other, RootDatum)
            and self.rank == other.rank
            and self.simple_roots == other.simple_roots
            and self.simple_coroots == other.simple_coroots
        )

    def __hash__(self):
        return hash((self.rank, self.simple_roots, self.simple_coroots))

    def __repr__(self):
        label = self.name or f"rank{self.rank}"
        return f"RootDatum({label}, |Phi+|={len(self.positive_roots)})"


def from_cartan_matrix(cartan: Sequence[Sequence[int]], name: str = "") -> RootDatum:
    """Simply connected datum: lattice = coroot lattice in its own basis.

    Simple coroots are the unit vectors and simple root j is column j of
    the Cartan matrix.
    """
    n = len(cartan)
    roots = tuple(tuple(cartan[i][j] for i in range(n)) for j in range(n))
    coroots = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))
    return RootDatum(n, roots, coroots, name=name)


def build_root_datum(spec) -> RootDatum:
    """Build from an explicit JSON-style mapping."""
    try:
        rank = spec["rank"]
        roots = spec["simple_roots"]
        coroots = spec["simple_coroots"]
    except (TypeError, KeyError) as exc:
        raise NonIntegralCartan(f"explicit root datum missing field: {exc}") from exc
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise SchemaError("/rank: expected integer")
    if rank > MAX_RANK:
        raise SchemaError(f"/rank: {rank} exceeds the maximum rank {MAX_RANK}")
    for key, vectors in (("simple_roots", roots), ("simple_coroots", coroots)):
        if not isinstance(vectors, list):
            raise SchemaError(f"/{key}: expected a list of integer lists")
        for i, v in enumerate(vectors):
            if not isinstance(v, list):
                raise SchemaError(f"/{key}/{i}: expected a list of integers")
            for j, x in enumerate(v):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise SchemaError(f"/{key}/{i}/{j}: expected integer")
    if len(roots) > MAX_SIMPLE_ROOTS:
        raise SchemaError(
            f"/simple_roots: {len(roots)} exceeds the maximum of {MAX_SIMPLE_ROOTS} simple roots"
        )
    name = spec.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("/name: expected a string")
    return RootDatum(rank, roots, coroots, name=name)

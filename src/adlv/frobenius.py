"""Frobenius actions on the extended affine Weyl group.

A Frobenius datum is a lattice automorphism fixing the base alcove, one
per datum and matrix by `sigma_of`.  On top of it: the twisted conjugation
graph w -> s w sigma(s), Newton points, the Kottwitz projection,
straightness, and reduction to minimal length elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable

from .affine_weyl import DEFAULT_BUDGET, AffineWeylElement, closure
from .errors import BudgetExceeded, DatumMismatch, PeriodOverflow, SchemaError
from .fgab import FinAbGroup
from .linalg import (
    Mat,
    dot,
    identity_matrix,
    mat_det,
    mat_inv_unimodular,
    mat_mul,
    mat_vec,
    matrix_order,
)
from .root_datum import RootDatum

QVec = tuple[Fraction, ...]


# Miller-Rabin with these bases decides primality exactly below 3.3e24.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n >= 2, exact for n < 3.3e24."""
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_of_residue_cardinality(q: int) -> int:
    """The prime p with q = p^e.

    Takes the largest e for which q has an exact integer e-th root r;
    q is a prime power iff that r is prime, and then p = r.

    >>> prime_of_residue_cardinality(2 ** 10)
    2
    >>> prime_of_residue_cardinality(15 ** 4)
    Traceback (most recent call last):
    ...
    adlv.errors.SchemaError: /q: residue cardinality 50625 is not a prime power
    """
    if q < 2:
        raise SchemaError("/q: residue cardinality must be at least 2")
    if q >= 1 << 64:
        raise SchemaError("/q: residue cardinality must be below 2^64")
    # For e >= 2 the root is below 2^32, so the float estimate is off by
    # less than one; for e = 1 the root is q itself.
    root = q
    for e in range(q.bit_length() - 1, 1, -1):
        r = round(q ** (1.0 / e))
        exact = [c for c in (r - 1, r, r + 1) if c**e == q]
        if exact:
            root = exact[0]
            break
    if not _is_prime(root):
        raise SchemaError(f"/q: residue cardinality {q} is not a prime power")
    return root


def sigma_of(datum: RootDatum, matrix: Mat | None = None) -> "FrobeniusDatum":
    """The one Frobenius of the datum and lattice matrix (the identity if
    None), kept in `datum._sigma_cache` so that its Newton data and Smith
    forms are computed once.  A matrix that fails validation raises and is
    not kept; the valid ones are automorphisms of the based root datum."""
    key = tuple(tuple(map(int, row)) for row in matrix or identity_matrix(datum.rank))
    sigma = datum._sigma_cache.get(key)
    if sigma is None:
        sigma = datum._sigma_cache[key] = FrobeniusDatum(datum, key)
    return sigma


class FrobeniusDatum:
    """Length-preserving automorphism of (W, S) given by a lattice matrix,
    a tuple of int tuples.  Package code takes one through `sigma_of`."""

    def __init__(self, datum: RootDatum, matrix: Mat | None = None):
        self.datum = datum
        self.matrix: Mat = matrix or identity_matrix(datum.rank)
        det = mat_det(self.matrix)
        if det not in (1, -1):
            raise SchemaError(f"/lattice_matrix: determinant {det} is not +-1")
        self.matrix_inv = mat_inv_unimodular(self.matrix)
        self.s_permutation: tuple[int, ...] = self._validate()
        self.residually_split = self.matrix == identity_matrix(datum.rank)
        # sigma(s_i) = s_{pi(i)}, so sigma(u) is u's reduced word with
        # each letter relabelled by pi; pi keeps levels, so it sends the
        # finite simple indices k.. among themselves.
        w = datum.weyl
        k = w.n_components
        finite = [j - k for j in self.s_permutation[k:]]
        self._u_image: tuple[int, ...] = tuple(
            w.finite_index([finite[i] for i in word]) for word in w.w0_words
        )
        self._newton_cache: dict[int, tuple[Mat, int]] = {}

    def _validate(self) -> tuple[int, ...]:
        """The permutation pi of the base alcove's walls by sigma, from
        `permute_walls` at the identity.

        Levels are kept, so pi permutes the simple roots, and the check
        M alpha_i^vee = alpha_{pi(i)}^vee gives M s_i M^-1 = s_{pi(i)}:
        M normalises W0, permutes the roots W0 {alpha_i} and carries
        each coroot to that of the image root, so sigma is an
        automorphism of (W, S).
        """
        w = self.datum.weyl
        perm = w.permute_walls(w.identity(), matrix_inv=self.matrix_inv)
        if perm is None:
            raise SchemaError("/lattice_matrix: automorphism does not fix the base alcove")
        walls = self.datum.walls
        for (root, coroot), j in zip(walls, perm):
            if mat_vec(self.matrix, coroot) != walls[j][1]:
                raise SchemaError(
                    f"/lattice_matrix: coroot of {root.gradient} transforms inconsistently"
                )
        return perm

    @cached_property
    def order(self) -> int:
        try:
            return matrix_order(self.matrix, cap=100000)
        except ValueError as exc:
            raise PeriodOverflow(str(exc)) from exc

    def apply(self, x: AffineWeylElement) -> AffineWeylElement:
        w = self.datum.weyl
        if x.group is not w and x.group.datum != self.datum:
            raise DatumMismatch("element and Frobenius live over different data")
        return AffineWeylElement(w, mat_vec(self.matrix, x.lam), self._u_image[x.u_idx])

    # -- Newton and Kottwitz ---------------------------------------------------

    def _newton_data(self, u_idx: int) -> tuple[Mat, int]:
        """(P, N) with nu = P lam / N for elements with finite part u.

        Writing B = u . sigma, the twisted power w sigma(w) ... collapses
        to translation by sum_{j<N} B^j lam once B^N = 1 with N a
        multiple of the order of sigma.
        """
        hit = self._newton_cache.get(u_idx)
        if hit is not None:
            return hit
        w = self.datum.weyl
        b = mat_mul(w.w0_list[u_idx], self.matrix)
        ident = identity_matrix(self.datum.rank)
        cap = self.order * len(w.w0_list)
        powers = [ident]
        while len(powers) <= cap:
            nxt = mat_mul(powers[-1], b)
            if len(powers) % self.order == 0 and nxt == ident:
                res = (tuple(tuple(map(sum, zip(*rows))) for rows in zip(*powers)), len(powers))
                self._newton_cache[u_idx] = res
                return res
            powers.append(nxt)
        raise PeriodOverflow(f"no period below {cap}; datum is inconsistent")

    def newton_direction(self, x: AffineWeylElement) -> tuple[int, ...]:
        """N nu for the raw (not dominantized) Newton vector nu of x, in
        integers: P lam."""
        return mat_vec(self._newton_data(x.u_idx)[0], x.lam)

    @cached_property
    def pi1_coinvariants(self) -> FinAbGroup:
        return self.datum.pi1.coinvariants(self.matrix)

    @cached_property
    def pi1_fixed(self) -> tuple[FinAbGroup, list]:
        return self.datum.pi1.fixed_subgroup(self.matrix)

    def is_straight(self, x: AffineWeylElement) -> bool:
        """Exact test of l(x) = <nu_bar, 2 rho>.

        One pass over the positive roots a gives both sides, scaled by
        N: <N nu, 2 rho> sums |<a, P lam>|, and l(x) sums
        |<a, lam> - off_a(u)| as AffineWeylGroup.length_of does.
        """
        p, n = self._newton_data(x.u_idx)
        num = mat_vec(p, x.lam)
        lam = x.lam
        newton = length = 0
        for a, off in zip(self.datum.positive_roots, self.datum.weyl.w0_offsets[x.u_idx]):
            newton += abs(sum(map(mul, a, num)))
            length += abs(sum(map(mul, a, lam)) - off)
        return newton == n * length

    def tag_of(self, x: AffineWeylElement) -> "StraightClassTag":
        """(Newton point, Kottwitz) tag of x: the dominant representative
        of P lam, found in integers and divided by N once.

        >>> from adlv.presets import preset
        >>> d = preset("A1_ad").datum
        >>> sigma = sigma_of(d)
        >>> sigma.tag_of(d.weyl.omega_elements()[1].element)
        Tag(nu=0, k=(1,))
        >>> sigma.tag_of(d.weyl.translation((-3,)))
        Tag(nu=3, k=(1,))
        """
        p, n = self._newton_data(x.u_idx)
        dom = self.datum.dominant_word(mat_vec(p, x.lam))[0]
        assert self.datum.dominant_word(mat_vec(self.matrix, dom))[0] == dom, (
            "Newton point must be sigma-invariant"
        )
        return StraightClassTag(
            tuple(Fraction(c, n) for c in dom),
            self.datum.pi1.project(x.lam),
            self.pi1_coinvariants.project(x.lam),
        )

    # -- reduction -------------------------------------------------------------

    def _twisted_step(self, i: int, x: AffineWeylElement) -> tuple[AffineWeylElement, int]:
        """(s_i x sigma(s_i), number of the two simple steps that fell).

        sigma(s_i) is the simple reflection s_{sigma(i)}, so this is a
        left step and a right step.  Each moves the length by one, down
        exactly when it fell: the conjugate is shorter by 2, equal or
        longer by 2 as 2, 1 or 0 steps fell.
        """
        w = self.datum.weyl
        if x.group is not w and x.group.datum != self.datum:
            raise DatumMismatch("element and Frobenius live over different data")
        lam, u, fell_left = w.left_step(i, x.lam, x.u_idx)
        lam, u, fell_right = w.right_step(self.s_permutation[i], lam, u)
        return AffineWeylElement(w, lam, u), fell_left + fell_right

    def conj_step(self, i: int, x: AffineWeylElement) -> AffineWeylElement:
        """s_i x sigma(s_i)."""
        return self._twisted_step(i, x)[0]

    def plateau(self, x: AffineWeylElement, budget: int = DEFAULT_BUDGET) -> "Plateau":
        """Closure of x under equal-length twisted conjugation steps.

        The step records each (member, simple index) whose conjugate is
        shorter; the canonical descent is the least of those records.
        Raises BudgetExceeded past the budget.
        """
        indices = range(len(self.datum.weyl.simple_affine))
        descents = []

        def step(y):
            for i in indices:
                z, fell = self._twisted_step(i, y)
                if fell == 1:
                    yield z
                elif fell == 2:
                    descents.append((y, i))

        members = closure([x], step, budget, "plateau")
        descent = min(descents, key=lambda d: (d[0].key(), d[1]), default=None)
        return Plateau(frozenset(members), descent)

    def reduce_to_minimal(
        self, x: AffineWeylElement, plateaus: dict, budget: int = DEFAULT_BUDGET
    ) -> AffineWeylElement:
        """Walk w -> s w sigma(s) without ever increasing length until no
        further decrease is possible anywhere on the final plateau.

        Descent choices are canonical (least plateau member, lowest
        simple index), so the walk is deterministic; an element that is
        already minimal comes back unchanged.  Each plateau met is filed
        under every member in the caller's `plateaus` dict, for later
        walks on this sigma; one larger than the budget raises as if built.
        """
        cur = x
        while True:
            info = plateaus.get(cur)
            if info is None:
                info = self.plateau(cur, budget)
                for m in info.members:
                    plateaus[m] = info
            elif len(info.members) > budget:
                raise BudgetExceeded("plateau", budget)
            if info.descent is None:
                return cur
            y, i = info.descent
            cur = self.conj_step(i, y)

    # -- filters over finite sets ------------------------------------------------

    def straight_elements_in(
        self, elements: Iterable[AffineWeylElement]
    ) -> list[AffineWeylElement]:
        out = [x for x in elements if self.is_straight(x)]
        out.sort(key=self.datum.weyl.sort_key)
        return out

    def plateau_classes(
        self, straights: Iterable[AffineWeylElement], budget: int = DEFAULT_BUDGET
    ) -> list[tuple[AffineWeylElement, frozenset]]:
        """(first element, plateau members) for each straight class that
        `straights` meets, in the order met: the straight elements of a
        class form one equal-length plateau."""
        seen: set[AffineWeylElement] = set()
        classes = []
        for x in straights:
            if x not in seen:
                members = self.plateau(x, budget).members
                seen.update(members)
                classes.append((x, members))
        return classes

    def straight_class_tags(
        self, elements: Iterable[AffineWeylElement]
    ) -> list[tuple["StraightClassTag", list[AffineWeylElement]]]:
        """Straight elements grouped by (Newton point, Kottwitz) tag."""
        groups: dict[StraightClassTag, list[AffineWeylElement]] = {}
        for x in self.straight_elements_in(elements):
            groups.setdefault(self.tag_of(x), []).append(x)
        return sorted(
            groups.items(),
            key=lambda kv: (dot(self.datum.two_rho, kv[0].nu_bar), kv[0].nu_bar),
        )

    # -- serialization -------------------------------------------------------------

    @staticmethod
    def from_json(datum: RootDatum, obj: dict) -> tuple["FrobeniusDatum", int]:
        """(sigma, q); checks the shape and q's type, then q, then the matrix."""
        if not isinstance(obj, dict):
            raise SchemaError("/: sigma spec must be an object")
        mat = obj.get("lattice_matrix")
        if mat is None:
            raise SchemaError("/lattice_matrix: missing")
        if not isinstance(mat, list) or len(mat) != datum.rank:
            raise SchemaError(f"/lattice_matrix: expected {datum.rank} rows")
        for i, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != datum.rank:
                raise SchemaError(f"/lattice_matrix/{i}: expected {datum.rank} entries")
            for j, x in enumerate(row):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise SchemaError(f"/lattice_matrix/{i}/{j}: expected integer")
        q = obj.get("q", 2)
        if isinstance(q, bool) or not isinstance(q, int):
            raise SchemaError("/q: expected integer")
        prime_of_residue_cardinality(q)
        return sigma_of(datum, mat), q

    # Equal data and matrices give equal values, so that memos keyed by
    # sigma hit for a sigma built apart, over a datum built apart too.
    def __eq__(self, other):
        return isinstance(other, FrobeniusDatum) and (
            (self.datum, self.matrix) == (other.datum, other.matrix)
        )

    def __hash__(self):
        return hash((self.datum, self.matrix))

    def __repr__(self):
        kind = "split" if self.residually_split else f"order {self.order}"
        return f"Frobenius({self.datum.name or 'datum'}, {kind})"


@dataclass(frozen=True)
class Plateau:
    """Members of one equal-length twisted conjugation plateau, and the
    canonical descent out of it (least member, lowest simple index)."""

    members: frozenset
    descent: tuple | None  # (member, simple index) or None


@dataclass(frozen=True)
class StraightClassTag:
    """(Newton point, Kottwitz class) pair; separates straight classes."""

    nu_bar: QVec
    kappa0: tuple[int, ...]
    kappa_sigma: tuple[int, ...] = field(compare=False)

    def __repr__(self):
        return f"Tag(nu={'/'.join(str(c) for c in self.nu_bar)}, k={self.kappa0})"

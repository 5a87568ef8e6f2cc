"""The Picard lattice of the affine flag variety and its operators.

The lattice is indexed by the affine simple reflections, with
coefficients in Z[1/p] (denominators are powers of the residue
characteristic only, enforced structurally).  Simple reflections act
through the affine Cartan matrix, length-zero elements permute the
basis, and Frobenius acts as its diagram permutation scaled by q.

The descent certificate solves (M - 1) L = target for the operator M of
x . sigma . w^{-1}; invertibility is the no-eigenvalue-one property and
a singular operator is reported as a counterexample candidate.  The
operator and the solve stay in integers: simple reflections are applied
as column updates, element actions are memoized per lattice, and the
system is solved by one fraction-free elimination.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .admissible import MEMO
from .affine_weyl import AffineWeylElement, AffineWeylGroup
from .errors import AdlvError, NotStraight, SingularOperator, SupportViolation
from .frobenius import FrobeniusDatum
from .linalg import Mat, identity_matrix, mat_mul, mat_vec, solve_bareiss

# Element actions kept per lattice; the least recently used is dropped.
ACTION_MEMO_SIZE = 1024


def prime_of_residue_cardinality(q: int) -> int:
    """The prime p with q = p^e."""
    if q < 2:
        raise AdlvError(f"residue cardinality {q} must be at least 2")
    p = 2
    n = q
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            if n != 1:
                raise AdlvError(f"residue cardinality {q} is not a prime power")
            return p
        p += 1
    return n


def _split_p_power(n: int, p: int) -> tuple[int, int]:
    """n = p^e * m with p not dividing m; returns (e, m)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


@dataclass(frozen=True)
class PicClass:
    """Coefficient vector over the affine simple basis, in Z[1/p].

    Stored as (numerator, exponent) pairs meaning num / p^exp with p not
    dividing num (or num = 0, exp = 0).
    """

    prime: int
    nums: tuple[int, ...]
    exps: tuple[int, ...]

    @classmethod
    def from_fractions(cls, prime: int, values: Sequence[Fraction]) -> "PicClass":
        nums, exps = [], []
        for v in values:
            f = Fraction(v)
            e, rest = _split_p_power(f.denominator, prime)
            if rest != 1:
                raise AdlvError(
                    f"coefficient {f} has a denominator prime to {prime}"
                )
            n = f.numerator
            # Normalize: strip p from the numerator into the exponent.
            while n != 0 and n % prime == 0 and e > 0:
                n //= prime
                e -= 1
            if n == 0:
                e = 0
            nums.append(n)
            exps.append(e)
        return cls(prime, tuple(nums), tuple(exps))

    def values(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(n, self.prime**e) for n, e in zip(self.nums, self.exps)
        )

    def __len__(self):
        return len(self.nums)


class PicardLattice:
    """Operator algebra over the basis indexed by the affine simples."""

    def __init__(self, group: AffineWeylGroup):
        self.group = group
        self.n = len(group.simple_affine)
        self.cartan = group.affine_cartan
        # Column i of s_i's operator, eps_i - sum_k A_ik eps_k, as its
        # nonzero (k, coefficient) terms.
        self._reflection_columns = tuple(
            tuple((k, (k == i) - a) for k, a in enumerate(row) if (k == i) != a)
            for i, row in enumerate(self.cartan)
        )
        self._actions: OrderedDict[tuple, Mat] = OrderedDict()

    def reflection_action(self, i: int) -> Mat:
        """eps_i -> eps_i - sum_j A_ij eps_j; other basis vectors fixed."""
        a = self.cartan
        return tuple(
            tuple(
                (1 if r == c else 0) - (a[i][r] if c == i else 0)
                for c in range(self.n)
            )
            for r in range(self.n)
        )

    def element_action(self, x: AffineWeylElement) -> Mat:
        """Product of reflection operators along a reduced word, then the
        length-zero permutation.

        Right multiplication by s_i changes only column i, to
        col_i - sum_k A_ik col_k, and by a permutation only reorders the
        columns, so the product is built column by column in O(n^2) per
        letter.  Memoized by x.key(), keeping the ACTION_MEMO_SIZE most
        recently used actions.
        """
        key = x.key()
        hit = self._actions.get(key)
        if hit is not None:
            self._actions.move_to_end(key)
            return hit
        n = self.n
        word, omega = self.group.reduced_word(x)
        cols = [list(col) for col in identity_matrix(n)]
        for i in word:
            terms = self._reflection_columns[i]
            cols[i] = [sum(c * cols[k][r] for k, c in terms) for r in range(n)]
        if not omega.is_identity():
            perm = self.group.s_permutation_of(omega)
            cols = [cols[perm[c]] for c in range(n)]
        op = tuple(zip(*cols))
        self._actions[key] = op
        if len(self._actions) > ACTION_MEMO_SIZE:
            self._actions.popitem(last=False)
        return op


def is_ample(cls: PicClass, k_set: Sequence[int] = ()) -> bool:
    """Strict positivity outside K; support inside K must vanish."""
    kk = set(k_set)
    for i, n in enumerate(cls.nums):
        if i in kk and n != 0:
            raise SupportViolation(
                f"class has coefficient {n}/p^{cls.exps[i]} at parahoric index {i}"
            )
    return all(n > 0 for i, n in enumerate(cls.nums) if i not in kk)


@dataclass(frozen=True)
class DescentCertificate:
    operator: Mat  # x . sigma . w^{-1} on the Picard lattice
    pic_class: PicClass
    difference: tuple[Fraction, ...]  # (M - 1) applied to the class
    invertible: bool = True


@MEMO(lambda _: ACTION_MEMO_SIZE)
def _lattice(group: AffineWeylGroup) -> PicardLattice:
    """The lattice of `group`, shared by its certificates so that they
    reuse one element_action memo; a MEMO entry on the group, weighed as
    the ACTION_MEMO_SIZE operators that memo may hold."""
    return PicardLattice(group)


def descent_certificate(
    sigma: FrobeniusDatum,
    w: AffineWeylElement,
    x: AffineWeylElement,
    target: Sequence[Fraction] | None = None,
) -> DescentCertificate:
    """A Picard class whose twist difference is dominant regular.

    Builds the integer operator M of x sigma w^{-1} and solves
    (M - 1) L = target (all-ones by default) by one fraction-free
    elimination.  Raises SingularOperator unless det(M - 1) != 0, also
    when the singular system happens to be consistent.  Then scales L by
    a positive integer so every denominator is a power of the residue
    characteristic.
    """
    group = sigma.datum.weyl
    if not sigma.is_straight(w):
        raise NotStraight("descent certificate is defined at straight elements")
    pic = _lattice(group)
    n = pic.n
    # x . sigma: sigma permutes the columns of x's action and scales by q.
    perm = sigma.s_permutation
    xs = tuple(
        tuple(sigma.q * row[perm[c]] for c in range(n))
        for row in pic.element_action(x)
    )
    op = mat_mul(xs, pic.element_action(w.inverse()))
    m_minus_one = tuple(
        tuple(v - (r == c) for c, v in enumerate(row))
        for r, row in enumerate(op)
    )
    tgt = tuple(Fraction(t) for t in (target if target is not None else (1,) * n))
    if not all(t > 0 for t in tgt):
        raise AdlvError("target vector must be strictly positive")
    den = lcm(*(t.denominator for t in tgt))
    rhs = tuple(t.numerator * (den // t.denominator) for t in tgt)
    # L = y / (d * den) with (M - 1) y = d * rhs, checked in integers.
    y, d = solve_bareiss(m_minus_one, rhs)
    if d == 0 or mat_vec(m_minus_one, y) != tuple(d * b for b in rhs):
        raise SingularOperator(
            "operator has eigenvalue 1; counterexample candidate for the "
            "no-fixed-line property"
        )
    p = prime_of_residue_cardinality(sigma.q)
    full = abs(d) * den
    scale = 1
    for v in y:
        _e, rest = _split_p_power(full // gcd(v, full), p)
        scale = lcm(scale, rest)
    cls = PicClass.from_fractions(p, [Fraction(v * scale, d * den) for v in y])
    diff = tuple(Fraction(b * scale, den) for b in rhs)
    assert all(dv > 0 for dv in diff), "difference must be dominant regular"
    return DescentCertificate(operator=op, pic_class=cls, difference=diff)

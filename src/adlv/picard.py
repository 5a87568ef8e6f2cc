"""The Picard lattice of the affine flag variety and its operators.

The lattice is indexed by the affine simple reflections, with
coefficients in Z[1/p] (denominators are powers of the residue
characteristic only, enforced structurally).  Simple reflections act
through the affine Cartan matrix, length-zero elements permute the
basis, and Frobenius acts as its diagram permutation scaled by q.

The descent certificate solves (M - 1) L = (1, ..., 1) for the operator M of
x . sigma . w^{-1}; invertibility is the no-eigenvalue-one property and
a singular operator is reported as a counterexample candidate.  The
operator and the solve stay in integers: simple reflections are applied
as column updates, the actions a straight class needs are built once per
member by class_certificates, and the system is solved by one
fraction-free elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .affine_weyl import AffineWeylElement, AffineWeylGroup
from .errors import AdlvError, NotStraight, SingularOperator, SupportViolation
from .frobenius import FrobeniusDatum, prime_of_residue_cardinality
from .linalg import Mat, identity_matrix, mat_mul, mat_vec, solve_bareiss


def _split_p_power(n: int, p: int) -> tuple[int, int]:
    """n = p^e * m with p not dividing m; returns (e, m)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def _p_adic(num: int, den: int, p: int) -> tuple[int, int]:
    """num / den as (n, e) meaning n / p^e, with p not dividing n (or
    n = 0, e = 0); den is nonzero and may be negative.  Raises unless
    the reduced denominator is a power of p."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    if g != 1:
        num, den = num // g, den // g
    e, rest = _split_p_power(den, p)
    if rest != 1:
        raise AdlvError(
            f"coefficient {Fraction(num, den)} has a denominator prime to {p}"
        )
    return num, e


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
    def from_ratios(cls, prime: int, ratios: Iterable[tuple[int, int]]) -> "PicClass":
        """From integer (numerator, denominator) pairs, as _p_adic reduces them."""
        nums, exps = [], []
        for num, den in ratios:
            n, e = _p_adic(num, den, prime)
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

    def element_action(self, x: AffineWeylElement) -> Mat:
        """Product of reflection operators along a reduced word, then the
        length-zero permutation.

        Right multiplication by s_i changes only column i, to
        col_i - sum_k A_ik col_k, and by a permutation only reorders the
        columns, so the product is built column by column in O(n^2) per
        letter.
        """
        n = self.n
        word, omega = self.group.reduced_word(x)
        cols = [list(col) for col in identity_matrix(n)]
        for i in word:
            terms = self._reflection_columns[i]
            cols[i] = [sum(c * cols[k][r] for k, c in terms) for r in range(n)]
        if not omega.is_identity():
            perm = self.group.s_permutation_of(omega)
            cols = [cols[perm[c]] for c in range(n)]
        return tuple(zip(*cols))


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


def _twisted_action(
    pic: PicardLattice, sigma: FrobeniusDatum, q: int, x: AffineWeylElement
) -> Mat:
    """The operator of x . sigma: q times x's action with its columns
    permuted by sigma's diagram permutation."""
    perm = sigma.s_permutation
    return tuple(
        tuple(q * row[perm[c]] for c in range(pic.n))
        for row in pic.element_action(x)
    )


def _certify(twisted: Mat, inverse: Mat, p: int) -> DescentCertificate | None:
    """The certificate for the operator M = twisted . inverse at the
    all-ones target, or None when det(M - 1) = 0.

    Solves (M - 1) y = d * (1, ..., 1) with d = det(M - 1), checked in
    integers, so L = y / d; then scales L by the least positive integer
    that leaves only powers of p, the residue characteristic, in its
    denominators.
    """
    op = mat_mul(twisted, inverse)
    m_minus_one = tuple(
        tuple(v - (r == c) for c, v in enumerate(row))
        for r, row in enumerate(op)
    )
    y, d = solve_bareiss(m_minus_one, (1,) * len(op))
    if d == 0 or mat_vec(m_minus_one, y) != (d,) * len(op):
        return None
    scale = 1
    for v in y:
        _e, rest = _split_p_power(abs(d) // gcd(v, d), p)
        scale = lcm(scale, rest)
    cls = PicClass.from_ratios(p, [(v * scale, d) for v in y])
    diff = (Fraction(scale),) * len(op)
    assert all(dv > 0 for dv in diff), "difference must be dominant regular"
    return DescentCertificate(operator=op, pic_class=cls, difference=diff)


def descent_certificate(
    sigma: FrobeniusDatum, q: int, w: AffineWeylElement, x: AffineWeylElement
) -> DescentCertificate:
    """A Picard class whose twist difference is dominant regular.

    Builds the integer operator M of x sigma w^{-1} and solves
    (M - 1) L = (1, ..., 1) by one fraction-free elimination.  Raises
    SingularOperator unless det(M - 1) != 0, also when the singular
    system happens to be consistent.  Then scales L by a positive integer
    so every denominator is a power of p, for q = p^e (else SchemaError).
    """
    p = prime_of_residue_cardinality(q)
    if not sigma.is_straight(w):
        raise NotStraight("descent certificate is defined at straight elements")
    pic = PicardLattice(sigma.datum.weyl)
    twisted = _twisted_action(pic, sigma, q, x)
    inverse = pic.element_action(w.inverse())
    cert = _certify(twisted, inverse, p)
    if cert is None:
        raise SingularOperator(
            "operator has eigenvalue 1; counterexample candidate for the "
            "no-fixed-line property"
        )
    return cert


def class_certificates(
    sigma: FrobeniusDatum, q: int, members: Sequence[AffineWeylElement]
) -> Iterator[tuple[AffineWeylElement, AffineWeylElement, DescentCertificate | None]]:
    """(w, x, certificate) for every ordered pair of the straight class
    `members`, w outer and x inner, at the all-ones target.

    Each member's straightness, its twisted action and the action of its
    inverse are computed once, not once per pair.  Before any certificate,
    raises SchemaError unless q is a prime power and NotStraight unless
    every member is straight; the certificate is None where det(M - 1) = 0.

    >>> from adlv.presets import preset
    >>> d = preset("A1_sc").datum
    >>> t = d.weyl.translation((1,))
    >>> [(c.operator, c.pic_class.nums) for _w, _x, c in
    ...  class_certificates(FrobeniusDatum(d), 2, [t])]
    [(((2, 0), (0, 2)), (1, 1))]
    """
    p = prime_of_residue_cardinality(q)
    if not all(sigma.is_straight(m) for m in members):
        raise NotStraight("descent certificate is defined at straight elements")
    pic = PicardLattice(sigma.datum.weyl)
    twisted = [_twisted_action(pic, sigma, q, m) for m in members]
    inverses = [pic.element_action(m.inverse()) for m in members]
    for w, inverse in zip(members, inverses):
        for x, tw in zip(members, twisted):
            yield w, x, _certify(tw, inverse, p)

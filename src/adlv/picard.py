"""The Picard lattice of the affine flag variety and its operators.

The lattice is indexed by the affine simple reflections, with
coefficients in Z[1/p]: a class holds its coefficients as Fractions,
and each denominator is checked to be a power of the residue
characteristic p when the class is made.  Simple reflections act
through the affine Cartan matrix, length-zero elements permute the
basis, and Frobenius acts as its diagram permutation scaled by q.

The descent certificate of a pair (w, x) is the class L with
(M - 1) L = (1, ..., 1) for the operator M = T_x A_w^{-1} of
x . sigma . w^{-1}, where A_w is w's action and T_x the action of
x . sigma; invertibility of M - 1 is the no-eigenvalue-one property and
a singular operator is reported as a counterexample candidate.  Since
M - 1 = (T_x - A_w) A_w^{-1}, the certificate is L = A_w z for the
solution z of (T_x - A_w) z = (1, ..., 1), and M itself is formed only
when it is read; the difference (M - 1) L is scale . (1, ..., 1) and is
kept as integers.  Everything stays in integers: simple reflections are
applied as column updates, and class_certificates, the one routine that
makes certificates, builds one action per member of a straight class
and spends one subtraction and one fraction-free elimination per pair.
descent_certificate is its one-member case, the pair (x, x), and raises
where the operator is singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap
from math import gcd, lcm
from operator import sub
from typing import Iterable, Iterator, Sequence

from .affine_weyl import AffineWeylElement, AffineWeylGroup
from .errors import AdlvError, NotStraight, SingularOperator
from .frobenius import FrobeniusDatum, prime_of_residue_cardinality
from .linalg import Mat, identity_matrix, mat_inv_unimodular, mat_mul, mat_vec, solve_bareiss


def _split_p_power(n: int, p: int) -> tuple[int, int]:
    """n = p^e * m with p not dividing m; returns (e, m)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


@dataclass(frozen=True)
class PicClass:
    """Coefficient vector over the affine simple basis, in Z[1/p]: its
    Fractions, each denominator checked to be a power of `prime` here."""

    prime: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        for v in self.values:
            if _split_p_power(v.denominator, self.prime)[1] != 1:
                raise AdlvError(f"coefficient {v} has a denominator prime to {self.prime}")

    @classmethod
    def from_ratios(cls, prime: int, ratios: Iterable[tuple[int, int]]) -> "PicClass":
        """From integer (numerator, denominator) pairs."""
        return cls(prime, tuple(starmap(Fraction, ratios)))


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
            perm = self.group.permute_walls(omega)
            cols = [cols[perm[c]] for c in range(n)]
        return tuple(zip(*cols))


def is_ample(cls: PicClass) -> bool:
    """Strict positivity of every coefficient, read off its numerator
    (a Fraction's denominator is positive)."""
    return all(v.numerator > 0 for v in cls.values)


@dataclass(frozen=True)
class DescentCertificate:
    """The class L of a pair (w, x), with the two actions that define
    the operator M = twisted . action^{-1} of x . sigma . w^{-1}.

    difference is (M - 1) L, which is scale . (1, ..., 1) by
    construction, as integers; operator forms M when it is read.
    """

    twisted: Mat  # T_x, the action of x . sigma
    action: Mat  # A_w, the action of w
    pic_class: PicClass
    difference: tuple[int, ...]  # (M - 1) applied to the class

    @property
    def operator(self) -> Mat:
        """M = T_x A_w^{-1}, formed on each read."""
        return mat_mul(self.twisted, mat_inv_unimodular(self.action))


def _twist(sigma: FrobeniusDatum, q: int, action: Mat) -> Mat:
    """The operator of x . sigma from x's action: q times that action
    with its columns permuted by sigma's diagram permutation."""
    perm = sigma.s_permutation
    return tuple(tuple(q * row[c] for c in perm) for row in action)


def _certify(twisted: Mat, action: Mat, p: int) -> DescentCertificate | None:
    """The certificate for M = twisted . action^{-1} at the all-ones
    target, or None when det(M - 1) = 0.

    M - 1 = (twisted - action) action^{-1}, and action is unimodular, so
    det(M - 1) = +-det(twisted - action) and M is never formed: solves
    (twisted - action) z = d * (1, ..., 1) with d = det(twisted - action),
    checked in integers, so L = action . z / d; then scales L by the least
    positive integer that leaves only powers of p, the residue
    characteristic, in its denominators.
    """
    n = len(action)
    gap = tuple(
        tuple(map(sub, t_row, a_row)) for t_row, a_row in zip(twisted, action)
    )
    z, d = solve_bareiss(gap, (1,) * n)
    if d == 0 or mat_vec(gap, z) != (d,) * n:
        return None
    y = mat_vec(action, z)
    scale = 1
    for v in y:
        _e, rest = _split_p_power(abs(d) // gcd(v, d), p)
        scale = lcm(scale, rest)
    cls = PicClass.from_ratios(p, [(v * scale, d) for v in y])
    return DescentCertificate(twisted, action, cls, (scale,) * n)


def class_certificates(
    sigma: FrobeniusDatum, q: int, members: Sequence[AffineWeylElement]
) -> Iterator[tuple[AffineWeylElement, AffineWeylElement, DescentCertificate | None]]:
    """(w, x, certificate) for every ordered pair of the straight class
    `members`, w outer and x inner, at the all-ones target.

    Each member's straightness and its action are computed once, not
    once per pair, and its twisted action is read off that action; each
    pair then costs one subtraction and one solve (see _certify).
    Before any certificate, raises SchemaError unless q is a prime power
    and NotStraight unless every member is straight; the certificate is
    None where det(M - 1) = 0.

    >>> from adlv.presets import preset
    >>> d = preset("A1_sc").datum
    >>> t = d.weyl.translation((1,))
    >>> [(c.operator, c.pic_class.values) for _w, _x, c in
    ...  class_certificates(FrobeniusDatum(d), 2, [t])]
    [(((2, 0), (0, 2)), (Fraction(1, 1), Fraction(1, 1)))]
    """
    p = prime_of_residue_cardinality(q)
    if not all(sigma.is_straight(m) for m in members):
        raise NotStraight("descent certificate is defined at straight elements")
    pic = PicardLattice(sigma.datum.weyl)
    actions = [pic.element_action(m) for m in members]
    twisted = [_twist(sigma, q, a) for a in actions]
    for w, action in zip(members, actions):
        for x, tw in zip(members, twisted):
            yield w, x, _certify(tw, action, p)


def descent_certificate(
    sigma: FrobeniusDatum, q: int, x: AffineWeylElement
) -> DescentCertificate:
    """The certificate of the pair (x, x), as class_certificates makes
    it; raises SingularOperator where det(M - 1) = 0, also when the
    singular system happens to be consistent."""
    _w, _x, cert = next(class_certificates(sigma, q, [x]))
    if cert is None:
        raise SingularOperator(
            "operator has eigenvalue 1; counterexample candidate for the "
            "no-fixed-line property"
        )
    return cert

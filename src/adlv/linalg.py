"""Exact linear algebra over Z and Q used throughout the package.

Matrices are tuples of tuples (rows) of ints or Fractions; vectors are
tuples.  Everything is immutable and hashable so matrices can serve as
dictionary keys for Weyl group elements.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

Vec = tuple
Mat = tuple


def identity_matrix(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: Mat, v: Sequence) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in a)


def vec_mat(v: Sequence, a: Mat) -> Vec:
    """Row vector times matrix; how covectors transform."""
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0])))


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(x - y for x, y in zip(u, v))


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _bareiss(m: list[list]) -> int:
    """Fraction-free elimination (Bareiss, Math. Comp. 1968), in place.

    Eliminates below the diagonal of the leading square block of the
    integer rows `m`, carrying every further column along.  Each entry
    left is a minor of the input, so every division is exact, and the
    last pivot m[-1][len(m) - 1] is the determinant of the block with
    its rows permuted.  Returns the sign of that permutation, or 0 when
    the block is singular.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    if n and m[n - 1][n - 1] == 0:
        return 0
    return sign


def mat_det(a: Mat):
    """Determinant by fraction-free Bareiss elimination; exact for int input."""
    m = [list(row) for row in a]
    sign = _bareiss(m)
    return sign * m[-1][-1] if m else 1


def _back_substitute(m: list[list], col: int) -> list[int]:
    """y with a y = last * rhs, for rows m of [a | ...] eliminated by
    _bareiss with a nonzero last pivot `last`, and rhs their column `col`.
    Each division is exact (Cramer's rule)."""
    n = len(m)
    last = m[n - 1][n - 1] if n else 1
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = last * row[col]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    return y


def solve_bareiss(a: Mat, rhs: Sequence[int]) -> tuple[Vec, int]:
    """Integers y and d = det(a) with a y = d rhs, for square integer a.

    Bareiss elimination of [a | rhs], then back substitution scaled by
    the last pivot.  y is the adjugate of a applied to rhs (Cramer's
    rule), so it is integral and each division is exact: the solution
    over Q is y / d with no Fraction formed.  When a is singular, d = 0
    and y is the zero vector, whether or not the system is consistent.
    """
    n = len(a)
    m = [list(row) + [b] for row, b in zip(a, rhs)]
    sign = _bareiss(m)
    if sign == 0:
        return (0,) * n, 0
    last = m[n - 1][n - 1] if n else 1
    return tuple(sign * v for v in _back_substitute(m, n)), sign * last


def mat_inv_unimodular(a: Mat) -> Mat:
    """Inverse of an integer matrix with determinant d = +-1.

    One Bareiss elimination of [a | 1] carries every unit column; column
    j of the inverse is d y_j for the solution a y_j = d e_j read off it.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign = _bareiss(m)
    d = sign * m[n - 1][n - 1] if n else 1
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det={d})")
    cols = [_back_substitute(m, n + j) for j in range(n)]
    return tuple(tuple(sign * d * col[i] for col in cols) for i in range(n))


def solve_fraction(a: Mat, rhs: Sequence) -> Vec | None:
    """One exact solution of a x = rhs over Q, or None if inconsistent.

    `a` may be rectangular; when the kernel is nontrivial the solution
    with zero free coordinates is returned.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[Fraction(x) for x in a[i]] + [Fraction(rhs[i])] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i][cols]
    return tuple(x)


def matrix_order(a: Mat, cap: int) -> int:
    """Multiplicative order of an integer matrix, or ValueError past cap."""
    n = len(a)
    ident = identity_matrix(n)
    p = a
    for k in range(1, cap + 1):
        if p == ident:
            return k
        p = mat_mul(p, a)
    raise ValueError(f"matrix order exceeds {cap}")


def principal_minors_positive(a: Mat) -> bool:
    """True iff every principal minor of `a` is positive.

    For a generalized Cartan matrix this characterizes finite type, hence
    finiteness of the Coxeter group it presents.
    """
    n = len(a)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sub = tuple(tuple(a[i][j] for j in idx) for i in idx)
        if mat_det(sub) <= 0:
            return False
    return True

"""Smith normal form and finitely generated abelian groups.

A group is presented as Z^n / (column span of an integer relation
matrix).  Smith normal form gives the invariant-factor decomposition;
on top of that we build the three constructions the rest of the package
needs: projection of lattice vectors to normalized coordinates,
coinvariants of an endomorphism, and the fixed subgroup (kernel of
``1 - F``) with explicit generator lifts.

>>> g = FinAbGroup.from_columns(1, [(2,)])      # Z / 2Z
>>> g.invariant_factors
(2,)
>>> g.project((3,))
(1,)
>>> h = FinAbGroup.from_columns(2, [(1, -1)])   # Z^2 / Z(1,-1)
>>> h.invariant_factors
(0,)
>>> h.project((1, 0)) == h.project((0, 1))
True
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import NoSolution
from .linalg import Mat, Vec, dot, identity_matrix, mat_inv_unimodular, mat_vec


def smith_normal_form(a: Mat) -> tuple[Mat, Mat, Mat]:
    """Return (d, u, v) with u*a*v = d diagonal and d_i | d_{i+1}.

    u and v are unimodular; the nonnegative diagonal entries form a
    divisibility chain with zeros last.

    >>> d, u, v = smith_normal_form(((2, 4), (6, 8)))
    >>> [d[i][i] for i in range(2)]
    [2, 4]
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(r) for r in a]
    u = [list(r) for r in identity_matrix(rows)]
    v = [list(r) for r in identity_matrix(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in m:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Locate a pivot of minimal absolute value in the trailing block.
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        if m[t][t] < 0:
            negate_row(t)

        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                add_row(t, i, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                add_col(t, j, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility: pivot must divide the whole trailing block.
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    return (
        tuple(tuple(r) for r in m),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
    )


def _columns(mat_cols: Iterable[Sequence[int]], n: int) -> Mat:
    """Pack an iterable of length-n columns into an n x k matrix."""
    cols = [tuple(c) for c in mat_cols]
    for c in cols:
        if len(c) != n:
            raise ValueError("column has wrong length")
    return tuple(tuple(c[i] for c in cols) for i in range(n))


def int_kernel_basis(a: Mat) -> list[Vec]:
    """Basis of the integer kernel {x : a x = 0}, as column vectors."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return []
    d, _u, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    return [tuple(v[i][j] for i in range(cols)) for j in range(rank, cols)]


def solve_int(a: Mat, b: Sequence[int]) -> Vec | None:
    """One integer solution of a x = b, or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d, u, v = smith_normal_form(a)
    ub = mat_vec(u, b)
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < min(rows, cols) else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return mat_vec(v, y)


def lattice_basis(vectors: Iterable[Sequence[int]], n: int) -> list[Vec]:
    """Basis of the sublattice of Z^n spanned by the given vectors."""
    cols = [tuple(vc) for vc in vectors]
    if not cols:
        return []
    m = _columns(cols, n)
    d, u, _v = smith_normal_form(m)
    uinv = mat_inv_unimodular(u)
    basis = []
    for j in range(min(n, len(cols))):
        dj = d[j][j]
        if dj != 0:
            basis.append(tuple(uinv[i][j] * dj for i in range(n)))
    return basis


@dataclass(frozen=True)
class FinAbGroup:
    """Z^ambient_rank modulo the column span of `relations`."""

    ambient_rank: int
    relations: Mat  # ambient_rank x (number of relators)
    _snf: tuple = field(init=False, repr=False, compare=False)
    # Diagonal of the Smith form, one entry per ambient coordinate.
    _diag: tuple = field(init=False, repr=False, compare=False)
    # (row of u, d_i) for each d_i != 1: the rows that project reads.
    _proj_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        snf = smith_normal_form(self.relations)
        d, u, _v = snf
        rows = self.ambient_rank
        cols = len(self.relations[0]) if rows else 0
        diag = tuple(d[i][i] if i < min(rows, cols) else 0 for i in range(rows))
        object.__setattr__(self, "_snf", snf)
        object.__setattr__(self, "_diag", diag)
        object.__setattr__(
            self, "_proj_rows", tuple((u[i], di) for i, di in enumerate(diag) if di != 1)
        )

    @classmethod
    def from_columns(cls, n: int, relators: Iterable[Sequence[int]]) -> "FinAbGroup":
        return cls(n, _columns(relators, n))

    @classmethod
    def free(cls, n: int) -> "FinAbGroup":
        return cls(n, tuple(() for _ in range(n)))

    # -- structure ---------------------------------------------------------

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Factors d_1 | d_2 | ... with 0 meaning a free summand; 1s dropped."""
        torsion = sorted(x for x in self._diag if x > 1)
        free = sum(1 for x in self._diag if x == 0)
        return tuple(torsion) + (0,) * free

    # -- elements ----------------------------------------------------------

    def project(self, x: Sequence[int]) -> Vec:
        """Normalized coordinates of the class of x; equal iff classes equal."""
        out = []
        for row, di in self._proj_rows:
            y = dot(row, x)
            out.append(y % di if di > 1 else y)
        return tuple(out)

    def lift(self, coords: Sequence[int]) -> Vec:
        """Some x in Z^ambient_rank whose projection equals coords."""
        _d, u, _v = self._snf
        uinv = mat_inv_unimodular(u)
        y = [0] * self.ambient_rank
        it = iter(coords)
        for i, di in enumerate(self._diag):
            if di == 1:
                continue
            y[i] = next(it)
        return mat_vec(uinv, y)

    def torsion_elements(self) -> Iterator[Vec]:
        """All elements of the torsion subgroup, in lexicographic order."""
        return itertools.product(
            *(range(di) if di > 1 else (0,) for di in self._diag if di != 1)
        )

    def free_generator_coords(self) -> list[Vec]:
        """One coordinate tuple per free summand (unit vectors)."""
        slots = [di for di in self._diag if di != 1]
        out = []
        for i, di in enumerate(slots):
            if di == 0:
                out.append(tuple(1 if j == i else 0 for j in range(len(slots))))
        return out

    # -- functorial constructions ------------------------------------------

    def _check_endo(self, f: Mat) -> None:
        # F must map the relation lattice into itself to act on the
        # quotient: F . col projects to 0 for every relator column.
        for col in zip(*self.relations):
            if any(self.project(mat_vec(f, col))):
                raise ValueError("endomorphism does not preserve relations")

    def coinvariants(self, f: Mat) -> "FinAbGroup":
        """Quotient by the image of (1 - f): the relations, then the
        columns of 1 - f, read off the rows of _crossed_block."""
        n = self.ambient_rank
        return FinAbGroup(n, tuple(row[n:] + row[:n] for row in self._crossed_block(f)))

    def _crossed_block(self, f: Mat) -> Mat:
        """The block matrix [1 - f | relations]: a vector (c, r) solves
        block . (c, r) = d exactly when (1 - f) c = d in the quotient."""
        self._check_endo(f)
        n = self.ambient_rank
        return tuple(
            tuple((1 if i == j else 0) - f[i][j] for j in range(n))
            + tuple(self.relations[i])
            for i in range(n)
        )

    def fixed_subgroup(self, f: Mat) -> tuple["FinAbGroup", list[Vec]]:
        """Kernel of (1 - f) on the quotient.

        Returns the kernel as an abstract group together with lifts in
        Z^ambient_rank of its generators.
        """
        block = self._crossed_block(f)
        n = self.ambient_rank
        rel_cols = len(self.relations[0]) if n else 0
        pre = [k[:n] for k in int_kernel_basis(block)]
        basis = lattice_basis(pre, n)
        if not basis:
            return FinAbGroup.free(0), []
        bmat = _columns(basis, n)
        k = len(basis)
        block2 = tuple(
            tuple(bmat[i][j] for j in range(k))
            + tuple(self.relations[i][j] for j in range(rel_cols))
            for i in range(n)
        )
        rel_in_basis = lattice_basis(
            [kv[:k] for kv in int_kernel_basis(block2)], k
        )
        sub = FinAbGroup.from_columns(k, rel_in_basis)
        return sub, basis

    def solve_crossed(self, f: Mat, d: Sequence[int]) -> Vec:
        """A vector c with (1 - f) c = d in the quotient, or NoSolution."""
        sol = solve_int(self._crossed_block(f), d)
        if sol is None:
            raise NoSolution("c - f(c) = d has no solution in the quotient")
        return sol[: self.ambient_rank]

    def describe(self) -> str:
        """Human-readable shape, e.g. 'Z/2 + Z'."""
        parts = [f"Z/{d}" if d else "Z" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

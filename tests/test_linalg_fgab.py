import doctest
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import adlv.fgab as fgab_module
from adlv.errors import NoSolution
from adlv.fgab import (
    FinAbGroup,
    int_kernel_basis,
    lattice_basis,
    smith_normal_form,
    solve_int,
)
from adlv.linalg import (
    dot,
    identity_matrix,
    mat_det,
    mat_inv_unimodular,
    mat_mul,
    mat_vec,
    matrix_order,
    principal_minors_positive,
    solve_bareiss,
    solve_fraction,
)
from adlv.picard import PicardLattice
from adlv.presets import catalog

from helpers import group_order


def test_doctests():
    failures, _ = doctest.testmod(fgab_module)
    assert failures == 0


small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(lambda rows: tuple(tuple(r) for r in rows))


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_snf_properties(a):
    d, u, v = smith_normal_form(a)
    assert mat_det(u) in (1, -1)
    assert mat_det(v) in (1, -1)
    assert mat_mul(mat_mul(u, a), v) == d
    rows, cols = len(a), len(a[0])
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_kernel_and_solve(a):
    for k in int_kernel_basis(a):
        assert all(x == 0 for x in mat_vec(a, k))
    rows = len(a)
    cols = len(a[0])
    x = tuple(1 if i % 2 else -1 for i in range(cols))
    b = mat_vec(a, x)
    sol = solve_int(a, b)
    assert sol is not None
    assert mat_vec(a, sol) == tuple(b)


def test_lattice_basis_spans():
    basis = lattice_basis([(2, 0), (0, 2), (1, 1)], 2)
    # index-2 sublattice of Z^2 containing (1,1)
    assert len(basis) == 2
    assert solve_int(tuple(zip(*basis)), (1, 1)) is not None
    assert solve_int(tuple(zip(*basis)), (1, 0)) is None


def test_finabgroup_shapes():
    assert FinAbGroup.from_columns(1, [(2,)]).invariant_factors == (2,)
    assert FinAbGroup.from_columns(1, [(1,)]).invariant_factors == ()
    assert FinAbGroup.free(2).invariant_factors == (0, 0)
    g = FinAbGroup.from_columns(2, [(2, 0), (0, 4)])
    assert g.invariant_factors == (2, 4)
    assert group_order(g) == 8
    assert group_order(FinAbGroup.free(1)) is None
    assert group_order(FinAbGroup.from_columns(1, [(1,)])) == 1


def test_projection_and_lift():
    g = FinAbGroup.from_columns(2, [(1, -1)])
    for x in [(0, 0), (3, 1), (-2, 5)]:
        assert g.project(x) == g.project(tuple(a + b for a, b in zip(x, (1, -1))))
        lift = g.lift(g.project(x))
        assert g.project(lift) == g.project(x)


def test_torsion_enumeration():
    g = FinAbGroup.from_columns(2, [(2, 0), (0, 3)])
    elts = list(g.torsion_elements())
    assert len(elts) == 6
    assert len(set(elts)) == 6


def test_coinvariants_and_fixed():
    # Z^2 with the swap action: coinvariants Z, fixed subgroup Z(1,1).
    g = FinAbGroup.free(2)
    swap = ((0, 1), (1, 0))
    co = g.coinvariants(swap)
    assert co.invariant_factors == (0,)
    fixed, gens = g.fixed_subgroup(swap)
    assert fixed.invariant_factors == (0,)
    assert len(gens) == 1
    assert gens[0] in ((1, 1), (-1, -1))
    # (Z/2)^2 with swap: fixed is the diagonal Z/2.
    h = FinAbGroup.from_columns(2, [(2, 0), (0, 2)])
    fixed_h, gens_h = h.fixed_subgroup(swap)
    assert fixed_h.invariant_factors == (2,)
    assert h.project(gens_h[0]) == h.project((1, 1))


def test_solve_crossed():
    g = FinAbGroup.from_columns(2, [(2, 0), (0, 2)])
    swap = ((0, 1), (1, 0))
    # d = (1, -1) = (1-swap)(1, 0) is solvable
    c = g.solve_crossed(swap, (1, -1))
    back = tuple(a - b for a, b in zip(c, mat_vec(swap, c)))
    assert g.project(back) == g.project((1, -1))
    with pytest.raises(NoSolution):
        g.solve_crossed(swap, (1, 0))


def test_matrix_helpers():
    m = ((2, 1), (1, 1))
    assert mat_det(m) == 1
    assert mat_mul(m, mat_inv_unimodular(m)) == identity_matrix(2)
    assert mat_inv_unimodular(((1, 2), (1, 1))) == ((-1, 2), (1, -1))
    with pytest.raises(ValueError):
        mat_inv_unimodular(((2, 0), (0, 1)))
    assert matrix_order(((0, -1), (1, 0)), cap=10000) == 4
    assert principal_minors_positive(((2, -1), (-1, 2)))
    assert not principal_minors_positive(((2, -2), (-2, 2)))
    assert solve_fraction(((1, 1),), (3,)) == (Fraction(3), Fraction(0))
    assert solve_fraction(((1,), (1,)), (1, 2)) is None


square_system = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(lambda rows: tuple(tuple(r) for r in rows)),
        st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(tuple),
    )
)


def leibniz_det(a):
    """Determinant as a signed sum over permutations, with no elimination."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for r, c in enumerate(perm):
            term *= a[r][c]
        total += term
    return total


@settings(max_examples=150, deadline=None)
@given(square_system)
def test_solve_bareiss_agrees_with_solve_fraction(system):
    a, rhs = system
    det = leibniz_det(a)
    assume(det != 0)
    y, d = solve_bareiss(a, rhs)
    assert d == det == mat_det(a)
    assert mat_vec(a, y) == tuple(d * b for b in rhs)
    assert tuple(Fraction(v, d) for v in y) == solve_fraction(a, rhs)


@settings(max_examples=150, deadline=None)
@given(square_system)
def test_unimodular_inverse_refuses_other_determinants(system):
    a, _rhs = system
    det = leibniz_det(a)
    if det in (1, -1):
        assert mat_mul(a, mat_inv_unimodular(a)) == identity_matrix(len(a))
    else:
        with pytest.raises(ValueError, match=rf"^matrix is not unimodular \(det={det}\)$"):
            mat_inv_unimodular(a)


def test_unimodular_inverse_matches_column_solves():
    # One elimination of [a | 1] gives every column of the inverse; each
    # must be the rational solution of a x = e_j.  The Picard actions of
    # the catalog balls include permutations, which force pivot swaps.
    for p in catalog():
        w = p.datum.weyl
        pic = PicardLattice(w)
        for x in w.ball(2, [o.element for o in w.omega_elements()]):
            a = pic.element_action(x)
            n = len(a)
            cols = [solve_fraction(a, [int(i == j) for i in range(n)]) for j in range(n)]
            assert mat_inv_unimodular(a) == tuple(zip(*cols)), (p.name, x)


def test_solve_bareiss_pivot_swap_gives_negative_determinant():
    # A zero leading pivot forces a row swap at the first step.
    y, d = solve_bareiss(((0, 1), (1, 0)), (1, 2))
    assert d == -1
    assert y == (-2, -1)  # x = (2, 1) = y / d
    # Here the swap comes at the second step, after one elimination.
    a = ((1, 2, 3), (2, 4, 5), (3, 5, 6))
    y, d = solve_bareiss(a, (1, 1, 1))
    assert d == -1 == leibniz_det(a)
    assert mat_vec(a, y) == (d, d, d)
    assert tuple(Fraction(v, d) for v in y) == solve_fraction(a, (1, 1, 1))


def test_solve_bareiss_singular_consistent_reports_zero():
    a = ((1, 2), (2, 4))
    # Consistent, so the rational solver returns a particular solution...
    assert solve_fraction(a, (1, 2)) == (Fraction(1), Fraction(0))
    # ...but the determinant is 0, and that is what the integer solve reports.
    assert solve_bareiss(a, (1, 2)) == ((0, 0), 0)
    assert solve_bareiss(((0, 0), (0, 0)), (0, 0)) == ((0, 0), 0)


def _snf_projection(a, x):
    """The class of x by definition: u x reduced mod each invariant
    factor d_i > 1, unit factors dropped (u from the Smith form of a)."""
    d, u, _v = smith_normal_form(a)
    rows, cols = len(a), len(a[0])
    y = mat_vec(u, x)
    out = []
    for i in range(rows):
        di = d[i][i] if i < min(rows, cols) else 0
        if di != 1:
            out.append(y[i] % di if di > 1 else y[i])
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(
    small_matrix.flatmap(
        lambda a: st.tuples(
            st.just(a),
            st.lists(st.integers(-20, 20), min_size=len(a), max_size=len(a)),
        )
    )
)
def test_project_matches_snf_definition(case):
    a, x = case
    assert FinAbGroup(len(a), a).project(x) == _snf_projection(a, x)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_project_matches_snf_definition_on_presets(data):
    from adlv.presets import catalog

    for p in catalog():
        g = p.datum.pi1
        x = data.draw(st.lists(st.integers(-20, 20), min_size=g.ambient_rank,
                               max_size=g.ambient_rank))
        assert g.project(x) == _snf_projection(g.relations, x)


fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.lists(fractions, min_size=n, max_size=n),
        st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=1, max_size=4),
    )
))
def test_dot_and_mat_vec_on_fractions(case):
    v, a = case
    v = tuple(v)
    a = tuple(tuple(row) for row in a)
    # Reference: the sums written as generator expressions.
    want_dot = sum(x * y for x, y in zip(a[0], v))
    got_dot = dot(a[0], v)
    assert got_dot == want_dot and type(got_dot) is type(want_dot)
    want = tuple(sum(x * y for x, y in zip(row, v)) for row in a)
    got = mat_vec(a, v)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]

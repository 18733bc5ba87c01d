"""GF(2) linear algebra unit and property tests."""

import pytest
from hypothesis import given, strategies as st

from regionknot.gf2 import (
    AffineSolution,
    Gf2Matrix,
    Gf2Vector,
    Inconsistent,
    KernelTooLarge,
    Singular,
    delete_columns,
    invert_square,
    kernel,
    rank,
    solve_affine,
)

TREFOIL_MATRIX = Gf2Matrix.from_rows(5, [[1, 1, 1, 1, 0], [1, 1, 1, 0, 1], [0, 1, 1, 1, 1]])


def identity(n):
    return Gf2Matrix(n, n, tuple(1 << i for i in range(n)))


def test_rank_zero_matrix():
    assert rank(Gf2Matrix(2, 3, (0, 0))) == 0


def test_rank_identity():
    assert rank(identity(4)) == 4


def test_rank_trefoil_region_matrix_is_full():
    assert rank(TREFOIL_MATRIX) == 3


def test_solve_identity_particular_is_rhs():
    b = Gf2Vector.from_string("101")
    sol = solve_affine(identity(3), b)
    assert sol.particular == b
    assert sol.kernel_basis == ()


def test_solve_trefoil_has_four_solutions():
    for i in range(3):
        sol = solve_affine(TREFOIL_MATRIX, Gf2Vector.from_indices(3, [i]))
        assert len(sol.kernel_basis) == 2
        assert sol.count() == 4
        for v in sol.enumerate():
            assert TREFOIL_MATRIX.mul_vec(v) == Gf2Vector.from_indices(3, [i])


def test_solve_inconsistent():
    m = Gf2Matrix(1, 2, (0,))
    with pytest.raises(Inconsistent):
        solve_affine(m, Gf2Vector(1, 1))


def test_kernel_identity_empty():
    assert kernel(identity(5)) == ()


def test_kernel_single_row():
    basis = kernel(Gf2Matrix(1, 2, (0b11,)))
    assert len(basis) == 1
    assert basis[0] == Gf2Vector.from_string("11")


def test_kernel_trefoil_spans_color_classes():
    basis = kernel(TREFOIL_MATRIX)
    assert len(basis) == 2
    span = {0}
    for b in basis:
        span |= {s ^ b.bits for s in span}
    black = Gf2Vector.from_indices(5, [0, 3, 4]).bits
    white = Gf2Vector.from_indices(5, [1, 2]).bits
    assert span == {0, black, white, black ^ white}


def test_enumerate_guard():
    basis = tuple(Gf2Vector.from_indices(25, [i]) for i in range(25))
    with pytest.raises(KernelTooLarge):
        next(AffineSolution(Gf2Vector(25, 0), basis).enumerate())


def test_delete_columns_shape():
    m = delete_columns(TREFOIL_MATRIX, {1, 3})
    assert (m.rows, m.cols) == (3, 3)
    assert m.entry(0, 0) == TREFOIL_MATRIX.entry(0, 0)
    assert m.entry(0, 1) == TREFOIL_MATRIX.entry(0, 2)


def test_invert_square_roundtrip():
    m = delete_columns(TREFOIL_MATRIX, {0, 1})
    inv = invert_square(m)
    n = m.rows
    for i in range(n):
        e = Gf2Vector.from_indices(n, [i])
        assert m.mul_vec(inv.mul_vec(e)) == e


def test_invert_singular():
    with pytest.raises(Singular):
        invert_square(Gf2Matrix(2, 2, (0b11, 0b11)))


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 8))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return Gf2Matrix(rows, cols, tuple(bits))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 8))
    bits = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return Gf2Matrix(n, n, tuple(bits))


@given(square_matrices())
def test_invert_square_is_inverse_or_singular(m):
    n = m.rows
    try:
        inv = invert_square(m)
    except Singular:
        assert rank(m) < n
        return
    for i in range(n):
        e = Gf2Vector.from_indices(n, [i])
        assert m.mul_vec(inv.mul_vec(e)) == e


@given(matrices(), st.integers(0, 255))
def test_solutions_satisfy_system(m, seed):
    b = Gf2Vector(m.rows, seed % (1 << m.rows))
    try:
        sol = solve_affine(m, b)
    except Inconsistent:
        assert rank(m) < m.rows
        return
    for v in sol.enumerate():
        assert m.mul_vec(v) == b
    assert len(sol.kernel_basis) == m.cols - rank(m)


@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel(m):
        assert m.mul_vec(v).bits == 0


@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
def test_xor_weight_law(a, b):
    va, vb = Gf2Vector(12, a), Gf2Vector(12, b)
    assert (va ^ vb).weight() == va.weight() + vb.weight() - 2 * (a & b).bit_count()


@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_even_xor_even_is_even(a, b):
    if a.bit_count() % 2 == 0 and b.bit_count() % 2 == 0:
        assert (a ^ b).bit_count() % 2 == 0

"""GF(2) linear algebra unit and property tests."""

import pytest
from hypothesis import given, strategies as st

from regionknot.gf2 import (
    Gf2Matrix,
    Inconsistent,
    Singular,
    decode,
    delete_columns,
    encode,
    invert_square,
    kernel,
    rank,
    solve_affine,
    span,
)

# Rows [1,1,1,1,0], [1,1,1,0,1], [0,1,1,1,1]; bit j is column j.
TREFOIL_MATRIX = Gf2Matrix(3, 5, (0b01111, 0b10111, 0b11110))


def identity(n):
    return Gf2Matrix(n, n, tuple(1 << i for i in range(n)))


def test_rank_zero_matrix():
    assert rank(Gf2Matrix(2, 3, (0, 0))) == 0


def test_rank_identity():
    assert rank(identity(4)) == 4


def test_rank_trefoil_region_matrix_is_full():
    assert rank(TREFOIL_MATRIX) == 3


def test_solve_identity_particular_is_rhs():
    b = 0b101
    particular, basis = solve_affine(identity(3), b)
    assert particular == b
    assert basis == ()


def test_solve_trefoil_has_four_solutions():
    for i in range(3):
        particular, basis = solve_affine(TREFOIL_MATRIX, 1 << i)
        assert len(basis) == 2
        solutions = [particular ^ k for k in span(basis)]
        assert len(set(solutions)) == 4
        for v in solutions:
            assert TREFOIL_MATRIX.mul_vec(v) == 1 << i


def test_solve_inconsistent():
    m = Gf2Matrix(1, 2, (0,))
    with pytest.raises(Inconsistent):
        solve_affine(m, 1)


def test_vectors_wider_than_the_matrix_are_rejected():
    with pytest.raises(ValueError):
        solve_affine(TREFOIL_MATRIX, 1 << 3)
    with pytest.raises(ValueError):
        solve_affine(TREFOIL_MATRIX, -1)
    with pytest.raises(ValueError):
        TREFOIL_MATRIX.mul_vec(1 << 5)
    assert TREFOIL_MATRIX.mul_vec(1) == 0b011


def test_encode_checks_range_and_decode_inverts_it():
    assert encode([0, 3, 4], 5) == 0b11001
    assert decode(0b11001) == [0, 3, 4]
    assert decode(0) == []
    for bad in (5, -1):
        with pytest.raises(ValueError, match=f"index {bad} out of range"):
            encode([0, bad], 5)


def test_span_doubling_order():
    assert span([]) == [0]
    assert span([1, 2, 4]) == list(range(8))
    assert span([0b110, 0b011]) == [0, 0b110, 0b011, 0b101]


def test_kernel_identity_empty():
    assert kernel(identity(5)) == ()


def test_kernel_single_row():
    basis = kernel(Gf2Matrix(1, 2, (0b11,)))
    assert len(basis) == 1
    assert basis[0] == 0b11


def test_kernel_trefoil_spans_color_classes():
    basis = kernel(TREFOIL_MATRIX)
    assert len(basis) == 2
    black = encode([0, 3, 4], 5)
    white = encode([1, 2], 5)
    assert set(span(basis)) == {0, black, white, black ^ white}


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
        e = 1 << i
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
        e = 1 << i
        assert m.mul_vec(inv.mul_vec(e)) == e


@given(matrices(), st.integers(0, 255))
def test_solutions_satisfy_system(m, seed):
    b = seed % (1 << m.rows)
    try:
        particular, basis = solve_affine(m, b)
    except Inconsistent:
        assert rank(m) < m.rows
        return
    for k in span(basis):
        assert m.mul_vec(particular ^ k) == b
    assert len(basis) == m.cols - rank(m)


@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel(m):
        assert m.mul_vec(v) == 0


@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_even_xor_even_is_even(a, b):
    if a.bit_count() % 2 == 0 and b.bit_count() % 2 == 0:
        assert (a ^ b).bit_count() % 2 == 0

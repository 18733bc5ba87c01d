"""Dense GF(2) linear algebra on int bitsets.

Vectors and matrix rows are Python ints; bit i is coordinate/column i.
Everything here runs at knot-diagram scale (a few dozen columns), so plain
Gaussian elimination with a fixed leftmost-pivot rule is used throughout to
keep results reproducible across runs.

This is the linear algebra the runtime needs: rank, and one elimination of
[M | I] per matrix (``right_inverse``) that answers every right-hand side.
The per-system solve, kernel, column deletion and square inversion that it
is tested against live in ``reference``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class Inconsistent(ValueError):
    """The system Mx = b has no solution over GF(2)."""


class Singular(ValueError):
    """Square matrix is not invertible over GF(2)."""


def encode(indices: Iterable[int], length: int) -> int:
    """The int with bit i set for each i in ``indices``; every index must
    lie in ``range(length)``."""
    bits = 0
    for i in indices:
        if not 0 <= i < length:
            raise ValueError(f"index {i} out of range")
        bits |= 1 << i
    return bits


def decode(bits: int) -> list[int]:
    """The set bits of ``bits`` in increasing order."""
    return [i for i in range(bits.bit_length()) if (bits >> i) & 1]


def span(basis: Iterable[int]) -> list[int]:
    """Every XOR combination of ``basis``: 0 first, then each basis vector
    in turn doubles the list (entry j is the combination whose bit k of j
    picks basis vector k)."""
    out = [0]
    for v in basis:
        out += [x ^ v for x in out]
    return out


def _mul_rows(rows: Iterable[int], bits: int) -> int:
    """Matrix-vector product on packed ints: bit i of the result is the
    parity of ``rows[i] & bits``."""
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & bits).bit_count() & 1) << i
    return out


class _Gf2MatrixFields(NamedTuple):
    rows: int
    cols: int
    row_bits: tuple[int, ...]


class Gf2Matrix(_Gf2MatrixFields):
    """Row-major bit-packed matrix over GF(2)."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, row_bits: tuple[int, ...]) -> Gf2Matrix:
        if len(row_bits) != rows:
            raise ValueError("row count mismatch")
        mask = (1 << cols) - 1
        for r in row_bits:
            if r < 0 or r & ~mask:
                raise ValueError("row bits out of range for column count")
        return super().__new__(cls, rows, cols, row_bits)

    def entry(self, i: int, j: int) -> int:
        return (self.row_bits[i] >> j) & 1

    def mul_vec(self, v: int) -> int:
        if v >> self.cols:
            raise ValueError("vector wider than the column count")
        return _mul_rows(self.row_bits, v)


def _eliminate(rows: list[int], cols: int) -> list[int]:
    """Gauss-Jordan elimination in place on packed rows; returns the pivot
    columns, pivot k ending up in row k.

    Pivots are taken in columns below ``cols`` only, leftmost column first
    and topmost candidate row first. Bits at ``cols`` and above (a
    right-hand side or an identity block) take part in every row operation.
    """
    pivots: list[int] = []
    n = len(rows)
    r = 0
    for col in range(cols):
        bit = 1 << col
        pivot = None
        for i in range(r, n):
            if rows[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(n):
            if i != r and rows[i] & bit:
                rows[i] ^= top
        pivots.append(col)
        r += 1
        if r == n:
            break
    return pivots


def rank(m: Gf2Matrix) -> int:
    """Row rank by elimination mod 2, leftmost pivots first."""
    return len(_eliminate(list(m.row_bits), m.cols))


def _kernel_basis(rows: list[int], pivots: list[int], cols: int) -> tuple[int, ...]:
    """The null space basis read off eliminated rows: one vector per free
    column f in ascending order, with bit f set and each pivot column whose
    row has bit f."""
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        vec = 1 << f
        for row_idx, col in enumerate(pivots):
            if (rows[row_idx] >> f) & 1:
                vec |= 1 << col
        basis.append(vec)
    return tuple(basis)


def right_inverse(m: Gf2Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One elimination of [M | I] that answers every later Mx = b.

    Returns ``(rows, kernel_basis)``: ``rows`` has one int per column of M,
    the identity block of that column's pivot row (0 for a free column), so
    ``_mul_rows(rows, b)`` is the particular solution with leftmost pivots
    and every free variable 0 (``reference.solve_affine``), and every
    solution is it XOR an element of ``span(kernel_basis)``. Raises Inconsistent
    unless M has full row rank, i.e. unless every b is solvable.
    """
    cols = m.cols
    rows = [row | 1 << (cols + i) for i, row in enumerate(m.row_bits)]
    pivots = _eliminate(rows, cols)
    if len(pivots) < m.rows:
        raise Inconsistent(f"rank {len(pivots)} is below the row count {m.rows}")
    inverse = [0] * cols
    for row_idx, col in enumerate(pivots):
        inverse[col] = rows[row_idx] >> cols
    return tuple(inverse), _kernel_basis(rows, pivots, cols)

"""Dense GF(2) linear algebra on int bitsets.

Vectors and matrix rows are Python ints; bit i is coordinate/column i.
Everything here runs at knot-diagram scale (a few dozen columns), so plain
Gaussian elimination with a fixed leftmost-pivot rule is used throughout to
keep results reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class Inconsistent(ValueError):
    """The system Mx = b has no solution over GF(2)."""


class Singular(ValueError):
    """Square matrix is not invertible over GF(2)."""


class KernelTooLarge(ValueError):
    """Coset enumeration guard tripped (kernel dimension too big)."""


@dataclass(frozen=True)
class Gf2Vector:
    """A fixed-length 0/1 vector packed into an int (bit i = entry i)."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits out of range for vector length")

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> Gf2Vector:
        bits = 0
        for i in indices:
            if not 0 <= i < length:
                raise ValueError(f"index {i} out of range")
            bits |= 1 << i
        return cls(length, bits)

    @classmethod
    def from_string(cls, s: str) -> Gf2Vector:
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"bad bit character {ch!r}")
        return cls(len(s), bits)

    def get(self, i: int) -> int:
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if (self.bits >> i) & 1)

    def __xor__(self, other: Gf2Vector) -> Gf2Vector:
        if other.length != self.length:
            raise ValueError("length mismatch")
        return Gf2Vector(self.length, self.bits ^ other.bits)

    def __str__(self) -> str:
        return "".join(str(self.get(i)) for i in range(self.length))


def _mul_rows(rows: Iterable[int], bits: int) -> int:
    """Matrix-vector product on packed ints: bit i of the result is the
    parity of ``rows[i] & bits``."""
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & bits).bit_count() & 1) << i
    return out


@dataclass(frozen=True)
class Gf2Matrix:
    """Row-major bit-packed matrix over GF(2)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.cols) - 1
        for r in self.row_bits:
            if r < 0 or r & ~mask:
                raise ValueError("row bits out of range for column count")

    @classmethod
    def from_rows(cls, cols: int, rows: Iterable[Iterable[int] | int]) -> Gf2Matrix:
        packed = []
        for row in rows:
            if isinstance(row, int):
                packed.append(row)
            else:
                bits = 0
                for j, v in enumerate(row):
                    if v & 1:
                        bits |= 1 << j
                packed.append(bits)
        return cls(len(packed), cols, tuple(packed))

    def entry(self, i: int, j: int) -> int:
        return (self.row_bits[i] >> j) & 1

    def mul_vec(self, v: Gf2Vector) -> Gf2Vector:
        if v.length != self.cols:
            raise ValueError("dimension mismatch")
        return Gf2Vector(self.rows, _mul_rows(self.row_bits, v.bits))

    def __str__(self) -> str:
        return "\n".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )


@dataclass(frozen=True)
class AffineSolution:
    """Solution set of Mx = b: particular point plus a kernel basis.

    The full solution set is {particular ^ any span combination}; its size is
    2 ** len(kernel_basis).
    """

    particular: Gf2Vector
    kernel_basis: tuple[Gf2Vector, ...]

    def count(self) -> int:
        return 1 << len(self.kernel_basis)

    def enumerate(self, max_dim: int = 20) -> Iterator[Gf2Vector]:
        """Yield every solution (Gray-code order over the kernel basis)."""
        k = len(self.kernel_basis)
        if k > max_dim:
            raise KernelTooLarge(f"kernel dimension {k} exceeds guard {max_dim}")
        cur = self.particular.bits
        yield Gf2Vector(self.particular.length, cur)
        prev_gray = 0
        for m in range(1, 1 << k):
            gray = m ^ (m >> 1)
            flip = (gray ^ prev_gray).bit_length() - 1
            prev_gray = gray
            cur ^= self.kernel_basis[flip].bits
            yield Gf2Vector(self.particular.length, cur)


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


def solve_affine(m: Gf2Matrix, b: Gf2Vector) -> AffineSolution:
    """Solve Mx = b, returning one particular solution and a kernel basis.

    Deterministic: pivots are leftmost, free variables are taken in ascending
    column order and set to 0 in the particular solution.
    """
    if b.length != m.rows:
        raise ValueError("right-hand side length must equal row count")
    cols = m.cols
    rows = [row | ((b.bits >> i) & 1) << cols for i, row in enumerate(m.row_bits)]
    pivots = _eliminate(rows, cols)
    if any(rows[len(pivots):]):  # a zero row left with a nonzero right-hand side
        raise Inconsistent("b is outside the column space")
    pivot_set = set(pivots)
    free_cols = [c for c in range(cols) if c not in pivot_set]

    particular = 0
    for row_idx, col in enumerate(pivots):
        if rows[row_idx] >> cols:
            particular |= 1 << col

    basis = []
    for f in free_cols:
        vec = 1 << f
        for row_idx, col in enumerate(pivots):
            if (rows[row_idx] >> f) & 1:
                vec |= 1 << col
        basis.append(Gf2Vector(cols, vec))
    return AffineSolution(Gf2Vector(cols, particular), tuple(basis))


def kernel(m: Gf2Matrix) -> tuple[Gf2Vector, ...]:
    """Basis of the null space {x : Mx = 0}."""
    return solve_affine(m, Gf2Vector(m.rows, 0)).kernel_basis


def delete_columns(m: Gf2Matrix, cols: Iterable[int]) -> Gf2Matrix:
    """Drop the given columns, compacting the remainder in order."""
    drop = set(cols)
    for c in drop:
        if not 0 <= c < m.cols:
            raise ValueError(f"column {c} out of range")
    keep = [c for c in range(m.cols) if c not in drop]
    new_rows = []
    for row in m.row_bits:
        bits = 0
        for j, c in enumerate(keep):
            bits |= ((row >> c) & 1) << j
        new_rows.append(bits)
    return Gf2Matrix(m.rows, len(keep), tuple(new_rows))


def invert_square(m: Gf2Matrix) -> Gf2Matrix:
    """Inverse of a square matrix; raises Singular if rank-deficient."""
    if m.rows != m.cols:
        raise ValueError("matrix is not square")
    n = m.rows
    rows = [row | 1 << (n + i) for i, row in enumerate(m.row_bits)]
    pivots = _eliminate(rows, n)
    if len(pivots) < n:
        col = next(c for c, p in enumerate(pivots + [n]) if c != p)
        raise Singular(f"no pivot in column {col}")
    return Gf2Matrix(n, n, tuple(row >> n for row in rows))

"""Slow, independent references for the fast paths the CLI runs.

Tests and ``bench/check.py`` compare the runtime against these; no runtime
module imports this one, so a reference never becomes a dependency of the
path it checks.

- ``solve_affine`` and ``kernel`` eliminate [M | b] afresh for each
  right-hand side. They check ``gf2.right_inverse`` and the cached solves
  of ``rcc.solve_for_crossings``.
- ``invert_square`` after ``delete_columns`` inverts the matrix without one
  black and one white column. It checks ``rcc._avoiding_inverse``, which
  ``rcc.solve_avoiding`` and ``boolalg.build_restricted`` read.
- ``phi_bruteforce`` toggles corner by corner. It checks the matrix effect
  map ``rcc.phi``.
- ``is_trivial`` and ``determinant`` read the Jones polynomial
  (``unknotting.jones_normalized``) as a triviality predicate and as
  |V(-1)|; the catalog invariant tests and ``bench/gen.py`` use them.
- ``PowerSetAlgebra`` is the plain power set that the restricted algebra of
  ``boolalg`` is verified alongside.

Matrix entries are incidence (a crossing bordering a region twice still
contributes a single 1). On irreducible diagrams that coincides with
toggling corner-by-corner; on reducible ones it may not, and
``incidence_discrepancies`` surfaces exactly where.
"""

from __future__ import annotations

from typing import Iterable

from .boolalg import _submasks
from .diagram import KnotDiagram, RegionMap
from .gf2 import Gf2Matrix, Inconsistent, Singular, _eliminate, _kernel_basis
from .rcc import CrossingSet, RegionSet
from .unknotting import jones_normalized


def solve_affine(m: Gf2Matrix, b: int) -> tuple[int, tuple[int, ...]]:
    """Solve Mx = b, returning one particular solution and a kernel basis.

    The full solution set is the particular solution XOR each element of
    ``span(kernel_basis)``. Deterministic: pivots are leftmost, free
    variables are taken in ascending column order and set to 0 in the
    particular solution.
    """
    if b >> m.rows:
        raise ValueError("right-hand side wider than the row count")
    cols = m.cols
    rows = [row | ((b >> i) & 1) << cols for i, row in enumerate(m.row_bits)]
    pivots = _eliminate(rows, cols)
    if any(rows[len(pivots):]):  # a zero row left with a nonzero right-hand side
        raise Inconsistent("b is outside the column space")

    particular = 0
    for row_idx, col in enumerate(pivots):
        if rows[row_idx] >> cols:
            particular |= 1 << col
    return particular, _kernel_basis(rows, pivots, cols)


def kernel(m: Gf2Matrix) -> tuple[int, ...]:
    """Basis of the null space {x : Mx = 0}."""
    return solve_affine(m, 0)[1]


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


def phi_bruteforce(rm: RegionMap, s: RegionSet) -> CrossingSet:
    """Direct simulation, toggling once per corner (multiplicity counts).

    Agrees with the matrix map on irreducible diagrams; see
    ``incidence_discrepancies`` for where the two readings part ways.
    """
    toggles = [0] * rm.n_crossings
    for r in s:
        for i, k in rm.regions[r]:
            toggles[i] ^= 1
    return frozenset(i for i, t in enumerate(toggles) if t)


def incidence_discrepancies(rm: RegionMap) -> list[tuple[int, int, int]]:
    """(crossing, region, multiplicity) wherever a region meets a crossing
    more than once; these are the spots where incidence and
    multiplicity-counting disagree."""
    out = []
    for i in range(rm.n_crossings):
        for r in set(rm.incident_regions(i)):
            mult = rm.multiplicity(i, r)
            if mult > 1:
                out.append((i, r, mult))
    return out


def is_trivial(d: KnotDiagram) -> bool:
    """Jones-polynomial triviality check (exact below the guard)."""
    return jones_normalized(d).is_one()


def determinant(d: KnotDiagram) -> int:
    """|V(-1)|, the knot determinant."""
    return abs(jones_normalized(d).evaluate(-1))


class PowerSetAlgebra:
    """Plain power set with union/intersection, for comparison checks;
    elements are int masks, bit u standing for member u of the universe."""

    bottom = 0

    def __init__(self, universe: frozenset[int]):
        self.top = sum(1 << u for u in set(universe))
        self.size = 1 << self.top.bit_count()

    def join(self, a: int, b: int) -> int:
        return a | b

    def meet(self, a: int, b: int) -> int:
        return a & b

    def complement(self, a: int) -> int:
        return self.top ^ a

    def leq(self, a: int, b: int) -> bool:
        return a & b == a

    def elements(self):
        return _submasks(self.top)

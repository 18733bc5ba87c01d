"""The region crossing change calculus.

A region crossing change (RCC) at a region flips every crossing on that
region's boundary. Over GF(2) the effect of a set of regions is linear, so
prescribing a set of crossings to change reduces to solving Mx = b with the
region choice matrix M: the c x (c+2) crossing/region incidence matrix.

Matrix entries are incidence (a crossing bordering a region twice still
contributes a single 1). On irreducible diagrams that coincides with
toggling corner-by-corner; on reducible ones it may not, and
``incidence_discrepancies`` surfaces exactly where.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagram import (
    Coloring,
    KnotDiagram,
    NotPlanar,
    ReducibleDiagram,
    RegionMap,
    apply_crossing_changes,
    checkerboard,
    faces,
    is_irreducible,
)
from .gf2 import (
    Gf2Matrix,
    Gf2Vector,
    _mul_rows,
    delete_columns,
    invert_square,
    kernel,
    solve_affine,
)

RegionSet = frozenset[int]
CrossingSet = frozenset[int]


class NotBlackWhitePair(ValueError):
    """The excluded regions are not one black and one white."""


def region_choice_matrix(d: KnotDiagram, rm: RegionMap | None = None) -> Gf2Matrix:
    """The c x (c+2) incidence matrix: entry (i, j) = 1 iff crossing i
    borders region j (at least once)."""
    if rm is None:
        rm = faces(d)
    rows = []
    for i in range(d.n_crossings):
        bits = 0
        for r in set(rm.incident_regions(i)):
            bits |= 1 << r
        rows.append(bits)
    return Gf2Matrix(d.n_crossings, rm.n_regions, tuple(rows))


@dataclass(frozen=True)
class RccMap:
    """The RCC effect map of one diagram: matrix, coloring, cached kernel."""

    diagram: KnotDiagram
    region_map: RegionMap
    coloring: Coloring
    matrix: Gf2Matrix
    kernel_basis: tuple[Gf2Vector, ...]

    def kernel_elements(self) -> tuple[RegionSet, ...]:
        """All region sets with empty effect (a group of order 2^dim)."""
        out = [frozenset()]
        for b in self.kernel_basis:
            out += [s ^ frozenset(b.indices()) for s in out]
        return tuple(out)  # type: ignore[return-value]


@lru_cache(maxsize=None)
def rcc_map(d: KnotDiagram) -> RccMap:
    rm = faces(d)
    m = region_choice_matrix(d, rm)
    return RccMap(d, rm, checkerboard(rm), m, kernel(m))


def _to_vector(s: frozenset[int], length: int) -> Gf2Vector:
    return Gf2Vector.from_indices(length, s)


def _region_set_key(s: RegionSet) -> tuple[int, list[int]]:
    """The canonical order on region sets: smaller sets first, then by the
    sorted region indices ({0, 2} before {1, 3}). It picks the minimum
    solution, the u_R coset representative and the certificate's
    BW-complement."""
    return (len(s), sorted(s))


def phi(m: RccMap, s: RegionSet) -> CrossingSet:
    """Crossings changed by performing RCC at every region of ``s``."""
    v = m.matrix.mul_vec(_to_vector(s, m.region_map.n_regions))
    return frozenset(v.indices())


def apply_rcc(d: KnotDiagram, m: RccMap, s: RegionSet) -> KnotDiagram:
    """The diagram after RCC on every region of ``s``."""
    return apply_crossing_changes(d, phi(m, s))


def solve_for_crossings(m: RccMap, target: CrossingSet) -> list[RegionSet]:
    """The four region sets realizing exactly the target crossing changes.

    Always solvable (the matrix is full rank); sorted in the canonical order
    (``_region_set_key``) so output is stable.
    """
    b = _to_vector(target, m.diagram.n_crossings)
    sol = solve_affine(m.matrix, b)
    k = len(sol.kernel_basis)
    if k != 2:  # the rank is c on every sphere diagram (Cheng-Gao 2012)
        raise NotPlanar(f"region choice kernel has dimension {k}, not 2")
    return sorted((frozenset(v.indices()) for v in sol.enumerate()), key=_region_set_key)


def bw_complements(m: RccMap, s: RegionSet) -> tuple[RegionSet, RegionSet, RegionSet]:
    """s xor B, s xor W, s xor (B xor W); on irreducible diagrams all four
    sets have the same effect as ``s``."""
    black, white = m.coloring.black, m.coloring.white
    return (s ^ black, s ^ white, s ^ black ^ white)


def _avoiding_inverse(m: RccMap, b: int, w: int) -> tuple[int, ...]:
    """The inverse of the matrix without columns b (black) and w (white),
    spread back to region indices: row r is zero for r in (b, w), and its
    bit i says whether the set avoiding b and w that changes exactly
    crossing i holds region r. Invertible on every irreducible diagram; on
    reducible ones Singular may propagate."""
    if b not in m.coloring.black or w not in m.coloring.white:
        raise NotBlackWhitePair(f"regions R{b + 1},R{w + 1} are not a black/white pair")
    rows = iter(invert_square(delete_columns(m.matrix, {b, w})).row_bits)
    return tuple(
        0 if r in (b, w) else next(rows) for r in range(m.region_map.n_regions)
    )


def solve_avoiding(m: RccMap, target: CrossingSet, b: int, w: int) -> RegionSet:
    """The unique region set with the target effect avoiding regions b and w
    (``b`` black, ``w`` white; see ``_avoiding_inverse``)."""
    inverse = _avoiding_inverse(m, b, w)
    x = _mul_rows(inverse, _to_vector(target, m.diagram.n_crossings).bits)
    return frozenset(r for r in range(m.region_map.n_regions) if (x >> r) & 1)


def splice_solution(d: KnotDiagram, x: int) -> RegionSet:
    """Region set changing exactly crossing ``x``, found by splicing.

    Smooth the crossing respecting orientation; the curve falls apart into
    two closed components. Checkerboard-color the sphere relative to the
    component holding the lower-labeled outgoing edge alone, and take every
    original region inside its black part. Verified before returning:
    the effect of the result is exactly {x}.
    """
    m = rcc_map(d)
    if not is_irreducible(d, m.region_map):
        raise ReducibleDiagram("splice construction needs an irreducible diagram")
    if not 0 <= x < d.n_crossings:
        raise ValueError(f"crossing {x} not in diagram")
    rm = m.region_map
    n_edges = d.n_edges

    crossing = d.crossings[x]
    under_in_edge = crossing.edges[0]
    over_in_edge = crossing.edges[crossing.over_in]

    # Orientation smoothing splits the traversal circle at the two passages:
    # one component holds edges a+1..o, the other o+1..a (cyclically).
    a, o = under_in_edge, over_in_edge

    def interval(start: int, stop: int) -> set[int]:
        out = set()
        e = start
        while True:
            out.add(e)
            if e == stop:
                return out
            e = e % n_edges + 1

    comp1 = interval(a % n_edges + 1, o)
    comp2 = interval(o % n_edges + 1, a)
    chosen = comp1 if min(comp1) < min(comp2) else comp2

    # Merge regions separated only by the discarded strands.
    parent = list(range(rm.n_regions))

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    def union(r: int, s: int) -> None:
        rr, rs = find(r), find(s)
        if rr != rs:
            parent[rr] = rs

    for e in range(1, n_edges + 1):
        if e not in chosen:
            u, v = rm.edge_sides[e - 1]
            union(u, v)
    # The smoothing opens a channel between two opposite corners of x.
    channel = (1, 3) if crossing.over_in == 3 else (0, 2)
    corners = rm.incident_regions(x)
    union(corners[channel[0]], corners[channel[1]])

    # 2-color the merged regions across the surviving strand.
    color: dict[int, int] = {}
    adj: dict[int, set[int]] = {}
    for e in chosen:
        u, v = rm.edge_sides[e - 1]
        ru, rv = find(u), find(v)
        adj.setdefault(ru, set()).add(rv)
        adj.setdefault(rv, set()).add(ru)
    anchor = find(0)
    color[anchor] = 0
    queue = [anchor]
    while queue:
        r = queue.pop()
        for s in adj.get(r, ()):
            if s not in color:
                color[s] = color[r] ^ 1
                queue.append(s)
            elif color[s] == color[r]:
                raise AssertionError("spliced component is not checkerboard colorable")

    result = frozenset(
        r for r in range(rm.n_regions) if color.get(find(r), 0) == 0
    )
    effect = phi(m, result)
    if effect != frozenset({x}):
        raise AssertionError("splice construction failed to isolate the crossing")
    return result


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

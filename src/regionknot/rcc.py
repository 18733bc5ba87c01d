"""The region crossing change calculus.

A region crossing change (RCC) at a region flips every crossing on that
region's boundary. Over GF(2) the effect of a set of regions is linear, so
prescribing a set of crossings to change reduces to solving Mx = b with the
region choice matrix M: the c x (c+2) crossing/region incidence matrix.
``rcc_map`` eliminates M once per diagram, and every solve here reads those
cached rows. The slow references they are tested against (corner-by-corner
toggling, elimination per system) live in ``reference``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .diagram import (
    Coloring,
    KnotDiagram,
    NotPlanar,
    ReducibleDiagram,
    RegionMap,
    _two_color,
    apply_crossing_changes,
    checkerboard,
    faces,
    is_irreducible,
)
from .gf2 import (
    Gf2Matrix,
    Inconsistent,
    Singular,
    _mul_rows,
    decode,
    encode,
    right_inverse,
    span,
)

RegionSet = frozenset[int]
CrossingSet = frozenset[int]


class NotBlackWhitePair(ValueError):
    """The excluded regions are not one black and one white."""


class ProofContractViolated(RuntimeError):
    """A guarantee the theory gives was broken."""


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


class RccMap(NamedTuple):
    """The RCC effect map of one diagram: matrix, coloring, and the one
    elimination of the matrix every solve reads.

    ``particular_rows`` has one crossing mask per region: the particular
    solution for a target t (``gf2.right_inverse``) holds region r iff
    ``particular_rows[r] & t`` has odd parity. Every solution for t is that
    set XOR an element of ``span(kernel_basis)``, so each solve is an O(c)
    product on these rows, with no further elimination.
    """

    diagram: KnotDiagram
    region_map: RegionMap
    coloring: Coloring
    matrix: Gf2Matrix
    kernel_basis: tuple[int, ...]  # region masks
    particular_rows: tuple[int, ...]  # crossing masks, one per region

    def kernel_elements(self) -> tuple[RegionSet, ...]:
        """All region sets with empty effect (a group of order 2^dim)."""
        return tuple(frozenset(decode(k)) for k in span(self.kernel_basis))


@lru_cache(maxsize=256)
def rcc_map(d: KnotDiagram) -> RccMap:
    rm = faces(d)
    m = region_choice_matrix(d, rm)
    try:
        rows, basis = right_inverse(m)
    except Inconsistent as exc:  # the rank is c on every sphere knot diagram (Shimizu 2010)
        raise NotPlanar(f"region choice matrix: {exc}") from None
    return RccMap(d, rm, checkerboard(rm), m, basis, rows)


def _region_set_key(s: RegionSet) -> tuple[int, list[int]]:
    """The canonical order on region sets: smaller sets first, then by the
    sorted region indices ({0, 2} before {1, 3}). It picks the minimum
    solution, the first region set per effect in the u_R search and the
    certificate's BW-complement."""
    return (len(s), sorted(s))


def phi(m: RccMap, s: RegionSet) -> CrossingSet:
    """Crossings changed by performing RCC at every region of ``s``."""
    x = m.matrix.mul_vec(encode(s, m.region_map.n_regions))
    return frozenset(decode(x))


def apply_rcc(d: KnotDiagram, m: RccMap, s: RegionSet) -> KnotDiagram:
    """The diagram after RCC on every region of ``s``."""
    return apply_crossing_changes(d, phi(m, s))


def solve_for_crossings(m: RccMap, target: CrossingSet) -> list[RegionSet]:
    """The four region sets realizing exactly the target crossing changes.

    Always solvable (the matrix is full rank); sorted in the canonical order
    (``_region_set_key``) so output is stable.
    """
    particular = _mul_rows(m.particular_rows, encode(target, m.diagram.n_crossings))
    return sorted(
        (frozenset(decode(particular ^ k)) for k in span(m.kernel_basis)), key=_region_set_key
    )


def bw_complements(col: Coloring, s: RegionSet) -> tuple[RegionSet, RegionSet, RegionSet]:
    """s xor B, s xor W, s xor (B xor W); on irreducible diagrams all four
    sets have the same effect as ``s``."""
    return (s ^ col.black, s ^ col.white, s ^ col.black ^ col.white)


def _avoiding_inverse(m: RccMap, b: int, w: int) -> tuple[int, ...]:
    """The inverse of the matrix without columns b (black) and w (white),
    spread back to region indices: row r is zero for r in (b, w), and its
    bit i says whether the set avoiding b and w that changes exactly
    crossing i holds region r.

    No elimination: with kernel basis k1, k2 (dimension 2 since the rank is
    c and there are c + 2 regions), the solutions for a target t are
    p ^ s1*k1 ^ s2*k2 with p read from ``particular_rows``; the 2x2 system
    that clears bits b and w fixes (s1, s2) as linear functions of t, so each
    row is ``particular_rows[r]`` XORed with a fixed row wherever k1 or k2
    holds r. The system is singular exactly when some nonzero kernel
    element avoids both regions, which the kernel {0, B, W, B ^ W} of an
    irreducible diagram never does (Cheng-Gao 2012); on reducible ones
    Singular is raised.
    """
    if b not in m.coloring.black or w not in m.coloring.white:
        raise NotBlackWhitePair(f"regions R{b + 1},R{w + 1} are not a black/white pair")
    rows = m.particular_rows
    k1, k2 = m.kernel_basis
    # [[k1_b, k2_b], [k1_w, k2_w]] (s1, s2) = (p_b, p_w); over GF(2) the
    # inverse of [[u, v], [x, y]] with determinant 1 is [[y, v], [x, u]].
    u, v, x, y = (k1 >> b) & 1, (k2 >> b) & 1, (k1 >> w) & 1, (k2 >> w) & 1
    if not (u & y) ^ (v & x):
        raise Singular(
            f"no unique solution avoiding R{b + 1},R{w + 1}: a nonzero kernel"
            " element avoids both regions on this reducible diagram"
        )
    fix1 = (rows[b] if y else 0) ^ (rows[w] if v else 0)
    fix2 = (rows[b] if x else 0) ^ (rows[w] if u else 0)
    inverse = list(rows)
    for k, fix in ((k1, fix1), (k2, fix2)):
        for r in range(k.bit_length()):
            if (k >> r) & 1:
                inverse[r] ^= fix
    return tuple(inverse)


def solve_avoiding(m: RccMap, target: CrossingSet, b: int, w: int) -> RegionSet:
    """The unique region set with the target effect avoiding regions b and w
    (``b`` black, ``w`` white; see ``_avoiding_inverse``)."""
    inverse = _avoiding_inverse(m, b, w)
    x = _mul_rows(inverse, encode(target, m.diagram.n_crossings))
    return frozenset(decode(x))


def splice_solution(d: KnotDiagram, x: int) -> RegionSet:
    """Region set changing exactly crossing ``x``, found by splicing.

    Smooth the crossing respecting orientation; the curve falls apart into
    two closed components. Checkerboard-color the sphere relative to the
    component holding edge 1 alone, and take every original region inside
    its black part. Verified before returning: the effect of the result is
    exactly {x}.
    """
    m = rcc_map(d)
    if not is_irreducible(d, m.region_map):
        raise ReducibleDiagram("splice construction needs an irreducible diagram")
    if not 0 <= x < d.n_crossings:
        raise ValueError(f"crossing {x} not in diagram")
    rm = m.region_map
    n_edges = d.n_edges
    crossing = d.crossings[x]

    # Orientation smoothing splits the traversal circle at the two passages:
    # one component holds edges a+1..o, the other o+1..a (cyclically). Only
    # the strands of edge 1's component separate colors.
    a, o = crossing.edges[0], crossing.edges[crossing.over_in]
    side = [(e - a - 1) % n_edges < (o - a) % n_edges for e in range(1, n_edges + 1)]
    links = [(u, v, int(side[k] == side[0])) for k, (u, v) in enumerate(rm.edge_sides)]
    # The smoothing opens a channel between two opposite corners of x.
    first = 1 if crossing.over_in == 3 else 0
    corners = rm.incident_regions(x)
    links.append((corners[first], corners[first + 2], 0))

    color = _two_color(rm.n_regions, links)
    result = frozenset(r for r in range(rm.n_regions) if color[r] == 0)
    if phi(m, result) != frozenset({x}):
        raise ProofContractViolated("splice construction failed to isolate the crossing")
    return result

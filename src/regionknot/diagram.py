"""Knot diagrams as PD codes, with face (region) combinatorics.

A diagram is a list of crossings, each holding its four incident edge labels
in counterclockwise order starting from the incoming under-strand (the usual
knot-table PD convention). Edge labels are normalized at parse time to run
1..2c consecutively along the traversal, which encodes the orientation.

Everything lives on the sphere: no region is distinguished as "outer".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator


class MalformedToken(ValueError):
    """PD text that cannot be read as a consistent oriented diagram."""


class EdgeLabelNotTwice(ValueError):
    """An edge label does not appear exactly twice."""


class MultipleComponents(ValueError):
    """The code traces more than one closed curve."""


class NotPlanar(ValueError):
    """Face count contradicts a sphere embedding (regions != c + 2)."""


class UnknownCrossing(ValueError):
    """Crossing index outside the diagram."""


class ReducibleDiagram(ValueError):
    """Operation requires every crossing to touch four distinct regions."""


@dataclass(frozen=True)
class Crossing:
    """One crossing: edges counterclockwise from the incoming under-strand.

    Positions 0 and 2 carry the under-strand (in, out); positions 1 and 3
    carry the over-strand. ``over_in`` records which of slots 1/3 the
    over-strand enters by; edge labels alone leave this ambiguous on
    one-crossing diagrams.
    """

    edges: tuple[int, int, int, int]
    over_in: int

    def __post_init__(self) -> None:
        if self.over_in not in (1, 3):
            raise ValueError("over_in must be slot 1 or 3")

    @property
    def sign(self) -> int:
        """+1 when the under-strand passes right-to-left under the over-strand."""
        return 1 if self.over_in == 3 else -1


@dataclass(frozen=True)
class KnotDiagram:
    """A single-component knot diagram; the empty tuple is the round unknot."""

    crossings: tuple[Crossing, ...]

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_edges(self) -> int:
        return 2 * len(self.crossings)

    @property
    def writhe(self) -> int:
        return sum(x.sign for x in self.crossings)

    def succ(self, edge: int) -> int:
        """Next edge label along the orientation."""
        return edge % self.n_edges + 1

    def pd_code(self) -> str:
        return " ".join(
            "X[{},{},{},{}]".format(*x.edges) for x in self.crossings
        )


@dataclass(frozen=True)
class Basepoint:
    """A basepoint on ``edge``, sitting just before the crossing the edge enters."""

    edge: int


@dataclass(frozen=True)
class RegionMap:
    """The faces of the underlying projection, in canonical discovery order.

    Each region is a cyclic tuple of corners; a corner (i, k) is the sector of
    crossing i between its slots k and k+1 (mod 4). ``corner_region[i][k]``
    inverts that, and ``edge_sides[e-1]`` gives the two regions flanking
    edge e (side seen when departing the edge's start, then its end).
    """

    n_crossings: int
    regions: tuple[tuple[tuple[int, int], ...], ...]
    corner_region: tuple[tuple[int, int, int, int], ...]
    edge_sides: tuple[tuple[int, int], ...]

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def boundary_length(self, region: int) -> int:
        return len(self.regions[region])

    def incident_regions(self, crossing: int) -> tuple[int, int, int, int]:
        """Regions at the four corners of a crossing (repeats if reducible)."""
        return self.corner_region[crossing]

    def multiplicity(self, crossing: int, region: int) -> int:
        """How many corners of ``crossing`` lie in ``region`` (0..4)."""
        return self.corner_region[crossing].count(region)


@dataclass(frozen=True)
class Coloring:
    """Checkerboard 2-coloring; the lowest-indexed region is black."""

    black: frozenset[int]
    white: frozenset[int]

    @property
    def n_regions(self) -> int:
        return len(self.black) + len(self.white)


_TOKEN = re.compile(r"^X\[(\d+),(\d+),(\d+),(\d+)\]$")


def _slot_mates(
    tuples: list[tuple[int, int, int, int]]
) -> dict[tuple[int, int], tuple[int, int]]:
    """Pair each (crossing, slot) with the other slot carrying its edge label.

    Raises EdgeLabelNotTwice, naming the smallest offending label, unless
    every label appears exactly twice.
    """
    occ: dict[int, list[tuple[int, int]]] = {}
    for i, t in enumerate(tuples):
        for s, e in enumerate(t):
            occ.setdefault(e, []).append((i, s))
    bad = [e for e, places in occ.items() if len(places) != 2]
    if bad:
        label = min(bad)
        raise EdgeLabelNotTwice(f"edge label {label} appears {len(occ[label])} times")
    mates = {}
    for a, b in occ.values():
        mates[a] = b
        mates[b] = a
    return mates


def _passages(
    mates: dict[tuple[int, int], tuple[int, int]], start: tuple[int, int]
) -> Iterator[tuple[int, int]]:
    """Follow the curve in at the (crossing, slot) ``start`` and yield the
    entry slot of every passage in order; a passage always exits two slots
    further around.

    Raises MultipleComponents if the curve closes before it has passed every
    crossing twice.
    """
    n_pass = len(mates) // 2
    seen: set[tuple[int, int]] = set()
    cur = start
    for _ in range(n_pass):
        i, s = cur
        key = (i, s % 2)  # passage id: crossing + which strand
        if key in seen:
            raise MultipleComponents(
                f"walk returned to crossing {i} before covering every passage"
            )
        seen.add(key)
        yield cur
        cur = mates[(i, (s + 2) % 4)]
    if cur != start:
        raise MalformedToken("traversal did not close up")


def _walk(tuples: list[tuple[int, int, int, int]]) -> tuple[list[int], dict[int, int]]:
    """Trace the closed curve through every crossing passage.

    Starts by entering crossing 0 at slot 0. Returns the edge sequence in
    traversal order and the over-entry slot per crossing.

    Raises MultipleComponents if the walk closes early and MalformedToken if
    some under-strand is met against its stated direction.
    """
    edge_seq: list[int] = []
    over_in: dict[int, int] = {}
    for i, s in _passages(_slot_mates(tuples), (0, 0)):
        if s == 2:
            raise MalformedToken(
                f"under-strand direction conflict at crossing {i}"
            )
        if s in (1, 3):
            over_in[i] = s
        edge_seq.append(tuples[i][s])
    return edge_seq, over_in


def parse_pd(text: str) -> KnotDiagram:
    """Parse whitespace-separated ``X[a,b,c,d]`` tokens into a diagram.

    Labels may be any positive integers appearing exactly twice; they are
    renormalized to 1..2c in traversal order (anchored so the smallest input
    label keeps position 1). The empty string is the 0-crossing diagram.
    Raises NotPlanar unless the code is a sphere diagram (by ``faces``).
    """
    tokens = text.split()
    if not tokens:
        return KnotDiagram(())
    tuples: list[tuple[int, int, int, int]] = []
    for tok in tokens:
        m = _TOKEN.match(tok)
        if not m:
            raise MalformedToken(f"bad token {tok!r}")
        labels = tuple(int(g) for g in m.groups())
        if any(v < 1 for v in labels):
            raise MalformedToken(f"labels must be positive in {tok!r}")
        tuples.append(labels)  # type: ignore[arg-type]

    edge_seq, over_in = _walk(tuples)
    n_edges = len(edge_seq)
    anchor = edge_seq.index(min(edge_seq))
    relabel = {
        e: (k - anchor) % n_edges + 1 for k, e in enumerate(edge_seq)
    }

    crossings = []
    for i, t in enumerate(tuples):
        crossings.append(
            Crossing(tuple(relabel[e] for e in t), over_in[i])  # type: ignore[arg-type]
        )
    d = KnotDiagram(tuple(crossings))
    faces(d)
    return d


@lru_cache(maxsize=None)
def faces(d: KnotDiagram) -> RegionMap:
    """Trace the regions of the underlying projection.

    Face walk: leave a crossing along an edge, arrive at the far end, turn to
    the counterclockwise-adjacent slot, repeat. Regions are numbered by first
    discovery while scanning edges 1..2c (start side, then end side), which
    fixes the matrix column order everywhere downstream.
    """
    c = d.n_crossings
    if c == 0:
        return RegionMap(0, ((), ()), (), ())

    mates = _slot_mates([x.edges for x in d.crossings])
    # Each edge as its (start, end) darts: the slot it leaves and the slot it
    # runs into.
    darts = [(mates[end], end) for end in edge_arrivals(d)]
    face_of: dict[tuple[int, int], int] = {}
    regions: list[tuple[tuple[int, int], ...]] = []

    def trace(seed: tuple[int, int]) -> None:
        idx = len(regions)
        corners = []
        dart = seed
        while dart not in face_of:
            face_of[dart] = idx
            j, t = mates[dart]
            corners.append((j, t))
            dart = (j, (t + 1) % 4)
        regions.append(tuple(corners))

    for edge in darts:
        for seed in edge:
            if seed not in face_of:
                trace(seed)

    if len(regions) != c + 2:
        raise NotPlanar(
            f"{len(regions)} regions for {c} crossings; code is not a sphere diagram"
        )

    corner_region = []
    for i in range(c):
        corner_region.append(
            tuple(face_of[(i, (k + 1) % 4)] for k in range(4))
        )
    edge_sides = [(face_of[start], face_of[end]) for start, end in darts]

    return RegionMap(
        c,
        tuple(regions),
        tuple(corner_region),  # type: ignore[arg-type]
        tuple(edge_sides),
    )


@lru_cache(maxsize=None)
def edge_arrivals(d: KnotDiagram) -> tuple[tuple[int, int], ...]:
    """For each edge 1..2c, the (crossing, slot) occurrence it runs into."""
    out: list[tuple[int, int] | None] = [None] * d.n_edges
    for i, x in enumerate(d.crossings):
        for s, e in enumerate(x.edges):
            if s == 0 or s == x.over_in:
                if out[e - 1] is not None:
                    raise MalformedToken(f"edge {e} arrives twice")
                out[e - 1] = (i, s)
    if any(v is None for v in out):
        raise MalformedToken("some edge never arrives at a crossing")
    return tuple(out)  # type: ignore[arg-type]


def is_irreducible(d: KnotDiagram, rm: RegionMap | None = None) -> bool:
    """True iff every crossing touches four distinct regions."""
    if rm is None:
        rm = faces(d)
    return all(
        len(set(rm.incident_regions(i))) == 4 for i in range(d.n_crossings)
    )


def checkerboard(rm: RegionMap) -> Coloring:
    """Proper 2-coloring of the regions; region 0 is black."""
    n = rm.n_regions
    if rm.n_crossings == 0:
        return Coloring(frozenset({0}), frozenset({1}))
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in rm.edge_sides:
        adj[a].append(b)
        adj[b].append(a)
    color = [-1] * n
    color[0] = 0
    queue = [0]
    while queue:
        r = queue.pop()
        for s in adj[r]:
            if color[s] == -1:
                color[s] = color[r] ^ 1
                queue.append(s)
            elif color[s] == color[r]:
                raise AssertionError("projection is not checkerboard colorable")
    if -1 in color:
        raise AssertionError("region adjacency graph is disconnected")
    black = frozenset(r for r in range(n) if color[r] == 0)
    white = frozenset(r for r in range(n) if color[r] == 1)
    return Coloring(black, white)


def apply_crossing_changes(d: KnotDiagram, s: Iterable[int]) -> KnotDiagram:
    """Swap over/under at the crossings in ``s``; the projection is unchanged.

    Involution: applying the same set twice restores the diagram, and
    consecutive applications compose by symmetric difference.
    """
    change = set(s)
    for i in change:
        if not 0 <= i < d.n_crossings:
            raise UnknownCrossing(f"crossing {i} not in diagram")
    new = []
    for i, x in enumerate(d.crossings):
        if i not in change:
            new.append(x)
            continue
        o = x.over_in
        rotated = x.edges[o:] + x.edges[:o]
        new.append(Crossing(rotated, 4 - o))
    return KnotDiagram(tuple(new))

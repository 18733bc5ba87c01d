"""Diagram constructors: twist stacks, tangle sums, braid closures, kinks.

All builders assemble an unoriented rotation system (counterclockwise arc
tuples plus an over-diagonal per crossing) and then serialize it through the
PD parser, so every constructed diagram passes the same validation as text
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import (
    KnotDiagram,
    MultipleComponents,
    _passages,
    _slot_mates,
    edge_arrivals,
    parse_pd,
)


class NotAKnot(ValueError):
    """The closure traced more than one component."""


@dataclass
class _Rotation:
    """Crossing tuples over arc ids; over_pair 0 means slots {0,2} run over."""

    crossings: list[tuple[int, int, int, int]] = field(default_factory=list)
    over_pairs: list[int] = field(default_factory=list)
    _next_arc: int = 0
    _merged: dict[int, int] = field(default_factory=dict)

    def new_arc(self) -> int:
        self._next_arc += 1
        return self._next_arc - 1

    def add_crossing(self, ccw: tuple[int, int, int, int], over_pair: int) -> None:
        self.crossings.append(ccw)
        self.over_pairs.append(over_pair)

    def merge(self, a: int, b: int) -> None:
        ra, rb = self._root(a), self._root(b)
        if ra != rb:
            self._merged[ra] = rb

    def _root(self, a: int) -> int:
        while a in self._merged:
            a = self._merged[a]
        return a

    def to_diagram(self) -> KnotDiagram:
        """Orient, label edges along the traversal, and emit a PD code."""
        tuples = [tuple(self._root(e) for e in t) for t in self.crossings]
        mates = _slot_mates(tuples)
        roots = {self._root(a) for a in range(self._next_arc)}
        if roots - {e for t in tuples for e in t}:
            # an arc in no crossing is a closed loop of its own
            raise NotAKnot("closure has more than one component")

        # Unoriented traversal from the first end of the smallest arc id.
        n_pass = 2 * len(tuples)
        start = min(mates, key=lambda p: (tuples[p[0]][p[1]], p))
        label: dict[tuple[int, int], int] = {}
        try:
            for step, (i, s) in enumerate(_passages(mates, start)):
                label[(i, s)] = step + 1  # arrival end of edge step+1
                label[(i, (s + 2) % 4)] = step + 2 if step + 1 < n_pass else 1
        except MultipleComponents as exc:
            raise NotAKnot("closure has more than one component") from exc

        tokens = []
        for i in range(len(tuples)):
            ccw = tuple(label[(i, s)] for s in range(4))
            # Rotate so the incoming end of the under-strand comes first.
            under = (0, 2) if self.over_pairs[i] else (1, 3)
            under_in = min(under, key=lambda s: 0 if _is_arrival(ccw, s, n_pass) else 1)
            rot = ccw[under_in:] + ccw[:under_in]
            tokens.append("X[{},{},{},{}]".format(*rot))
        try:
            return parse_pd(" ".join(tokens))
        except MultipleComponents as exc:  # pragma: no cover - guarded above
            raise NotAKnot(str(exc)) from exc


def _is_arrival(ccw: tuple[int, int, int, int], slot: int, n_edges: int) -> bool:
    """The strand through ``slot`` arrives there iff its mate holds the successor."""
    e_here = ccw[slot]
    e_other = ccw[(slot + 2) % 4]
    return e_other == e_here % n_edges + 1


@dataclass
class Tangle:
    """A 2-string tangle under construction; boundary arcs run NW, NE, SW, SE."""

    rot: _Rotation
    nw: int
    ne: int
    sw: int
    se: int


def vertical_strands() -> Tangle:
    """The infinity tangle: two vertical strands (NW-SW and NE-SE)."""
    rot = _Rotation()
    left = rot.new_arc()
    right = rot.new_arc()
    return Tangle(rot, nw=left, ne=right, sw=left, se=right)


def twist_bottom(t: Tangle, n: int = 1) -> Tangle:
    """Add n crossings between the two bottom ends."""
    for _ in range(n):
        a = t.rot.new_arc()
        b = t.rot.new_arc()
        # Crossing seen from above: LT=sw, RT=se, LB=a, RB=b; ccw from LT.
        t.rot.add_crossing((t.sw, a, b, t.se), over_pair=0)
        t.sw, t.se = a, b
    return t


def twist_right(t: Tangle, n: int = 1) -> Tangle:
    """Add n crossings between the two right-hand ends."""
    for _ in range(n):
        a = t.rot.new_arc()  # new NE
        b = t.rot.new_arc()  # new SE
        # LT=ne, LB=se, RB=b, RT=a; ccw from LT.
        t.rot.add_crossing((t.ne, t.se, b, a), over_pair=0)
        t.ne, t.se = a, b
    return t


def tangle_sum(t1: Tangle, t2: Tangle) -> Tangle:
    """Place t2 to the right of t1 and join the facing ends."""
    offset = t1.rot._next_arc
    rot = _Rotation(
        crossings=list(t1.rot.crossings),
        over_pairs=list(t1.rot.over_pairs),
        _next_arc=t1.rot._next_arc + t2.rot._next_arc,
        _merged=dict(t1.rot._merged),
    )
    for t, p in zip(t2.rot.crossings, t2.rot.over_pairs):
        rot.add_crossing(tuple(e + offset for e in t), p)  # type: ignore[arg-type]
    for a, b in t2.rot._merged.items():
        rot.merge(a + offset, b + offset)
    rot.merge(t1.ne, t2.nw + offset)
    rot.merge(t1.se, t2.sw + offset)
    return Tangle(rot, nw=t1.nw, ne=t2.ne + offset, sw=t1.sw, se=t2.se + offset)


def closure_sides(t: Tangle) -> KnotDiagram:
    """Close left and right: join NW-SW and NE-SE."""
    t.rot.merge(t.nw, t.sw)
    t.rot.merge(t.ne, t.se)
    return t.rot.to_diagram()


def closure_top_bottom(t: Tangle) -> KnotDiagram:
    """Close top and bottom: join NW-NE and SW-SE (numerator closure)."""
    t.rot.merge(t.nw, t.ne)
    t.rot.merge(t.sw, t.se)
    return t.rot.to_diagram()


def twist_stack(seq: list[int] | tuple[int, ...]) -> Tangle:
    """Alternating twist regions: odd positions twist the bottom ends,
    even positions the right-hand ends. Every entry must be a positive
    integer."""
    if not seq:
        raise ValueError("twist sequence must be nonempty")
    if any(not isinstance(a, int) or a < 1 for a in seq):
        raise ValueError("twist entries must be positive integers")
    t = vertical_strands()
    for idx, a in enumerate(seq):
        if idx % 2 == 0:
            twist_bottom(t, a)
        else:
            twist_right(t, a)
    return t


def rational_diagram(seq: list[int] | tuple[int, ...]) -> KnotDiagram:
    """Standard rational (2-bridge staircase) diagram for a twist sequence.

    Twist regions alternate vertical/horizontal and the final closure wraps
    around the last region, so positive sequences give reduced alternating
    diagrams with c = sum(seq) crossings. Raises NotAKnot when the closure
    traces a two-component link (even-numerator fractions, e.g. T(2), T(4)).
    """
    t = twist_stack(seq)
    if len(seq) % 2 == 1:
        return closure_sides(t)
    return closure_top_bottom(t)


def montesinos_diagram(*sequences: list[int] | tuple[int, ...]) -> KnotDiagram:
    """Numerator closure of a horizontal sum of twist-stack tangles."""
    if not sequences:
        raise ValueError("need at least one twist sequence")
    total = twist_stack(sequences[0])
    for seq in sequences[1:]:
        total = tangle_sum(total, twist_stack(seq))
    return closure_top_bottom(total)


def braid_closure(word: list[int] | tuple[int, ...], strands: int) -> KnotDiagram:
    """Plain closure of a braid word; letter ±k is a crossing of strands k, k+1.

    Positive letters put the left strand over the right one. Raises NotAKnot
    when the closure has more than one component, including strands that no
    letter touches.
    """
    if strands < 2:
        raise ValueError("need at least two strands")
    rot = _Rotation()
    top = [rot.new_arc() for _ in range(strands)]
    cur = list(top)
    for letter in word:
        k = abs(letter)
        if not 1 <= k < strands:
            raise ValueError(f"letter {letter} out of range")
        i = k - 1
        a = rot.new_arc()
        b = rot.new_arc()
        # LT=cur[i], RT=cur[i+1], LB=a, RB=b; ccw from LT.
        rot.add_crossing((cur[i], a, b, cur[i + 1]), over_pair=0 if letter > 0 else 1)
        cur[i], cur[i + 1] = a, b
    for i in range(strands):
        rot.merge(cur[i], top[i])
    return rot.to_diagram()


def add_kink(d: KnotDiagram, edge: int) -> KnotDiagram:
    """Insert a one-crossing curl on the given edge (always reducible after)."""
    if not 1 <= edge <= d.n_edges or d.n_crossings == 0:
        raise ValueError(f"edge {edge} not in diagram")
    n = d.n_edges
    loop = n + 1
    tail = n + 2
    term_i, term_s = edge_arrivals(d)[edge - 1]
    tokens = []
    for i, x in enumerate(d.crossings):
        edges = list(x.edges)
        if i == term_i:
            edges[term_s] = tail
        tokens.append("X[{},{},{},{}]".format(*edges))
    # Curl: come in on `edge`, run the loop, leave on `tail`.
    tokens.append(f"X[{edge},{tail},{loop},{loop}]")
    return parse_pd(" ".join(tokens))

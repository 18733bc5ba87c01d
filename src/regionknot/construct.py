"""Diagram constructors: rational stacks, Montesinos sums, braid closures, kinks.

Each builder assembles one unoriented rotation system per diagram
(counterclockwise arc tuples plus an over-diagonal per crossing): twist
stacks allocate their arcs and crossings in it, and joining two tangle ends
or closing the diagram merges two arcs. The system is then oriented and
serialized through the PD parser, so every constructed diagram passes the
same validation as text input.
"""

from __future__ import annotations

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


class _Rotation:
    """Crossing tuples over arc ids; over_pair 0 means slots {0,2} run over."""

    def __init__(self) -> None:
        self.crossings: list[tuple[int, int, int, int]] = []
        self.over_pairs: list[int] = []
        self._next_arc = 0
        self._merged: dict[int, int] = {}

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
        entry: dict[tuple[int, int], int] = {}  # (crossing, slot parity) -> entry slot
        try:
            for step, (i, s) in enumerate(_passages(mates, start)):
                entry[i, s % 2] = s
                label[i, s] = step + 1  # arrival end of edge step+1
                label[i, (s + 2) % 4] = (step + 1) % n_pass + 1
        except MultipleComponents as exc:
            raise NotAKnot("closure has more than one component") from exc

        tokens = []
        for i, over_pair in enumerate(self.over_pairs):
            ccw = [label[i, s] for s in range(4)]
            # Rotate so the incoming end of the under-strand comes first.
            k = entry[i, 1 - over_pair]
            tokens.append("X[{},{},{},{}]".format(*ccw[k:], *ccw[:k]))
        return parse_pd(" ".join(tokens))


def _twist_stack(rot: _Rotation, seq: list[int] | tuple[int, ...]) -> tuple[int, int, int, int]:
    """Add a 2-string tangle of alternating twist regions to ``rot`` and
    return its end arcs NW, NE, SW, SE.

    The tangle starts as two vertical strands; odd positions twist the
    bottom ends, even positions the right-hand ends. Every entry must be a
    positive integer.
    """
    if not seq:
        raise ValueError("twist sequence must be nonempty")
    if any(not isinstance(a, int) or a < 1 for a in seq):
        raise ValueError("twist entries must be positive integers")
    nw = sw = rot.new_arc()
    ne = se = rot.new_arc()
    for idx, n in enumerate(seq):
        for _ in range(n):
            a = rot.new_arc()
            b = rot.new_arc()
            if idx % 2 == 0:
                # Seen from above: LT=sw, RT=se, LB=a, RB=b; ccw from LT.
                rot.add_crossing((sw, a, b, se), over_pair=0)
                sw, se = a, b
            else:
                # LT=ne, LB=se, RB=b, RT=a; ccw from LT.
                rot.add_crossing((ne, se, b, a), over_pair=0)
                ne, se = a, b
    return nw, ne, sw, se


def rational_diagram(seq: list[int] | tuple[int, ...]) -> KnotDiagram:
    """Standard rational (2-bridge staircase) diagram for a twist sequence.

    Twist regions alternate vertical/horizontal and the final closure wraps
    around the last region, so positive sequences give reduced alternating
    diagrams with c = sum(seq) crossings. Raises NotAKnot when the closure
    traces a two-component link (even-numerator fractions, e.g. T(2), T(4)).
    """
    rot = _Rotation()
    nw, ne, sw, se = _twist_stack(rot, seq)
    if len(seq) % 2 == 1:  # close left and right
        rot.merge(nw, sw)
        rot.merge(ne, se)
    else:  # close top and bottom
        rot.merge(nw, ne)
        rot.merge(sw, se)
    return rot.to_diagram()


def montesinos_diagram(*sequences: list[int] | tuple[int, ...]) -> KnotDiagram:
    """Numerator closure of a horizontal sum of twist-stack tangles."""
    if not sequences:
        raise ValueError("need at least one twist sequence")
    rot = _Rotation()
    nw, ne, sw, se = _twist_stack(rot, sequences[0])
    for seq in sequences[1:]:
        t_nw, t_ne, t_sw, t_se = _twist_stack(rot, seq)
        # Place the new tangle to the right and join the facing ends.
        rot.merge(ne, t_nw)
        rot.merge(se, t_sw)
        ne, se = t_ne, t_se
    rot.merge(nw, ne)
    rot.merge(sw, se)
    return rot.to_diagram()


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

"""Boolean-algebra structure carried from crossings back to regions.

Excluding one black and one white region from an irreducible diagram leaves
the RCC effect map a bijection between region subsets and crossing subsets.
Pulling union/intersection/complement back through that bijection makes the
restricted power set a Boolean algebra isomorphic to the power set of the
crossings; this module builds the structure and verifies its axioms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .diagram import KnotDiagram, ReducibleDiagram, is_irreducible
from .gf2 import Gf2Matrix, _mul_rows, delete_columns, invert_square
from .rcc import NotBlackWhitePair, RccMap, rcc_map

_TABLE_LIMIT = 12  # precompute full effect tables up to 2^12 subsets


@dataclass(frozen=True)
class RestrictedAlgebra:
    """P(S) for S = regions minus one black/white pair, with pulled-back ops.

    Elements are frozensets of global region indices contained in S. The
    bottom element is the empty set; the top is the preimage of the full
    crossing set and is generally not S itself.
    """

    rcc: RccMap
    excluded_black: int
    excluded_white: int
    columns: tuple[int, ...]  # global region index per compact column
    compact_rows: tuple[int, ...]  # matrix rows over the surviving columns
    inverse: Gf2Matrix
    effect_table: tuple[int, ...] | None = None
    preimage_table: tuple[int, ...] | None = None

    @property
    def diagram(self) -> KnotDiagram:
        return self.rcc.diagram

    @property
    def ground_set(self) -> frozenset[int]:
        return frozenset(self.columns)

    @property
    def size(self) -> int:
        return 1 << len(self.columns)

    # -- mask plumbing -------------------------------------------------

    def _to_mask(self, a: frozenset[int]) -> int:
        mask = 0
        for r in a:
            try:
                mask |= 1 << self.columns.index(r)
            except ValueError:
                raise ValueError(f"region {r} is not in the ground set")
        return mask

    def _from_mask(self, mask: int) -> frozenset[int]:
        return frozenset(
            self.columns[i] for i in range(len(self.columns)) if (mask >> i) & 1
        )

    def effect_mask(self, mask: int) -> int:
        if self.effect_table is not None:
            return self.effect_table[mask]
        return _mul_rows(self.compact_rows, mask)

    def preimage_mask(self, crossings: int) -> int:
        if self.preimage_table is not None:
            return self.preimage_table[crossings]
        return _mul_rows(self.inverse.row_bits, crossings)

    # -- public operations ---------------------------------------------

    def effect(self, a: frozenset[int]) -> frozenset[int]:
        """The crossing set changed by RCC on ``a`` (a bijection on P(S))."""
        m = self.effect_mask(self._to_mask(a))
        return frozenset(i for i in range(self.rcc.diagram.n_crossings) if (m >> i) & 1)

    def preimage(self, crossings: frozenset[int]) -> frozenset[int]:
        bits = 0
        for i in crossings:
            bits |= 1 << i
        return self._from_mask(self.preimage_mask(bits))

    def join(self, a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
        return self._from_mask(
            self.preimage_mask(
                self.effect_mask(self._to_mask(a)) | self.effect_mask(self._to_mask(b))
            )
        )

    def meet(self, a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
        return self._from_mask(
            self.preimage_mask(
                self.effect_mask(self._to_mask(a)) & self.effect_mask(self._to_mask(b))
            )
        )

    def complement(self, a: frozenset[int]) -> frozenset[int]:
        full = (1 << self.rcc.diagram.n_crossings) - 1
        return self._from_mask(
            self.preimage_mask(full ^ self.effect_mask(self._to_mask(a)))
        )

    @property
    def bottom(self) -> frozenset[int]:
        return frozenset()

    @property
    def top(self) -> frozenset[int]:
        full = (1 << self.rcc.diagram.n_crossings) - 1
        return self._from_mask(self.preimage_mask(full))

    def leq(self, a: frozenset[int], b: frozenset[int]) -> bool:
        """Induced order: a <= b iff a meet complement(b) is bottom."""
        return self.meet(a, self.complement(b)) == self.bottom

    def elements(self):
        for mask in range(self.size):
            yield self._from_mask(mask)


def build_restricted(d: KnotDiagram, b: int, w: int) -> RestrictedAlgebra:
    """Set up the restricted algebra for the excluded pair (b black, w white).

    Constructive: inverting the column-deleted square matrix both proves the
    restricted effect map bijective and realizes its inverse.
    """
    m = rcc_map(d)
    if not is_irreducible(d, m.region_map):
        raise ReducibleDiagram("restricted algebra needs an irreducible diagram")
    if b not in m.coloring.black or w not in m.coloring.white:
        raise NotBlackWhitePair(f"regions ({b}, {w}) are not a black/white pair")
    columns = tuple(r for r in range(m.region_map.n_regions) if r not in (b, w))
    square = delete_columns(m.matrix, {b, w})
    inverse = invert_square(square)

    effect_table = preimage_table = None
    if len(columns) <= _TABLE_LIMIT:
        fwd = [_mul_rows(square.row_bits, mask) for mask in range(1 << len(columns))]
        back = [0] * len(fwd)
        for mask, img in enumerate(fwd):
            back[img] = mask
        effect_table = tuple(fwd)
        preimage_table = tuple(back)
    return RestrictedAlgebra(
        m, b, w, columns, square.row_bits, inverse, effect_table, preimage_table
    )


class PowerSetAlgebra:
    """Plain power set with union/intersection, for comparison checks."""

    def __init__(self, universe: frozenset[int]):
        self.universe = frozenset(universe)

    @property
    def size(self) -> int:
        return 1 << len(self.universe)

    def join(self, a, b):
        return a | b

    def meet(self, a, b):
        return a & b

    def complement(self, a):
        return self.universe - a

    @property
    def bottom(self):
        return frozenset()

    @property
    def top(self):
        return self.universe

    def leq(self, a, b):
        return a <= b

    def elements(self):
        items = sorted(self.universe)
        for mask in range(self.size):
            yield frozenset(items[i] for i in range(len(items)) if (mask >> i) & 1)


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    mode: str
    triples_checked: int
    failure: str | None = None


def _check_tuples(
    check, elements: list, arity: int, exhaustive_limit: int, sample: int, seed: int
) -> AxiomReport:
    """Run ``check`` on ``arity``-tuples of elements until it reports a
    failure.

    Every tuple is checked, in ``itertools.product`` order, when there are at
    most ``exhaustive_limit`` of them; otherwise ``sample`` tuples are drawn
    entry by entry from ``random.Random(seed)``.
    """
    n = len(elements)
    if n**arity <= exhaustive_limit:
        mode = "exhaustive"
        tuples = product(elements, repeat=arity)
    else:
        mode = "sampled"
        rng = random.Random(seed)
        tuples = (
            [elements[rng.randrange(n)] for _ in range(arity)] for _ in range(sample)
        )
    checked = 0
    for t in tuples:
        failure = check(*t)
        checked += 1
        if failure:
            return AxiomReport(False, mode, checked, failure)
    return AxiomReport(True, mode, checked)


def verify_axioms(
    alg, sample: int = 1000, seed: int = 0, exhaustive_limit: int = 40000
) -> AxiomReport:
    """Check the five Boolean-algebra axioms on the given structure.

    Exhaustive over all triples when |alg|^3 stays below ``exhaustive_limit``,
    otherwise over ``sample`` seeded random triples. Violations are reported,
    not raised.
    """
    elements = list(alg.elements())
    top, bottom = alg.top, alg.bottom

    def check_triple(a, b, c) -> str | None:
        if alg.join(a, b) != alg.join(b, a) or alg.meet(a, b) != alg.meet(b, a):
            return f"commutativity fails on {sorted(a)}, {sorted(b)}"
        if alg.join(a, alg.join(b, c)) != alg.join(alg.join(a, b), c):
            return f"join associativity fails on {sorted(a)}, {sorted(b)}, {sorted(c)}"
        if alg.meet(a, alg.meet(b, c)) != alg.meet(alg.meet(a, b), c):
            return f"meet associativity fails on {sorted(a)}, {sorted(b)}, {sorted(c)}"
        if alg.meet(a, alg.join(b, c)) != alg.join(alg.meet(a, b), alg.meet(a, c)):
            return f"distributivity (meet over join) fails on {sorted(a)}, {sorted(b)}, {sorted(c)}"
        if alg.join(a, alg.meet(b, c)) != alg.meet(alg.join(a, b), alg.join(a, c)):
            return f"distributivity (join over meet) fails on {sorted(a)}, {sorted(b)}, {sorted(c)}"
        if alg.join(a, bottom) != a or alg.meet(a, top) != a:
            return f"identity elements fail on {sorted(a)}"
        comp = alg.complement(a)
        if alg.join(a, comp) != top or alg.meet(a, comp) != bottom:
            return f"complement laws fail on {sorted(a)}"
        return None

    return _check_tuples(check_triple, elements, 3, exhaustive_limit, sample, seed)


def verify_homomorphism(
    alg: RestrictedAlgebra, sample: int = 1000, seed: int = 0,
    exhaustive_limit: int = 4096,
) -> AxiomReport:
    """Check that the effect map turns join/meet/complement into
    union/intersection/complement on the crossing side."""
    elements = list(alg.elements())
    full = frozenset(range(alg.diagram.n_crossings))

    def check_pair(a, b) -> str | None:
        fa, fb = alg.effect(a), alg.effect(b)
        if alg.effect(alg.join(a, b)) != fa | fb:
            return f"join image fails on {sorted(a)}, {sorted(b)}"
        if alg.effect(alg.meet(a, b)) != fa & fb:
            return f"meet image fails on {sorted(a)}, {sorted(b)}"
        if alg.effect(alg.complement(a)) != full - fa:
            return f"complement image fails on {sorted(a)}"
        return None

    return _check_tuples(check_pair, elements, 2, exhaustive_limit, sample, seed)


def verify_order_isomorphism(alg: RestrictedAlgebra) -> AxiomReport:
    """Exhaustively check: a <= b in P(S) iff effect(a) is a subset of
    effect(b). Only sensible at table scale (2^c elements)."""
    elements = list(alg.elements())
    effects = {a: alg.effect(a) for a in elements}

    def check_pair(a, b) -> str | None:
        if alg.leq(a, b) != (effects[a] <= effects[b]):
            return f"order mismatch on {sorted(a)}, {sorted(b)}"
        return None

    n_pairs = len(elements) ** 2
    return _check_tuples(check_pair, elements, 2, n_pairs, sample=0, seed=0)


def black_white_pairs(d: KnotDiagram) -> list[tuple[int, int]]:
    """Every (black, white) region pair of the diagram's coloring."""
    col = rcc_map(d).coloring
    return [(b, w) for b in sorted(col.black) for w in sorted(col.white)]

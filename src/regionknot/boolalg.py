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
from .gf2 import _mul_rows, decode, span
from .rcc import RccMap, _avoiding_inverse, rcc_map

_TABLE_LIMIT = 12  # effect and preimage are table lookups up to 12 crossings


def _submasks(ground: int):
    """Every submask of ``ground``, in increasing order."""
    sub = 0
    while True:
        yield sub
        if sub == ground:
            return
        sub = (sub - ground) & ground


def _product_table(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """``_mul_rows(rows, mask)`` for every n-bit mask, indexed by the mask;
    built by linearity, one XOR per entry."""
    return tuple(span(_mul_rows(rows, 1 << j) for j in range(n)))


@dataclass(frozen=True)
class RestrictedAlgebra:
    """P(S) for S = regions minus one black/white pair, with pulled-back ops.

    Elements are int masks over global region indices: bit r is region r,
    the column order of ``rcc.matrix``, and every element is a submask of
    ``ground``. Crossing sets are int masks too (bit i is crossing i). The
    bottom element is 0; the top is the preimage of the full crossing set and
    is generally not S itself.
    """

    rcc: RccMap
    excluded_black: int
    excluded_white: int
    preimage_rows: tuple[int, ...]  # the effect map's inverse, one row per region
    effect_table: tuple[int, ...] | None = None
    preimage_table: tuple[int, ...] | None = None

    @property
    def diagram(self) -> KnotDiagram:
        return self.rcc.diagram

    @property
    def ground(self) -> int:
        every = (1 << self.rcc.region_map.n_regions) - 1
        return every ^ (1 << self.excluded_black) ^ (1 << self.excluded_white)

    @property
    def ground_set(self) -> frozenset[int]:
        return frozenset(decode(self.ground))

    @property
    def size(self) -> int:
        return 1 << self.rcc.diagram.n_crossings

    def effect(self, a: int) -> int:
        """The crossing set changed by RCC on ``a`` (a bijection on P(S))."""
        if self.effect_table is not None:
            return self.effect_table[a]
        return _mul_rows(self.rcc.matrix.row_bits, a)

    def preimage(self, crossings: int) -> int:
        if self.preimage_table is not None:
            return self.preimage_table[crossings]
        return _mul_rows(self.preimage_rows, crossings)

    def join(self, a: int, b: int) -> int:
        return self.preimage(self.effect(a) | self.effect(b))

    def meet(self, a: int, b: int) -> int:
        return self.preimage(self.effect(a) & self.effect(b))

    def complement(self, a: int) -> int:
        full = (1 << self.rcc.diagram.n_crossings) - 1
        return self.preimage(full ^ self.effect(a))

    bottom = 0  # the empty region set

    @property
    def top(self) -> int:
        return self.preimage((1 << self.rcc.diagram.n_crossings) - 1)

    def leq(self, a: int, b: int) -> bool:
        """Induced order: a <= b iff a meet complement(b) is bottom."""
        return self.meet(a, self.complement(b)) == self.bottom

    def elements(self):
        return _submasks(self.ground)


def build_restricted(d: KnotDiagram, b: int, w: int) -> RestrictedAlgebra:
    """Set up the restricted algebra for the excluded pair (b black, w white).

    Constructive: inverting the column-deleted square matrix both proves the
    restricted effect map bijective and realizes its inverse.
    """
    m = rcc_map(d)
    if not is_irreducible(d, m.region_map):
        raise ReducibleDiagram("restricted algebra needs an irreducible diagram")
    inverse = _avoiding_inverse(m, b, w)
    if d.n_crossings > _TABLE_LIMIT:
        return RestrictedAlgebra(m, b, w, inverse)
    return RestrictedAlgebra(
        m, b, w, inverse,
        _product_table(m.matrix.row_bits, m.region_map.n_regions),
        _product_table(inverse, d.n_crossings),
    )


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
            return f"commutativity fails on {decode(a)}, {decode(b)}"
        if alg.join(a, alg.join(b, c)) != alg.join(alg.join(a, b), c):
            return f"join associativity fails on {decode(a)}, {decode(b)}, {decode(c)}"
        if alg.meet(a, alg.meet(b, c)) != alg.meet(alg.meet(a, b), c):
            return f"meet associativity fails on {decode(a)}, {decode(b)}, {decode(c)}"
        if alg.meet(a, alg.join(b, c)) != alg.join(alg.meet(a, b), alg.meet(a, c)):
            return f"distributivity (meet over join) fails on {decode(a)}, {decode(b)}, {decode(c)}"
        if alg.join(a, alg.meet(b, c)) != alg.meet(alg.join(a, b), alg.join(a, c)):
            return f"distributivity (join over meet) fails on {decode(a)}, {decode(b)}, {decode(c)}"
        if alg.join(a, bottom) != a or alg.meet(a, top) != a:
            return f"identity elements fail on {decode(a)}"
        comp = alg.complement(a)
        if alg.join(a, comp) != top or alg.meet(a, comp) != bottom:
            return f"complement laws fail on {decode(a)}"
        return None

    return _check_tuples(check_triple, elements, 3, exhaustive_limit, sample, seed)


def verify_homomorphism(
    alg: RestrictedAlgebra, sample: int = 1000, seed: int = 0,
    exhaustive_limit: int = 4096,
) -> AxiomReport:
    """Check that the effect map turns join/meet/complement into
    union/intersection/complement on the crossing side."""
    elements = list(alg.elements())
    full = (1 << alg.diagram.n_crossings) - 1

    def check_pair(a, b) -> str | None:
        fa, fb = alg.effect(a), alg.effect(b)
        if alg.effect(alg.join(a, b)) != fa | fb:
            return f"join image fails on {decode(a)}, {decode(b)}"
        if alg.effect(alg.meet(a, b)) != fa & fb:
            return f"meet image fails on {decode(a)}, {decode(b)}"
        if alg.effect(alg.complement(a)) != full ^ fa:
            return f"complement image fails on {decode(a)}"
        return None

    return _check_tuples(check_pair, elements, 2, exhaustive_limit, sample, seed)


def verify_order_isomorphism(alg: RestrictedAlgebra) -> AxiomReport:
    """Exhaustively check: a <= b in P(S) iff effect(a) is a subset of
    effect(b). Only sensible at table scale (2^c elements)."""
    elements = list(alg.elements())
    effects = {a: alg.effect(a) for a in elements}

    def check_pair(a, b) -> str | None:
        if alg.leq(a, b) != (effects[a] | effects[b] == effects[b]):
            return f"order mismatch on {decode(a)}, {decode(b)}"
        return None

    n_pairs = len(elements) ** 2
    return _check_tuples(check_pair, elements, 2, n_pairs, sample=0, seed=0)


def black_white_pairs(d: KnotDiagram) -> list[tuple[int, int]]:
    """Every (black, white) region pair of the diagram's coloring."""
    col = rcc_map(d).coloring
    return [(b, w) for b in sorted(col.black) for w in sorted(col.white)]

"""Triviality oracle, exact region unknotting numbers, and the constructive
small-certificate search.

The oracle is the writhe-normalized Kauffman bracket (the Jones polynomial).
A diagram is declared trivial exactly when that polynomial is 1; no knot
within the crossing guard has a trivial Jones polynomial, so at this scale
the check is exact.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .diagram import (
    Basepoint,
    Coloring,
    KnotDiagram,
    ReducibleDiagram,
    apply_crossing_changes,
    edge_arrivals,
    is_irreducible,
)
from .polynomial import LaurentPolynomial
from .rcc import (
    ProofContractViolated,
    _region_set_key,
    bw_complements,
    phi,
    rcc_map,
    solve_for_crossings,
)

# Cost limit of the 2^c state sum, not the edge of exactness: a trivial
# Jones polynomial means the unknot up to 17 crossings (Dasbach-Hougardy
# 1997) and up to 24 (Tuzun-Sikora 2021).
JONES_GUARD = 14
UR_GUARD = 10


class TooManyCrossings(ValueError):
    """Crossing count exceeds the guard for an exact computation."""


class EquilibriumReport(NamedTuple):
    """Intersection counts of a region set against a checkerboard coloring."""

    black_hits: int
    white_hits: int
    black_total: int
    white_total: int

    @property
    def is_equilibrium(self) -> bool:
        return (
            self.black_total % 2 == 0
            and self.white_total % 2 == 0
            and self.black_hits * 2 == self.black_total
            and self.white_hits * 2 == self.white_total
        )


class UnknottingCertificate(NamedTuple):
    """A replayable witness that RCC on ``regions`` trivializes a diagram."""

    regions: frozenset[int]
    size: int
    crossings_changed: frozenset[int]
    jones_after: LaurentPolynomial
    crossing_count: int
    method: str
    shifts: int | None = None

    @property
    def trivializes(self) -> bool:
        return self.jones_after.is_one()

    @property
    def meets_weak_bound(self) -> bool:
        """size <= (c + 2) / 2"""
        return 2 * self.size <= self.crossing_count + 2

    @property
    def meets_strong_bound(self) -> bool:
        """size <= (c + 1) / 2"""
        return 2 * self.size <= self.crossing_count + 1


_DELTA = LaurentPolynomial({2: -1, -2: -1})  # loop factor -A^2 - A^-2


@lru_cache(maxsize=4096)
def kauffman_bracket(d: KnotDiagram) -> LaurentPolynomial:
    """Exact state-sum Kauffman bracket in the variable A.

    With slots counterclockwise from the incoming under-strand, the
    A-smoothing joins slots (0,1) and (2,3), the B-smoothing (0,3) and
    (1,2). This pairing, together with the sign convention on crossings,
    reproduces the knot-table Jones values for table PD codes. A state's
    loops are its edges less the joins that merge two loops; states are
    tallied by (A-smoothings, loops) before the polynomial is expanded.
    """
    c = d.n_crossings
    if c > JONES_GUARD:
        raise TooManyCrossings(f"{c} crossings exceeds guard {JONES_GUARD}")
    if c == 0:
        return LaurentPolynomial.one()

    n = d.n_edges
    # per crossing: the joins of its B- and A-smoothing, indexed by state bit
    joins = [(((p, s), (q, r)), ((p, q), (r, s))) for p, q, r, s in (x.edges for x in d.crossings)]

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tally: Counter[tuple[int, int]] = Counter()
    for state in range(1 << c):
        parent = list(range(n + 1))  # a fresh union-find per state, read by find
        loops = n
        for i in range(c):
            for u, v in joins[i][(state >> i) & 1]:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    loops -= 1
        tally[state.bit_count(), loops] += 1

    delta_pows = [LaurentPolynomial.one()]
    for _ in range(c):
        delta_pows.append(delta_pows[-1] * _DELTA)
    total = LaurentPolynomial.zero()
    for (a_count, loops), count in tally.items():
        total = total + delta_pows[loops - 1].scale(count, 2 * a_count - c)  # A^(a - b)
    return total


def jones_normalized(d: KnotDiagram) -> LaurentPolynomial:
    """Writhe-normalized bracket, written in the variable t.

    The unknot gives 1; a mirror image inverts the variable.
    """
    bracket = kauffman_bracket(d)
    w = d.writhe
    normalized = bracket.scale((-1) ** (w % 2), -3 * w)
    terms: dict[int, int] = {}
    for exp, coeff in normalized.items():
        if exp % 4:
            raise ProofContractViolated("normalized bracket has a non-quartic exponent")
        terms[-exp // 4] = coeff
    return LaurentPolynomial(terms, variable="t")


def equilibrium(s: frozenset[int], col: Coloring) -> EquilibriumReport:
    """Count how the region set meets each color class."""
    return EquilibriumReport(
        black_hits=len(s & col.black),
        white_hits=len(s & col.white),
        black_total=len(col.black),
        white_total=len(col.white),
    )


def is_monotone(d: KnotDiagram, p: Basepoint) -> bool:
    """True iff every crossing is first met as an over-pass when traveling
    from the basepoint along the orientation."""
    return not monotone_target(d, p)


def monotone_target(d: KnotDiagram, p: Basepoint) -> frozenset[int]:
    """Crossings whose information must change to make the diagram monotone
    from ``p``; applying exactly these changes leaves a trivial diagram."""
    n = d.n_edges
    if n == 0:
        return frozenset()
    if not 1 <= p.edge <= n:
        raise ValueError(f"basepoint edge {p.edge} not in diagram")
    arrivals = edge_arrivals(d)
    seen: set[int] = set()
    bad: set[int] = set()
    for k in range(n):
        e = (p.edge - 1 + k) % n
        i, s = arrivals[e]
        if i not in seen:
            seen.add(i)
            if s == 0:  # first visit runs under
                bad.add(i)
    return frozenset(bad)


def region_unknotting_number(
    d: KnotDiagram, max_crossings: int = UR_GUARD
) -> tuple[int, UnknottingCertificate]:
    """Exact minimum number of regions whose RCC trivializes the diagram.

    Searches region sets by increasing cardinality in the canonical order
    (``_region_set_key``, which ``combinations`` follows) and tests only the
    first set met for each effect. Sets with one effect differ by a kernel
    element, so that first set is the minimum of its kernel coset.
    """
    c = d.n_crossings
    if c > max_crossings:
        raise TooManyCrossings(f"{c} crossings exceeds guard {max_crossings}")
    m = rcc_map(d)
    n = m.region_map.n_regions
    tried: set[frozenset[int]] = set()
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            changed = phi(m, s)
            if changed in tried:
                continue
            tried.add(changed)
            poly = jones_normalized(apply_crossing_changes(d, changed))
            if poly.is_one():
                return size, UnknottingCertificate(
                    regions=s,
                    size=size,
                    crossings_changed=changed,
                    jones_after=poly,
                    crossing_count=c,
                    method="exhaustive",
                )
    raise ProofContractViolated("no region set trivializes the diagram")


def bw_complement_bound(s: frozenset[int], col: Coloring) -> int:
    """Smallest cardinality among ``s`` and its three BW-complements.

    The four sizes always sum to twice the region count, so the minimum is
    at most (c + 2) / 2.
    """
    return min(len(t) for t in (s, *bw_complements(col, s)))


def small_unknotting_set(d: KnotDiagram) -> UnknottingCertificate:
    """Constructive unknotting set of size at most (c + 1) / 2.

    Start from a region set whose RCC makes the diagram monotone from a
    basepoint on edge 1. While that set splits both color classes exactly in
    half (is equilibrium), shift the basepoint past the next crossing and
    fold in a region set realizing that single crossing change. The first
    non-equilibrium set in the chain has a BW-complement smaller than
    (c + 2) / 2; the number of shifts used is recorded but not interpreted.
    """
    c = d.n_crossings
    if c < 1:
        raise ValueError("need at least one crossing")
    m = rcc_map(d)
    if not is_irreducible(d, m.region_map):
        raise ReducibleDiagram("the small-certificate search needs an irreducible diagram")
    col = m.coloring
    arrivals = edge_arrivals(d)
    n_edges = d.n_edges

    s = solve_for_crossings(m, monotone_target(d, Basepoint(1)))[0]
    shifts = 0
    while equilibrium(s, col).is_equilibrium:
        shifts += 1
        if shifts >= 2 * c:
            raise ProofContractViolated(
                "equilibrium persisted through a full traversal"
            )
        crossing_passed = arrivals[(shifts - 1) % n_edges][0]
        t = solve_for_crossings(m, frozenset({crossing_passed}))[0]
        s = s ^ t

    best = min((s, *bw_complements(col, s)), key=_region_set_key)
    changed = phi(m, best)
    poly = jones_normalized(apply_crossing_changes(d, changed))
    cert = UnknottingCertificate(
        regions=best,
        size=len(best),
        crossings_changed=changed,
        jones_after=poly,
        crossing_count=c,
        method="basepoint-shift",
        shifts=shifts,
    )
    if not cert.trivializes or not cert.meets_strong_bound:
        raise ProofContractViolated("certificate failed its postcondition")
    return cert

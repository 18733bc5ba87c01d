"""Triviality oracle, exact region unknotting numbers, and the constructive
small-certificate search.

The oracle is the writhe-normalized Kauffman bracket (the Jones polynomial).
A diagram is declared trivial exactly when that polynomial is 1; no knot
within the crossing guard has a trivial Jones polynomial, so at this scale
the check is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
from .rcc import _region_set_key, bw_complements, phi, rcc_map, solve_for_crossings

JONES_GUARD = 14
UR_GUARD = 10


class TooManyCrossings(ValueError):
    """Crossing count exceeds the guard for an exact computation."""


class ProofContractViolated(RuntimeError):
    """The basepoint-shift search ran past its guaranteed stopping point."""


@dataclass(frozen=True)
class EquilibriumReport:
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


@dataclass(frozen=True)
class UnknottingCertificate:
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


def _smoothing_pairs(d: KnotDiagram) -> list[tuple[tuple[int, int, int, int], tuple[int, int, int, int]]]:
    """Per crossing: edge pairs joined by the A- and B-smoothings.

    With slots counterclockwise from the incoming under-strand, the
    A-smoothing joins slots (0,1) and (2,3), the B-smoothing (0,3) and
    (1,2). This pairing, together with the sign convention on crossings,
    reproduces the knot-table Jones values for table PD codes.
    """
    out = []
    for x in d.crossings:
        e = x.edges
        out.append(((e[0], e[1], e[2], e[3]), (e[0], e[3], e[1], e[2])))
    return out


@lru_cache(maxsize=4096)
def kauffman_bracket(d: KnotDiagram, max_crossings: int = JONES_GUARD) -> LaurentPolynomial:
    """Exact state-sum Kauffman bracket in the variable A."""
    c = d.n_crossings
    if c > max_crossings:
        raise TooManyCrossings(f"{c} crossings exceeds guard {max_crossings}")
    if c == 0:
        return LaurentPolynomial.one()

    n = d.n_edges
    pairs = _smoothing_pairs(d)
    delta_pows = [LaurentPolynomial.one()]
    for _ in range(c + 1):
        delta_pows.append(delta_pows[-1] * _DELTA)

    acc: dict[int, int] = {}
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for state in range(1 << c):
        for i in range(n + 1):
            parent[i] = i
        a_count = 0
        for i in range(c):
            if (state >> i) & 1:
                a_count += 1
                p, q, r, s = pairs[i][0]
            else:
                p, q, r, s = pairs[i][1]
            for u, v in ((p, q), (r, s)):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        loops = len({find(e) for e in range(1, n + 1)})
        shift = 2 * a_count - c  # a_count - b_count
        for exp, coeff in delta_pows[loops - 1].items():
            e = exp + shift
            acc[e] = acc.get(e, 0) + coeff
    return LaurentPolynomial(acc)


def jones_normalized(d: KnotDiagram, max_crossings: int = JONES_GUARD) -> LaurentPolynomial:
    """Writhe-normalized bracket, written in the variable t.

    The unknot gives 1; a mirror image inverts the variable.
    """
    bracket = kauffman_bracket(d, max_crossings)
    w = d.writhe
    normalized = bracket.scale((-1) ** (w % 2), -3 * w)
    terms: dict[int, int] = {}
    for exp, coeff in normalized.items():
        if exp % 4:
            raise AssertionError("normalized bracket has a non-quartic exponent")
        terms[-exp // 4] = coeff
    return LaurentPolynomial(terms, variable="t")


def is_trivial(d: KnotDiagram, max_crossings: int = JONES_GUARD) -> bool:
    """Jones-polynomial triviality check (exact below the guard)."""
    return jones_normalized(d, max_crossings).is_one()


def determinant(d: KnotDiagram) -> int:
    """|V(-1)|, the knot determinant."""
    return abs(jones_normalized(d).evaluate(-1))


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


def _class_representative(
    s: frozenset[int], kernel_sets: tuple[frozenset[int], ...]
) -> frozenset[int]:
    return min((s ^ k for k in kernel_sets), key=_region_set_key)


def region_unknotting_number(
    d: KnotDiagram, max_crossings: int = UR_GUARD
) -> tuple[int, UnknottingCertificate]:
    """Exact minimum number of regions whose RCC trivializes the diagram.

    Searches region sets by increasing cardinality, skipping everything but
    the canonical representative of each kernel coset (the four coset members
    act identically on the crossings).
    """
    c = d.n_crossings
    if c > max_crossings:
        raise TooManyCrossings(f"{c} crossings exceeds guard {max_crossings}")
    m = rcc_map(d)
    n = m.region_map.n_regions
    kernel_sets = tuple(m.kernel_elements())

    from itertools import combinations

    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            if _class_representative(s, kernel_sets) != s:
                continue
            changed = phi(m, s)
            candidate = apply_crossing_changes(d, changed)
            poly = jones_normalized(candidate)
            if poly.is_one():
                cert = UnknottingCertificate(
                    regions=s,
                    size=size,
                    crossings_changed=changed,
                    jones_after=poly,
                    crossing_count=c,
                    method="exhaustive",
                )
                return size, cert
    raise AssertionError("every diagram admits an unknotting region set")


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

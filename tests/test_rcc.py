"""The RCC calculus: matrix, effect map, solvers, splice, complements."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from regionknot import gf2
from regionknot.boolalg import build_restricted
from regionknot.construct import NotAKnot, add_kink, rational_diagram
from regionknot.diagram import (
    Crossing,
    KnotDiagram,
    NotPlanar,
    ReducibleDiagram,
    faces,
    is_irreducible,
    parse_pd,
)
from regionknot.gf2 import Singular, decode, encode, rank, span
from regionknot.rcc import (
    NotBlackWhitePair,
    _avoiding_inverse,
    _region_set_key,
    apply_rcc,
    bw_complements,
    phi,
    rcc_map,
    region_choice_matrix,
    solve_avoiding,
    solve_for_crossings,
    splice_solution,
)
from regionknot.reference import (
    delete_columns,
    incidence_discrepancies,
    invert_square,
    phi_bruteforce,
    solve_affine,
)
from regionknot.unknotting import jones_normalized

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
KINK = parse_pd("X[1,1,2,2]")


def all_region_subsets(n):
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if (mask >> i) & 1)


def test_matrix_shape_and_row_weights():
    m = region_choice_matrix(TREFOIL)
    assert (m.rows, m.cols) == (3, 5)
    for i in range(3):
        assert m.row_bits[i].bit_count() == 4


def test_matrix_round_diagram():
    m = region_choice_matrix(parse_pd(""))
    assert (m.rows, m.cols) == (0, 2)


def test_matrix_kink_row_weight_three():
    m = region_choice_matrix(KINK)
    assert (m.rows, m.cols) == (1, 3)
    assert m.row_bits[0].bit_count() == 3


def test_rank_full_and_kernel_dim_two():
    for d in (TREFOIL, KINK, rational_diagram([2, 2]), add_kink(TREFOIL, 2)):
        m = rcc_map(d)
        assert rank(m.matrix) == d.n_crossings
        assert len(m.kernel_basis) == 2
        assert len(m.kernel_elements()) == 4


def test_rank_deficient_matrix_is_rejected():
    # two crossings with sphere faces whose matrix has rank 1; parse_pd
    # never yields it (the code is not one closed curve), a direct
    # construction does
    d = KnotDiagram((Crossing((3, 1, 2, 4), 1), Crossing((2, 1, 3, 4), 3)))
    with pytest.raises(NotPlanar, match="rank 1 is below the row count 2"):
        rcc_map(d)


def test_phi_empty_set():
    m = rcc_map(TREFOIL)
    assert phi(m, frozenset()) == frozenset()


def test_phi_color_classes_ineffective():
    m = rcc_map(TREFOIL)
    assert phi(m, m.coloring.black) == frozenset()
    assert phi(m, m.coloring.white) == frozenset()


def test_phi_single_region_is_its_boundary():
    m = rcc_map(TREFOIL)
    rm = m.region_map
    for r in range(rm.n_regions):
        expected = frozenset(i for i, _ in rm.regions[r])
        assert phi(m, frozenset({r})) == expected


def test_phi_linear():
    m = rcc_map(rational_diagram([3, 1, 2]))
    n = m.region_map.n_regions
    rng = random.Random(11)
    for _ in range(1000):
        a = frozenset(r for r in range(n) if rng.random() < 0.5)
        b = frozenset(r for r in range(n) if rng.random() < 0.5)
        assert phi(m, a ^ b) == phi(m, a) ^ phi(m, b)


def test_kernel_is_exactly_color_combinations():
    m = rcc_map(TREFOIL)
    col = m.coloring
    expected = {
        frozenset(),
        col.black,
        col.white,
        col.black | col.white,
    }
    assert set(m.kernel_elements()) == expected


def test_solve_for_crossings_worked_example():
    # On the trefoil, changing the two crossings sharing a bigon has the
    # classic four-set solution family: the bigon alone; the bigon plus the
    # two big regions; the other two bigons; and everything but the bigon.
    m = rcc_map(TREFOIL)
    sols = solve_for_crossings(m, frozenset({0, 1}))
    assert [len(s) for s in sols] == [1, 2, 3, 4]
    bigon = sols[0]
    assert len(bigon) == 1
    (r,) = bigon
    assert frozenset(i for i, _ in m.region_map.regions[r]) == frozenset({0, 1})
    non_bigons = m.coloring.white if r in m.coloring.black else m.coloring.black
    assert sols[2] == bigon | non_bigons
    assert sols[3] == frozenset(range(5)) - bigon
    other_bigons = (m.coloring.black if r in m.coloring.black else m.coloring.white) - bigon
    assert sols[1] == other_bigons


def test_solve_for_target_empty_gives_kernel():
    m = rcc_map(TREFOIL)
    sols = solve_for_crossings(m, frozenset())
    assert set(sols) == set(m.kernel_elements())


def test_solutions_differ_by_kernel():
    m = rcc_map(TREFOIL)
    kernel = set(m.kernel_elements())
    for x in range(3):
        sols = solve_for_crossings(m, frozenset({x}))
        for a, b in itertools.combinations(sols, 2):
            assert a ^ b in kernel


def test_region_set_key_picks_coset_minimum():
    # the coset {0}, {0,1,4}, {2,3}, {1,2,3,4}: the smallest set wins
    coset = [frozenset(s) for s in ({0, 1, 4}, {2, 3}, {1, 2, 3, 4}, {0})]
    assert min(coset, key=_region_set_key) == frozenset({0})


def test_region_set_key_tie_break():
    # equal sizes compare by sorted indices: {0,2} before {1,3}
    sets = [frozenset({1, 3}), frozenset({0, 2}), frozenset({4}), frozenset()]
    assert sorted(sets, key=_region_set_key) == [
        frozenset(), frozenset({4}), frozenset({0, 2}), frozenset({1, 3})
    ]


def test_bw_complements_identities():
    m = rcc_map(TREFOIL)
    black, white = m.coloring.black, m.coloring.white
    assert bw_complements(m.coloring, frozenset()) == (black, white, black | white)
    assert bw_complements(m.coloring, black) == (frozenset(), black | white, white)


def test_bw_complements_equal_effect_on_irreducible():
    m = rcc_map(rational_diagram([2, 2]))
    n = m.region_map.n_regions
    rng = random.Random(2)
    for _ in range(200):
        s = frozenset(r for r in range(n) if rng.random() < 0.5)
        images = {phi(m, t) for t in (s,) + bw_complements(m.coloring, s)}
        assert len(images) == 1


def test_subsets_of_one_color_pair_up():
    # any subset of black acts like its complement inside black
    m = rcc_map(TREFOIL)
    black = sorted(m.coloring.black)
    for mask in range(1 << len(black)):
        bs = frozenset(black[i] for i in range(len(black)) if (mask >> i) & 1)
        assert phi(m, bs) == phi(m, m.coloring.black ^ bs)


def test_splice_each_trefoil_crossing():
    m = rcc_map(TREFOIL)
    for x in range(3):
        s = splice_solution(TREFOIL, x)
        assert phi(m, s) == frozenset({x})
        assert s in solve_for_crossings(m, frozenset({x}))


def test_splice_solution_differs_from_others_by_kernel():
    m = rcc_map(TREFOIL)
    kernel = set(m.kernel_elements())
    for x in range(3):
        s = splice_solution(TREFOIL, x)
        for t in solve_for_crossings(m, frozenset({x})):
            assert s ^ t in kernel


def test_splice_rejects_reducible():
    with pytest.raises(ReducibleDiagram):
        splice_solution(add_kink(TREFOIL, 1), 0)


def test_solve_avoiding_all_trefoil_pairs():
    m = rcc_map(TREFOIL)
    for b in sorted(m.coloring.black):
        for w in sorted(m.coloring.white):
            s = solve_avoiding(m, frozenset({1}), b, w)
            assert b not in s and w not in s
            assert phi(m, s) == frozenset({1})


def test_solve_avoiding_empty_target():
    m = rcc_map(TREFOIL)
    b = min(m.coloring.black)
    w = min(m.coloring.white)
    assert solve_avoiding(m, frozenset(), b, w) == frozenset()


def test_out_of_range_indices_are_rejected():
    m = rcc_map(TREFOIL)
    b, w = min(m.coloring.black), min(m.coloring.white)
    for region in (5, -1):
        with pytest.raises(ValueError, match=f"index {region} out of range"):
            phi(m, frozenset({0, region}))
    for crossing in (3, -1):
        with pytest.raises(ValueError, match=f"index {crossing} out of range"):
            solve_for_crossings(m, frozenset({0, crossing}))
        with pytest.raises(ValueError, match=f"index {crossing} out of range"):
            solve_avoiding(m, frozenset({0, crossing}), b, w)


def test_solve_avoiding_bad_pair():
    m = rcc_map(TREFOIL)
    b1, b2 = sorted(m.coloring.black)[:2]
    with pytest.raises(NotBlackWhitePair):
        solve_avoiding(m, frozenset({0}), b1, b2)


def test_solve_avoiding_singular_on_kinked_trefoil():
    # A single kink never produces a singular black/white pair (only
    # same-color pairs go singular); a second kink does.
    d = add_kink(add_kink(TREFOIL, 1), 2)
    m = rcc_map(d)
    hit = False
    for b in sorted(m.coloring.black):
        for w in sorted(m.coloring.white):
            try:
                s = solve_avoiding(m, frozenset({0}), b, w)
                assert phi(m, s) == frozenset({0})
            except Singular:
                hit = True
    assert hit, "some black/white pair must leave a singular matrix"


def test_kinked_trefoil_two_region_avoidance_fails_somewhere():
    d = add_kink(TREFOIL, 1)
    m = rcc_map(d)
    n = m.region_map.n_regions
    singular_pairs = []
    for b in range(n):
        for w in range(b + 1, n):
            try:
                invert_square(delete_columns(m.matrix, {b, w}))
            except Singular:
                singular_pairs.append((b, w))
    assert singular_pairs, "some region pair must be unavoidable"


def test_apply_rcc_color_class_is_identity():
    m = rcc_map(TREFOIL)
    assert apply_rcc(TREFOIL, m, m.coloring.black) == TREFOIL
    assert apply_rcc(TREFOIL, m, m.coloring.white) == TREFOIL


def test_apply_rcc_involution_and_composition():
    m = rcc_map(TREFOIL)
    rng = random.Random(9)
    for _ in range(50):
        s = frozenset(r for r in range(5) if rng.random() < 0.5)
        t = frozenset(r for r in range(5) if rng.random() < 0.5)
        assert apply_rcc(apply_rcc(TREFOIL, m, s), m, s) == TREFOIL
        assert apply_rcc(apply_rcc(TREFOIL, m, s), m, t) == apply_rcc(TREFOIL, m, s ^ t)


def test_matrix_phi_matches_simulation_on_irreducible():
    for d in (TREFOIL, rational_diagram([2, 2]), rational_diagram([3, 1, 2])):
        m = rcc_map(d)
        rm = m.region_map
        for s in all_region_subsets(rm.n_regions):
            assert phi(m, s) == phi_bruteforce(rm, s)


def test_simulation_disagrees_on_reducible_kink():
    m = rcc_map(KINK)
    rm = m.region_map
    mismatch = [
        s for s in all_region_subsets(3) if phi(m, s) != phi_bruteforce(rm, s)
    ]
    assert mismatch, "incidence and multiplicity readings must differ on a kink"
    disc = incidence_discrepancies(rm)
    assert disc and all(mult == 2 for _, _, mult in disc)


def test_no_discrepancies_on_irreducible():
    assert incidence_discrepancies(faces(TREFOIL)) == []


def test_rcc_changes_trefoil_to_unknot():
    m = rcc_map(TREFOIL)
    sols = solve_for_crossings(m, frozenset({0, 1}))
    changed = apply_rcc(TREFOIL, m, sols[0])
    assert jones_normalized(changed).is_one()


@st.composite
def rational_knots(draw):
    """Irreducible rational knot diagrams with at most 30 crossings."""
    seq = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6).filter(lambda q: sum(q) <= 30))
    try:
        d = rational_diagram(seq)
    except NotAKnot:
        assume(False)
    assume(is_irreducible(d))
    return d


@settings(max_examples=100, deadline=None)
@given(rational_knots(), st.randoms(use_true_random=False))
def test_rcc_layer_on_random_rational_knots(d, rng):
    m = rcc_map(d)
    rm = m.region_map
    c, n = d.n_crossings, rm.n_regions
    assert rank(m.matrix) == c
    assert len(m.kernel_basis) == 2
    for _ in range(5):
        s = frozenset(r for r in range(n) if rng.random() < 0.5)
        assert phi(m, s) == phi_bruteforce(rm, s)

    target = frozenset(i for i in range(c) if rng.random() < 0.5)
    sols = solve_for_crossings(m, target)
    assert len(set(sols)) == 4
    assert sols == sorted(sols, key=_region_set_key)
    assert all(phi_bruteforce(rm, s) == target for s in sols)

    x = rng.randrange(c)
    spliced = splice_solution(d, x)
    assert spliced in solve_for_crossings(m, frozenset({x}))
    # closed form: the set avoiding region 0 and the far side of edge 1,
    # complemented on the black class
    w1 = rm.edge_sides[0][1]
    assert spliced == solve_avoiding(m, frozenset({x}), 0, w1) ^ m.coloring.black

    b = rng.choice(sorted(m.coloring.black))
    w = rng.choice(sorted(m.coloring.white))
    s = solve_avoiding(m, target, b, w)
    assert b not in s and w not in s
    assert phi_bruteforce(rm, s) == target


@st.composite
def kinked_rational_knots(draw):
    """Rational knot diagrams with up to two kinks added (reducible ones)."""
    seq = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4).filter(lambda q: sum(q) <= 14))
    try:
        d = rational_diagram(seq)
    except NotAKnot:
        assume(False)
    for _ in range(draw(st.integers(0, 2))):
        d = add_kink(d, draw(st.integers(1, d.n_edges)))
    return d


@settings(max_examples=60, deadline=None)
@given(kinked_rational_knots(), st.randoms(use_true_random=False))
def test_cached_solves_match_elimination_references(d, rng):
    m = rcc_map(d)
    c, n = d.n_crossings, m.region_map.n_regions
    for _ in range(3):
        target = frozenset(i for i in range(c) if rng.random() < 0.5)
        particular, basis = solve_affine(m.matrix, encode(target, c))
        expected = sorted(
            (frozenset(decode(particular ^ k)) for k in span(basis)), key=_region_set_key
        )
        assert solve_for_crossings(m, target) == expected

    for b in sorted(m.coloring.black):
        for w in sorted(m.coloring.white):
            try:
                rows = iter(invert_square(delete_columns(m.matrix, {b, w})).row_bits)
            except Singular:
                with pytest.raises(Singular):
                    _avoiding_inverse(m, b, w)
                continue
            expected = tuple(0 if r in (b, w) else next(rows) for r in range(n))
            assert _avoiding_inverse(m, b, w) == expected


def test_warm_solves_run_no_elimination(monkeypatch):
    d = rational_diagram([2, 3, 1, 2])
    m = rcc_map(d)
    b, w = min(m.coloring.black), min(m.coloring.white)
    calls = []
    eliminate = gf2._eliminate
    monkeypatch.setattr(gf2, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
    for i in range(100):
        x = i % d.n_crossings
        solve_for_crossings(m, frozenset({x}))
        solve_avoiding(m, frozenset({x}), b, w)
        splice_solution(d, x)
        build_restricted(d, b, w)
    assert calls == []

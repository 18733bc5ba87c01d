"""Diagram constructors: rational stacks, braids, Montesinos sums, kinks."""

import pytest

from regionknot.construct import (
    NotAKnot,
    add_kink,
    braid_closure,
    montesinos_diagram,
    rational_diagram,
)
from regionknot.diagram import checkerboard, edge_arrivals, faces, is_irreducible, parse_pd
from regionknot.reference import determinant
from regionknot.unknotting import jones_normalized

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")


def alternating(d):
    arr = edge_arrivals(d)
    kinds = [arr[e][1] != 0 for e in range(d.n_edges)]
    return all(kinds[i] != kinds[(i + 1) % len(kinds)] for i in range(len(kinds)))


def test_crossing_count_is_sum():
    assert rational_diagram([2, 3, 1, 2]).n_crossings == 8
    assert rational_diagram([5]).n_crossings == 5


def test_single_twist_region_is_trefoil():
    d = rational_diagram([3])
    assert d.n_crossings == 3
    assert jones_normalized(d) == jones_normalized(TREFOIL)


def test_two_component_closures_rejected():
    for seq in ([2], [4], [2, 1, 2]):
        with pytest.raises(NotAKnot):
            rational_diagram(seq)


def test_bad_sequences_rejected():
    with pytest.raises(ValueError):
        rational_diagram([])
    with pytest.raises(ValueError):
        rational_diagram([3, 0])
    for seqs in (([3], [-2], [5]), ([3], [0], [5]), ([2, -1],)):
        with pytest.raises(ValueError):
            montesinos_diagram(*seqs)


def test_rational_diagrams_are_reduced_alternating():
    for seq in ([3], [2, 2], [3, 2], [2, 3, 1, 2], [3, 1, 1, 3]):
        d = rational_diagram(seq)
        assert is_irreducible(d)
        assert alternating(d)
        assert jones_normalized(d).span() == d.n_crossings


def test_figure_eight_is_amphichiral():
    j = jones_normalized(rational_diagram([2, 2]))
    assert j == j.invert_variable()
    assert determinant(rational_diagram([2, 2])) == 5


def test_even_parity_example_diagram():
    d = rational_diagram([2, 3, 1, 2])
    col = checkerboard(faces(d))
    assert len(col.black) % 2 == 0
    assert len(col.white) % 2 == 0
    assert is_irreducible(d)


def test_braid_closure_torus_knot():
    d = braid_closure([1, 2, 1, 2, 1, 2, 1, 2], 3)
    assert d.n_crossings == 8
    # V(T(3,4)) = t^3 + t^5 - t^8 up to mirror
    from regionknot.polynomial import LaurentPolynomial

    torus = LaurentPolynomial({3: 1, 5: 1, 8: -1}, "t")
    assert jones_normalized(d) in (torus, torus.invert_variable())


def test_braid_closure_trefoil():
    d = braid_closure([1, 1, 1], 2)
    j = jones_normalized(d)
    t = jones_normalized(TREFOIL)
    assert j in (t, t.invert_variable())


def test_braid_closure_multi_component_rejected():
    # Hopf link; a trefoil beside two strands no letter touches; two circles
    for word, strands in (([1, 1], 2), ([1, 1, 1], 5), ([], 2)):
        with pytest.raises(NotAKnot):
            braid_closure(word, strands)


def test_montesinos_pretzel_determinant():
    # three vertical columns p,q,r: determinant pq + qr + rp
    d = montesinos_diagram([3], [3], [2])
    assert d.n_crossings == 8
    assert determinant(d) == 3 * 3 + 3 * 2 + 2 * 3


def test_add_kink_reducible_but_same_knot():
    k = add_kink(TREFOIL, 1)
    assert k.n_crossings == 4
    assert faces(k).n_regions == 6
    assert not is_irreducible(k)
    assert jones_normalized(k) == jones_normalized(TREFOIL)


def test_add_kink_every_edge():
    for e in range(1, TREFOIL.n_edges + 1):
        k = add_kink(TREFOIL, e)
        assert k.n_crossings == 4
        assert not is_irreducible(k)


def test_add_kink_bad_edge():
    with pytest.raises(ValueError):
        add_kink(TREFOIL, 9)


# Edge labels, crossing order and slot rotation fix the region numbering and
# solution order downstream, so constructor output is pinned literally.
PINNED_CODES = [
    (rational_diagram, ([3],), "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"),
    (rational_diagram, ([2, 2],), "X[1,7,2,6] X[5,3,6,2] X[3,8,4,1] X[7,4,8,5]"),
    (
        rational_diagram,
        ([2, 3, 1, 2],),
        "X[1,8,2,9] X[9,2,10,3] X[3,16,4,1] X[15,4,16,5] X[5,14,6,15] "
        "X[13,11,14,10] X[11,7,12,6] X[7,13,8,12]",
    ),
    (
        montesinos_diagram,
        ([3], [3], [2]),
        "X[1,12,2,13] X[11,16,12,1] X[15,10,16,11] X[7,2,8,3] X[3,8,4,9] "
        "X[9,4,10,5] X[13,7,14,6] X[5,15,6,14]",
    ),
    (
        montesinos_diagram,
        ([2, 1], [3], [1, 2]),
        "X[1,10,2,11] X[11,2,12,3] X[3,18,4,1] X[15,4,16,5] X[5,16,6,17] "
        "X[17,6,18,7] X[7,14,8,15] X[13,8,14,9] X[9,12,10,13]",
    ),
    (
        braid_closure,
        ([1, 2, 1, 2, 1, 2, 1, 2], 3),
        "X[12,1,13,2] X[7,2,8,3] X[8,13,9,14] X[3,14,4,15] X[4,9,5,10] "
        "X[15,10,16,11] X[16,5,1,6] X[11,6,12,7]",
    ),
    (braid_closure, ([1, -2, 1, -2], 3), "X[4,1,5,2] X[2,8,3,7] X[8,5,1,6] X[6,4,7,3]"),
]


def test_constructed_codes_are_pinned():
    for build, args, code in PINNED_CODES:
        assert build(*args).pd_code() == code, (build.__name__, args)


def test_one_crossing_closures_are_kinks():
    for d in (rational_diagram([1]), braid_closure([1], 2), braid_closure([-1], 2)):
        assert parse_pd(d.pd_code()) == d
        assert abs(d.writhe) == 1
        assert jones_normalized(d).is_one()

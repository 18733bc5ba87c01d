"""PD parsing, face tracing, coloring, and crossing changes."""

import inspect
import random

import pytest

from regionknot.diagram import (
    Crossing,
    EdgeLabelNotTwice,
    KnotDiagram,
    MalformedToken,
    MultipleComponents,
    NotPlanar,
    UnknownCrossing,
    apply_crossing_changes,
    checkerboard,
    edge_arrivals,
    faces,
    is_irreducible,
    parse_pd,
)
from regionknot.rcc import rcc_map

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
KINK = "X[1,1,2,2]"


def test_parse_trefoil_basic_counts():
    d = parse_pd(TREFOIL)
    assert d.n_crossings == 3
    assert d.n_edges == 6
    # Euler: V - E + F = 2 with V=3, E=6 forces F=5.
    assert faces(d).n_regions == 2 - 3 + 6


def test_parse_empty_is_round_diagram():
    d = parse_pd("")
    assert d.n_crossings == 0
    assert faces(d).n_regions == 2


def test_parse_kink():
    d = parse_pd(KINK)
    assert d.n_crossings == 1
    assert faces(d).n_regions == 3


def test_parse_bad_token():
    with pytest.raises(MalformedToken):
        parse_pd("X[1,2,3]")
    with pytest.raises(MalformedToken):
        parse_pd("Y[1,2,3,4]")
    with pytest.raises(MalformedToken):
        parse_pd("X[0,1,0,1]")


def test_parse_label_not_twice():
    with pytest.raises(EdgeLabelNotTwice):
        parse_pd("X[1,2,3,4] X[1,2,3,5]")


def test_parse_two_components():
    # each label twice, but the under-passage closes onto itself immediately
    with pytest.raises(MultipleComponents):
        parse_pd("X[1,2,1,2] X[3,4,3,4]")


@pytest.mark.parametrize("code", ["X[1,2,3,4] X[2,3,1,4]", "X[1,2,3,4] X[2,4,1,3]"])
def test_parse_rejects_non_sphere_code(code):
    # one closed curve, but its rotation system traces 2 faces, not c + 2 = 4
    with pytest.raises(NotPlanar):
        parse_pd(code)


def test_parse_normalizes_shifted_labels():
    shifted = "X[11,14,12,15] X[13,16,14,11] X[15,12,16,13]"
    assert parse_pd(shifted) == parse_pd(TREFOIL)


def test_pd_code_roundtrip():
    for text in (TREFOIL, KINK, ""):
        d = parse_pd(text)
        assert parse_pd(d.pd_code()) == d


def test_faces_boundary_lengths_sum_to_4c():
    for text in (TREFOIL, KINK):
        d = parse_pd(text)
        rm = faces(d)
        assert sum(rm.boundary_length(r) for r in range(rm.n_regions)) == 4 * d.n_crossings


def test_trefoil_region_profile():
    rm = faces(parse_pd(TREFOIL))
    assert sorted(rm.boundary_length(r) for r in range(5)) == [2, 2, 2, 3, 3]


def test_irreducibility():
    assert is_irreducible(parse_pd(TREFOIL))
    assert not is_irreducible(parse_pd(KINK))
    assert is_irreducible(parse_pd(""))  # vacuous


def test_kink_has_doubled_corner_region():
    rm = faces(parse_pd(KINK))
    incident = rm.incident_regions(0)
    assert len(set(incident)) == 3
    doubled = [r for r in set(incident) if incident.count(r) == 2]
    assert len(doubled) == 1


def test_checkerboard_proper():
    for text in (TREFOIL, KINK):
        d = parse_pd(text)
        rm = faces(d)
        col = checkerboard(rm)
        assert col.black | col.white == set(range(rm.n_regions))
        assert not col.black & col.white
        assert 0 in col.black  # canonical anchor
        for a, b in rm.edge_sides:
            assert (a in col.black) != (b in col.black)


def test_checkerboard_trefoil_split():
    col = checkerboard(faces(parse_pd(TREFOIL)))
    assert sorted((len(col.black), len(col.white))) == [2, 3]


def test_checkerboard_round_diagram():
    col = checkerboard(faces(parse_pd("")))
    assert len(col.black) == len(col.white) == 1


def test_apply_changes_empty_set_is_identity():
    d = parse_pd(TREFOIL)
    assert apply_crossing_changes(d, set()) == d


def test_apply_changes_involution():
    d = parse_pd(TREFOIL)
    rng = random.Random(3)
    for _ in range(20):
        s = {i for i in range(3) if rng.random() < 0.5}
        assert apply_crossing_changes(apply_crossing_changes(d, s), s) == d


def test_apply_changes_composes_by_symmetric_difference():
    d = parse_pd(TREFOIL)
    rng = random.Random(5)
    for _ in range(20):
        s = {i for i in range(3) if rng.random() < 0.5}
        t = {i for i in range(3) if rng.random() < 0.5}
        via_two = apply_crossing_changes(apply_crossing_changes(d, s), t)
        assert via_two == apply_crossing_changes(d, set(s) ^ set(t))


def test_apply_changes_unknown_crossing():
    with pytest.raises(UnknownCrossing):
        apply_crossing_changes(parse_pd(TREFOIL), {7})


def test_apply_changes_preserves_projection():
    from regionknot.rcc import region_choice_matrix

    d = parse_pd(TREFOIL)
    changed = apply_crossing_changes(d, {0, 2})
    assert region_choice_matrix(d) == region_choice_matrix(changed)
    rm, rm2 = faces(d), faces(changed)
    assert [rm.boundary_length(r) for r in range(5)] == [
        rm2.boundary_length(r) for r in range(5)
    ]


def test_edge_arrivals_follow_traversal():
    d = parse_pd(TREFOIL)
    arr = edge_arrivals(d)
    for e in range(1, d.n_edges + 1):
        i, s = arr[e - 1]
        out_edge = d.crossings[i].edges[(s + 2) % 4]
        assert out_edge == d.succ(e)


def test_crossing_sign_flips_under_change():
    d = parse_pd(TREFOIL)
    assert d.writhe == -3
    assert apply_crossing_changes(d, {0, 1, 2}).writhe == 3


def test_equal_diagrams_share_hash_and_cache_entries():
    code = "X[1,6,2,7] X[3,8,4,9] X[5,10,6,1] X[7,2,8,3] X[9,4,10,5]"
    d = parse_pd(code)
    rcc_map(d)
    again = parse_pd(code)  # equal, but a separate instance
    assert again is not d and again == d and hash(again) == hash(d)
    assert repr(again) == repr(d)
    assert list(inspect.signature(KnotDiagram).parameters) == ["crossings"]
    assert KnotDiagram(d.crossings) == d  # not yet hashed: the cached hash is no part of the value
    assert hash(d) == hash((d.crossings,))
    hits = faces.cache_info().hits, rcc_map.cache_info().hits
    assert faces(again) is faces(d)
    assert rcc_map(again) is rcc_map(d)
    assert faces.cache_info().hits - hits[0] == 2
    assert rcc_map.cache_info().hits - hits[1] == 2


def test_diagram_hashes_its_crossings_once(monkeypatch):
    calls = []
    crossing_hash = Crossing.__hash__
    monkeypatch.setattr(Crossing, "__hash__", lambda x: calls.append(x) or crossing_hash(x))
    d = KnotDiagram(parse_pd(TREFOIL).crossings)
    calls.clear()
    first = hash(d)
    assert len(calls) == 3
    assert all(hash(d) == first for _ in range(5))
    assert len(calls) == 3


def test_diagram_never_equals_a_tuple():
    d = parse_pd(TREFOIL)
    for other in [(d.crossings,), (d.crossings, hash(d)), d.crossings, ()]:
        assert d != other and other != d
    assert KnotDiagram(()) != () and KnotDiagram(()) != ((),)


def test_crossing_rejects_over_in_outside_slots_1_and_3():
    with pytest.raises(ValueError, match="^over_in must be slot 1 or 3$"):
        Crossing((1, 2, 3, 4), 2)

"""Bundled knot table: identities locked by invariants.

Each entry must be an irreducible single-component diagram whose crossing
count matches its name. Knot identities are pinned by determinants, Jones
span (= c certifies minimality for the alternating entries), pairwise
distinct Jones polynomials, and palindromic Jones exactly at the
amphichiral knots.
"""

import pytest

from regionknot.catalog import bundled_catalog, bundled_diagram, parse_catalog
from regionknot.diagram import edge_arrivals, is_irreducible
from regionknot.reference import determinant
from regionknot.unknotting import jones_normalized

DETERMINANTS = {
    "3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7,
    "6_1": 9, "6_2": 11, "6_3": 13,
    "7_1": 7, "7_2": 11, "7_3": 13, "7_4": 15, "7_5": 17, "7_6": 19, "7_7": 21,
    "8_1": 13, "8_2": 17, "8_3": 17, "8_4": 19, "8_5": 21, "8_6": 23,
    "8_7": 23, "8_8": 25, "8_9": 25, "8_10": 27, "8_11": 27, "8_12": 29,
    "8_13": 29, "8_14": 31, "8_15": 33, "8_16": 35, "8_17": 37, "8_18": 45,
    "8_19": 3, "8_20": 9, "8_21": 15,
}
AMPHICHIRAL = {"4_1", "6_3", "8_3", "8_9", "8_12", "8_17", "8_18"}
NON_ALTERNATING = {"8_19", "8_20", "8_21"}


@pytest.fixture(scope="module")
def entries():
    return bundled_catalog()


def test_thirty_five_entries(entries):
    assert len(entries) == 35
    assert [e.name for e in entries] == sorted(
        DETERMINANTS, key=lambda n: (int(n.split("_")[0]), int(n.split("_")[1]))
    )


def test_crossing_counts_match_names(entries):
    for e in entries:
        assert e.crossing_number == int(e.name.split("_")[0]), e.name


def test_all_minimal_diagrams_irreducible(entries):
    for e in entries:
        assert is_irreducible(e.diagram), e.name


def test_determinants(entries):
    for e in entries:
        assert determinant(e.diagram) == DETERMINANTS[e.name], e.name


def test_jones_pairwise_distinct(entries):
    polys = {str(jones_normalized(e.diagram)) for e in entries}
    assert len(polys) == 35


def test_jones_nontrivial_everywhere(entries):
    for e in entries:
        assert not jones_normalized(e.diagram).is_one(), e.name


def test_amphichiral_palindromes(entries):
    for e in entries:
        j = jones_normalized(e.diagram)
        assert (j == j.invert_variable()) == (e.name in AMPHICHIRAL), e.name


def test_alternating_entries_have_full_span(entries):
    for e in entries:
        arr = edge_arrivals(e.diagram)
        kinds = [arr[i][1] != 0 for i in range(e.diagram.n_edges)]
        alternating = all(
            kinds[i] != kinds[(i + 1) % len(kinds)] for i in range(len(kinds))
        )
        assert alternating == (e.name not in NON_ALTERNATING), e.name
        if alternating:
            # reduced alternating: Jones span equals the crossing number,
            # which certifies these diagrams are minimal
            assert jones_normalized(e.diagram).span() == e.crossing_number


def test_bundled_diagram_lookup():
    d = bundled_diagram("3_1")
    assert d.n_crossings == 3
    with pytest.raises(KeyError):
        bundled_diagram("9_1")


def test_parse_catalog_format():
    entries = parse_catalog("# comment\n\nfoo\tX[1,4,2,5] X[3,6,4,1] X[5,2,6,3]\n")
    assert len(entries) == 1
    assert entries[0].name == "foo"
    assert entries[0].crossing_number == 3
    with pytest.raises(ValueError):
        parse_catalog("no-tab-here\n")

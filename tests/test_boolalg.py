"""The restricted Boolean algebra and its isomorphism with the crossing side."""

import random
from itertools import combinations

import pytest

from regionknot.boolalg import (
    black_white_pairs,
    build_restricted,
    verify_axioms,
    verify_homomorphism,
    verify_order_isomorphism,
)
from regionknot.catalog import bundled_diagram
from regionknot.construct import add_kink, rational_diagram
from regionknot.diagram import ReducibleDiagram, faces, parse_pd
from regionknot.rcc import NotBlackWhitePair, phi, rcc_map
from regionknot.reference import PowerSetAlgebra, phi_bruteforce

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")


def _mask(s) -> int:
    return sum(1 << i for i in s)


def _members(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


class SetPullback:
    """The restricted algebra rebuilt from its definition on frozensets:
    effect by corner-by-corner simulation, preimage by scanning P(S)."""

    def __init__(self, d, b, w):
        rm = faces(d)
        ground = [r for r in range(rm.n_regions) if r not in (b, w)]
        self.elements = [
            frozenset(t) for k in range(len(ground) + 1) for t in combinations(ground, k)
        ]
        self.effect = {a: phi_bruteforce(rm, a) for a in self.elements}
        self.preimage = {e: a for a, e in self.effect.items()}
        assert len(self.preimage) == len(self.elements)  # a bijection
        self.full = frozenset(range(d.n_crossings))

    def join(self, a, b):
        return self.preimage[self.effect[a] | self.effect[b]]

    def meet(self, a, b):
        return self.preimage[self.effect[a] & self.effect[b]]

    def complement(self, a):
        return self.preimage[self.full - self.effect[a]]

    def leq(self, a, b):
        return self.effect[a] <= self.effect[b]


def test_ground_set_size():
    for b, w in black_white_pairs(TREFOIL):
        alg = build_restricted(TREFOIL, b, w)
        assert len(alg.ground_set) == 3
        assert alg.size == 8 == 1 << TREFOIL.n_crossings


def test_rejects_same_color_pair():
    m = rcc_map(TREFOIL)
    b1, b2 = sorted(m.coloring.black)[:2]
    with pytest.raises(NotBlackWhitePair):
        build_restricted(TREFOIL, b1, b2)


def test_rejects_reducible():
    with pytest.raises(ReducibleDiagram):
        build_restricted(add_kink(TREFOIL, 1), 0, 1)


def test_effect_is_bijective():
    for b, w in black_white_pairs(TREFOIL):
        alg = build_restricted(TREFOIL, b, w)
        images = {alg.effect(a) for a in alg.elements()}
        assert len(images) == alg.size
        for a in alg.elements():
            assert alg.preimage(alg.effect(a)) == a


def test_effect_matches_full_map():
    m = rcc_map(TREFOIL)
    for b, w in black_white_pairs(TREFOIL)[:2]:
        alg = build_restricted(TREFOIL, b, w)
        for a in alg.elements():
            assert alg.effect(a) == _mask(phi(m, _members(a)))


def test_bottom_is_empty_set():
    for b, w in black_white_pairs(TREFOIL):
        alg = build_restricted(TREFOIL, b, w)
        assert alg.bottom == 0  # the empty region set
        assert alg.effect(alg.top) == 0b111  # every crossing


@pytest.mark.parametrize("name", ["3_1", "4_1"])
def test_mask_algebra_matches_set_pullback(name):
    d = bundled_diagram(name)
    for b, w in black_white_pairs(d):
        alg = build_restricted(d, b, w)
        ref = SetPullback(d, b, w)
        assert list(alg.elements()) == sorted(_mask(a) for a in ref.elements)
        assert alg.ground == _mask(ref.elements[-1])
        assert alg.top == _mask(ref.preimage[ref.full])
        for a in ref.elements:
            assert alg.effect(_mask(a)) == _mask(ref.effect[a])
            assert alg.preimage(_mask(ref.effect[a])) == _mask(a)
            assert alg.complement(_mask(a)) == _mask(ref.complement(a))
            for c in ref.elements:
                ma, mc = _mask(a), _mask(c)
                assert alg.join(ma, mc) == _mask(ref.join(a, c))
                assert alg.meet(ma, mc) == _mask(ref.meet(a, c))
                assert alg.leq(ma, mc) == ref.leq(a, c)


def test_identity_and_complement_laws_exhaustive():
    for b, w in black_white_pairs(TREFOIL):
        alg = build_restricted(TREFOIL, b, w)
        for a in alg.elements():
            assert alg.join(a, alg.bottom) == a
            assert alg.meet(a, alg.top) == a
            comp = alg.complement(a)
            assert alg.join(a, comp) == alg.top
            assert alg.meet(a, comp) == alg.bottom


def test_axioms_all_trefoil_pairs():
    for b, w in black_white_pairs(TREFOIL):
        report = verify_axioms(build_restricted(TREFOIL, b, w))
        assert report.ok, report.failure
        assert report.mode == "exhaustive"
        assert report.triples_checked == 8**3


def test_homomorphism_exhaustive():
    for b, w in black_white_pairs(TREFOIL):
        report = verify_homomorphism(build_restricted(TREFOIL, b, w))
        assert report.ok, report.failure


def test_order_isomorphism():
    for b, w in black_white_pairs(TREFOIL):
        report = verify_order_isomorphism(build_restricted(TREFOIL, b, w))
        assert report.ok, report.failure


def test_least_and_greatest_in_order():
    alg = build_restricted(TREFOIL, *black_white_pairs(TREFOIL)[0])
    for a in alg.elements():
        assert alg.leq(alg.bottom, a)
        assert alg.leq(a, alg.top)
        if a != alg.top:
            assert not alg.leq(alg.top, a)


def test_induced_ops_differ_from_set_ops_somewhere():
    # the pulled-back join is generally not plain union
    differs = False
    for b, w in black_white_pairs(TREFOIL):
        alg = build_restricted(TREFOIL, b, w)
        for a in alg.elements():
            for c in alg.elements():
                if alg.join(a, c) != a | c:
                    differs = True
    assert differs


def test_power_set_algebra_axioms():
    report = verify_axioms(PowerSetAlgebra(frozenset(range(3))))
    assert report.ok
    assert report.mode == "exhaustive"


def test_sampled_mode_on_larger_diagram():
    d = bundled_diagram("8_3")
    b, w = black_white_pairs(d)[0]
    alg = build_restricted(d, b, w)
    report = verify_axioms(alg, sample=250, seed=5)
    assert report.ok, report.failure
    assert report.mode == "sampled"
    assert report.triples_checked == 250


def test_round_trip_identities_at_six_crossings():
    d = bundled_diagram("6_2")
    for b, w in black_white_pairs(d)[:3]:
        alg = build_restricted(d, b, w)
        for a in alg.elements():
            assert alg.preimage(alg.effect(a)) == a
        seen = set()
        for a in alg.elements():
            seen.add(alg.effect(a))
        assert len(seen) == alg.size


def test_computed_path_above_table_limit():
    # 13 crossings is above the table limit, so effect and preimage are
    # computed by matrix products instead of looked up
    d = rational_diagram([13])
    b, w = black_white_pairs(d)[0]
    alg = build_restricted(d, b, w)
    assert alg.effect_table is None and alg.preimage_table is None
    m = rcc_map(d)
    columns = sorted(alg.ground_set)
    rng = random.Random(13)
    for _ in range(200):
        a = _mask(r for r in columns if rng.random() < 0.5)
        assert alg.effect(a) == _mask(phi(m, _members(a)))
        assert alg.preimage(alg.effect(a)) == a
    report = verify_homomorphism(alg, sample=200, seed=3)
    assert report.ok, report.failure
    assert report.mode == "sampled"

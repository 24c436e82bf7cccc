import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_red, rand_coloured
from oracles import component_of, fractional_to_matching, matching_to_fractional, project_edge
from tcr.blowup import blow_up
from tcr.errors import SizeCapExceeded
from tcr.hypergraph import Colour, build
from tcr.matchings import (FractionalMatching, max_matching_exact, max_r_fractional)
from tcr.tight import monochromatic_components, tight_components


def test_blow_up_single_edge():
    ch = build(4, 4, [("R", (1, 2, 3, 4))])
    blown, bmap = blow_up(ch, 2)
    assert blown.graph.m == 16
    assert blown.n == 8
    assert all(c is Colour.RED for c in blown.colour.values())
    assert bmap.classes[1] == (1, 2)
    assert bmap.classes[4] == (7, 8)


def test_blow_up_identity():
    rng = random.Random(0)
    ch = rand_coloured(4, 7, 12, rng)
    blown, bmap = blow_up(ch, 1)
    assert blown.graph.edges == ch.graph.edges
    assert blown.colour == ch.colour


def test_blow_up_k5_component_count():
    ch = all_red(4, 5)
    blown, _ = blow_up(ch, 2)
    assert blown.graph.m == 80
    assert len(tight_components(blown.graph).components) == 1


def test_blow_up_cap():
    ch = all_red(4, 8)   # 70 * 8**4 = 286,720 > 250,000 blown edges
    with pytest.raises(SizeCapExceeded):
        blow_up(ch, 8)


def test_project_edge_basic():
    ch = build(4, 4, [("R", (1, 2, 3, 4))])
    blown, bmap = blow_up(ch, 2)
    assert project_edge(bmap, (1, 3, 5, 7)) == (1, 2, 3, 4)
    assert project_edge(bmap, (2, 4, 6, 8)) == (1, 2, 3, 4)
    with pytest.raises(ValueError, match="two vertices in one class"):
        project_edge(bmap, (1, 2, 5, 7))


def test_project_all_blown_edges_of_k5():
    ch = all_red(4, 5)
    blown, bmap = blow_up(ch, 2)
    for e in blown.graph.sorted_edges:
        f = project_edge(bmap, e)
        assert f in ch.graph.edges
        # vertex-by-vertex class containment
        for y, x in zip(e, f):
            assert y in bmap.classes[x]


def test_matching_to_fractional_weight():
    ch = all_red(4, 5)
    blown, bmap = blow_up(ch, 2)
    cert = max_matching_exact(blown.graph.edges)
    phi = matching_to_fractional(bmap, cert.edges)
    assert phi.weight() == Fraction(cert.size, 2)
    assert phi.colour is Colour.RED


def test_matching_to_fractional_empty():
    ch = all_red(4, 5)
    blown, bmap = blow_up(ch, 2)
    assert matching_to_fractional(bmap, []).weight() == 0


def test_matching_to_fractional_rejects_overlaps_and_mixing():
    ch = build(4, 9, [("R", (1, 2, 3, 4)), ("B", (5, 6, 7, 8))])
    blown, bmap = blow_up(ch, 2)
    with pytest.raises(ValueError, match="edges overlap"):
        matching_to_fractional(bmap, [(1, 3, 5, 7), (1, 4, 6, 8)])
    with pytest.raises(ValueError, match="projections span components"):
        matching_to_fractional(bmap, [(1, 3, 5, 7), (9, 11, 13, 15)])


def test_fractional_to_matching_quarter_weights():
    """Quarter weights on the red K_5^(4) at r = 4 give five disjoint blown
    edges on the twenty clones."""
    ch = all_red(4, 5)
    blown, bmap = blow_up(ch, 4)
    host = monochromatic_components(ch).edges_of(0)
    phi = FractionalMatching(host, {e: Fraction(1, 4)
                                    for e in sorted(host)}, Colour.RED, 0)
    m = fractional_to_matching(bmap, phi)
    assert len(m) == 5
    used = set()
    for e in m:
        assert e in blown.graph.edges
        assert not used.intersection(e)
        used.update(e)


def test_fractional_to_matching_identity_at_r1():
    ch = all_red(4, 9)
    blown, bmap = blow_up(ch, 1)
    matching = ((1, 2, 3, 4), (5, 6, 7, 8))
    host = monochromatic_components(ch).edges_of(0)
    phi = FractionalMatching(host, {e: Fraction(1) for e in matching})
    assert fractional_to_matching(bmap, phi) == matching


def test_fractional_to_matching_denominator_mismatch():
    ch = all_red(4, 5)
    blown, bmap = blow_up(ch, 2)
    host = monochromatic_components(ch).edges_of(0)
    phi = FractionalMatching(host, {(1, 2, 3, 4): Fraction(1, 3)})
    with pytest.raises(ValueError, match="not a multiple of 1/2"):
        fractional_to_matching(bmap, phi)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100_000))
def test_round_trip_weights(seed):
    """fractional -> matching -> fractional is the identity on weights."""
    rng = random.Random(seed)
    ch = rand_coloured(4, rng.randint(5, 9), rng.randint(4, 20), rng)
    decomp = monochromatic_components(ch)
    r = rng.choice((2, 3))
    blown, bmap = blow_up(ch, r)
    cid = rng.randrange(len(decomp.components))
    host = decomp.edges_of(cid)
    phi = max_r_fractional(host, r)
    phi = FractionalMatching(host, phi.weights, decomp.colour(cid), cid)
    m = fractional_to_matching(bmap, phi)
    if not m:
        assert phi.weight() == 0
        return
    back = matching_to_fractional(bmap, m)
    assert back.weights == phi.weights
    assert back.component == cid


def test_density_transfer_k8_two_blowup():
    """2-blow-up of K_8^(4): with eps at the exact finite transfer bound, a
    (1-eps, eps)-dense base yields a (1-2eps, 2eps)-dense blow-up."""
    from math import comb
    from tcr.hypergraph import density_check

    def transfer_eps(n, r, k=4):
        bounds = [Fraction(0)]
        for i in range(1, k):
            A = comb(n - i, k - i) * r ** (k - i)
            B = comb(n * r - i, k - i)
            bounds.append(Fraction(B - A, 2 * B - A))
            non_part = comb(n * r, i) - comb(n, i) * r ** i
            bounds.append(Fraction(non_part, 2 * comb(n * r, i) - comb(n, i) * r ** i))
        return max(bounds)

    eps = transfer_eps(8, 2)
    ch = all_red(4, 8)
    assert density_check(ch.graph, 1 - eps, eps).passed
    blown, _ = blow_up(ch, 2)
    assert density_check(blown.graph, 1 - 2 * eps, 2 * eps).passed
    # well below the bound the level-1 degree condition genuinely fails:
    # clone degrees are C(7,3) * 8 = 280 < (1 - 2 eps') * C(15,3) there
    smaller = Fraction(19, 100)
    assert not density_check(blown.graph, 1 - 2 * smaller, 2 * smaller).passed


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000))
def test_blown_matching_equals_r_times_fractional(seed):
    """Independent oracles agree per component: branch-and-bound matching in
    the blown component vs r times the denominator-restricted optimum."""
    rng = random.Random(seed)
    ch = rand_coloured(4, rng.randint(5, 8), rng.randint(3, 14), rng)
    decomp = monochromatic_components(ch)
    r = rng.choice((2, 3))
    blown, bmap = blow_up(ch, r)
    blown_decomp = monochromatic_components(blown)
    ids = component_of(blown_decomp)
    for cid, comp in enumerate(decomp.components):
        f = min(comp)
        star = tuple(sorted(bmap.classes[x][0] for x in f))
        blown_comp = blown_decomp.edges_of(ids[star])
        size = max_matching_exact(blown_comp).size
        frac = max_r_fractional(comp, r).weight()
        assert Fraction(size) == r * frac

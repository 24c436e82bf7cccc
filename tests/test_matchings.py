import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (all_red, complete_kgraph, complete_random_coloured, rand_coloured,
                      split_edges)
from oracles import brute_max_matching, dense_matching_lp, lp_vertex_enumeration
from tcr import lp, matchings
from tcr.errors import NonEmptyIntersection, SearchCapExceeded, Unsupported
from tcr.hypergraph import Colour, build
from tcr.lp import matching_lp
from tcr.matchings import (FractionalMatching, empty_intersection_matching,
                           from_matching, greedy_matching, max_fractional_lp,
                           max_matching_exact, max_r_fractional, mu_estimate,
                           validate_fractional)

K5 = complete_kgraph(4, 5)
ZERO = Fraction(0)
QUARTER = Fraction(1, 4)


def test_validate_k5_quarter_weights():
    phi = FractionalMatching(K5.edges, {e: QUARTER for e in K5.sorted_edges})
    ok, violation = validate_fractional(K5, phi)
    assert ok and violation is None
    assert phi.weight() == Fraction(5, 4)


def test_validate_overloaded_vertex_named():
    h = build(4, 7, [("R", (1, 2, 3, 4)), ("R", (1, 5, 6, 7))]).graph
    phi = FractionalMatching(h.edges, {e: Fraction(1) for e in h.edges})
    ok, violation = validate_fractional(h, phi)
    assert not ok
    assert violation.kind == "vertex_overloaded" and violation.vertex == 1


def test_validate_empty_weighting():
    phi = FractionalMatching(K5.edges, {})
    ok, _ = validate_fractional(K5, phi)
    assert ok and phi.weight() == 0


def test_validate_support_outside_host():
    phi = FractionalMatching(frozenset({(1, 2, 3, 4)}),
                             {(1, 2, 3, 5): Fraction(1)})
    ok, violation = validate_fractional(None, phi)
    assert not ok and violation.kind == "support_outside_host"


def test_max_matching_split_both_colours():
    ch = split_edges(4, 2)
    red = max_matching_exact(ch.edges_of(Colour.RED))
    blue = max_matching_exact(ch.edges_of(Colour.BLUE))
    assert red.size == 1 and red.optimal
    assert blue.size == 1 and blue.optimal


def test_max_matching_complete_k8():
    cert = max_matching_exact(complete_kgraph(4, 8).edges)
    assert cert.size == 2


def test_max_matching_cap():
    with pytest.raises(SearchCapExceeded):
        max_matching_exact(complete_kgraph(4, 25).edges)   # 12,650 > 10,000 edges


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_max_matching_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    ch = rand_coloured(4, rng.randint(4, 9), rng.randint(0, 14), rng)
    cert = max_matching_exact(ch.graph.edges)
    assert cert.size == brute_max_matching(ch.graph.edges)
    used = set()
    for e in cert.edges:
        assert not used.intersection(e)
        used.update(e)


def test_lp_k5():
    phi = max_fractional_lp(K5.edges)
    assert phi.weight() == Fraction(5, 4)
    ok, _ = validate_fractional(K5, phi)
    assert ok


def test_lp_k8():
    phi = max_fractional_lp(complete_kgraph(4, 8).edges)
    assert phi.weight() == 2


def test_lp_two_overlapping_edges():
    h = build(4, 5, [("R", (1, 2, 3, 4)), ("R", (1, 2, 3, 5))]).graph
    phi = max_fractional_lp(h.edges)
    assert phi.weight() == 1


def test_lp_empty_host():
    assert max_fractional_lp(frozenset()).weight() == 0


def test_lp_deterministic_and_canonical_support():
    h = complete_kgraph(4, 8)
    a = max_fractional_lp(h.edges)
    b = max_fractional_lp(h.edges)
    assert a.weights == b.weights
    # the exclusion greedy drops every early edge whose removal keeps the
    # optimum, leaving this canonical perfect pair (frozen from a run)
    assert sorted(a.weights) == [(1, 6, 7, 8), (2, 3, 4, 5)]
    assert a.weight() == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_lp_agrees_with_vertex_enumeration_oracle(seed):
    rng = random.Random(seed)
    ch = rand_coloured(4, 8, rng.randint(1, 12), rng)
    phi = max_fractional_lp(ch.graph.edges)
    assert phi.weight() == lp_vertex_enumeration(ch.graph.edges)
    ok, _ = validate_fractional(ch.graph, phi)
    assert ok


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_lp_at_least_integral_matching(seed):
    rng = random.Random(seed)
    ch = rand_coloured(4, 9, rng.randint(1, 16), rng)
    lp = max_fractional_lp(ch.graph.edges).weight()
    assert lp >= max_matching_exact(ch.graph.edges).size
    single = max_fractional_lp([min(ch.graph.sorted_edges)])
    assert single.weight() == 1


def test_fact_k5():
    phi = empty_intersection_matching(K5.edges)
    assert phi.weight() == Fraction(5, 4)
    assert all(w == QUARTER for w in phi.weights.values())


def test_fact_two_disjoint_edges():
    h = build(4, 8, [("R", (1, 2, 3, 4)), ("R", (5, 6, 7, 8))]).graph
    phi = empty_intersection_matching(h.edges)
    assert phi.weight() == 2


def test_fact_three_edge_family():
    h = build(4, 8, [("R", (1, 2, 3, 4)), ("R", (1, 2, 3, 5)),
                     ("R", (4, 5, 6, 7))]).graph
    phi = empty_intersection_matching(h.edges)
    assert phi.weight() == Fraction(3, 2)
    ok, _ = validate_fractional(h, phi)
    assert ok


def test_fact_rejects_common_vertex():
    h = build(4, 6, [("R", (1, 2, 3, 4)), ("R", (1, 2, 3, 5))]).graph
    with pytest.raises(NonEmptyIntersection):
        empty_intersection_matching(h.edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_fact_weight_is_always_s_over_s_minus_1(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 10)
    s = rng.randint(2, 8)
    pool = list(itertools.combinations(range(1, n + 1), 4))
    rng.shuffle(pool)
    family = pool[:s]
    common = set(family[0]).intersection(*family[1:])
    ch = build(4, n, [("R", e) for e in family])
    if common:
        with pytest.raises(NonEmptyIntersection):
            empty_intersection_matching(family)
    else:
        phi = empty_intersection_matching(family)
        assert phi.weight() == Fraction(s, s - 1)
        ok, _ = validate_fractional(ch.graph, phi)
        assert ok


def test_r_fractional_k5():
    assert max_r_fractional(K5.edges, 4).weight() == Fraction(5, 4)
    assert max_r_fractional(K5.edges, 2).weight() == 1
    assert max_r_fractional(K5.edges, 1).weight() == 1


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 100_000))
def test_r_fractional_bounds(seed):
    rng = random.Random(seed)
    ch = rand_coloured(4, 8, rng.randint(1, 12), rng)
    r = rng.choice((2, 3))
    phi = max_r_fractional(ch.graph.edges, r)
    assert all((w * r).denominator == 1 for w in phi.weights.values())
    ok, _ = validate_fractional(ch.graph, phi)
    assert ok
    integral = max_matching_exact(ch.graph.edges).size
    lp = lp_vertex_enumeration(ch.graph.edges)
    assert integral <= phi.weight() <= lp


def test_r_fractional_120_random_edges_on_14_vertices(monkeypatch):
    """r = 3 on 120 random edges over 14 vertices: once a stalled case
    (over 1,200 LP solves without finishing); the floor prune settles it
    in 115 solves."""
    rng = random.Random(0)
    edges = rng.sample(list(itertools.combinations(range(1, 15), 4)), 120)
    solves = []
    solve = lp.matching_lp

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "matching_lp", counted)
    phi = max_r_fractional(edges, 3)
    monkeypatch.undo()
    assert len(solves) == 115
    ok, _ = validate_fractional(None, phi)
    assert ok
    assert phi.host == frozenset(edges)
    assert all((w * 3).denominator == 1 for w in phi.weights.values())
    lp_optimum, _ = matching_lp(sorted(edges))
    assert len(greedy_matching(edges)) <= phi.weight() <= lp_optimum


def test_lp_on_918_edge_component_is_unchanged():
    """The largest monochromatic component of a random complete colouring
    at N = 16 (918 edges): the lexicographic-support loop returns the
    weights that the dense-tableau simplex returned."""
    from tcr.tight import monochromatic_components
    ch = complete_random_coloured(4, 16, random.Random(16))
    component = max(monochromatic_components(ch).components, key=len)
    assert len(component) == 918
    phi = max_fractional_lp(component)
    assert phi.weights == {(1, 13, 14, 15): 1, (2, 10, 12, 16): 1,
                           (3, 7, 8, 11): 1, (4, 5, 6, 9): 1}
    assert all(type(w) is Fraction for w in phi.weights.values())


def test_floored_lp_matches_best_support_lp():
    """The exact floored LP equals the best, over every support S, of the
    dense reference LP with weight >= beta on S and every other edge
    excluded; its weights honour the floor."""
    betas = (Fraction(1, 100), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    branched = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(5, 8)
        edges = sorted(rng.sample(list(itertools.combinations(range(1, n + 1), 4)),
                                  rng.randint(2, min(10, comb(n, 4)))))
        beta = betas[seed % 4]
        best = ZERO
        for size in range(1, len(edges) + 1):
            for support in itertools.combinations(edges, size):
                value, _ = dense_matching_lp(edges, lower={e: beta for e in support},
                                             excluded=set(edges) - set(support))
                if value is not None:
                    best = max(best, value)
        value, weights = matchings._floored_lp_exact(edges, beta)
        assert value == best, seed
        assert sum(weights.values(), ZERO) == value
        assert all(w >= beta for w in weights.values()), seed
        ok, _ = validate_fractional(None, FractionalMatching(frozenset(edges), weights))
        assert ok
        plain = matching_lp(edges)[1]
        branched += any(ZERO < w < beta for w in plain.values())
    assert branched >= 10, branched


def test_lp_branch_and_bound_node_caps(monkeypatch):
    """Each search raises SearchCapExceeded once it passes its node cap."""
    rng = random.Random(0)
    edges = rng.sample(list(itertools.combinations(range(1, 15), 4)), 120)
    monkeypatch.setattr(matchings, "R_FRACTIONAL_NODE_CAP", 10)
    with pytest.raises(SearchCapExceeded):
        max_r_fractional(edges, 3)
    monkeypatch.setattr(matchings, "FLOORED_NODE_CAP", 1)
    with pytest.raises(SearchCapExceeded):
        matchings._floored_lp_exact(sorted(K5.edges), Fraction(1, 2))


def test_mu_all_red_k8():
    est = mu_estimate(all_red(4, 8), 1, Fraction(1, 100))
    assert est.value == 2 and est.exact


def test_mu_split_best_single_component():
    """The best single component is the blue class inside Y: the fractional
    optimum of K_7^(4) is 7/4, while every red edge shares the X vertex so
    red caps at 1 (computed by the per-component LP oracle)."""
    ch = split_edges(4, 2)
    est = mu_estimate(ch, 1, Fraction(1, 100))
    assert est.value == Fraction(7, 4)


def test_mu_beta_one_reduces_to_integral():
    rng = random.Random(17)
    ch = rand_coloured(4, 8, 14, rng)
    est = mu_estimate(ch, 1, Fraction(1))
    from tcr.tight import monochromatic_components
    decomp = monochromatic_components(ch)
    best = max(max_matching_exact(comp).size for comp in decomp.components)
    assert est.value == best


def test_mu_two_components():
    ch = split_edges(4, 2)
    est2 = mu_estimate(ch, 2, Fraction(1, 100))
    # red (cap 1 through the X vertex) + blue K_7 share the Y vertices;
    # exact value comes from the joint LP
    assert est2.value >= Fraction(7, 4)
    with pytest.raises(Unsupported):
        mu_estimate(ch, 3, Fraction(1, 100))
    with pytest.raises(Unsupported):
        mu_estimate(ch, 0, Fraction(1, 100))


def test_from_matching_puts_unit_weight_on_each_edge():
    m = [(1, 2, 3, 4), (5, 6, 7, 8)]
    induced = from_matching(m)
    assert induced.weight() == 2
    assert all(w == 1 for w in induced.weights.values())


def test_greedy_matching_is_maximal():
    rng = random.Random(23)
    ch = rand_coloured(4, 10, 30, rng)
    m = greedy_matching(ch.graph.edges)
    used = set()
    for e in m:
        assert not used.intersection(e)
        used.update(e)
    for e in ch.graph.edges:
        assert used.intersection(e) or e in m


def test_greedy_matching_takes_edges_in_the_order_given():
    """First fit over the given order: (2, 3) blocks both of its neighbours,
    where sorted order would take (1, 2) and (3, 4)."""
    assert greedy_matching([(2, 3), (1, 2), (3, 4)]) == [(2, 3)]
    assert greedy_matching(sorted([(2, 3), (1, 2), (3, 4)])) == [(1, 2), (3, 4)]

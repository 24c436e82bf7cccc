import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (all_red, complete_random_coloured, near_complete_coloured,
                      rand_coloured, split_edges)
from oracles import blueprint_blowup, component_of, shadow_masks_brute
from tcr.blowup import blow_up
from tcr.blueprint import (blueprint_eps_for_density,
                           build_blueprint, check_blueprint, compute_B_W,
                           is_good, is_suitable_pair, local_pivot,
                           make_blueprint, pair_shadow_masks, rational_sqrt_upper,
                           sample_suitable_pairs, trim_spanning_component)
from tcr.errors import ContractUnmet, HypothesisViolated, InconsistentWitness
from tcr.hypergraph import Colour, build
from tcr.tight import monochromatic_components


def full_red_blueprint(n, eps):
    """All-red K_n^(4) with the complete 2-graph assigned to its component."""
    ch = all_red(4, n)
    assign = {p: 0 for p in itertools.combinations(range(1, n + 1), 2)}
    return ch, make_blueprint(ch, Fraction(eps), assign)


def test_rational_sqrt_upper():
    q = rational_sqrt_upper(Fraction(1, 20))
    assert q * q >= Fraction(1, 20)
    assert (q - Fraction(1, 1000)) ** 2 < Fraction(1, 20)
    assert blueprint_eps_for_density(Fraction(1, 20)) == 3 * q


def test_rational_sqrt_upper_rejects_a_negative_radicand():
    with pytest.raises(ValueError, match="negative radicand"):
        rational_sqrt_upper(Fraction(-1, 20))


def test_make_blueprint_rejects_an_unknown_component():
    ch, _ = full_red_blueprint(6, Fraction(1, 3))
    with pytest.raises(InconsistentWitness, match=r"\(3, 4\) to unknown component 1"):
        make_blueprint(ch, Fraction(1, 3), {(1, 2): 0, (3, 4): 1})


def test_check_all_red_k6_threshold_boundary():
    """Pair shadow degree in K_6^(4) is exactly n - 2 = 4 = (1 - 1/3) * 6."""
    ch, bp = full_red_blueprint(6, Fraction(1, 3))
    assert check_blueprint(ch, bp).ok
    ch, bp0 = full_red_blueprint(6, Fraction(0))
    res = check_blueprint(ch, bp0)
    assert not res.ok
    assert all(v["kind"] == "degree" for v in res.violations)


def test_check_consistency_violation():
    ch = build(4, 8, [("R", (1, 2, 3, 4)), ("R", (5, 6, 7, 8))])
    bp = make_blueprint(ch, Fraction(9, 10), {(1, 2): 0, (1, 5): 1})
    res = check_blueprint(ch, bp)
    assert any(v["kind"] == "consistency" for v in res.violations)


@pytest.mark.parametrize("k, n", [(3, 7), (4, 8), (5, 8)])
@pytest.mark.parametrize("seed", range(4))
def test_pair_shadow_masks_match_brute_force_oracle(k, n, seed):
    """Masks read off the (k-1)-set buckets equal the subset-test oracle for
    every component, on sparse random colourings and on complete ones,
    where most (k-1)-sets lie in a red and in a blue edge at once."""
    rng = random.Random(seed)
    sparse = rand_coloured(k, n, rng.randint(1, 20), rng)
    dense = complete_random_coloured(k, n, rng)
    shadows = [{q for e in dense.edges_of(c) for q in itertools.combinations(e, k - 1)}
               for c in (Colour.RED, Colour.BLUE)]
    assert shadows[0] & shadows[1]
    for ch in (sparse, dense):
        decomp = monochromatic_components(ch)
        masks = pair_shadow_masks(decomp, k)
        assert sorted(masks) == list(range(len(decomp.components)))
        for cid, comp in enumerate(decomp.components):
            assert masks[cid] == shadow_masks_brute(comp, k)


def test_check_ignores_forged_masks():
    """The checker reads CH's own shadow masks: forged full-degree masks on a
    blueprint below the degree threshold do not hide a single violation."""
    ch, bp = full_red_blueprint(6, Fraction(0))
    forged = dataclasses.replace(bp, masks={e: (1 << 7) - 2 for e in bp.masks})
    assert all(forged.masks[e] >> z & 1 for e in forged.masks for z in range(1, 7))
    res = check_blueprint(ch, forged)
    assert [v["kind"] for v in res.violations] == ["degree"] * 15


def test_check_ignores_forged_decomposition():
    """The checker reads CH's own components: a blueprint recoloured blue,
    with a forged decomposition that calls its component blue, still shows
    the colour mismatch against the red component of CH."""
    ch = build(4, 8, [("R", (1, 2, 3, 4)), ("B", (5, 6, 7, 8))])
    bp = make_blueprint(ch, Fraction(9, 10), {(1, 2): 0})
    blue = {(1, 2): Colour.BLUE}
    forged = dataclasses.replace(
        bp, graph=dataclasses.replace(bp.graph, colour=blue),
        decomposition=dataclasses.replace(bp.decomposition,
                                          colour_of={0: Colour.BLUE, 1: Colour.RED}))
    assert forged.decomposition.colour(0) is forged.graph.colour[(1, 2)]
    res = check_blueprint(ch, forged)
    assert {"kind": "colour_mismatch", "edge": (1, 2), "component": 0} in res.violations


def test_check_reports_forged_component_ids_out_of_range():
    """An assignment to a component id below 0 or past the last one is
    reported as unknown_component, not looked up."""
    ch = build(4, 8, [("R", (1, 2, 3, 4)), ("B", (5, 6, 7, 8))])
    bp = make_blueprint(ch, Fraction(9, 10), {(1, 2): 0, (5, 6): 1})
    forged = dataclasses.replace(bp, assign={(1, 2): -1, (5, 6): 10**6})
    res = check_blueprint(ch, forged)
    assert not res.ok
    assert [v for v in res.violations if v["kind"] == "unknown_component"] == [
        {"kind": "unknown_component", "edge": (1, 2), "component": -1},
        {"kind": "unknown_component", "edge": (5, 6), "component": 10**6}]


def test_check_colour_mismatch_guarded_by_constructor():
    ch = build(4, 8, [("R", (1, 2, 3, 4)), ("B", (5, 6, 7, 8))])
    bp = make_blueprint(ch, Fraction(9, 10), {(1, 2): 0, (5, 6): 1})
    # constructor inherits colours from components, so the checker agrees
    assert bp.graph.colour[(1, 2)] is Colour.RED
    assert bp.graph.colour[(5, 6)] is Colour.BLUE


def test_build_all_red_k8():
    ch = all_red(4, 8)
    res = build_blueprint(ch, Fraction(1, 20))
    assert len(res.blueprint.assign) == 28 and res.omitted == res.discarded == 0
    assert set(res.blueprint.assign.values()) == {0}
    assert check_blueprint(ch, res.blueprint).ok
    assert res.blueprint.min_degree() == 7


def test_build_split_matches_degree_comparison_oracle():
    """Pairwise shadow-degree comparison on the split colouring (k=4, n=3).

    The red component's shadow contains every triple (any triple extends to
    an edge meeting X), so red dominates 11 vs 9 on pairs inside Y as well;
    the oracle below recomputes both degrees from scratch."""
    ch = split_edges(4, 3)
    decomp = monochromatic_components(ch)
    res = build_blueprint(ch, Fraction(1, 20))
    assert check_blueprint(ch, res.blueprint).ok
    shadows = {}
    for cid, comp in enumerate(decomp.components):
        tri = set()
        for e in comp:
            tri.update(itertools.combinations(e, 3))
        shadows[cid] = tri
    for pair, cid in res.blueprint.assign.items():
        degs = {}
        for c, tri in shadows.items():
            degs[c] = sum(1 for z in range(1, 14)
                          if z not in pair and tuple(sorted(pair + (z,))) in tri)
        best = max(degs.values())
        assert degs[cid] == best


def test_build_keeps_the_majority_component_of_a_connected_red_group():
    """Red edges 1245 and 1367 are two red components.  At eps = 1/2 the
    degree threshold is negative, so every pair is chosen: the six pairs of
    1367 by component 1, every other pair by component 0 (it sees them or
    is the first red id).  All 28 pairs form one connected group, whose
    majority is component 0, so the consistency pass discards the six."""
    ch = build(4, 8, [("R", (1, 2, 4, 5)), ("R", (1, 3, 6, 7))])
    res = build_blueprint(ch, Fraction(1, 2))
    assert (res.omitted, res.discarded) == (0, 6)
    assert res.blueprint.assign == {p: 0 for p in itertools.combinations(range(1, 9), 2)
                                    if not set(p) <= {1, 3, 6, 7}}
    assert check_blueprint(ch, res.blueprint).ok


def test_build_empty_graph():
    # a graph with no edges at all: every pair is omitted
    from tcr.hypergraph import ColouredKGraph, KGraph
    empty = ColouredKGraph(KGraph(4, 6, frozenset()), {})
    res = build_blueprint(empty, Fraction(1, 20))
    assert len(res.blueprint.assign) == 0
    assert res.omitted == 15
    assert check_blueprint(empty, res.blueprint).ok


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 100_000))
def test_build_then_check_on_dense_instances(seed):
    rng = random.Random(seed)
    n = rng.randint(12, 16)
    ch = near_complete_coloured(4, n, rng, deletions=2)
    res = build_blueprint(ch, Fraction(1, 20))
    assert check_blueprint(ch, res.blueprint).ok


def test_trim_red_complete():
    ch = build(2, 10, [("R", e) for e in itertools.combinations(range(1, 11), 2)])
    res = trim_spanning_component(ch, Fraction(1, 100))
    assert res.vertices == tuple(range(1, 11))
    assert res.colour is Colour.RED
    assert res.min_degree == 9


def test_trim_partial_star_spanning_blue():
    """Red edges 1-2, 1-3, 1-4 and everything else blue: the blue component
    reaches vertex 1 through 1-5 .. 1-10, so blue spans all ten vertices."""
    edges = []
    for a, b in itertools.combinations(range(1, 11), 2):
        red = a == 1 and b in (2, 3, 4)
        edges.append(("R" if red else "B", (a, b)))
    ch = build(2, 10, edges)
    res = trim_spanning_component(ch, Fraction(1, 100))
    assert res.colour is Colour.BLUE
    assert res.vertices == tuple(range(1, 11))


def test_trim_deletes_vertex_missed_by_every_component():
    """Red K_19 plus blue pairs {v, 20} for v = 10..19: no component spans
    all 20 vertices, so vertex 20, which red misses, is deleted."""
    edges = [("R", e) for e in itertools.combinations(range(1, 20), 2)]
    edges += [("B", (v, 20)) for v in range(10, 20)]
    res = trim_spanning_component(build(2, 20, edges), Fraction(1, 20))
    assert res.vertices == tuple(range(1, 20))
    assert res.colour is Colour.RED
    assert res.min_degree == 18


def test_trim_deletes_low_degree_vertex():
    """Red K_129 plus red pairs {v, 130} for v >= 80: vertex 130 has degree
    50, below the degree target at eps = 1/100, and is deleted first."""
    edges = [("R", e) for e in itertools.combinations(range(1, 130), 2)]
    edges += [("R", (v, 130)) for v in range(80, 130)]
    res = trim_spanning_component(build(2, 130, edges), Fraction(1, 100))
    assert res.vertices == tuple(range(1, 130))
    assert res.colour is Colour.RED
    assert res.min_degree == 128


def test_trim_stops_at_the_order_floor():
    """Red K_10 at eps = 1/10000: degree 9 misses the degree target, and
    deleting one vertex would cross the order floor."""
    ch = build(2, 10, [("R", e) for e in itertools.combinations(range(1, 11), 2)])
    with pytest.raises(ContractUnmet, match="order floor"):
        trim_spanning_component(ch, Fraction(1, 10000))


def test_trim_density_precondition():
    ch = build(2, 10, [("R", (1, 2)), ("B", (3, 4))])
    with pytest.raises(ValueError):
        trim_spanning_component(ch, Fraction(1, 100))


def test_trim_takes_only_2_graphs():
    with pytest.raises(ValueError, match="coloured 2-graphs"):
        trim_spanning_component(all_red(4, 6), Fraction(1, 100))


def test_trim_of_an_edgeless_graph_finds_no_component():
    """At eps = 1 an edgeless 2-graph passes the edge count, as the trim of
    an empty blueprint does in the growth set-up; it keeps no vertex and
    has no component to span."""
    with pytest.raises(ContractUnmet, match="no monochromatic component at all"):
        trim_spanning_component(build(2, 5, []), Fraction(1))


def test_blueprint_blowup_same_eps_and_degree_scaling():
    ch, bp = full_red_blueprint(6, Fraction(1, 3))
    blown, bmap = blow_up(ch, 2)
    blown_bp = blueprint_blowup(bp, bmap, blown)
    assert check_blueprint(blown, blown_bp).ok
    assert blown_bp.eps == bp.eps
    assert blown_bp.min_degree() == 2 * bp.min_degree()


def test_blueprint_blowup_identity_r1():
    ch, bp = full_red_blueprint(6, Fraction(1, 3))
    blown, bmap = blow_up(ch, 1)
    blown_bp = blueprint_blowup(bp, bmap, blown)
    assert blown_bp.assign == bp.assign


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 100_000))
def test_blueprint_blowup_preserves_checker(seed):
    rng = random.Random(seed)
    ch = near_complete_coloured(4, rng.randint(10, 12), rng, deletions=1)
    res = build_blueprint(ch, Fraction(1, 20))
    assert check_blueprint(ch, res.blueprint).ok
    blown, bmap = blow_up(ch, 2)
    blown_bp = blueprint_blowup(res.blueprint, bmap, blown)
    assert check_blueprint(blown, blown_bp).ok
    assert blown_bp.min_degree() == 2 * res.blueprint.min_degree()


def test_good_edges_all_red_k8():
    ch, bp = full_red_blueprint(8, Fraction(1, 4))
    assert sum(is_good(bp, e) for e in ch.graph.edges) == 70


def test_good_edges_missing_pair_blocks():
    ch = all_red(4, 8)
    assign = {p: 0 for p in itertools.combinations(range(1, 9), 2) if p != (1, 2)}
    bp = make_blueprint(ch, Fraction(1, 4), assign)
    good = {e for e in ch.graph.edges if is_good(bp, e)}
    for e in ch.graph.sorted_edges:
        if {1, 2}.issubset(e):
            assert e not in good
        else:
            assert e in good


def test_good_edges_vertex_outside_blueprint():
    ch = all_red(4, 8)
    assign = {p: 0 for p in itertools.combinations(range(1, 8), 2)}
    bp = make_blueprint(ch, Fraction(1, 4), assign)
    assert not is_good(bp, (5, 6, 7, 8))
    assert is_good(bp, (1, 2, 3, 4))


def test_good_monotone_under_blueprint_restriction():
    rng = random.Random(7)
    ch = near_complete_coloured(4, 10, rng, deletions=1)
    res = build_blueprint(ch, Fraction(1, 20))
    bp = res.blueprint
    good_full = {e for e in ch.graph.edges if is_good(bp, e)}
    smaller = dict(bp.assign)
    for p in list(smaller)[:5]:
        del smaller[p]
    bp_small = make_blueprint(ch, bp.eps, smaller)
    good_small = {e for e in ch.graph.edges if is_good(bp_small, e)}
    assert good_small.issubset(good_full)


def test_suitable_pair_complete_instance():
    ch, bp = full_red_blueprint(10, Fraction(1, 4))
    rep = is_suitable_pair(ch, bp, (1, 2, 3, 4), (5, 6, 7))
    assert rep.suitable and all(rep.sp) and all(rep.good)


def test_suitable_pair_sp1_fails_on_missing_edge():
    ch = all_red(4, 10)
    edges = ch.graph.edges - {(2, 3, 4, 5)}
    from tcr.hypergraph import ColouredKGraph, KGraph
    ch2 = ColouredKGraph(KGraph(4, 10, edges),
                         {e: Colour.RED for e in edges})
    assign = {p: 0 for p in itertools.combinations(range(1, 11), 2)}
    bp = make_blueprint(ch2, Fraction(1, 4), assign)
    rep = is_suitable_pair(ch2, bp, (1, 2, 3, 4), (5,))
    assert not rep.sp[0]
    assert not rep.suitable


def test_suitable_pair_precondition():
    ch, bp = full_red_blueprint(8, Fraction(1, 4))
    with pytest.raises(ValueError):
        is_suitable_pair(ch, bp, (1, 2, 3, 4), (4, 5))
    with pytest.raises(ValueError):
        is_suitable_pair(ch, bp, (1, 2, 3, 4), ())


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 100_000))
def test_suitable_monotone_under_w_restriction(seed):
    rng = random.Random(seed)
    ch = near_complete_coloured(4, 10, rng, deletions=1)
    res = build_blueprint(ch, Fraction(1, 20))
    bp = res.blueprint
    verts = sorted(bp.vertex_set)
    if len(verts) < 8:
        return
    f = tuple(verts[:4])
    if f not in ch.graph.edges:
        return
    W = tuple(verts[4:8])
    rep = is_suitable_pair(ch, bp, f, W)
    if rep.suitable:
        for size in (1, 2, 3):
            for Wp in itertools.combinations(W, size):
                assert is_suitable_pair(ch, bp, f, Wp).suitable


def test_sample_suitable_pairs_complete():
    ch, bp = full_red_blueprint(28, Fraction(1, 4))
    M = [(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)]
    W = tuple(range(13, 25))
    rng = random.Random(42)
    pairs = sample_suitable_pairs(ch, bp, M, W, 3, rng)
    assert len(pairs) == len(M)
    seen = set()
    for f, wf in pairs:
        assert is_suitable_pair(ch, bp, f, wf).suitable
        assert not seen.intersection(set(f) | set(wf))
        seen.update(f)
        seen.update(wf)


def test_sample_suitable_pairs_want_zero_and_exhaustion():
    ch, bp = full_red_blueprint(12, Fraction(1, 4))
    rng = random.Random(1)
    assert sample_suitable_pairs(ch, bp, [], (5, 6, 7, 8), 3, rng) == ()
    # |M| = 1 but W is too small for a 3-subset: exhausted, nothing found
    assert sample_suitable_pairs(ch, bp, [(1, 2, 3, 4)], (5, 6), 3, rng) == ()


def bw_fixture():
    """Blue K_6^(4) on 1..6 and red K_6^(4) on 5..10: the blueprint pairs
    split between the two components."""
    edges = []
    for e in itertools.combinations(range(1, 7), 4):
        edges.append(("B", e))
    for e in itertools.combinations(range(5, 11), 4):
        edges.append(("R", e))
    ch = build(4, 10, edges)
    decomp = monochromatic_components(ch)
    red_id = next(c for c in range(len(decomp.components))
                  if decomp.colour(c) is Colour.RED)
    blue_id = 1 - red_id
    assign = {}
    for p in itertools.combinations(range(1, 7), 2):
        assign[p] = blue_id
    for p in itertools.combinations(range(7, 11), 2):
        assign[p] = red_id
    bp = make_blueprint(ch, Fraction(2, 3), assign)
    return ch, bp, red_id, blue_id


def test_compute_bw_no_red_pairs_inside_w():
    ch, bp, red_id, blue_id = bw_fixture()
    res = compute_B_W(ch, bp, red_id, (1, 2, 3, 4))
    assert res.component == blue_id
    assert res.gamma == {}   # no red blueprint pair inside W


def test_compute_bw_split_instance():
    ch = split_edges(4, 3)
    res = build_blueprint(ch, Fraction(1, 20))
    bp = res.blueprint
    (red_id,) = {bp.assign[p] for p in bp.pairs_of_colour(Colour.RED)}
    W = tuple(range(3, 13))   # inside Y, no good red edge
    out = compute_B_W(ch, bp, red_id, W)
    decomp = bp.decomposition
    ids = component_of(decomp)
    assert decomp.colour(out.component) is Colour.BLUE
    assert out.gamma                                     # red pairs exist in W
    for T, hits in out.gamma.items():
        assert hits
        for w in hits:
            edge = tuple(sorted(T + (w,)))
            assert ids[edge] == out.component
            assert is_good(bp, edge)


def test_compute_bw_hypothesis_violation():
    ch = split_edges(4, 3)
    res = build_blueprint(ch, Fraction(1, 20))
    bp = res.blueprint
    (red_id,) = {bp.assign[p] for p in bp.pairs_of_colour(Colour.RED)}
    with pytest.raises(HypothesisViolated):
        compute_B_W(ch, bp, red_id, tuple(range(1, 9)))   # contains X


def pivot_fixture():
    """Inside f + W = 1..7 the red edges all go through vertex 1; every edge
    meeting {8, 9} is red, so the outside shadow keeps every pair assigned
    to the single red component."""
    edges = []
    for e in itertools.combinations(range(1, 10), 4):
        inside = e[-1] <= 7
        red = (1 in e) or not inside
        edges.append(("R" if red else "B", e))
    ch = build(4, 9, edges)
    res = build_blueprint(ch, Fraction(1, 2))
    bp = res.blueprint
    (red_id,) = {bp.assign[p] for p in bp.pairs_of_colour(Colour.RED)}
    return ch, bp, red_id


def test_local_pivot_constructed_fixture():
    ch, bp, red_id = pivot_fixture()
    f, W = (1, 2, 3, 4), (5, 6, 7)
    x = local_pivot(ch, bp, red_id, f, W, (5, 6))
    assert x == 1
    for e in itertools.combinations(range(1, 8), 4):
        if {5, 6}.issubset(e) and 1 not in e and e in ch.graph.edges:
            assert ch.colour[e] is Colour.BLUE


def test_local_pivot_all_blue_family():
    """With no red edge containing e inside f + W the intersection over the
    empty family is everything, so the smallest vertex of f is returned."""
    edges = []
    for e in itertools.combinations(range(1, 10), 4):
        inside = e[-1] <= 7
        red = (1 in e and not {5, 6}.issubset(e)) or not inside
        edges.append(("R" if red else "B", e))
    ch = build(4, 9, edges)
    res = build_blueprint(ch, Fraction(1, 2))
    bp = res.blueprint
    (red_id,) = {bp.assign[p] for p in bp.pairs_of_colour(Colour.RED)}
    x = local_pivot(ch, bp, red_id, (1, 2, 3, 4), (5, 6, 7), (5, 6))
    assert x == 1


def test_local_pivot_checks_its_hypotheses():
    """|W| = 3; (f, W) suitable, which fails with pair (1, 2) unassigned;
    f an edge of component R_id, which the blue edge 2345 is not, though it
    is good and (2345, 678) suitable; e a component-R_id pair inside W."""
    ch, bp, red_id = pivot_fixture()
    f, W = (1, 2, 3, 4), (5, 6, 7)
    with pytest.raises(HypothesisViolated, match=r"\|W\| = 2, expected 3"):
        local_pivot(ch, bp, red_id, f, (5, 6), (5, 6))
    unassigned = make_blueprint(ch, bp.eps, {p: c for p, c in bp.assign.items() if p != (1, 2)})
    with pytest.raises(HypothesisViolated, match=r"\(f, W\) not suitable"):
        local_pivot(ch, unassigned, red_id, f, W, (5, 6))
    assert ch.colour[(2, 3, 4, 5)] is Colour.BLUE
    assert is_suitable_pair(ch, bp, (2, 3, 4, 5), (6, 7, 8)).suitable
    with pytest.raises(HypothesisViolated, match=r"f = \(2, 3, 4, 5\) is not a good edge"):
        local_pivot(ch, bp, red_id, (2, 3, 4, 5), (6, 7, 8), (6, 7))
    with pytest.raises(HypothesisViolated, match=r"e = \(1, 5\) is not a component"):
        local_pivot(ch, bp, red_id, f, W, (1, 5))


def test_local_pivot_empty_core_rejected():
    ch, bp = full_red_blueprint(9, Fraction(1, 4))
    with pytest.raises(HypothesisViolated):
        local_pivot(ch, bp, 0, (1, 2, 3, 4), (5, 6, 7), (5, 6))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 100_000))
def test_good_edges_tightly_connected_in_dense_windows(seed):
    """Good edges inside a large vertex window of a dense instance lie in a
    single tight component of the good subgraph (decomposition oracle)."""
    from conftest import complete_random_coloured
    from tcr.tight import tight_components
    from tcr.hypergraph import KGraph, edges_within
    rng = random.Random(seed)
    ch = complete_random_coloured(4, 13, rng)
    res = build_blueprint(ch, Fraction(1, 20))
    bp = res.blueprint
    W = sorted(bp.vertex_set)[:11]
    good = [e for e in edges_within(ch.graph.edges, W, 4) if is_good(bp, e)]
    if len(good) < 2:
        return
    decomp = tight_components(KGraph(4, ch.n, frozenset(good)))
    assert len(decomp.components) == 1

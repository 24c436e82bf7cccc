import itertools
import pickle
import random
from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_red, complete_kgraph, rand_coloured, split_edges
from oracles import (bfs_tight_walk, brute_components, component_of, verify_cycle_witness,
                     verify_path_witness)
from tcr import tight
from tcr.blueprint import pair_shadow_masks
from tcr.errors import SearchCapExceeded
from tcr.hypergraph import Colour, ColouredKGraph, KGraph, build
from tcr.tight import (Absent, _component_sets, cycle_windows, find_tight_cycle,
                       find_tight_path, monochromatic_components,
                       tight_components)


def cycle_edge_set(n, k):
    """The edge set of the tight cycle on [n] in its natural order."""
    return [tuple(sorted((v + j - 1) % n + 1 for j in range(k)))
            for v in range(1, n + 1)]


def test_components_complete_k5():
    d = tight_components(complete_kgraph(4, 5))
    assert len(d.components) == 1
    assert len(d.components[0]) == 5


def test_components_two_disjoint_edges():
    h = build(4, 8, [("R", (1, 2, 3, 4)), ("R", (5, 6, 7, 8))]).graph
    d = tight_components(h)
    assert len(d.components) == 2


def test_components_cycle_c8():
    h = KGraph(4, 8, frozenset(cycle_edge_set(8, 4)))
    d = tight_components(h)
    assert len(d.components) == 1 and len(d.components[0]) == 8


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_components_match_bfs_oracle_and_are_order_independent(seed):
    rng = random.Random(seed)
    ch = rand_coloured(4, 9, rng.randint(0, 25), rng)
    d = tight_components(ch.graph)
    assert list(d.components) == brute_components(4, ch.graph.edges)
    # partition property
    assert sum(len(c) for c in d.components) == ch.graph.m
    shuffled = list(ch.graph.edges)
    rng.shuffle(shuffled)
    d2 = tight_components(KGraph(4, 9, frozenset(shuffled)))
    assert d2.components == d.components


def assert_component_sets(k, edges):
    """`_component_sets` gives the tight components of `edges`, each in
    canonical order, and a bucket map sending every (k-1)-subset of every
    edge, keyed by its vertex bitmask, to its group; returns the groups."""
    groups, buckets = _component_sets(edges)
    assert [frozenset(g) for g in groups] == brute_components(k, edges)
    assert all(g == sorted(g) for g in groups)
    masks = {e: sum(1 << v for v in e) for e in edges}
    assert buckets == {masks[e] ^ (1 << v): gid for gid, g in enumerate(groups)
                       for e in g for v in e}
    return groups


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_component_sets_match_bfs_oracle(seed):
    """For k = 2..5, on samples from a single edge to the complete k-graph,
    the run-and-fiber grouping agrees with the BFS oracle (for k = 2: the
    connected components of a graph, each vertex bucketed to its own)."""
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    pool = list(itertools.combinations(range(1, rng.randint(k + 1, 10) + 1), k))
    density = rng.choice((0.05, 0.2, 0.5, 0.8, 1.0))
    edges = [e for e in pool if rng.random() < density] or [rng.choice(pool)]
    rng.shuffle(edges)
    assert_component_sets(k, edges)


def test_component_sets_join_two_parts_of_a_fiber():
    """The runs (1,2)[5] and (1,3)[6] leave two parts, {2,5} and {3,6}, in
    the fiber of {1}; the later run (1,4)[5,6] meets both and joins them."""
    edges = [(1, 2, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6)]
    assert assert_component_sets(3, edges) == [sorted(edges)]
    assert assert_component_sets(3, edges[:2]) == [[(1, 2, 5)], [(1, 3, 6)]]


def test_component_sets_of_single_edge_runs():
    """A tight path, each of whose edges is its own run, joined only through
    the shared (k-1)-sets filed by each run's largest first vertex, beside
    one disjoint edge."""
    path = [tuple(range(v, v + 4)) for v in range(1, 6)]
    assert assert_component_sets(4, path + [(9, 10, 11, 12)]) == [path, [(9, 10, 11, 12)]]


def test_swapped_graph_carries_its_decomposition():
    """CH.swapped() of an analysed graph carries the decomposition across,
    equal to a fresh analysis of the swapped colouring, masks included."""
    rng = random.Random(3)
    ch = rand_coloured(4, 9, 60, rng)
    original = monochromatic_components(ch)
    carried = monochromatic_components(ch.swapped())
    fresh_graph = ColouredKGraph(ch.graph, {e: c.opposite for e, c in ch.colour.items()})
    fresh = monochromatic_components(fresh_graph)
    assert carried is not fresh and carried is not original
    assert carried == fresh   # components, colour_of
    assert component_of(carried) == component_of(fresh)
    assert carried._sorted == fresh._sorted
    # the swap reorders the original's component sets instead of remaking them
    assert sorted(map(id, carried.components)) == sorted(map(id, original.components))
    assert pair_shadow_masks(carried, 4) == pair_shadow_masks(fresh, 4)
    reds = sum(c is Colour.RED for c in original.colour_of.values())
    assert carried.edges_of(0) == original.edges_of(reds)   # the first blue one
    assert carried.colour(0) is Colour.RED


def built(decomp) -> list:
    """The ids of the components whose frozenset has been built."""
    return [cid for cid, cell in enumerate(decomp.components._cells) if cell[0] is not None]


def test_component_sets_are_built_on_first_use():
    """`components` is a sequence of frozensets: its length and the
    canonical tuples build none, indexing builds and caches one, and it
    equals another decomposition of the same edges by value."""
    ch = rand_coloured(4, 10, 24, random.Random(11))
    d = monochromatic_components(ch)
    assert isinstance(d.components, Sequence) and len(d.components) == len(d._sorted) > 2
    assert d.support(2) and built(d) == []
    assert d.edges_of(1) == frozenset(d._sorted[1])
    assert built(d) == [1]
    assert d.components[1] is d.edges_of(1) and d.components[-1] == frozenset(d._sorted[-1])
    fresh = monochromatic_components(build(ch.k, ch.n, [(c, e) for e, c in ch.colour.items()]))
    assert fresh.components == d.components and fresh == d and built(fresh) == []
    assert d.components != tight_components(ch.graph).components
    assert d.components != tuple(d.components)
    everything = list(d.components)
    assert all(type(c) is frozenset for c in everything)
    assert everything == [frozenset(t) for t in d._sorted]
    assert built(d) == list(range(len(d.components)))


def test_swapped_decomposition_shares_each_set_built_on_either_side():
    """A set built before the colour swap and one built after it, through
    the swapped decomposition, are each the same object on both sides."""
    ch = rand_coloured(4, 10, 24, random.Random(11))
    original = monochromatic_components(ch)
    reds = sum(c is Colour.RED for c in original.colour_of.values())
    before = original.components[0]
    carried = monochromatic_components(ch.swapped())
    assert carried.components[len(carried.components) - reds] is before
    after = carried.components[0]   # the first blue component of the original
    assert original.components[reds] is after
    assert built(original) == [0, reds] and built(carried) == [0, len(carried.components) - reds]


def test_decomposition_survives_a_pickle_round_trip():
    """A decomposition with some sets built, and its swap, come back equal
    from one pickle, and still share their cells; so does a lazily built
    graph that carries one."""
    ch = rand_coloured(4, 10, 24, random.Random(11))
    d = monochromatic_components(ch)
    d.edges_of(0)
    swapped = d.swapped()
    d2, swapped2 = pickle.loads(pickle.dumps((d, swapped), protocol=pickle.HIGHEST_PROTOCOL))
    assert (d2, swapped2) == (d, swapped) and d2._sorted == d._sorted
    assert d2._buckets == d._buckets and built(d2) == [0]
    reds = sum(c is Colour.RED for c in d.colour_of.values())
    assert d2.edges_of(1) is swapped2.components[len(d._sorted) - reds + 1]
    assert list(d2.components) == list(d.components)
    # a graph built lazily from the same pairs in canonical order comes back
    # lazy, equal to the eager graph, with its decomposition and classes
    lazy = build(4, 10, [(c, e) for e, c in sorted(ch.colour.items())])
    monochromatic_components(lazy).edges_of(0)
    back = pickle.loads(pickle.dumps(lazy, protocol=pickle.HIGHEST_PROTOCOL))
    assert "edges" not in vars(back.graph) and "colour" not in vars(back)
    assert monochromatic_components(back) == d and built(monochromatic_components(back)) == [0]
    assert back == ch and back.graph.sorted_edges == ch.graph.sorted_edges
    assert all(back.edges_of(c) == ch.edges_of(c) for c in Colour)


def test_id_of_reads_the_edge_id_from_the_bucket_maps():
    """`id_of` agrees with the edge -> id map in a monochromatic
    decomposition, in its colour-swapped carry-over and in a plain one."""
    ch = rand_coloured(4, 10, 24, random.Random(11))
    mono = monochromatic_components(ch)
    swapped = monochromatic_components(ch.swapped())
    plain = tight_components(ch.graph)
    mono_ids, swapped_ids, plain_ids = map(component_of, (mono, swapped, plain))
    for e, colour in ch.colour.items():
        assert mono.id_of(e, colour) == mono_ids[e]
        assert swapped.id_of(e, colour.opposite) == swapped_ids[e]
        assert plain.id_of(e, None) == plain_ids[e]
    assert len(mono.components) == 9   # three red, six blue


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_walk_oracle_within_and_across_components(seed):
    rng = random.Random(seed)
    ch = rand_coloured(4, 8, rng.randint(2, 18), rng)
    d = tight_components(ch.graph)
    edges = sorted(ch.graph.edges)
    ids = component_of(d)
    for e1, e2 in itertools.combinations(edges[:8], 2):
        walk = bfs_tight_walk(4, edges, e1, e2)
        same = ids[e1] == ids[e2]
        assert (walk is not None) == same
        if walk:
            assert ch.graph.edges.issuperset(walk)
            assert all(len(set(a) & set(b)) == 3 for a, b in zip(walk, walk[1:]))


def test_monochromatic_components_all_red():
    d = monochromatic_components(all_red(4, 5))
    assert len(d.components) == 1
    assert d.colour(0) is Colour.RED


def test_monochromatic_components_split():
    ch = split_edges(4, 2)
    d = monochromatic_components(ch)
    xset = {1}
    for cid, comp in enumerate(d.components):
        if d.colour(cid) is Colour.RED:
            assert all(xset.intersection(e) for e in comp)
        else:
            assert all(not xset.intersection(e) for e in comp)


def test_monochromatic_components_parity_profiles_constant():
    from tcr.extremal import parity_coloring
    ch, spec = parity_coloring(3, 2, 0)
    d = monochromatic_components(ch)
    xset = set(spec.X)
    for comp in d.components:
        profiles = {sum(1 for v in e if v in xset) for e in comp}
        assert len(profiles) == 1


def test_find_cycle_k5():
    res = find_tight_cycle(complete_kgraph(4, 5), 5)
    assert not isinstance(res, Absent)
    assert verify_cycle_witness(complete_kgraph(4, 5).edges, 4, res.ordering)


def test_find_cycle_red_split_absent():
    ch = split_edges(4, 2)
    red = ch.monochromatic_subgraph(Colour.RED)
    res = find_tight_cycle(red, 8)
    assert isinstance(res, Absent)
    assert res.explored > 0


def test_find_cycle_recovers_defining_order():
    edges = cycle_edge_set(8, 4)
    h = KGraph(4, 8, frozenset(edges))
    res = find_tight_cycle(h, 8)
    assert not isinstance(res, Absent)
    assert verify_cycle_witness(edges, 4, res.ordering)
    assert set(cycle_windows(res.ordering, 4)) == set(edges)


def test_find_cycle_cap(monkeypatch):
    with pytest.raises(SearchCapExceeded):
        find_tight_cycle(complete_kgraph(4, 15), 15)
    # a larger cap lets it through the guard (and finds the cycle)
    monkeypatch.setattr(tight, "SUPPORT_CAP", 15)
    res = find_tight_cycle(complete_kgraph(4, 15), 15)
    assert not isinstance(res, Absent)


def test_find_cycle_length_validation():
    with pytest.raises(ValueError):
        find_tight_cycle(complete_kgraph(4, 6), 4)


def test_find_path_single_edge():
    h = build(4, 4, [("R", (1, 2, 3, 4))]).graph
    res = find_tight_path(h, 4)
    assert not isinstance(res, Absent)
    assert verify_path_witness(h.edges, 4, res.ordering)


def test_find_path_k5():
    res = find_tight_path(complete_kgraph(4, 5), 5)
    assert not isinstance(res, Absent)
    assert verify_path_witness(complete_kgraph(4, 5).edges, 4, res.ordering)


def test_find_path_needs_k_vertices():
    with pytest.raises(ValueError, match="path length 3 < k = 4"):
        find_tight_path(complete_kgraph(4, 5), 3)


def test_find_path_two_disjoint_edges_absent():
    h = build(4, 8, [("R", (1, 2, 3, 4)), ("R", (5, 6, 7, 8))]).graph
    assert isinstance(find_tight_path(h, 5), Absent)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_witnesses_always_reverify(seed):
    rng = random.Random(seed)
    ch = rand_coloured(4, 8, rng.randint(5, 40), rng)
    for ell in (5, 6):
        res = find_tight_cycle(ch.graph, ell)
        if not isinstance(res, Absent):
            assert verify_cycle_witness(ch.graph.edges, 4, res.ordering)
        res = find_tight_path(ch.graph, ell)
        if not isinstance(res, Absent):
            assert verify_path_witness(ch.graph.edges, 4, res.ordering)


def test_blow_up_component_compatibility():
    from oracles import project_edge
    from tcr.blowup import blow_up
    rng = random.Random(99)
    ch = rand_coloured(4, 7, 14, rng)
    blown, bmap = blow_up(ch, 2)
    base = monochromatic_components(ch)
    star = monochromatic_components(blown)
    assert len(base.components) == len(star.components)
    ids = component_of(base)
    for comp in star.components:
        base_ids = {ids[project_edge(bmap, e)] for e in comp}
        assert len(base_ids) == 1

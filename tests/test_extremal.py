import dataclasses
import itertools
import re
from math import comb, gcd

import pytest

from oracles import (brute_has_tight, brute_ramsey, parity_certificate_brute,
                     verify_cycle_witness)
from tcr import extremal, hypergraph
from tcr.errors import MalformedEdge, SizeCapExceeded
from tcr.extremal import (ProfileNotConstant, TargetSpec, parity_coloring,
                          ramsey_search_tiny, split_coloring, verify_no_mono_cycle)
from tcr.hypergraph import Colour, KGraph, build
from tcr.matchings import max_matching_exact
from tcr.tight import Absent, find_tight_cycle, find_tight_path, monochromatic_components


def test_split_counts_k4_n2():
    ch, spec = split_coloring(4, 2)
    assert spec.N == 8 and spec.X == (1,)
    assert len(ch.edges_of(Colour.RED)) == 35
    assert len(ch.edges_of(Colour.BLUE)) == 35


def test_split_counts_k2_n2():
    ch, spec = split_coloring(2, 2)
    assert spec.N == 4
    assert len(ch.edges_of(Colour.RED)) == 3
    assert len(ch.edges_of(Colour.BLUE)) == 3


def test_split_counts_k3_n2():
    # N = (k+1)n - 2 = 6; the red class counts C(6,3) - C(5,3) = 10
    ch, spec = split_coloring(3, 2)
    assert spec.N == 6
    assert len(ch.edges_of(Colour.RED)) == comb(6, 3) - comb(5, 3) == 10


@pytest.mark.parametrize("k,n", [(k, n) for k in (2, 3, 4, 5) for n in (2, 3, 4)
                                 if comb((k + 1) * n - 2, k) <= 30_000])
def test_split_counts_match_binomials(k, n):
    ch, spec = split_coloring(k, n)
    red = len(ch.edges_of(Colour.RED))
    assert red == comb(spec.N, k) - comb(spec.N - (n - 1), k)


def test_parity_k3_n2_i0():
    ch, spec = parity_coloring(3, 2, 0)
    assert spec.d == 3 and spec.N == 6 and spec.X == (1,)
    for e in ch.graph.sorted_edges:
        meet = sum(1 for v in e if v == 1)
        assert (ch.colour[e] is Colour.RED) == (meet % 2 == 0)


def test_parity_k4_n2_i2():
    ch, spec = parity_coloring(4, 2, 2)
    assert spec.d == 2 and spec.N == 10
    assert len(spec.X) == 3 and len(spec.Y) == 7


@pytest.mark.parametrize("k", [2, 3, 4, 11])
def test_parity_i0_n1_is_rejected_before_building(k, monkeypatch):
    """i = 0 and n = 1 give N = k - 1 vertices, too few for one edge."""
    def no_build(*args):
        raise AssertionError("built a colouring")
    monkeypatch.setattr(extremal, "build", no_build)
    with pytest.raises(ValueError, match="n >= 2"):
        parity_coloring(k, 1, 0)


def test_each_size_rule_is_checked_once():
    """k >= 2 is build's check and N >= k is the profile colouring's; the
    constructors repeat neither."""
    with pytest.raises(MalformedEdge, match="uniformity 1 < 2"):
        split_coloring(1, 2)
    for make, args in ((split_coloring, (4, 1)), (parity_coloring, (1, 1, 0)),
                       (parity_coloring, (4, 0, 1))):
        with pytest.raises(ValueError, match="N = -?[0-9]+ < k"):
            make(*args)
    with pytest.raises(ValueError, match="N = -2 < k = 0"):
        split_coloring(0, 2)   # gcd(0, 0) = 0 divides nothing
    with pytest.raises(ValueError, match="0 <= i <= k-1"):
        parity_coloring(4, 2, 4)


def test_profile_colourings_stop_at_the_edge_cap():
    """split k = 4, n = 11 has N = 53 and C(53, 4) = 292,825 edges, above
    the cap of 250,000; it is refused before any edge is made."""
    with pytest.raises(SizeCapExceeded, match=r"C\(53,4\) exceeds cap 250000"):
        split_coloring(4, 11)


def test_parity_i0_is_colour_swapped_split_when_x_matches():
    """At i = 0 the parity rule paints Y-internal edges red and X-meeting
    edges blue, the split rule with |X| = n - 1 reversed (both have
    |X| = n - 1 since d = k)."""
    chp, sp = parity_coloring(3, 2, 0)
    chs, ss = split_coloring(3, 2)
    # different N: parity gives (4/3)*6-2 = 6, split gives 8; compare rules
    assert len(sp.X) == 1
    for e in chp.graph.sorted_edges:
        meets_x = any(v in sp.X for v in e)
        assert (chp.colour[e] is Colour.BLUE) == meets_x


def test_parity_profile_constancy_all_components():
    for (k, n, i) in [(3, 2, 0), (3, 2, 1), (4, 2, 2)]:
        ch, spec = parity_coloring(k, n, i)
        decomp = monochromatic_components(ch)
        xset = set(spec.X)
        for comp in decomp.components:
            assert len({sum(1 for v in e if v in xset) for e in comp}) == 1


def test_verify_split_k4_n2():
    ch, spec = split_coloring(4, 2)
    cert = verify_no_mono_cycle(ch, spec)
    assert cert.ok and cert.method == "matching-bound"
    # the certified bounds are re-verifiable by the exact matcher
    assert max_matching_exact(ch.edges_of(Colour.RED)).size <= len(spec.X)
    assert max_matching_exact(ch.edges_of(Colour.BLUE)).size <= len(spec.Y) // 4


def test_verify_parity_k3_n2_i0_details():
    ch, spec = parity_coloring(3, 2, 0)
    cert = verify_no_mono_cycle(ch, spec)
    assert cert.ok and cert.method == "divisibility"
    by_colour = {d["colour"]: d for d in cert.details}
    assert by_colour["R"]["blocked_by"] == "support" and by_colour["R"]["support"] == 5
    assert by_colour["B"]["blocked_by"] == "x_capacity" and by_colour["B"]["x_needed"] == 2


def test_verify_y_capacity_block_agrees_with_the_search():
    """A hand-made spec whose Y is too small: on 8 vertices with X = [3],
    the red edges, those with exactly one vertex in X, form one component
    with r1 = 1, so a tight 8-cycle in it would need 2 vertices of X and 6
    of Y, and |Y| = 5.  The verifier blocks it by y_capacity, and the
    tight-cycle search finds no 8-cycle in it or in any other component."""
    N, X = 8, (1, 2, 3)
    ch = build(4, N, [("R" if len(set(X) & set(e)) == 1 else "B", e)
                      for e in itertools.combinations(range(1, N + 1), 4)])
    spec = extremal.ExtremalSpec("parity", 4, 2, 0, 4, N, X, tuple(range(4, N + 1)))
    cert = verify_no_mono_cycle(ch, spec)
    assert cert.ok
    assert cert.details[0] == {"component": 0, "colour": "R", "r1": 1, "support": 8,
                               "blocked_by": "y_capacity", "y_needed": 6}
    decomp = monochromatic_components(ch)
    for comp in decomp.components:
        assert isinstance(find_tight_cycle(KGraph(4, N, comp), spec.length), Absent)


def test_verify_detects_violation_on_complete():
    """An all-red complete graph on 2k vertices carries the cycle; the
    verifier must report it with a witness."""
    ch, spec = parity_coloring(4, 2, 0)
    # overwrite with all-red on the same vertex count: build a fake spec view
    all_red_ch = build(4, spec.N, [("R", e) for e in
                                   itertools.combinations(range(1, spec.N + 1), 4)])
    cert = verify_no_mono_cycle(all_red_ch, spec)
    assert not cert.ok
    assert cert.witness is not None
    assert verify_cycle_witness(all_red_ch.graph.edges, 4, cert.witness)


def test_ramsey_c3_anchors():
    res6 = ramsey_search_tiny(2, TargetSpec("cycle", 3), 6)
    assert res6.all_coloured
    res5 = ramsey_search_tiny(2, TargetSpec("cycle", 3), 5)
    assert not res5.all_coloured
    ce = res5.counterexample
    for colour in (Colour.RED, Colour.BLUE):
        sub = ce.monochromatic_subgraph(colour)
        assert isinstance(find_tight_cycle(sub, 3), Absent)


def test_ramsey_c4_anchors():
    assert ramsey_search_tiny(2, TargetSpec("cycle", 4), 6).all_coloured
    res = ramsey_search_tiny(2, TargetSpec("cycle", 4), 5)
    assert not res.all_coloured


def test_ramsey_k4_c8_counterexample_is_split_like():
    res = ramsey_search_tiny(4, TargetSpec("cycle", 8), 8)
    assert not res.all_coloured and res.seeded
    ce = res.counterexample
    for colour in (Colour.RED, Colour.BLUE):
        sub = ce.monochromatic_subgraph(colour)
        assert isinstance(find_tight_cycle(sub, 8), Absent)


def test_ramsey_path_target():
    """Split-style colourings also lack monochromatic tight paths on 4n+i
    vertices at n = 2 (checked exhaustively through the seed verifier)."""
    res = ramsey_search_tiny(4, TargetSpec("path", 8), 8)
    assert not res.all_coloured
    ce = res.counterexample
    for colour in (Colour.RED, Colour.BLUE):
        sub = ce.monochromatic_subgraph(colour)
        assert isinstance(find_tight_path(sub, 8), Absent)


def test_ramsey_cap():
    """An exhaustive verdict needs N <= EXHAUSTIVE_N = 8, for every k."""
    with pytest.raises(SizeCapExceeded):
        ramsey_search_tiny(2, TargetSpec("cycle", 3), 9, allow_seeds=False)
    with pytest.raises(SizeCapExceeded):
        ramsey_search_tiny(3, TargetSpec("cycle", 4), 9, allow_seeds=False)
    assert ramsey_search_tiny(2, TargetSpec("cycle", 3), 8, allow_seeds=False).all_coloured
    res = ramsey_search_tiny(3, TargetSpec("cycle", 4), 7, allow_seeds=False)
    assert not res.all_coloured and not res.seeded
    for colour in (Colour.RED, Colour.BLUE):
        sub = res.counterexample.monochromatic_subgraph(colour)
        assert isinstance(find_tight_cycle(sub, 4), Absent)


ORACLE_CASES = [(k, N, kind, length) for k, N in ((2, 4), (2, 5), (3, 5), (4, 5))
                for kind, least in (("cycle", k + 1), ("path", k))
                for length in range(least, N + 1)]


@pytest.mark.parametrize("k,N,kind,length", ORACLE_CASES)
def test_ramsey_matches_brute_force(k, N, kind, length):
    """The verdict is the one found by trying every 2-colouring, with and
    without seeds, and a counterexample has no monochromatic target."""
    expected = brute_ramsey(k, N, kind, length)
    for allow_seeds in (True, False):
        res = ramsey_search_tiny(k, TargetSpec(kind, length), N, allow_seeds=allow_seeds)
        assert res.all_coloured == expected
        if not expected:
            for colour in (Colour.RED, Colour.BLUE):
                assert not brute_has_tight(res.counterexample.edges_of(colour),
                                           N, k, kind, length)


def test_ramsey_graph_c5_counterexample_at_8():
    """R(C_5) = 9 for graphs (Rosta 1973; Faudree-Schelp 1974)."""
    res = ramsey_search_tiny(2, TargetSpec("cycle", 5), 8, allow_seeds=False)
    assert not res.all_coloured
    for colour in (Colour.RED, Colour.BLUE):
        sub = res.counterexample.monochromatic_subgraph(colour)
        assert isinstance(find_tight_cycle(sub, 5), Absent)


@pytest.mark.parametrize("k,target,N,nodes,prunes", [
    (2, TargetSpec("cycle", 4), 7, 165, 83),
    (2, TargetSpec("cycle", 6), 8, 4855, 2428),   # R(C_6) = 8 for graphs
    (4, TargetSpec("path", 7), 8, 12155, 6078),
])
def test_ramsey_search_tree_is_pinned(k, target, N, nodes, prunes):
    """The search visits the same tree: its node and prune counts are
    pinned, not just its verdict."""
    res = ramsey_search_tiny(k, target, N, allow_seeds=False)
    assert (res.all_coloured, res.nodes, res.prunes) == (True, nodes, prunes)


def test_ramsey_checks_size_before_building_seeds(monkeypatch):
    """Above the tight-search support cap no seed can be verified, so none
    is built before the size check."""
    def no_build(*args):
        raise AssertionError("built a colouring")
    monkeypatch.setattr(extremal, "build", no_build)
    with pytest.raises(SizeCapExceeded):
        ramsey_search_tiny(4, TargetSpec("cycle", 5), 15)


def test_ramsey_target_longer_than_N_is_not_seeded():
    """The all-red answer to a target that does not fit is no seed colouring."""
    for allow_seeds in (True, False):
        res = ramsey_search_tiny(4, TargetSpec("cycle", 9), 8, allow_seeds=allow_seeds)
        assert not res.all_coloured and not res.seeded
        assert (res.nodes, res.prunes) == (0, 0)


def test_ramsey_no_seed_path_matches_seeded():
    a = ramsey_search_tiny(2, TargetSpec("cycle", 3), 5, allow_seeds=True)
    b = ramsey_search_tiny(2, TargetSpec("cycle", 3), 5, allow_seeds=False)
    assert a.all_coloured == b.all_coloured == False  # noqa: E712


def test_certificates_reverify_from_scratch():
    """Recomputing the cited profiles and capacities reproduces the stored
    certificate records."""
    ch, spec = parity_coloring(3, 2, 1)
    cert = verify_no_mono_cycle(ch, spec)
    assert cert.ok
    decomp = monochromatic_components(ch)
    xset = set(spec.X)
    for record in cert.details:
        comp = decomp.edges_of(record["component"])
        profiles = {sum(1 for v in e if v in xset) for e in comp}
        assert profiles == {record["r1"]}
        if record["blocked_by"] == "divisibility":
            assert (record["r1"] * spec.length) % spec.k != 0
        if record["blocked_by"] == "x_capacity":
            assert record["r1"] * spec.length // spec.k > len(spec.X)


def _meets(e, x):
    """|e ∩ [x]|, counted vertex by vertex."""
    return sum(1 for v in e if v <= x)


@pytest.mark.parametrize("k,n,i", [(k, n, i) for k in (2, 3, 4) for i in range(k)
                                   for n in (1, 2, 3) if (i, n) != (0, 1)])
def test_parity_colours_follow_the_rule(k, n, i):
    """Red iff an even number of vertices in X = [|X|], edge by edge."""
    ch, spec = parity_coloring(k, n, i)
    x = len(spec.X)
    assert spec.X == tuple(range(1, x + 1))
    assert ch.graph.m == comb(spec.N, k)
    for e in ch.graph.sorted_edges:
        assert (ch.colour[e] is Colour.RED) == (_meets(e, x) % 2 == 0), e


@pytest.mark.parametrize("k,n", [(k, n) for k in (2, 3, 4) for n in (2, 3)])
def test_split_colours_follow_the_rule(k, n):
    """Red iff the edge meets X = [n - 1], edge by edge."""
    ch, spec = split_coloring(k, n)
    assert spec.X == tuple(range(1, n))
    for e in ch.graph.sorted_edges:
        assert (ch.colour[e] is Colour.RED) == (_meets(e, n - 1) > 0), e


@pytest.mark.parametrize("k,N,kind,length", [
    (2, 5, "cycle", 3), (2, 8, "cycle", 5), (3, 7, "cycle", 4), (3, 8, "path", 5),
    (4, 8, "cycle", 8), (4, 8, "path", 7), (4, 10, "cycle", 6)])
def test_ramsey_seed_colourings_follow_their_rules(k, N, kind, length):
    """The seeds are the split rule on X = [n - 1] and the parity rule on
    |X| = kn/gcd(k, length mod k) - 1, with n = ceil(length / k)."""
    n = -(-length // k)
    x_parity = k * n // gcd(k, length % k) - 1
    red_rules = []
    if 1 <= n - 1 < N:
        red_rules.append(lambda e: _meets(e, n - 1) > 0)
    if 1 <= x_parity < N:
        red_rules.append(lambda e: _meets(e, x_parity) % 2 == 0)
    seeds = list(extremal._seed_colourings(k, N, TargetSpec(kind, length)))
    assert len(seeds) == len(red_rules)
    for seed, red_rule in zip(seeds, red_rules):
        assert seed.graph.sorted_edges == tuple(itertools.combinations(range(1, N + 1), k))
        for e in seed.graph.sorted_edges:
            assert (seed.colour[e] is Colour.RED) == red_rule(e), e


# (kind, k, n, i): C(N, k) is 120, 715, 120, 1820 and 364 edges, none a
# multiple of 9 or 31
BLOCK_CASES = [("split", 3, 3, 0), ("split", 4, 3, 0), ("parity", 3, 2, 1),
               ("parity", 4, 3, 2), ("parity", 3, 4, 0)]


@pytest.mark.parametrize("block", [9, 31])
def test_block_built_profile_colourings_equal_build_of_their_pairs(monkeypatch, block):
    """A split or parity colouring built a block at a time, with BLOCK small
    so that it spans many blocks and ends in a partial one, is the graph
    that `build` makes of the rule's (colour, edge) pairs: the same colours,
    canonical order and cached colour classes.  Each of its blocks passes
    the one order and range check (`hypergraph._columns`)."""
    checked = []
    original = hypergraph._columns

    def counting(verts, k, n):
        checked.append(len(verts) // k)
        return original(verts, k, n)

    monkeypatch.setattr(hypergraph, "_columns", counting)
    monkeypatch.setattr(hypergraph, "BLOCK", block)
    for kind, k, n, i in BLOCK_CASES:
        checked.clear()
        ch, spec = split_coloring(k, n) if kind == "split" else parity_coloring(k, n, i)
        m, x = comb(spec.N, k), len(spec.X)
        assert checked == [block] * (m // block) + [m % block] and len(checked) >= 4
        red = [j > 0 if kind == "split" else j % 2 == 0 for j in range(k + 1)]
        ref = build(k, spec.N, [(Colour.RED if red[_meets(e, x)] else Colour.BLUE, e)
                                for e in itertools.combinations(range(1, spec.N + 1), k)])
        assert ch.graph == ref.graph and ch.colour == ref.colour
        assert ch.graph.sorted_edges == ref.graph.sorted_edges
        assert vars(ch)["_classes"] == vars(ref)["_classes"]


@pytest.mark.parametrize("kind", ["split", "parity"])
def test_verifier_rejects_an_x_that_is_not_a_prefix(kind):
    """The verifier reads |e ∩ X| as where |X| falls in the sorted edge,
    which needs X = [|X|]; any other X is named in a ValueError."""
    ch, spec = split_coloring(4, 2) if kind == "split" else parity_coloring(3, 2, 1)
    shifted = dataclasses.replace(spec, X=tuple(v + 1 for v in spec.X))
    with pytest.raises(ValueError, match=re.escape(f"X = {shifted.X} ")):
        verify_no_mono_cycle(ch, shifted)


@pytest.mark.parametrize("flip,edge", [("red", (1, 2, 3, 4)), ("blue", (2, 3, 4, 5))])
def test_split_rule_violation_raises_and_names_the_edge(flip, edge):
    """A red edge that meets X turned blue, or a blue edge inside Y turned
    red, breaks the split rule."""
    ch, spec = split_coloring(4, 2)
    assert ch.colour[edge] is (Colour.RED if flip == "red" else Colour.BLUE)
    colour = dict(ch.colour)
    colour[edge] = colour[edge].opposite
    broken = build(4, spec.N, [(c, e) for e, c in sorted(colour.items())])
    with pytest.raises(ProfileNotConstant, match=re.escape(str(edge))):
        verify_no_mono_cycle(broken, spec)


def _assert_records_match_oracle(ch, spec):
    """Every certificate record equals the oracle's.  A record the oracle
    leaves to the cycle search is blocked by an exhaustive search or, as
    the last record, carries a verified witness."""
    cert = verify_no_mono_cycle(ch, spec)
    letters = {e: c.value for e, c in ch.colour.items()}
    expected = parity_certificate_brute(letters, spec.X, spec.N, spec.k, spec.length)
    details = list(cert.details)
    assert len(details) == len(expected) if cert.ok else len(details) <= len(expected)
    comps = monochromatic_components(ch).components
    for record, want in zip(details, expected):
        record = dict(record)
        if want["blocked_by"] is None:
            if record.get("blocked_by") == "exhaustive":
                assert record.pop("explored") > 0
            else:
                assert not cert.ok and record == details[-1]
                assert verify_cycle_witness(comps[record["component"]], spec.k, cert.witness)
            record["blocked_by"] = None
        assert record == want
    assert cert.ok == (cert.witness is None)
    return cert


# N = (d + 1)kn/d - 2 with d = gcd(k, i), at most 14
PARITY_CASES = [(k, n, i) for k in (3, 4) for i in range(k) for n in (1, 2, 3)
                if (i, n) != (0, 1) and (gcd(k, i) + 1) * k * n // gcd(k, i) <= 16]


@pytest.mark.parametrize("k,n,i", PARITY_CASES)
def test_parity_certificate_matches_oracle(k, n, i):
    ch, spec = parity_coloring(k, n, i)
    assert spec.N <= 14
    cert = _assert_records_match_oracle(ch, spec)
    assert cert.ok and all(r["r1"] is not None for r in cert.details)


def test_parity_certificate_with_one_flipped_edge_matches_oracle():
    """One edge's colour flipped breaks the rule: a component that mixes
    profiles then gets r1 None and no error.  N <= 10 keeps the cycle
    search that such components fall back to short."""
    mixed = searched = witnessed = 0
    for k, n, i in PARITY_CASES:
        ch, spec = parity_coloring(k, n, i)
        if spec.N > 10:
            continue
        es = ch.graph.sorted_edges
        for e in {es[0], es[len(es) // 2], es[-1]}:
            colour = dict(ch.colour)
            colour[e] = colour[e].opposite
            flipped = build(k, spec.N, [(c, f) for f, c in sorted(colour.items())])
            cert = _assert_records_match_oracle(flipped, spec)
            mixed += any(r["r1"] is None for r in cert.details)
            searched += any(r.get("blocked_by") == "exhaustive" for r in cert.details)
            witnessed += not cert.ok
    # of the 31 flips, 30 leave a mixed component, 21 end a cycle search in
    # absence and 3 in a cycle
    assert (mixed, searched, witnessed) == (30, 21, 3)

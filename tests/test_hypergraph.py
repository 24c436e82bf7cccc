import functools
import itertools
import random
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (assert_lazy_as_eager, complete_kgraph, complete_random_coloured,
                      near_complete_coloured, parse_outcome, rand_coloured)
from oracles import build_reference, degree_brute, edges_within_brute, parse_reference
from tcr import cli, hypergraph
from tcr.blueprint import build_blueprint
from tcr.errors import ConflictingColour, MalformedEdge
from tcr.cli import parse_coloured_hypergraph
from tcr.hypergraph import Colour, build, density_check, edges_within
from tcr.tight import monochromatic_components


def test_build_single_red_edge():
    ch = build(4, 4, [("R", (1, 2, 3, 4))])
    assert ch.graph.m == 1
    assert ch.colour[(1, 2, 3, 4)] is Colour.RED


def test_build_split_instance_counts():
    edges = [("R" if 1 in e else "B", e)
             for e in itertools.combinations(range(1, 9), 4)]
    ch = build(4, 8, edges)
    assert ch.graph.m == 70
    assert len(ch.edges_of(Colour.RED)) == 35   # C(8,4) - C(7,4)
    assert len(ch.edges_of(Colour.BLUE)) == 35


def test_build_rejects_out_of_range_vertex():
    with pytest.raises(MalformedEdge):
        build(4, 4, [("R", (1, 2, 3, 5))])


def test_build_rejects_wrong_arity_and_duplicates():
    with pytest.raises(MalformedEdge):
        build(4, 6, [("R", (1, 2, 3))])
    with pytest.raises(MalformedEdge):
        build(4, 6, [("R", (1, 2, 3, 3))])


@pytest.mark.parametrize("edge, vertex", [((True, 2, 3, 4), "True"),
                                          ((1, 2.0, 3, 4), "2.0")])
def test_build_rejects_bool_and_float_vertices(edge, vertex):
    """A bool is an int to isinstance, but serialize would write it as
    "True", which the parser rejects; a float is no vertex either."""
    with pytest.raises(MalformedEdge, match=f"non-integer vertex {vertex}$"):
        build(4, 5, [("R", edge)])
    with pytest.raises(MalformedEdge, match=f"non-integer vertex {vertex}$"):
        hypergraph.canon_edge(edge, 4, 5)


def test_build_takes_pairs_that_are_not_tuples():
    """A block holding a pair that is not a 2-tuple goes through the
    per-edge loop, which sorts each edge."""
    listed = build(4, 6, [["R", [4, 3, 2, 1]], ("B", (2, 3, 4, 5))])
    plain = build(4, 6, [("R", (1, 2, 3, 4)), ("B", (2, 3, 4, 5))])
    assert listed.colour == plain.colour
    assert listed.graph.sorted_edges == plain.graph.sorted_edges


def test_build_rejects_conflicting_colour():
    with pytest.raises(ConflictingColour):
        build(4, 5, [("R", (1, 2, 3, 4)), ("B", (4, 3, 2, 1))])
    # agreeing duplicate is fine
    ch = build(4, 5, [("R", (1, 2, 3, 4)), ("R", (1, 2, 3, 4))])
    assert ch.graph.m == 1


def build_mix(rng):
    """Seeded (colour, edge) pairs for `build`: letters, Colour members or
    both; the edges in random or canonical order, some unsorted, as lists,
    or with a bool or float vertex;
    repeats with their colour, and at most one fault (a conflicting repeat,
    a wrong arity, a vertex out of range or a repeated vertex)."""
    k = rng.randint(2, 4)
    n = rng.randint(k, 9)
    pool = list(itertools.combinations(range(1, n + 1), k))
    colours = rng.choice([["R", "B"], [Colour.RED, Colour.BLUE], ["R", "B", Colour.RED, Colour.BLUE]])
    odd = rng.choice(["none", "none", "unsorted", "bool", "float", "list"])
    pairs = []
    sample = rng.sample(pool, rng.randint(1, min(len(pool), 40)))
    if rng.random() < 0.3:   # canonical order, as in a file that serialize wrote
        sample.sort()
    for e in sample:
        verts = list(e)
        if odd == "unsorted" and rng.random() < 0.3:
            rng.shuffle(verts)
        elif odd == "bool" and verts[0] == 1:
            verts[0] = True
        elif odd == "float" and rng.random() < 0.1:
            verts[-1] = float(verts[-1])
        pairs.append((rng.choice(colours), verts if odd == "list" else tuple(verts)))
    for _ in range(rng.choice([0, 0, 1, 3])):   # a repeat with its own colour is accepted
        c, e = rng.choice(pairs)
        pairs.insert(rng.randint(0, len(pairs)), (c, rng.choice([tuple(e), tuple(reversed(e))])))
    fault = rng.choice(["none", "none", "conflict", "arity", "range", "repeated"])
    c, e = rng.choice(pairs)
    if fault == "conflict":
        pairs.insert(rng.randint(0, len(pairs)), (Colour(c).opposite, e))
    elif fault == "arity":
        pairs.insert(rng.randint(0, len(pairs)), (c, tuple(e)[:-1]))
    elif fault == "range":
        pairs.insert(rng.randint(0, len(pairs)), (c, (*tuple(e)[:-1], n + 1)))
    elif fault == "repeated":
        pairs.insert(rng.randint(0, len(pairs)), (c, (*tuple(e)[:-1], e[0])))
    return k, n, pairs


def build_outcome(build_fn, k, n, pairs):
    try:
        CH = build_fn(k, n, iter(pairs))
    except Exception as exc:   # the class and message are compared, not caught
        return type(exc), str(exc)
    return (CH.graph, CH.colour, CH.graph.sorted_edges,
            CH.edges_of(Colour.RED), CH.edges_of(Colour.BLUE))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 12))
def test_build_agrees_with_per_edge_reference(seed, block):
    """On seeded mixes read in blocks of 1 to 12 pairs, `build` gives the
    per-edge loop's graph and colour classes, or its error class and
    message; a conflict or fault may sit in any block.  The graph's swap is
    the reference's, and a graph built lazily from canonical input acts as
    the reference's."""
    k, n, pairs = build_mix(random.Random(seed))
    expected = build_outcome(build_reference, k, n, pairs)
    with mock.patch.object(hypergraph, "BLOCK", block):
        assert build_outcome(build, k, n, pairs) == expected
        if isinstance(expected[0], hypergraph.KGraph):
            reference = build_reference(k, n, pairs)
            assert build(k, n, pairs).swapped() == reference.swapped()
            fresh = functools.partial(build, k, n, pairs)
            if "colour" not in vars(fresh()):   # canonical input: built lazily
                assert_lazy_as_eager(fresh, reference)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_build_conflict_across_a_full_size_block_boundary(tmp_path, capsys, offset):
    """A repeat of an edge of the first block, at the end of that block of
    BLOCK pairs or in the next one, as pairs and as the lines of a tcg file
    (whose blocks of BLOCK lines break at the same edge): in the other
    colour it is found and named as the per-edge loop and the reference
    parser name it, and `tcr` exits 2; in its own colour it is tolerated."""
    edges = list(itertools.combinations(range(1, 21), 4))[:hypergraph.BLOCK + 10]
    pairs = [("R" if sum(e) % 3 else "B", e) for e in edges]
    for letter in ("B" if pairs[5][0] == "R" else "R", pairs[5][0]):
        repeated = [*pairs]
        repeated.insert(hypergraph.BLOCK + offset, (letter, pairs[5][1]))
        conflict = letter != pairs[5][0]
        expected = build_outcome(build_reference, 4, 20, repeated)
        assert (expected[0] is ConflictingColour) is conflict
        assert build_outcome(build, 4, 20, repeated) == expected
        text = "tcg 1\nk=4 n=20\n" + "".join(c + " " + " ".join(map(str, e)) + "\n"
                                            for c, e in repeated)
        expected = parse_outcome(parse_reference, text)
        assert (expected[0] is ConflictingColour) is conflict
        assert parse_outcome(parse_coloured_hypergraph, text) == expected
        (tmp_path / "repeat.tcg").write_text(text, encoding="utf-8")
        assert cli.run(["components", "--in", str(tmp_path / "repeat.tcg")]) == (
            cli.EXIT_CONTRACT if conflict else cli.EXIT_OK)
        capsys.readouterr()
    clean = build_outcome(build, 4, 20, pairs[:hypergraph.BLOCK + offset])
    assert clean == build_outcome(build_reference, 4, 20, pairs[:hypergraph.BLOCK + offset])


CANON = [("R" if sum(e) % 3 else "B", e) for e in itertools.combinations(range(1, 9), 4)][:12]

# CANON's edges in the order given, read in blocks of four, and the position
# of the repeat that may take the other colour; each second block is
# strictly increasing and starts after the first block's last edge
CHAIN_CASES = {
    # a repeat of the first block's last edge
    "boundary": ([0, 1, 2, 3, 3, *range(4, 12)], 4),
    # of a middle edge, though it comes after the first block's first edge
    "middle": ([0, 1, 2, 3, 1, *range(4, 12)], 4),
    # of an edge of a first block that is out of order but repeats nothing
    "after_unordered_block": ([5, 0, 1, 2, 3, 4, 5, *range(6, 12)], 6),
    # of an edge of a first block that repeats an edge in its own colour
    "after_scanned_block": ([0, 5, 1, 1, 2, 3, 4, 5, *range(6, 12)], 7),
}


@pytest.mark.parametrize("same", [True, False])
@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_repeats_that_end_the_canonical_prefix(case, same):
    """A block that is strictly increasing and starts after the last edge
    of the canonical prefix is added without repeat tests; every other
    block ends the prefix.  So a repeat is caught wherever it sits: as the
    first edge after a block boundary, of the previous block's last or a
    middle edge, or of an edge of an earlier block that was out of order or
    held a repeat.  In its own colour it is tolerated and the graph is
    CANON's; in the other colour `build` and the parser raise
    ConflictingColour, as the per-edge loop and the reference parser do."""
    order, flipped = CHAIN_CASES[case]
    pairs = [CANON[i] for i in order]
    if not same:
        c, e = pairs[flipped]
        pairs[flipped] = (Colour(c).opposite.value, e)
    text = "tcg 1\nk=4 n=8\n" + "".join(c + " " + " ".join(map(str, e)) + "\n"
                                        for c, e in pairs)
    expected = build_outcome(build_reference, 4, 8, pairs)
    expected_text = parse_outcome(parse_reference, text)
    if same:
        assert expected == build_outcome(build_reference, 4, 8, CANON)
    else:
        assert expected[0] is expected_text[0] is ConflictingColour
    with mock.patch.object(hypergraph, "BLOCK", 4):
        assert build_outcome(build, 4, 8, pairs) == expected
        assert parse_outcome(parse_coloured_hypergraph, text) == expected_text


def test_blocks_after_leaving_canonical_order_are_not_flattened(monkeypatch):
    """Once a block leaves canonical order, later blocks go edge by edge, so
    neither `build` (`_flattened`) nor the tcg parser (`_block_tokens`)
    prepares them for the whole-block path: of three blocks of four, with
    the second out of order, only the first two are prepared."""
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    pairs = [*CANON[:4], CANON[5], CANON[4], *CANON[6:]]
    text = "tcg 1\nk=4 n=8\n" + "".join(c + " " + " ".join(map(str, e)) + "\n"
                                        for c, e in pairs)
    expected = build_outcome(build_reference, 4, 8, CANON)
    expected_text = parse_outcome(parse_reference, text)
    monkeypatch.setattr(hypergraph, "_flattened", counting(hypergraph._flattened))
    monkeypatch.setattr(cli, "_block_tokens", counting(cli._block_tokens))
    monkeypatch.setattr(hypergraph, "BLOCK", 4)
    assert build_outcome(build, 4, 8, pairs) == expected
    assert calls == ["_flattened"] * 2
    calls.clear()
    assert parse_outcome(parse_coloured_hypergraph, text) == expected_text
    assert calls == ["_block_tokens"] * 2


def test_a_scanned_block_in_canonical_order_leaves_later_blocks_whole(monkeypatch):
    """A comment line in a tcg file's first block, or a list edge in the
    first block of library pairs, sends that block through the per-edge
    loop; it keeps canonical order, so every later block is added whole.
    Once a block leaves canonical order, every later block goes through the
    per-edge loop.  The graphs and colour classes are the plain input's."""
    calls = []
    original = hypergraph._add_each

    def counting(edges, red, blue, colour, pairs, k, n):
        calls.append(colour is None)   # the input still in canonical order
        return original(edges, red, blue, colour, pairs, k, n)

    monkeypatch.setattr(hypergraph, "_add_each", counting)
    monkeypatch.setattr(hypergraph, "BLOCK", 4)
    head = "tcg 1\nk=4 n=8\n"
    lines = [c + " " + " ".join(map(str, e)) + "\n" for c, e in CANON]
    expected = parse_outcome(parse_reference, head + "".join(lines))
    assert parse_outcome(parse_coloured_hypergraph, head + "# a comment\n" + "".join(lines)) \
        == expected
    assert calls == [True]
    calls.clear()
    pairs = [(CANON[0][0], list(CANON[0][1])), *CANON[1:]]
    assert build_outcome(build, 4, 8, pairs) == build_outcome(build_reference, 4, 8, CANON)
    assert calls == [True]
    calls.clear()
    swapped = [lines[1], lines[0], *lines[2:]]
    assert parse_outcome(parse_coloured_hypergraph, head + "".join(swapped)) == expected
    assert calls == [True, False, False]   # twelve body lines: three blocks of four


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_degree_double_counting(seed):
    """sum over i-sets of d(S) = C(k, i) * |E|."""
    rng = random.Random(seed)
    ch = rand_coloured(4, 7, rng.randint(0, 20), rng)
    h = ch.graph
    for i in (1, 2, 3):
        total = sum(degree_brute(h.edges, s)
                    for s in itertools.combinations(range(1, 8), i))
        assert total == comb(4, i) * h.m


@pytest.mark.parametrize("k,n", [(k, n) for k in (2, 3, 4, 5)
                                 for n in range(k, 13)])
def test_complete_graphs_are_perfectly_dense(k, n):
    assert density_check(complete_kgraph(k, n), 1, 0)


def test_density_complete_minus_edge_fails():
    h = complete_kgraph(4, 8)
    h2 = type(h)(4, 8, h.edges - {(1, 2, 3, 4)})
    assert not density_check(h2, 1, 0)


def test_density_allows_zero_degree_sets_up_to_alpha_but_no_low_positive_degree():
    """K_7^(4) inside [8]: the i-sets that meet vertex 8 have degree 0, 1 of
    8 singletons, 7 of 28 pairs and 21 of 56 triples, so at mu = 1/2, where
    every other i-set meets its threshold (20 >= 35/2, 10 >= 15/2,
    4 >= 5/2), the graph is dense exactly when alpha >= 3/8.  At mu = 1 the
    sets inside [7] have positive degree below C(8-i, 4-i), which no alpha
    allows; nor does alpha = 1 allow K_8^(4) minus an edge at mu = 1."""
    h = complete_kgraph(4, 7)
    h = type(h)(4, 8, h.edges)
    assert density_check(h, Fraction(1, 2), Fraction(3, 8))
    assert not density_check(h, Fraction(1, 2), Fraction(3, 8) - Fraction(1, 1000))
    assert not density_check(h, 1, 1)
    k8 = complete_kgraph(4, 8)
    assert not density_check(type(k8)(4, 8, k8.edges - {(1, 2, 3, 4)}), 1, 1)


def test_density_near_complete_passes_small_eps():
    rng = random.Random(3)
    ch = near_complete_coloured(4, 10, rng, deletions=2)
    assert density_check(ch.graph, Fraction(3, 4), Fraction(1, 4))


def _edges_within_hosts(rng):
    """(name, host edges, k, n): sparse and complete 4-graphs, every
    monochromatic component of a random colouring, and a blueprint 2-graph."""
    sparse = rand_coloured(4, 12, 60, rng)
    ch = complete_random_coloured(4, 10, rng)
    decomp = monochromatic_components(ch)
    bp = build_blueprint(ch, Fraction(1, 20)).blueprint
    return ([("sparse", sparse.graph.edges, 4, 12), ("complete", ch.graph.edges, 4, 10)]
            + [(f"component {cid}", comp, 4, 10) for cid, comp in enumerate(decomp.components)]
            + [("blueprint", bp.assign, 2, 10)])


@pytest.mark.parametrize("seed", range(4))
def test_edges_within_matches_scan_oracle(seed):
    """The k-subset enumeration returns the same edges, in canonical order,
    as a full scan of the host, for vertex sets of every size."""
    rng = random.Random(seed)
    for name, host, k, n in _edges_within_hosts(rng):
        for size in (0, 3, k, 7, n):
            vertices = rng.sample(range(1, n + 1), size)
            got = edges_within(host, vertices, k)
            assert got == edges_within_brute(host, vertices), (name, vertices)
            assert got == sorted(set(got))

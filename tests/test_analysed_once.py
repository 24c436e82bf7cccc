"""Each coloured graph is analysed once.

The blueprint builder and checker, the growth engine and the CLI handlers
share one monochromatic decomposition per graph object, so no colour class
of one graph is decomposed twice.  `tight._component_sets` is counted per
(graph object, edge list): a count above 1 means some consumer recomputed
the analysis instead of sharing it.  Likewise each block of edges gets one
order and range check between the tcg text and the graph, and no
decomposition caches a map over its edges: a consumer reads a few edges'
ids from the bucket maps or tests membership in one component, and a
component's frozenset is built only when a consumer tests membership in
it.  A graph built from canonical input builds its edge set and colour
dict only when something reads them.
"""
import itertools
import json
import random
import sys
from collections import Counter
from dataclasses import fields

import pytest

from conftest import threshold_colouring
from tcr import hypergraph, tight
from tcr.augment import DriverParams, run_driver
from tcr.cli import parse_coloured_hypergraph, run, serialize_coloured_hypergraph
from tcr.extremal import split_coloring
from tcr.hypergraph import Colour, build


@pytest.fixture
def decompositions(monkeypatch):
    """Counter of (graph id, colour class) over the calls made by
    monochromatic_components, which names its graph CH."""
    calls, graphs = Counter(), []
    original = tight._component_sets

    def counting(edges):
        edges = tuple(edges)
        graph = sys._getframe(1).f_locals.get("CH")
        if graph is not None:
            graphs.append(graph)   # keeps every id distinct while counting
            calls[id(graph), edges] += 1
        return original(edges)

    monkeypatch.setattr(tight, "_component_sets", counting)
    return calls


@pytest.mark.parametrize("argv", [["blueprint", "check", "--eps", "1/20", "--in", "split13.tcg"],
                                  ["augment", "--seed", "7", "--in", "split13.tcg"],
                                  ["driver", "--seed", "7", "--in", "split13.tcg"],
                                  ["augment", "--seed", "7", "--in", "swapped24.tcg"],
                                  ["driver", "--seed", "7", "--in", "swapped24.tcg"]])
def test_cli_decomposes_each_colour_class_once(tmp_path, monkeypatch, capsys,
                                               decompositions, argv):
    make = {"split13.tcg": lambda: split_coloring(4, 3)[0], "swapped24.tcg": lambda: threshold_colouring(24, 3)}
    name = argv[-1]
    (tmp_path / name).write_text(serialize_coloured_hypergraph(make[name]()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    capsys.readouterr()
    assert len(decompositions) == 2   # the red and the blue class
    assert set(decompositions.values()) == {1}


def test_run_driver_decomposes_each_colour_class_once(decompositions):
    CH = split_coloring(4, 3)[0]
    run_driver(CH, DriverParams(), 7)
    run_driver(CH, DriverParams(), 8)
    assert len(decompositions) == 2
    assert set(decompositions.values()) == {1}


def test_swapped_graph_reuses_the_analysis(decompositions):
    """A blue spanning component makes run_driver work on CH.swapped(),
    which carries CH's decomposition and colour classes across instead of
    recomputing them; the classes are those of a fresh build."""
    CH = threshold_colouring(24, 3)
    rep = run_driver(CH, DriverParams(), 7)
    assert rep.colour_swapped
    assert len(decompositions) == 2
    assert set(decompositions.values()) == {1}
    swapped = CH.swapped()
    fresh = build(CH.k, CH.n, [(c, e) for e, c in swapped.colour.items()])
    for colour in Colour:
        assert swapped.edges_of(colour) is CH.edges_of(colour.opposite)
        assert swapped.edges_of(colour) == fresh.edges_of(colour)


def test_each_block_gets_one_order_and_range_check(monkeypatch):
    """A two-block tcg text and two blocks of library pairs each run the one
    block check (`hypergraph._columns`) once per block."""
    checked = []
    original = hypergraph._columns

    def counting(verts, k, n):
        checked.append(len(verts) // k)
        return original(verts, k, n)

    monkeypatch.setattr(hypergraph, "_columns", counting)
    edges = list(itertools.combinations(range(1, 21), 4))[:hypergraph.BLOCK + 5]
    text = "tcg 1\nk=4 n=20\n" + "".join("R " + " ".join(map(str, e)) + "\n" for e in edges)
    assert parse_coloured_hypergraph(text).graph.m == len(edges)
    assert checked == [hypergraph.BLOCK, 5]
    checked.clear()
    build(4, 20, [("B", e) for e in edges[:hypergraph.BLOCK + 3]])
    assert checked == [hypergraph.BLOCK, 3]


@pytest.fixture
def decompositions_made(monkeypatch):
    """Every decomposition made, by an analysis or by a colour swap."""
    made = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            made.append(fn(*args, **kwargs))
            return made[-1]
        return wrapper

    monkeypatch.setattr(tight, "_decomposition", recording(tight._decomposition))
    monkeypatch.setattr(tight.TightDecomposition, "swapped",
                        recording(tight.TightDecomposition.swapped))
    return made


@pytest.mark.parametrize("argv", [["driver", "--seed", "7", "--in", "swapped24.tcg"],
                                  ["extremal", "parity", "--k", "4", "--n", "7", "--i", "2",
                                   "--verify"],
                                  ["driver", "--seed", "7", "--in", "split13.tcg"]])
def test_membership_only_runs_build_no_component_map(tmp_path, monkeypatch, capsys,
                                                     decompositions_made, argv):
    """Driver runs that reach their target at iteration 0 (one on the
    swapped frame; on the split colouring through `compute_B_W` in the
    initial matching's blue case) and extremal --verify read component ids
    from the bucket maps or test edges for membership in one component, so
    no decomposition caches anything beyond its fields and the pair shadow
    masks: no edge -> id map (`component_of`) in particular."""
    for name, CH in (("swapped24.tcg", threshold_colouring(24, 3)),
                     ("split13.tcg", split_coloring(4, 3)[0])):
        (tmp_path / name).write_text(serialize_coloured_hypergraph(CH), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    swapped = "swapped24.tcg" in argv
    if argv[0] == "driver":
        assert (result["status"], result["iterations"], result["colour_swapped"]) == (
            "reached", 0, swapped)
    assert len(decompositions_made) == (2 if swapped else 1)
    for d in decompositions_made:
        assert set(vars(d)) <= {f.name for f in fields(d)} | {"_masks"}


def built_sets(decomps) -> list:
    """(decomposition index, component id) of every component frozenset
    built, once per set: a colour swap shares its cells with the original."""
    seen, out = set(), []
    for i, d in enumerate(decomps):
        for cid, cell in enumerate(d.components._cells):
            if cell[0] is not None and id(cell) not in seen:
                seen.add(id(cell))
                out.append((i, cid))
    return out


@pytest.mark.parametrize("argv", [["extremal", "parity", "--k", "4", "--n", "7", "--i", "2",
                                   "--verify"],
                                  ["extremal", "parity", "--k", "3", "--n", "4", "--i", "1",
                                   "--verify"]])
def test_extremal_verify_builds_no_component_set(capsys, decompositions_made, argv):
    """The verifier reads each component's canonical tuple only."""
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["certificate"]["ok"] is True
    assert len(decompositions_made) == 1
    assert built_sets(decompositions_made) == []


def test_run_driver_builds_only_the_spanning_red_set(decompositions_made):
    """A driver run on a random complete colouring that reaches its target
    at once tests membership in one component, the spanning red one."""
    rng = random.Random(4)
    CH = build(4, 12, [(rng.choice("RB"), e) for e in itertools.combinations(range(1, 13), 4)])
    rep = run_driver(CH, DriverParams(), 7)
    assert (rep.status, rep.iterations, rep.colour_swapped) == ("reached", 0, False)
    assert len(decompositions_made) == 1
    (d,) = decompositions_made
    assert built_sets(decompositions_made) == [(0, rep.final_component)]
    assert d.colour(rep.final_component) is Colour.RED
    assert len(d.support(rep.final_component)) == 12


@pytest.fixture
def lazy_graphs(monkeypatch):
    """Every graph and coloured graph made without its per-edge hash tables
    (by `build` from canonical input, or by a colour swap)."""
    made = []
    original = hypergraph._made

    def recording(cls, **fields):
        made.append(original(cls, **fields))
        return made[-1]

    monkeypatch.setattr(hypergraph, "_made", recording)
    return made


def hash_tables(graphs) -> list:
    """The edge sets and colour dicts built on the graphs so far."""
    return [name for g in graphs for name in ("edges", "colour") if name in vars(g)]


@pytest.mark.parametrize("argv", [["extremal", "parity", "--k", "4", "--n", "7", "--i", "2",
                                   "--verify"],
                                  ["components", "--in", "split13.tcg"]])
def test_counting_runs_build_no_hash_table(tmp_path, monkeypatch, capsys, lazy_graphs, argv):
    """`extremal --verify` counts the edges and reads the colour classes,
    and `components` decomposes the sorted edges, so neither builds the
    colour dict or the edge set."""
    CH = split_coloring(4, 3)[0]
    (tmp_path / "split13.tcg").write_text(serialize_coloured_hypergraph(CH), encoding="utf-8")
    components = len(tight.tight_components(CH.graph)._sorted)
    monkeypatch.chdir(tmp_path)
    lazy_graphs.clear()
    assert run(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    if argv[0] == "extremal":
        assert result["certificate"]["ok"] is True and result["N"] == 40
    else:
        assert result["count"] == components
    assert [type(g).__name__ for g in lazy_graphs] == ["KGraph", "ColouredKGraph"]
    assert hash_tables(lazy_graphs) == []


@pytest.mark.parametrize("name", ["random12.tcg", "swapped24.tcg"])
def test_driver_reaching_its_target_builds_no_colour_dict(tmp_path, monkeypatch, capsys,
                                                          lazy_graphs, name):
    """A driver run that reaches its target at iteration 0, on the input or
    on its colour swap, reads no edge's colour through the dict: only
    `validate_fractional`'s host check builds the one edge set."""
    rng = random.Random(4)
    make = {"random12.tcg": lambda: build(4, 12, [(rng.choice("RB"), e) for e in
                                                  itertools.combinations(range(1, 13), 4)]),
            "swapped24.tcg": lambda: threshold_colouring(24, 3)}
    (tmp_path / name).write_text(serialize_coloured_hypergraph(make[name]()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lazy_graphs.clear()
    assert run(["driver", "--seed", "7", "--in", name]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["status"], result["iterations"], result["colour_swapped"]) == (
        "reached", 0, name == "swapped24.tcg")
    assert len(lazy_graphs) == (3 if result["colour_swapped"] else 2)
    assert hash_tables(lazy_graphs) == ["edges"]


def test_swapped_builds_no_hash_table(lazy_graphs):
    """A colour swap of a lazily built graph carries its edge tuple and
    classes across, building neither table on either graph."""
    CH = split_coloring(4, 3)[0]
    swapped = CH.swapped()
    assert swapped.graph is CH.graph
    assert [type(g).__name__ for g in lazy_graphs] == ["KGraph"] + ["ColouredKGraph"] * 2
    assert hash_tables(lazy_graphs) == []
    assert swapped.edges_of(Colour.RED) is CH.edges_of(Colour.BLUE)

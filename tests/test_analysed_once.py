"""Each coloured graph is analysed once.

The blueprint builder and checker, the growth engine and the CLI handlers
share one monochromatic decomposition per graph object, so no colour class
of one graph is decomposed twice.  `tight._component_sets` is counted per
(graph object, edge list): a count above 1 means some consumer recomputed
the analysis instead of sharing it.
"""
import sys
from collections import Counter

import pytest

from conftest import threshold_colouring
from tcr import tight
from tcr.augment import DriverParams, run_driver
from tcr.cli import run, serialize_coloured_hypergraph
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

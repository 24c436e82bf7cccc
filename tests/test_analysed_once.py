"""Each coloured graph is analysed once.

The blueprint builder and checker, the growth engine and the CLI handlers
share one monochromatic decomposition per graph object, so no colour class
of one graph is decomposed twice.  `tight._component_sets` is counted per
(graph object, edge list): a count above 1 means some consumer recomputed
the analysis instead of sharing it.
"""
import itertools
import sys
from collections import Counter

import pytest

from tcr import tight
from tcr.augment import DriverParams, run_driver
from tcr.cli import run, serialize_coloured_hypergraph
from tcr.extremal import split_coloring
from tcr.hypergraph import build


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


@pytest.mark.parametrize("argv", [["blueprint", "check", "--eps", "1/20"],
                                  ["augment", "--seed", "7"],
                                  ["driver", "--seed", "7"]])
def test_cli_decomposes_each_colour_class_once(tmp_path, capsys, decompositions, argv):
    path = tmp_path / "split13.tcg"
    path.write_text(serialize_coloured_hypergraph(split_coloring(4, 3)[0]), encoding="utf-8")
    assert run(argv + ["--in", str(path)]) == 0
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
    which carries CH's decomposition across instead of recomputing it."""
    CH = build(4, 24, [("R" if sum(v <= 12 for v in e) >= 3 else "B", e)
                       for e in itertools.combinations(range(1, 25), 4)])
    rep = run_driver(CH, DriverParams(), 7)
    assert rep.colour_swapped
    assert len(decompositions) == 2
    assert set(decompositions.values()) == {1}

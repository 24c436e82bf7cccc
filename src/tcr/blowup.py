"""r-blow-ups: each vertex becomes a class of r clones, each edge the
complete k-partite graph on its classes.

Blown vertices are numbered in class-major order (clones of base vertex x
are r(x-1)+1 .. rx), so every blow-up is reproducible.  The growth engine
replaces the paper's iterated blow-ups with exact fractional weights on the
base graph, so the library only builds blow-ups (for `tcr blowup`); the
conversions between blown matchings and 1/r-fractional matchings that
cross-check the two views live with the tests.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SizeCapExceeded
from .hypergraph import ColouredKGraph, KGraph

DEFAULT_EDGE_CAP = 250_000


@dataclass(frozen=True)
class BlowUpMap:
    """Bookkeeping linking a base coloured graph to its blow-up."""

    base: ColouredKGraph
    r: int
    classes: dict        # base vertex -> tuple of blown vertices
    vertex_class: dict   # blown vertex -> base vertex


def blow_up(CH: ColouredKGraph, r: int):
    """The r-blow-up of a coloured graph; colours are inherited from bases."""
    if r < 1:
        raise ValueError(f"r = {r} < 1")
    k = CH.k
    total = CH.graph.m * r ** k
    if total > DEFAULT_EDGE_CAP:
        raise SizeCapExceeded(f"blow-up would have {total} edges > cap {DEFAULT_EDGE_CAP}")
    classes = {x: tuple(range(r * (x - 1) + 1, r * x + 1)) for x in range(1, CH.n + 1)}
    vertex_class = {y: x for x, ys in classes.items() for y in ys}
    colour = {}
    for e in CH.graph.sorted_edges:
        c = CH.colour[e]
        for combo in itertools.product(*(classes[x] for x in e)):
            colour[tuple(sorted(combo))] = c
    blown = ColouredKGraph(KGraph(k, CH.n * r, frozenset(colour)), colour)
    return blown, BlowUpMap(CH, r, classes, vertex_class)

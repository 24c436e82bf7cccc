"""r-blow-ups: each vertex becomes a class of r clones, each edge the
complete k-partite graph on its classes.

Blown vertices are numbered in class-major order (clones of base vertex x
are r(x-1)+1 .. rx), so every construction here is reproducible.  The edge
projection recovers the unique base edge of a class-transversal blown edge,
and the two conversion directions between matchings in the blow-up and
1/r-fractional matchings in the base are exact inverses on weights.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DenominatorMismatch, MixedComponents, NotAMatching, NotPartite,
                     SizeCapExceeded, UnknownEdge)
from .hypergraph import ColouredKGraph, KGraph
from .matchings import FractionalMatching, validate_fractional
from .tight import monochromatic_components

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


def project_edge(bmap: BlowUpMap, e_star):
    """f(e*): the base edge whose classes the blown edge traverses."""
    e_star = tuple(sorted(e_star))
    bases = [bmap.vertex_class.get(y) for y in e_star]
    if any(b is None for b in bases):
        raise UnknownEdge(f"{e_star} uses vertices outside the blow-up")
    if len(set(bases)) != len(bases):
        raise NotPartite(f"{e_star} has two vertices in one class")
    base_edge = tuple(sorted(bases))
    if base_edge not in bmap.base.graph.edges:
        raise UnknownEdge(f"projection {base_edge} is not a base edge")
    return base_edge


def matching_to_fractional(bmap: BlowUpMap, m_star) -> FractionalMatching:
    """A matching in one monochromatic blown component becomes a
    1/r-fractional matching of weight |M|/r in the corresponding base
    component, with the same colour."""
    edges = [tuple(sorted(e)) for e in m_star]
    used = set()
    for e in edges:
        if used.intersection(e):
            raise NotAMatching(f"edges overlap at {sorted(used.intersection(e))}")
        used.update(e)
    decomp = monochromatic_components(bmap.base)
    counts = {}
    comp_ids = set()
    for e in edges:
        f = project_edge(bmap, e)
        counts[f] = counts.get(f, 0) + 1
        comp_ids.add(decomp.component_of[f])
    if len(comp_ids) > 1:
        raise MixedComponents(f"projections span components {sorted(comp_ids)}")
    if not edges:
        return FractionalMatching(frozenset(), {})
    cid = comp_ids.pop()
    host = decomp.edges_of(cid)
    weights = {f: Fraction(c, bmap.r) for f, c in sorted(counts.items())}
    phi = FractionalMatching(host, weights, decomp.colour(cid), cid)
    ok, violation = validate_fractional(bmap.base, phi)
    if not ok:
        raise NotAMatching(f"converted weighting invalid: {violation}")
    return phi


def fractional_to_matching(bmap: BlowUpMap, phi: FractionalMatching) -> tuple:
    """A 1/r-fractional matching in the base becomes a matching of size
    weight*r in the blow-up.

    For each base vertex x the classes are carved into disjoint runs of
    r*phi(e) clones per incident support edge (possible because the loads
    are at most 1), and each support edge contributes the diagonal perfect
    matching of its runs.
    """
    r = bmap.r
    for e, w in phi.weights.items():
        if (w * r).denominator != 1:
            raise DenominatorMismatch(f"weight {w} on {e} is not a multiple of 1/{r}")
    ok, violation = validate_fractional(bmap.base, phi)
    if not ok:
        raise NotAMatching(f"input weighting invalid: {violation}")
    cursor = {x: 0 for x in bmap.classes}
    matching = []
    for e in sorted(phi.weights):
        count = int(phi.weights[e] * r)
        runs = []
        for x in e:
            start = cursor[x]
            cursor[x] = start + count
            runs.append(bmap.classes[x][start:start + count])
        for i in range(count):
            matching.append(tuple(sorted(run[i] for run in runs)))
    matching.sort()
    return tuple(matching)

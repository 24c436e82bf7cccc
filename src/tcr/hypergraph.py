"""k-uniform hypergraphs on [n] with red/blue edge colourings.

Edges are canonically sorted tuples of distinct vertices in 1..n.  All
structures are immutable after construction.  Every threshold that enters a
verdict is an exact Fraction; no floating point is used anywhere.

Degree thresholds for the density predicate use C(n-i, k-i), the degree a
complete k-graph attains, so that K_n^(k) is (1, 0)-dense at every level.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from .errors import ConflictingColour, MalformedEdge

Edge = tuple  # sorted tuple of ints; alias for readability in signatures


class Colour(Enum):
    RED = "R"
    BLUE = "B"

    @property
    def opposite(self) -> "Colour":
        return Colour.BLUE if self is Colour.RED else Colour.RED


def canon_edge(vertices, k: int, n: int) -> Edge:
    """Sort and validate one edge: k distinct vertices, all in [n]."""
    e = tuple(sorted(vertices))
    if len(e) != k:
        raise MalformedEdge(f"edge {e} has arity {len(e)}, expected {k}")
    prev = 0
    for v in e:
        if not isinstance(v, int) or v <= prev or v > n:
            if isinstance(v, int) and 1 <= v <= n:   # equal to its sorted predecessor
                raise MalformedEdge(f"edge {e}: repeated vertex {v}")
            raise MalformedEdge(f"edge {e}: vertex {v} outside [1, {n}]")
        prev = v
    return e


@dataclass(frozen=True)
class KGraph:
    """A k-uniform hypergraph on vertex set [n]."""

    k: int
    n: int
    edges: frozenset

    @property
    def sorted_edges(self) -> tuple:
        """The edges in canonical order, sorted on first use."""
        out = self.__dict__.get("_sorted")
        if out is None:
            out = tuple(sorted(self.edges))
            object.__setattr__(self, "_sorted", out)
        return out

    @property
    def m(self) -> int:
        return len(self.edges)


def support_of(edges) -> tuple:
    """Sorted tuple of vertices covered by an edge collection."""
    s = set()
    for e in edges:
        s.update(e)
    return tuple(sorted(s))


def edges_within(edges, vertices, k: int) -> list:
    """The members of `edges` (a set-like container of k-edges) inside the
    vertex set, in canonical order.  Enumerates the k-subsets of the set, so the
    cost follows the set, not the size of `edges`."""
    return [e for e in itertools.combinations(sorted(set(vertices)), k) if e in edges]


@dataclass(frozen=True)
class ColouredKGraph:
    """A KGraph together with a total red/blue edge colouring."""

    graph: KGraph
    colour: dict  # Edge -> Colour; total on graph.edges

    @property
    def k(self) -> int:
        return self.graph.k

    @property
    def n(self) -> int:
        return self.graph.n

    def edges_of(self, colour: Colour) -> tuple:
        return tuple(e for e in self.graph.sorted_edges if self.colour[e] is colour)

    def monochromatic_subgraph(self, colour: Colour) -> KGraph:
        return KGraph(self.k, self.n, frozenset(self.edges_of(colour)))

    def swapped(self) -> "ColouredKGraph":
        """The same graph with every edge colour flipped.  A monochromatic
        decomposition already cached on this graph is carried across."""
        out = ColouredKGraph(self.graph, {e: c.opposite for e, c in self.colour.items()})
        decomp = getattr(self, "_components", None)
        if decomp is not None:
            object.__setattr__(out, "_components", decomp.swapped())
        return out


def build(k: int, n: int, coloured_edges) -> ColouredKGraph:
    """Validated construction from (colour, edge) pairs.

    A duplicate edge is tolerated when its colour agrees and rejected
    otherwise.
    """
    if k < 2:
        raise MalformedEdge(f"uniformity {k} < 2")
    if n < k:
        raise MalformedEdge(f"vertex count {n} < uniformity {k}")
    colour = {}
    for c, raw in coloured_edges:
        if isinstance(c, str):
            c = Colour(c)
        e = canon_edge(raw, k, n)
        old = colour.get(e)
        if old is not None and old is not c:
            raise ConflictingColour(f"edge {e} given as both {old.value} and {c.value}")
        colour[e] = c
    graph = KGraph(k, n, frozenset(colour))
    # sorted from input order: linear time for a sorted input such as a tcg file
    object.__setattr__(graph, "_sorted", tuple(sorted(colour)))
    return ColouredKGraph(graph, colour)


@dataclass(frozen=True)
class LevelReport:
    """Classification of the i-sets at one level of the density predicate."""

    i: int
    threshold: Fraction
    meets: int       # degree >= threshold and degree > 0
    zero: int        # degree == 0
    violating: int   # 0 < degree < threshold


@dataclass(frozen=True)
class DensityReport:
    mu: Fraction
    alpha: Fraction
    per_level: tuple  # LevelReport per i in [k-1]
    passed: bool


def density_check(H: KGraph, mu, alpha) -> DensityReport:
    """Decide (mu, alpha)-density exactly.

    Passes iff for every i in [k-1] the i-sets of degree below
    mu * C(n-i, k-i) number at most alpha * C(n, i) and all of them have
    degree exactly 0.
    """
    mu = Fraction(mu)
    alpha = Fraction(alpha)
    if H.m == comb(H.n, H.k) and 0 <= mu <= 1:
        # complete: every i-set has degree exactly C(n-i, k-i)
        levels = tuple(LevelReport(i, mu * comb(H.n - i, H.k - i),
                                   comb(H.n, i), 0, 0) for i in range(1, H.k))
        return DensityReport(mu, alpha, levels, True)
    levels = []
    passed = True
    for i in range(1, H.k):
        threshold = mu * comb(H.n - i, H.k - i)
        degs = {}
        for e in H.edges:
            for s in itertools.combinations(e, i):
                degs[s] = degs.get(s, 0) + 1
        total = comb(H.n, i)
        meets = sum(1 for d in degs.values() if d >= threshold)
        violating = len(degs) - meets
        zero = total - len(degs)
        below = zero if threshold > 0 else 0
        if violating > 0 or below > alpha * total:
            passed = False
        levels.append(LevelReport(i, threshold, meets, zero, violating))
    return DensityReport(mu, alpha, tuple(levels), passed)

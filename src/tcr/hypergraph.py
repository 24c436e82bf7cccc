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
from operator import is_, lt

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
        """The edges of one colour in canonical order: the classes `build`
        cached, or a scan of the sorted edges for a graph made otherwise."""
        classes = self.__dict__.get("_classes")
        if classes is not None:
            return classes[colour]
        return tuple(e for e in self.graph.sorted_edges if self.colour[e] is colour)

    def monochromatic_subgraph(self, colour: Colour) -> KGraph:
        return KGraph(self.k, self.n, frozenset(self.edges_of(colour)))

    def swapped(self) -> "ColouredKGraph":
        """The same graph with every edge colour flipped.  The colour classes
        and a monochromatic decomposition already cached on this graph are
        carried across."""
        out = ColouredKGraph(self.graph, {e: c.opposite for e, c in self.colour.items()})
        classes = self.__dict__.get("_classes")
        if classes is not None:
            object.__setattr__(out, "_classes", {c.opposite: es for c, es in classes.items()})
        decomp = getattr(self, "_components", None)
        if decomp is not None:
            object.__setattr__(out, "_components", decomp.swapped())
        return out


BLOCK = 4096   # (colour, edge) pairs that build checks and adds together
LETTER_COLOUR = {"R": Colour.RED, "B": Colour.BLUE}


def _add_block(colour: dict, block: list, k: int, n: int) -> bool:
    """Add a block of (colour, edge) pairs with a few whole-block checks, or
    add nothing and return False when the per-edge loop must decide it.

    The block passes when every colour is a letter (or every one a Colour),
    every edge is a strictly increasing tuple of k ints in [1, n], and no
    edge repeats, within the block or from an earlier one.  Colours are
    compared by identity, so a Colour is never hashed."""
    if set(map(type, block)) != {tuple} or set(map(len, block)) != {2}:
        return False
    cs, es = zip(*block)
    if cs.count("R") + cs.count("B") == len(cs):
        cs = map(LETTER_COLOUR.__getitem__, cs)
    elif cs.count(Colour.RED) + cs.count(Colour.BLUE) != len(cs):
        return False
    if set(map(type, es)) != {tuple} or set(map(len, es)) != {k}:
        return False
    verts = list(itertools.chain.from_iterable(es))
    if set(map(type, verts)) != {int}:   # bool and float vertices take the loop
        return False
    cols = [verts[j::k] for j in range(k)]
    if (min(cols[0]) < 1 or max(cols[-1]) > n
            or not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))):
        return False
    new = dict(zip(es, cs))
    if len(new) != len(es) or not colour.keys().isdisjoint(new):
        return False
    colour.update(new)
    return True


def build(k: int, n: int, coloured_edges) -> ColouredKGraph:
    """Validated construction from (colour, edge) pairs; a colour is a
    Colour or its letter.

    A duplicate edge is tolerated when its colour agrees and rejected
    otherwise.  The pairs are read in blocks of BLOCK: a block of new,
    canonical edges is checked and added as a whole (`_add_block`), and any
    other block edge by edge, which sorts each edge and raises the first
    fault in input order.  The two colour classes are kept for `edges_of`.
    """
    if k < 2:
        raise MalformedEdge(f"uniformity {k} < 2")
    if n < k:
        raise MalformedEdge(f"vertex count {n} < uniformity {k}")
    colour = {}
    pairs = iter(coloured_edges)
    while block := list(itertools.islice(pairs, BLOCK)):
        if _add_block(colour, block, k, n):
            continue
        for c, raw in block:
            if isinstance(c, str):
                c = Colour(c)
            e = canon_edge(raw, k, n)
            old = colour.get(e)
            if old is not None and old is not c:
                raise ConflictingColour(f"edge {e} given as both {old.value} and {c.value}")
            colour[e] = c
    # sorted from input order: linear time for a sorted input such as a tcg file
    edges = tuple(sorted(colour))
    graph = KGraph(k, n, frozenset(colour))
    object.__setattr__(graph, "_sorted", edges)
    CH = ColouredKGraph(graph, colour)
    cs = list(map(colour.__getitem__, edges))
    object.__setattr__(CH, "_classes", {
        c: tuple(itertools.compress(edges, map(is_, cs, itertools.repeat(c)))) for c in Colour})
    return CH


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

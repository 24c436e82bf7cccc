"""k-uniform hypergraphs on [n] with red/blue edge colourings.

Edges are canonically sorted tuples of distinct vertices in 1..n.  All
structures are immutable after construction.  Every threshold that enters a
verdict is an exact Fraction; no floating point is used anywhere.

`build` is where an edge is checked, for library callers and for the tcg
parser alike, by one fast path and one reference path.  While the input
comes in canonical order, as serialize writes it, a block that passes
`_columns`, the one order and range check of a block of edges, and
continues that order cannot repeat an edge and is added whole.  Any other
block goes through the per-edge loop, and once the input has left
canonical order so does every block after it, so input out of canonical
order is built edge by edge.  Blocks that are already typed reach
`build` through `_Blocks` and skip the type tests of library pairs: the
tcg parser checks only what is textual (header, letters, integers, arity)
and hands over its integers, and `tcr.extremal` hands over the profile
colourings' edges, which `itertools.combinations` makes from a `range`.

Degree thresholds for the density predicate use C(n-i, k-i), the degree a
complete k-graph attains, so that K_n^(k) is (1, 0)-dense at every level.
"""
from __future__ import annotations

import functools
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
    """Sort and validate one edge: k distinct int vertices (not bool), all
    in [n]."""
    e = tuple(sorted(vertices))
    if len(e) != k:
        raise MalformedEdge(f"edge {e} has arity {len(e)}, expected {k}")
    prev = 0
    for v in e:
        if type(v) is not int:
            raise MalformedEdge(f"edge {e}: non-integer vertex {v!r}")
        if v <= prev or v > n:
            if 1 <= v <= n:   # equal to its sorted predecessor
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
    return tuple(sorted(set(itertools.chain.from_iterable(edges))))


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


class _Blocks:
    """A hand-off to `build` of blocks whose types are known: in place of
    (colour, edge) pairs, blocks (flatten, pairs) in the form `build` gives
    library pairs, where flatten() returns (Colours, edges, vertices) as
    `_flattened` does.  The tcg parser's blocks have edges None, which
    `build` makes from the vertex columns, and the profile colourings of
    `tcr.extremal` hand over their edge tuples.  Every block still passes
    `_columns`; a block whose vertices are None, or that is not added
    whole, is added from its pairs (the parser's line scan)."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = blocks


def _columns(verts: list, k: int, n: int):
    """The k vertex columns of a flat list of edges, k vertices each, or
    None unless every edge is strictly increasing within [1, n].

    This is the one order and range check of a block of edges: `build` runs
    it once on each block, whether the block came from library pairs,
    from the tcg parser's integer tokens or from a profile colouring."""
    cols = [verts[j::k] for j in range(k)]
    if cols[0] and (min(cols[0]) < 1 or max(cols[-1]) > n
                    or not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))):
        return None
    return cols


def _flattened(block: list, k: int) -> tuple:
    """(colours, edges, vertices) of a block of library pairs: Colour members,
    the edge tuples and their vertices in one flat list; or three Nones
    unless every colour is a letter (or every one a Colour) and every edge a
    tuple of k ints.  Colours are compared by identity, so a Colour is never
    hashed; bool and float vertices take the per-edge loop."""
    if set(map(type, block)) != {tuple} or set(map(len, block)) != {2}:
        return None, None, None
    cs, es = zip(*block)
    if cs.count("R") + cs.count("B") == len(cs):
        cs = map(LETTER_COLOUR.__getitem__, cs)
    elif cs.count(Colour.RED) + cs.count(Colour.BLUE) != len(cs):
        return None, None, None
    if set(map(type, es)) != {tuple} or set(map(len, es)) != {k}:
        return None, None, None
    verts = list(itertools.chain.from_iterable(es))
    if set(map(type, verts)) != {int}:
        return None, None, None
    return cs, es, verts


def _add_checked(colour: dict, cs, es, verts: list, k: int, n: int, last: tuple):
    """Add a flattened block whole and return its last edge, or add nothing
    and return None.  With `es` None the edges are made from the vertex
    columns.

    `last` is the last edge added (() before the first block).  A block
    that passes the one block check (`_columns`), is strictly increasing
    and starts after `last` cannot repeat an edge, so it is added as it is;
    an empty block adds nothing and returns `last`."""
    cols = _columns(verts, k, n)
    if cols is None:
        return None
    edges = list(zip(*cols)) if es is None else es
    if not edges:
        return last
    if last < edges[0] and all(map(lt, edges, edges[1:])):
        colour.update(zip(edges, cs))
        return edges[-1]
    return None


def _add_each(colour: dict, pairs, k: int, n: int, last):
    """The per-edge loop: sort and check each edge, tolerate a repeat in its
    own colour, and raise the first fault in input order.  Returns the last
    edge while the edges stay strictly increasing after `last`, the last
    edge added before the block (None once the input has left canonical
    order), and None otherwise.  The pairs are read in full first, so a
    fault that their reader raises (the tcg parser's line scan) comes
    before a conflict in the same block."""
    for c, raw in list(pairs):
        if isinstance(c, str):
            c = Colour(c)
        e = canon_edge(raw, k, n)
        old = colour.get(e)
        if old is not None and old is not c:
            raise ConflictingColour(f"edge {e} given as both {old.value} and {c.value}")
        colour[e] = c
        if last is not None:
            last = e if last < e else None
    return last


def build(k: int, n: int, coloured_edges) -> ColouredKGraph:
    """Validated construction from (colour, edge) pairs; a colour is a
    Colour or its letter.

    A duplicate edge is tolerated when its colour agrees and rejected
    otherwise.  The pairs are read in blocks of BLOCK.  While the input
    keeps canonical order, a block of letters or Colours and tuples of ints
    that passes `_columns` (order and range) is added whole
    (`_add_checked`).  Any other block goes edge by edge (`_add_each`),
    which sorts each edge, raises the first fault in input order and tells
    whether the block kept canonical order; once the input has left it,
    every later block goes edge by edge too, and is not flattened.  The
    tcg parser and the profile colourings hand their blocks over through
    `_Blocks`, so their edges get the same one check.
    The two colour classes are kept for `edges_of`; while the input keeps
    canonical order they are read in insertion order, else from the sorted
    edges.
    """
    if k < 2:
        raise MalformedEdge(f"uniformity {k} < 2")
    if n < k:
        raise MalformedEdge(f"vertex count {n} < uniformity {k}")
    if isinstance(coloured_edges, _Blocks):
        blocks = coloured_edges.blocks
    else:
        source = iter(coloured_edges)
        blocks = ((functools.partial(_flattened, block, k), block)
                  for block in iter(lambda: list(itertools.islice(source, BLOCK)), []))
    colour = {}
    last = ()
    for flatten, pairs in blocks:
        added = None
        if last is not None:
            cs, es, verts = flatten()
            if verts is not None:
                added = _add_checked(colour, cs, es, verts, k, n, last)
        last = _add_each(colour, pairs, k, n, last) if added is None else added
    if last is not None:
        edges = tuple(colour)
        cs = colour.values()
    else:
        edges = tuple(sorted(colour))
        cs = list(map(colour.__getitem__, edges))
    graph = KGraph(k, n, frozenset(colour))
    object.__setattr__(graph, "_sorted", edges)
    CH = ColouredKGraph(graph, colour)
    object.__setattr__(CH, "_classes", {
        c: tuple(itertools.compress(edges, map(is_, cs, itertools.repeat(c)))) for c in Colour})
    return CH


def density_check(H: KGraph, mu, alpha) -> bool:
    """Decide (mu, alpha)-density exactly.

    True iff for every i in [k-1] the i-sets of degree below
    mu * C(n-i, k-i) number at most alpha * C(n, i) and all of them have
    degree exactly 0.
    """
    mu = Fraction(mu)
    alpha = Fraction(alpha)
    if H.m == comb(H.n, H.k) and 0 <= mu <= 1:
        return True   # complete: every i-set has degree exactly C(n-i, k-i)
    for i in range(1, H.k):
        threshold = mu * comb(H.n - i, H.k - i)
        degs = {}
        for e in H.edges:
            for s in itertools.combinations(e, i):
                degs[s] = degs.get(s, 0) + 1
        if any(d < threshold for d in degs.values()):
            return False
        total = comb(H.n, i)
        if threshold > 0 and total - len(degs) > alpha * total:
            return False
    return True

"""k-uniform hypergraphs on [n] with red/blue edge colourings.

Edges are canonically sorted tuples of distinct vertices in 1..n.  All
structures are immutable after construction.  Every threshold that enters a
verdict is an exact Fraction; no floating point is used anywhere.

`build` is where an edge is checked, for library callers and for the tcg
parser alike, by one fast path and one reference path.  While the input
comes in canonical order, as serialize writes it, a block that passes
`_columns`, the one order and range check of a block of edges, and
continues that order cannot repeat an edge and is appended whole to the
canonical edge list and its colour classes.  Any other block goes through
the per-edge loop, and once the input has left canonical order so does
every block after it, so input out of canonical order is built edge by
edge into a dict.  Blocks that are already typed reach `build` through
`_Blocks` and skip the type tests of library pairs: the tcg parser checks
only what is textual (header, letters, integers, arity) and hands over its
integers, and `tcr.extremal` hands over the profile colourings' edges,
which `itertools.combinations` makes from a `range`.

A graph built from canonical input keeps its canonical edge tuple and its
two colour classes only.  Its `KGraph.edges` frozenset and its
`ColouredKGraph.colour` dict, the two per-edge hash tables, are built the
first time something reads them and cached, so a run that only counts or
scans edges hashes none.  A graph built this way compares, hashes, prints
and pickles as one whose tables were given to its constructor.

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


def _made(cls, **fields):
    """An instance of a frozen dataclass with exactly these attributes set,
    bypassing its constructor: a field left out is made on first read by
    the class's `__getattr__`."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
    return out


def _fields_first(state: dict, names) -> dict:
    """A graph's pickled state: its instance dict with the fields that are
    set first, in field order.  A table built on first read sits after the
    caches in the instance dict; pickled there, it would be loaded last,
    and its growth would come on top of everything else loaded."""
    out = {name: state[name] for name in names if name in state}
    out.update(state)
    return out


def _colour_dict(edges, red) -> dict:
    """Edge -> Colour over `edges`, in their order: red on `red`, a
    subsequence of them, and blue elsewhere."""
    colour = dict.fromkeys(edges, Colour.BLUE)
    colour.update(zip(red, itertools.repeat(Colour.RED)))
    return colour


@dataclass(frozen=True)
class KGraph:
    """A k-uniform hypergraph on vertex set [n]."""

    k: int
    n: int
    edges: frozenset

    def __getattr__(self, name):
        """Reached only for an attribute the instance lacks: the edge set of
        a graph `build` made from canonical input, hashed from its sorted
        edges on first read."""
        if name != "edges" or "_sorted" not in self.__dict__:
            raise AttributeError(f"'KGraph' object has no attribute {name!r}")
        edges = self.__dict__["edges"] = frozenset(self._sorted)
        return edges

    def __getstate__(self) -> dict:
        return _fields_first(self.__dict__, ("k", "n", "edges"))

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
        out = self.__dict__.get("_sorted")
        return len(self.edges if out is None else out)


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

    def __getattr__(self, name):
        """Reached only for an attribute the instance lacks: the colour dict
        of a graph `build` made from canonical input, in canonical order,
        made from its sorted edges and red class on first read."""
        if name != "colour" or "_classes" not in self.__dict__:
            raise AttributeError(f"'ColouredKGraph' object has no attribute {name!r}")
        colour = self.__dict__["colour"] = _colour_dict(self.graph.sorted_edges,
                                                        self._classes[Colour.RED])
        return colour

    def __getstate__(self) -> dict:
        return _fields_first(self.__dict__, ("graph", "colour"))

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
        carried across; with the classes the colour dict is left to be made
        on first read, in canonical order."""
        classes = self.__dict__.get("_classes")
        if classes is not None:
            out = _made(ColouredKGraph, graph=self.graph,
                        _classes={c.opposite: es for c, es in classes.items()})
        else:
            out = ColouredKGraph(self.graph, {e: c.opposite for e, c in self.colour.items()})
        decomp = self.__dict__.get("_components")
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


def _add_checked(edges: list, red: list, blue: list, cs, es, verts: list, k: int, n: int):
    """Append a flattened block whole to the canonical edge list and its
    colour classes and return True, or append nothing and return False.
    With `es` None the edges are made from the vertex columns.

    A block that passes the one block check (`_columns`), is strictly
    increasing and starts after the last edge in `edges` cannot repeat an
    edge, so it is appended as it is; an empty block appends nothing."""
    cols = _columns(verts, k, n)
    if cols is None:
        return False
    block = list(zip(*cols)) if es is None else es
    if not block:
        return True
    if (not edges or edges[-1] < block[0]) and all(map(lt, block, block[1:])):
        cs = list(cs)
        red.extend(itertools.compress(block, map(is_, cs, itertools.repeat(Colour.RED))))
        blue.extend(itertools.compress(block, map(is_, cs, itertools.repeat(Colour.BLUE))))
        edges.extend(block)
        return True
    return False


def _add_each(edges: list, red: list, blue: list, colour, pairs, k: int, n: int):
    """The per-edge loop: sort and check each edge, tolerate a repeat in its
    own colour, and raise the first fault in input order.  While the edges
    keep canonical order (`colour` None) each is appended to `edges` and its
    class; the first that does not is where the input leaves it, and from
    there every edge goes into the dict of all edges so far, which is
    returned (None while the input keeps canonical order).  The pairs are
    read in full first, so a fault that their reader raises (the tcg
    parser's line scan) comes before a conflict in the same block."""
    for c, raw in list(pairs):
        if c.__class__ is not Colour:
            c = Colour(c)
        e = canon_edge(raw, k, n)
        if colour is None:
            if not edges or edges[-1] < e:
                edges.append(e)
                (red if c is Colour.RED else blue).append(e)
                continue
            colour = _colour_dict(edges, red)
        old = colour.get(e)
        if old is not None and old is not c:
            raise ConflictingColour(f"edge {e} given as both {old.value} and {c.value}")
        colour[e] = c
    return colour


def build(k: int, n: int, coloured_edges) -> ColouredKGraph:
    """Validated construction from (colour, edge) pairs; a colour is a
    Colour or its letter.

    A duplicate edge is tolerated when its colour agrees and rejected
    otherwise.  The pairs are read in blocks of BLOCK.  While the input
    keeps canonical order, a block of letters or Colours and tuples of ints
    that passes `_columns` (order and range) is appended whole to the
    canonical edge list and the two colour classes (`_add_checked`).  Any
    other block goes edge by edge (`_add_each`), which sorts each edge and
    raises the first fault in input order; once the input has left
    canonical order, the edges so far and every later block, which is not
    flattened, go into a dict that tests each edge for a repeat.  The tcg
    parser and the profile colourings hand their blocks over through
    `_Blocks`, so their edges get the same one check.

    From canonical input the graph keeps the edge tuple and the two class
    tuples only, and makes its edge set and colour dict on first read;
    otherwise it keeps the dict, in input order, and the classes are read
    from the sorted edges.
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
    edges, red, blue = [], [], []
    colour = None   # edge -> Colour, once the input has left canonical order
    for flatten, pairs in blocks:
        if colour is None:
            cs, es, verts = flatten()
            if verts is not None and _add_checked(edges, red, blue, cs, es, verts, k, n):
                continue
        colour = _add_each(edges, red, blue, colour, pairs, k, n)
    if colour is None:
        graph = _made(KGraph, k=k, n=n, _sorted=tuple(edges))
        del edges   # freed before the class lists are copied to tuples
        return _made(ColouredKGraph, graph=graph,
                     _classes={Colour.RED: tuple(red), Colour.BLUE: tuple(blue)})
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
        for e in H.sorted_edges:
            for s in itertools.combinations(e, i):
                degs[s] = degs.get(s, 0) + 1
        if any(d < threshold for d in degs.values()):
            return False
        total = comb(H.n, i)
        if threshold > 0 and total - len(degs) > alpha * total:
            return False
    return True

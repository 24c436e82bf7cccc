"""Tight components, and exhaustive tight cycle/path search.

Two edges are tightly adjacent when they share exactly k-1 vertices; tight
components are the connected components of that relation.  They are
grouped a run at a time: in sorted order the edges that share their first
k-1 vertices are contiguous and tightly joined.  Each (k-1)-set is filed
in the fiber of the (k-2)-set it keeps without its largest vertex, so each
run adds one bitmask star to each of its k-1 fibers, and a union-find over
the runs joins the runs whose stars meet.  The Python-level work follows
the runs and the shadow, not the edges: dense colour classes gain, while
sparse input, whose runs hold about one edge, costs more than a per-edge
union-find would.  The fibers also give the bucket map ((k-1)-set bitmask
-> component) that the blueprint's shadow masks and
`TightDecomposition.id_of` are read from.  Cycle and path searches are
exhaustive DFS with window pruning, so an Absent verdict is a proof of
absence (with the explored-node count as certificate).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

from .errors import SearchCapExceeded
from .hypergraph import Colour, ColouredKGraph, KGraph, support_of

SUPPORT_CAP = 14   # largest support the exhaustive searches take


@dataclass(frozen=True)
class TightDecomposition:
    """Partition of an edge set into tight components.

    Component ids are assigned in order of each component's smallest edge,
    so the decomposition is independent of input edge order.  colour_of is
    populated only for monochromatic decompositions, whose red components
    come first.  _buckets holds, per colour class (one for a plain
    decomposition), the class's first component id and its map from each
    (k-1)-set of the shadow, as a vertex bitmask, to the local id of the
    one component of the class whose edges contain it, so `id_of` reads an
    edge's id from it in O(k).  There is no edge -> id map: a consumer that
    only asks whether an edge lies in one component tests
    `e in components[cid]`."""

    components: tuple  # tuple of frozensets of edges
    colour_of: Optional[dict] = None  # component id -> Colour
    _sorted: tuple = field(default=(), repr=False, compare=False)  # canonical edge order
    _buckets: tuple = field(default=(), repr=False, compare=False)  # ((first id, map), ...)

    def id_of(self, e, colour: Optional[Colour]) -> int:
        """The id of the component holding edge e, which has colour `colour`
        in a monochromatic decomposition (None in a plain one), read in O(k)
        from its class's bucket map: the (k-1)-set e - e[0] lies in the
        edges of e's component only."""
        first, buckets = self._buckets[colour is Colour.BLUE]
        mask = 0
        for v in e[1:]:
            mask |= 1 << v
        return first + buckets[mask]

    def edges_of(self, cid: int) -> frozenset:
        return self.components[cid]

    def support(self, cid: int) -> tuple:
        return support_of(self.components[cid])

    def colour(self, cid: int) -> Optional[Colour]:
        return None if self.colour_of is None else self.colour_of[cid]

    def swapped(self) -> "TightDecomposition":
        """The decomposition of the colour-swapped graph: the blue
        components become the first ids, as a fresh analysis numbers them.
        The component sets and edge lists are the same objects, reordered."""
        (_, red), (blues, blue) = self._buckets
        order = [*range(blues, len(self.components)), *range(blues)]
        colour_of = {new: self.colour_of[old].opposite for new, old in enumerate(order)}
        return TightDecomposition(tuple(map(self.components.__getitem__, order)), colour_of,
                                  tuple(map(self._sorted.__getitem__, order)),
                                  ((0, blue), (len(order) - blues, red)))


def _component_sets(edges) -> tuple:
    """Group edges by tight connectivity, a run of edges at a time.

    Returns (groups, buckets): one canonically ordered edge list per
    component, the lists ordered by their smallest edge, and the map from
    each (k-1)-subset, keyed by its vertex bitmask mask ^ (1 << v), to the
    index of the group whose edges contain it.  Two edges are adjacent iff
    they share a (k-1)-subset (for k = 2: the connected components of a
    graph).

    In sorted order the edges Q + d that share their first k - 1 vertices Q
    form a contiguous run, tightly joined through Q; its last vertices form
    one bitmask D.  Each (k-1)-set T is filed in the fiber of T - max(T),
    as the vertex max(T).  The run's (k-1)-sets are Q - c + d (c in Q, d in
    D), whose largest vertex is d, and Q, whose largest vertex is q = Q[-1].
    So the run adds the star D to each fiber Q - c, with q added in the
    fiber Q - q, and merges every part of the fiber that the star meets.  A
    fiber's parts are disjoint vertex bitmasks, each labelled by a run.
    Every run holding T files it in the same fiber, so two runs whose edges
    share a (k-1)-set meet there, and no union across fibers is needed;
    each fiber vertex is one bucket.  The union-find runs over runs, halves
    paths and keeps the smaller root, so every parent precedes its child
    and a group's root is its first run.

    Python-level work follows the runs and the (k-1)-sets, not the edges:
    k - 1 fiber updates per run and one bucket per shadow set.  A random
    half of K_40^(4) has 45.9k edges in 8.5k runs over 9,880 shadow sets.
    On sparse input a run holds about one edge and a fiber several parts: a
    random 4-graph on 40 vertices with 5% of the edges takes about three
    times as long as a per-edge union-find."""
    es = sorted(edges)
    if not es:
        return [], {}
    k = len(es[0])
    last = itemgetter(k - 1)
    top = max(map(last, es)) + 1
    bit = [1 << v for v in range(top)]
    bit_of = bit.__getitem__
    parent = []

    def join(j, root):
        """Link j's set to the root `root`; the smaller root wins."""
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if j < root:
            parent[root] = j
            return j
        if j > root:
            parent[j] = root
        return root

    ends = []     # the end of each run in es
    fibers = {}   # (k-2)-set mask -> [part mask, run, part mask, run, ...]
    start, n = 0, len(es)
    while start < n:
        e = es[start]
        Q = e[:-1]
        root = len(parent)
        parent.append(root)
        end = start + 1
        if end < n and es[end][:-1] == Q:
            # a run holds at most top - 1 - e[-2] edges
            end = bisect_left(es, Q + (top,), end + 1, min(n, start + top - e[-2]))
            D = sum(map(bit_of, map(last, es[start:end])))
        else:   # one edge, as most runs of a sparse input are
            D = bit[e[-1]]
        ends.append(end)
        start = end
        qmask = sum(map(bit_of, Q))
        for c in Q:
            F = qmask ^ bit[c]
            star = D | bit[c] if c == e[-2] else D   # Q is filed in Q - Q[-1]
            parts = fibers.get(F)
            if parts is None:
                fibers[F] = [star, root]
            elif len(parts) == 2 and parts[0] & star:
                parts[0] |= star
                if parts[1] != root:
                    parts[1] = root = join(parts[1], root)
            else:
                # parts are disjoint, so only parts meeting the star itself merge
                merged = [star, root]
                for i in range(0, len(parts), 2):
                    if parts[i] & star:
                        merged[0] |= parts[i]
                        merged[1] = root = join(parts[i + 1], root)
                    else:
                        merged += parts[i], parts[i + 1]
                fibers[F] = merged
    # parent[r] <= r, so one pass in run order can overwrite each parent
    # pointer with the group index of its run
    group_of = parent
    groups = []
    start = 0
    for r, end in enumerate(ends):
        if group_of[r] == r:
            group_of[r] = len(groups)
            groups.append(es[start:end])
        else:
            group_of[r] = group_of[group_of[r]]
            groups[group_of[r]] += es[start:end]
        start = end
    buckets = {}
    for F, parts in fibers.items():
        for i in range(0, len(parts), 2):
            m, gid = parts[i], group_of[parts[i + 1]]
            while m:
                b = m & -m
                m ^= b
                buckets[F | b] = gid
    return groups, buckets


def _decomposition(comps, colour_of=None, buckets=()) -> TightDecomposition:
    return TightDecomposition(tuple(frozenset(c) for c in comps), colour_of,
                              tuple(tuple(c) for c in comps), tuple(buckets))


def tight_components(H: KGraph) -> TightDecomposition:
    comps, buckets = _component_sets(H.edges)
    return _decomposition(comps, buckets=((0, buckets),))


def monochromatic_components(CH: ColouredKGraph) -> TightDecomposition:
    """Tight components of the red and blue subgraphs, red components first.
    Computed once per graph and cached on it, so every consumer shares it.
    Each colour class keeps its own bucket map: a (k-1)-set can lie in a
    red and in a blue edge at once."""
    decomp = getattr(CH, "_components", None)
    if decomp is None:
        comps, colour_of, buckets = [], {}, []
        for colour in (Colour.RED, Colour.BLUE):
            groups, first_of = _component_sets(CH.edges_of(colour))
            buckets.append((len(comps), first_of))
            for comp in groups:
                colour_of[len(comps)] = colour
                comps.append(comp)
        decomp = _decomposition(comps, colour_of, buckets)
        object.__setattr__(CH, "_components", decomp)
    return decomp


@dataclass(frozen=True)
class TightWitness:
    ordering: tuple  # vertex sequence: cyclic for a cycle, linear for a path
    explored: int


@dataclass(frozen=True)
class Absent:
    """Proof of absence: the DFS exhausted its search space."""

    length: int
    support_size: int
    explored: int


def cycle_windows(ordering, k: int) -> list:
    """The k-windows of a cyclic vertex ordering, as sorted tuples."""
    ell = len(ordering)
    return [tuple(sorted(ordering[(i + j) % ell] for j in range(k))) for i in range(ell)]


def path_windows(ordering, k: int) -> list:
    ell = len(ordering)
    return [tuple(sorted(ordering[i + j] for j in range(k))) for i in range(ell - k + 1)]


def _completion_map(k: int, edges) -> dict:
    """(k-1)-window -> vertices completing it to a host edge."""
    out = {}
    for e in edges:
        for i in range(k):
            rest = e[:i] + e[i + 1:]
            out.setdefault(rest, set()).add(e[i])
    return out


def _search(H: KGraph, length: int, cyclic: bool):
    """The DFS behind both searches: vertex orderings whose k-windows
    (cyclic or linear) are all host edges.  A path cuts reflections by
    ordering[0] < ordering[-1]; a cycle by ordering[1] < ordering[-1], and
    cuts rotations by starting at its minimum vertex, so every later vertex
    exceeds the start and a start needs length - 1 larger support vertices."""
    edges = H.edges
    support = support_of(edges)
    if len(support) > SUPPORT_CAP:
        raise SearchCapExceeded(
            f"support {len(support)} exceeds exhaustive-search cap {SUPPORT_CAP}")
    explored = 0
    if length > len(support):
        return Absent(length, len(support), explored)
    k = H.k
    completions = _completion_map(k, edges)
    mirror = 1 if cyclic else 0
    ordering = []
    used = set()

    def extend():
        nonlocal explored
        depth = len(ordering)
        if depth == length:
            if ordering[mirror] > ordering[-1]:
                return None
            # linear windows were tested as their last vertex left the
            # completion map; only a cycle's k - 1 wrap-around windows remain
            wrap = ordering[length - k + 1:] + ordering[:k - 1] if cyclic else []
            if all(tuple(sorted(wrap[i:i + k])) in edges for i in range(len(wrap) - k + 1)):
                return tuple(ordering)
            return None
        if depth >= k - 1:
            window = tuple(sorted(ordering[depth - k + 1:]))
            candidates = sorted(completions.get(window, ()))
        else:
            candidates = support
        floor = ordering[0] if cyclic else 0
        for v in candidates:
            if v in used or v <= floor:
                continue
            ordering.append(v)
            used.add(v)
            explored += 1
            res = extend()
            ordering.pop()
            used.remove(v)
            if res is not None:
                return res
        return None

    for i, start in enumerate(support):
        if cyclic and len(support) - 1 - i < length - 1:
            break
        ordering = [start]
        used = {start}
        explored += 1
        res = extend()
        if res is not None:
            return TightWitness(res, explored)
    return Absent(length, len(support), explored)


def find_tight_cycle(H: KGraph, length: int):
    """Exhaustive search for a tight cycle on `length` vertices.

    Rotations are cut by starting at the minimum vertex of the candidate
    support and reflections by requiring ordering[1] < ordering[-1].
    Returns a verified TightWitness or Absent with the explored count.
    """
    if length < H.k + 1:
        raise ValueError(f"cycle length {length} < k+1 = {H.k + 1}")
    return _search(H, length, cyclic=True)


def find_tight_path(H: KGraph, length: int):
    """Exhaustive search for a tight path on `length` vertices (length >= k)."""
    if length < H.k:
        raise ValueError(f"path length {length} < k = {H.k}")
    return _search(H, length, cyclic=False)

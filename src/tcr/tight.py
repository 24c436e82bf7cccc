"""Tight components, and exhaustive tight cycle/path search.

Two edges are tightly adjacent when they share exactly k-1 vertices; tight
components are the connected components of that relation, computed in one
pass by an inlined union-find over the (k-1)-subset buckets of the edge
set, each subset keyed by its vertex bitmask.  The pass also keeps the
bucket map ((k-1)-set -> component) that the blueprint's shadow masks are
read from.  Cycle and path searches are exhaustive DFS with window
pruning, so an Absent verdict is a proof of absence (with the
explored-node count as certificate).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    one component of the class whose edges contain it.  The map from each
    edge to its component id, `component_of`, is built on first use: a
    consumer that only asks whether an edge lies in one component tests
    `e in components[cid]`."""

    components: tuple  # tuple of frozensets of edges
    colour_of: Optional[dict] = None  # component id -> Colour
    _sorted: tuple = field(default=(), repr=False, compare=False)  # canonical edge order
    _buckets: tuple = field(default=(), repr=False, compare=False)  # ((first id, map), ...)

    @cached_property
    def component_of(self) -> dict:
        """Edge -> component id."""
        return {e: cid for cid, comp in enumerate(self._sorted) for e in comp}

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
    """Group edges by tight connectivity in one pass.

    Returns (groups, buckets): one canonically ordered edge list per
    component, the lists ordered by their smallest edge, and the map from
    each (k-1)-subset, keyed by its vertex bitmask mask ^ (1 << v), to the
    index of the group whose edges contain it.  Two edges are adjacent iff
    they share a (k-1)-subset, so unioning every edge with the first edge
    of each of its subsets' buckets realizes the transitive closure (for
    k = 2: the connected components of a graph).  The union-find halves
    paths and keeps the smaller root, so every parent precedes its child
    and a group's root is its smallest edge."""
    es = sorted(edges)
    parent = list(range(len(es)))
    first_of = {}
    for i, e in enumerate(es):
        full = 0
        for v in e:
            full |= 1 << v
        root = i
        for v in e:
            j = first_of.setdefault(full ^ (1 << v), i)
            if j == i:
                continue
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if j < root:
                parent[root] = j
                root = j
            elif j > root:
                parent[j] = root
    # parent[i] <= i, so one pass in index order can overwrite each parent
    # pointer with the group index of its edge
    group_of = parent
    groups = []
    for i, e in enumerate(es):
        if group_of[i] == i:
            group_of[i] = len(groups)
            groups.append([e])
        else:
            group_of[i] = group_of[group_of[i]]
            groups[group_of[i]].append(e)
    return groups, {key: group_of[i] for key, i in first_of.items()}


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

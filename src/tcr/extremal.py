"""Extremal colourings and certificate-producing absence verifiers.

The split colouring (every edge meeting X red, the rest blue) blocks long
monochromatic tight cycles through matching bounds.  The parity colouring
(edges with an even intersection with X red) blocks them through a
per-component counting argument on |e ∩ X|, constant on each component:
tightly adjacent edges differ by at most 1 in it and same-colour edges
share its parity.  A component of another colouring that mixes values is
searched instead.  Both colour an edge by |e ∩ X| alone and share one
construction.  Both certificates are re-verifiable from the colouring
alone, and tiny cases are cross-checked by exhaustive search.
"""
from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from math import comb, gcd
from typing import Optional

from . import hypergraph
from .blowup import DEFAULT_EDGE_CAP
from .errors import InternalError, SizeCapExceeded, TcrError
from .hypergraph import Colour, ColouredKGraph, KGraph, _Blocks, build, support_of
from .tight import (SUPPORT_CAP, Absent, cycle_windows, find_tight_cycle,
                    find_tight_path, monochromatic_components, path_windows)


EXHAUSTIVE_N = 8   # largest N for which ramsey_search_tiny searches exhaustively


class ProfileNotConstant(TcrError):
    """The colouring handed to the split verifier breaks the split rule (a
    red edge inside Y or a blue edge meeting X), so the matching bounds do
    not apply to it."""


@dataclass(frozen=True)
class ExtremalSpec:
    kind: str            # "split" | "parity"
    k: int
    n: int
    i: int
    d: int
    N: int
    X: tuple
    Y: tuple

    @property
    def length(self) -> int:
        return self.k * self.n + self.i


def _typed_block(colours: list, edges: list) -> tuple:
    return colours, edges, list(itertools.chain.from_iterable(edges))


def _profile_graph(k: int, N: int, x: int, red) -> ColouredKGraph:
    """K_N^(k) with each edge coloured by |e ∩ X| alone, X = [x]: red iff
    that size is in `red`.  |e ∩ X| is where x falls in the sorted edge.

    The edges reach `build` `hypergraph.BLOCK` at a time in canonical order,
    as typed blocks (`_Blocks`) of Colours, edge tuples and their flat
    vertices: each block passes `build`'s one order and range check, and
    only the type tests of library pairs are skipped, since
    `itertools.combinations` over a `range` makes tuples of ints."""
    by_size = [Colour.RED if j in red else Colour.BLUE for j in range(k + 1)]
    source = itertools.combinations(range(1, N + 1), k)

    def blocks():
        size = hypergraph.BLOCK
        for edges in iter(lambda: list(itertools.islice(source, size)), []):
            colours = list(map(by_size.__getitem__, map(bisect_right, edges, itertools.repeat(x))))
            yield functools.partial(_typed_block, colours, edges), zip(colours, edges)

    return build(k, N, _Blocks(blocks()))


def _profile_coloring(kind: str, k: int, n: int, i: int, red):
    """The profile colouring on N = ((d+1)/d) k n - 2 vertices, d = gcd(k, i),
    with X = [(k/d) n - 1]; split is the case i = 0, d = k."""
    d = gcd(k, i) or 1   # gcd(0, 0) = 0; k = 0 then fails N < k
    N = (d + 1) * k * n // d - 2
    if N < k:
        raise ValueError(f"N = {N} < k = {k}: need n >= 2 at i = 0, n >= 1 otherwise")
    if comb(N, k) > DEFAULT_EDGE_CAP:
        raise SizeCapExceeded(f"C({N},{k}) exceeds cap {DEFAULT_EDGE_CAP}")
    x = k * n // d - 1
    CH = _profile_graph(k, N, x, red)
    spec = ExtremalSpec(kind, k, n, i, d, N,
                        tuple(range(1, x + 1)), tuple(range(x + 1, N + 1)))
    return CH, spec


def split_coloring(k: int, n: int):
    """K_N minus nothing, N = (k+1)n - 2: edges meeting X = [n-1] red, others blue."""
    return _profile_coloring("split", k, n, 0, range(1, k + 1))


def parity_coloring(k: int, n: int, i: int):
    """N = ((d+1)/d) k n - 2 with d = gcd(k, i); |X| = (k/d) n - 1; an edge is
    red iff it has an even number of vertices in X."""
    if not 0 <= i <= k - 1:
        raise ValueError(f"need 0 <= i <= k-1, got i = {i}")
    return _profile_coloring("parity", k, n, i, range(0, k + 1, 2))


@dataclass(frozen=True)
class AbsenceCertificate:
    ok: bool                 # True when absence is proven
    method: str              # matching-bound | divisibility | exhaustive
    details: tuple           # re-verifiable records
    witness: Optional[tuple] = None   # a monochromatic cycle when ok is False


def verify_no_mono_cycle(CH: ColouredKGraph, spec: ExtremalSpec) -> AbsenceCertificate:
    """Prove (or refute, with a witness) that no colour class contains a
    tight cycle on spec.length = k*n + i vertices.  X must be [|X|], as
    both constructors make it, so that |e ∩ X| is where |X| falls in the
    sorted edge."""
    length = spec.length
    x = len(spec.X)
    if spec.X != tuple(range(1, x + 1)):
        raise ValueError(f"X = {spec.X} is not [1, {x}]")
    k = spec.k
    if spec.kind == "split":
        xset = set(spec.X)
        # a tight cycle on length = kn vertices contains n disjoint edges;
        # both colour classes cap monochromatic matchings at n - 1
        needed = spec.n
        bad_red = list(filter(xset.isdisjoint, CH.edges_of(Colour.RED)))
        bad_blue = list(itertools.filterfalse(xset.isdisjoint, CH.edges_of(Colour.BLUE)))
        if bad_red or bad_blue:
            raise ProfileNotConstant(
                f"colouring disagrees with the split rule: {bad_red[:2]} {bad_blue[:2]}")
        details = (
            {"colour": "R", "bound": "every red edge meets X",
             "max_matching": len(spec.X), "needed": needed},
            {"colour": "B", "bound": "blue edges live inside Y",
             "max_matching": len(spec.Y) // k, "needed": needed},
        )
        ok = len(spec.X) < needed and len(spec.Y) // k < needed
        return AbsenceCertificate(ok, "matching-bound", details)

    # r1 is a component's one |e ∩ X| value, None when it mixes values
    decomp = monochromatic_components(CH)
    details = []
    for cid, comp in enumerate(decomp._sorted):
        profile = set(map(bisect_right, comp, itertools.repeat(x)))
        r1 = next(iter(profile)) if len(profile) == 1 else None
        support = len(support_of(comp))
        record = {"component": cid, "colour": decomp.colour(cid).value, "r1": r1,
                  "support": support}
        if support < length:
            record["blocked_by"] = "support"
        elif r1 is not None and (r1 * length) % k != 0:
            record["blocked_by"] = "divisibility"
        else:
            blocked = None
            if r1 is not None:
                x_needed = r1 * length // k
                y_needed = (k - r1) * length // k
                if x_needed > len(spec.X):
                    blocked = ("x_capacity", x_needed)
                elif y_needed > len(spec.Y):
                    blocked = ("y_capacity", y_needed)
            if blocked is not None:
                record["blocked_by"] = blocked[0]
                record[blocked[0].split("_")[0] + "_needed"] = blocked[1]
            else:
                result = find_tight_cycle(KGraph(k, CH.n, decomp.components[cid]), length)
                if isinstance(result, Absent):
                    record["blocked_by"] = "exhaustive"
                    record["explored"] = result.explored
                else:
                    details.append(record)
                    return AbsenceCertificate(False, "divisibility", tuple(details),
                                              witness=result.ordering)
        details.append(record)
    return AbsenceCertificate(True, "divisibility", tuple(details))


@dataclass(frozen=True)
class TargetSpec:
    kind: str       # "cycle" | "path"
    length: int


def _target_copies(k: int, N: int, target: TargetSpec) -> list:
    """All copies of the target in K_N^(k), each as a frozenset of window edges."""
    copies = []
    ell = target.length
    if target.kind == "cycle":
        for verts in itertools.combinations(range(1, N + 1), ell):
            rest = verts[1:]
            for perm in itertools.permutations(rest):
                if perm[0] > perm[-1]:
                    continue   # reflection
                ordering = (verts[0],) + perm
                copies.append(frozenset(cycle_windows(ordering, k)))
    else:
        for verts in itertools.combinations(range(1, N + 1), ell):
            for perm in itertools.permutations(verts):
                if perm[0] > perm[-1]:
                    continue
                copies.append(frozenset(path_windows(perm, k)))
    return sorted(set(copies), key=sorted)


@dataclass(frozen=True)
class RamseyResult:
    all_coloured: bool
    counterexample: Optional[ColouredKGraph]
    nodes: int
    prunes: int
    seeded: bool


def _verify_counterexample(CH: ColouredKGraph, target: TargetSpec) -> bool:
    for colour in (Colour.RED, Colour.BLUE):
        sub = CH.monochromatic_subgraph(colour)
        if target.kind == "cycle":
            res = find_tight_cycle(sub, target.length)
        else:
            res = find_tight_path(sub, target.length)
        if not isinstance(res, Absent):
            return False
    return True


def _seed_colourings(k: int, N: int, target: TargetSpec):
    """Extremal-style candidate colourings at size N, built one at a time."""
    ell = target.length
    n = -(-ell // k)   # ceil
    if 1 <= n - 1 < N:
        yield _profile_graph(k, N, n - 1, range(1, k + 1))
    x_size = k * n // gcd(k, ell % k) - 1
    if 1 <= x_size < N:
        yield _profile_graph(k, N, x_size, range(0, k + 1, 2))


def ramsey_search_tiny(k: int, target: TargetSpec, N: int,
                       allow_seeds: bool = True) -> RamseyResult:
    """Decide whether every red/blue colouring of K_N^(k) contains a
    monochromatic target.

    Every verdict needs N <= tight.SUPPORT_CAP, the largest support on which
    a counterexample can be verified; a target longer than N fits in no
    colouring and is answered by the all-red one.  Known extremal-style
    colourings are tried next; a verified one is a counterexample
    certificate by itself.  Otherwise the search extends colourings
    edge-at-a-time in colex order with early monochromatic-copy pruning and
    lexicographic canonicity checks at complete-prefix depths; this
    exhaustive verdict needs N <= EXHAUSTIVE_N, because each canonicity
    check walks all t! relabellings of the prefix K_t.  A search
    counterexample that fails its own verification is an InternalError.
    """
    if N > SUPPORT_CAP:
        raise SizeCapExceeded(f"a verdict needs N <= {SUPPORT_CAP}; got N={N}")
    if target.length > N:
        # the target does not fit; the empty statement is witnessed by any colouring
        all_red = build(k, N, [("R", e) for e in
                               itertools.combinations(range(1, N + 1), k)])
        return RamseyResult(False, all_red, 0, 0, False)
    if allow_seeds:
        for CH in _seed_colourings(k, N, target):
            if _verify_counterexample(CH, target):
                return RamseyResult(False, CH, 0, 0, True)
    if N > EXHAUSTIVE_N:
        raise SizeCapExceeded(
            f"an exhaustive verdict needs N <= {EXHAUSTIVE_N}; got N={N}")

    # colex edge order makes every prefix C(t, k) an induced complete K_t
    edges = sorted(itertools.combinations(range(1, N + 1), k),
                   key=lambda e: tuple(reversed(e)))
    eindex = {e: i for i, e in enumerate(edges)}
    copies = _target_copies(k, N, target)
    # a copy turns monochromatic only when its last edge in colex order is
    # coloured, so each copy is kept, as a bitmask of edge indices, under
    # that edge
    ending = [[] for _ in edges]
    for copy in copies:
        idxs = [eindex[e] for e in copy]
        ending[max(idxs)].append(sum(1 << j for j in idxs))
    # at depth C(t, k) the assigned edges are exactly K_t
    checkpoints = {comb(t, k): t for t in range(k + 1, N + 1)}

    # colour 0 is red and 1 is blue, so red < blue in the lex order
    colours = [None] * len(edges)
    nodes = 0
    prunes = 0

    def canonical(depth: int) -> bool:
        # reject the prefix when some relabelling of [t] gives a lex-smaller
        # word; its letter j is the colour of the image of edge j
        t = checkpoints.get(depth)
        if t is None:
            return True
        for perm in itertools.permutations(range(1, t + 1)):
            image = (0,) + perm
            for j in range(depth):
                a = colours[eindex[tuple(sorted(image[v] for v in edges[j]))]]
                b = colours[j]
                if a != b:
                    if a < b:
                        return False
                    break
        return True

    def assign(idx: int, coloured: tuple) -> Optional[list]:
        # coloured[c] is the bitmask of the edges of colour c so far
        nonlocal nodes, prunes
        if idx == len(edges):
            return list(colours)
        for colour in ((0,) if idx == 0 else (0, 1)):
            nodes += 1
            colours[idx] = colour
            mask = coloured[colour] | 1 << idx
            if (any(m & mask == m for m in ending[idx])
                    or not canonical(idx + 1)):
                prunes += 1
                continue
            res = assign(idx + 1, (mask, coloured[1]) if colour == 0
                         else (coloured[0], mask))
            if res is not None:
                return res
        return None

    res = assign(0, (0, 0))
    if res is None:
        return RamseyResult(True, None, nodes, prunes, False)
    CH = build(k, N, [("RB"[c], e) for c, e in zip(res, edges)])
    if not _verify_counterexample(CH, target):
        raise InternalError("search produced an unverifiable colouring")
    return RamseyResult(False, CH, nodes, prunes, False)

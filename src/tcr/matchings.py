"""Integral and fractional matchings with exact rational weights.

Integral maximum matchings come from a branch-and-bound set-packing search
that always proves optimality (or raises above its cap).  Fractional optima
come from the exact simplex, each with a dual that proves it optimal; the
edges enter the LP in canonical order, so a result is reproducible.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import lp
from .errors import NonEmptyIntersection, SearchCapExceeded, Unsupported
from .hypergraph import Colour, ColouredKGraph
from .tight import monochromatic_components

ZERO = Fraction(0)
ONE = Fraction(1)
R_FRACTIONAL_NODE_CAP = 100_000   # branch-and-bound nodes in max_r_fractional
FLOORED_NODE_CAP = 50_000         # branch-and-bound nodes in the exact mu_estimate path
EXACT_CAP = 20                    # most edges mu_estimate solves exactly
MATCHING_CAP = 10_000             # most edges max_matching_exact takes
MATCHING_NODE_CAP = 250_000       # branch-and-bound nodes in max_matching_exact


@dataclass(frozen=True)
class FractionalMatching:
    """Edge weights in [0,1] with total load at most 1 at every vertex.

    host is the edge set the weighting lives in (a tight component's edges
    in the monochromatic pipeline).  Zero weights are dropped.
    """

    host: frozenset
    weights: dict  # Edge -> Fraction, nonzero
    colour: Optional[Colour] = None
    component: Optional[int] = None

    def weight(self) -> Fraction:
        return sum(self.weights.values(), ZERO)


def from_matching(edges, host=None, colour=None, component=None) -> FractionalMatching:
    """The weighting induced by an integral matching: weight 1 on each edge."""
    edges = [tuple(sorted(e)) for e in edges]
    host = frozenset(edges) if host is None else frozenset(host)
    return FractionalMatching(host, {e: ONE for e in edges}, colour, component)


@dataclass(frozen=True)
class Violation:
    kind: str
    vertex: Optional[int] = None
    edge: Optional[tuple] = None
    detail: str = ""


def validate_fractional(H, phi: FractionalMatching):
    """Check the vertex constraints and host membership; returns (ok, first violation)."""
    host = phi.host
    if isinstance(H, ColouredKGraph):
        H = H.graph
    if H is not None and not H.edges.issuperset(host):
        bad = min(host - H.edges)
        return False, Violation("host_not_in_graph", edge=bad)
    loads = {}
    for e, w in sorted(phi.weights.items()):
        if w < 0 or w > 1:
            return False, Violation("weight_out_of_range", edge=e, detail=str(w))
        if e not in host:
            return False, Violation("support_outside_host", edge=e)
        for v in e:
            loads[v] = loads.get(v, ZERO) + w
    for v in sorted(loads):
        if loads[v] > 1:
            return False, Violation("vertex_overloaded", vertex=v, detail=str(loads[v]))
    return True, None


@dataclass(frozen=True)
class MatchingCertificate:
    edges: tuple      # pairwise disjoint, canonical order
    size: int
    optimal: bool
    nodes: int        # branch-and-bound nodes explored (exhaustion evidence)


def max_matching_exact(host) -> MatchingCertificate:
    """Maximum-cardinality matching in an edge set by branch and bound.

    Branches on the surviving vertex with the fewest candidate edges (either
    one of them is chosen or the vertex stays uncovered); the bound
    size + |union of survivors| / k prunes, and full exhaustion certifies
    optimality.  More than MATCHING_NODE_CAP nodes raise SearchCapExceeded
    with the count; each node stores at most one memo entry, so the cap
    bounds the memo as well.
    """
    edges = sorted(set(tuple(sorted(e)) for e in host))
    if len(edges) > MATCHING_CAP:
        raise SearchCapExceeded(f"{len(edges)} edges exceeds matching cap {MATCHING_CAP}")
    if not edges:
        return MatchingCertificate((), 0, True, 0)
    k = len(edges[0])
    emask = [sum(1 << v for v in e) for e in edges]

    nodes = 0
    memo: dict = {}

    def solve(survivors):
        """Exact maximum matching size within the surviving edges, with the
        witness; memoized on the survivor set."""
        nonlocal nodes
        nodes += 1
        if nodes > MATCHING_NODE_CAP:
            raise SearchCapExceeded(
                f"matching branch and bound exceeded {MATCHING_NODE_CAP} nodes")
        if not survivors:
            return 0, []
        union = 0
        greedy_mask = 0
        greedy_picks = []
        for ei in survivors:
            m = emask[ei]
            union |= m
            if not m & greedy_mask:
                greedy_mask |= m
                greedy_picks.append(ei)
        upper = union.bit_count() // k
        if len(greedy_picks) == upper:
            return upper, greedy_picks
        key = tuple(survivors)
        hit = memo.get(key)
        if hit is not None:
            return hit
        counts = {}
        for ei in survivors:
            for v in edges[ei]:
                counts[v] = counts.get(v, 0) + 1
        v = min(counts, key=lambda u: (counts[u], u))
        vbit = 1 << v
        best_val, best_pick = solve([ej for ej in survivors
                                     if not emask[ej] & vbit])
        for ei in survivors:
            if best_val == upper:
                break
            if emask[ei] & vbit:
                m = emask[ei]
                val, pick = solve([ej for ej in survivors if not emask[ej] & m])
                if val + 1 > best_val:
                    best_val = val + 1
                    best_pick = [ei] + pick
        memo[key] = (best_val, best_pick)
        return best_val, best_pick

    size, picks = solve(list(range(len(edges))))
    return MatchingCertificate(tuple(sorted(edges[ei] for ei in picks)),
                               size, True, nodes)


def greedy_matching(edges) -> list:
    """Maximal (not maximum) matching by first-fit in the order given."""
    out = []
    used = set()
    for e in edges:
        if not used.intersection(e):
            out.append(tuple(e))
            used.update(e)
    return out


def max_fractional_lp(host):
    """An optimal fractional matching with exact rational weights, and its
    dual: (phi, {vertex: y_v}) for the nonzero y_v.

    One `lp.matching_lp` solve on the edges in canonical order, whose
    optimum `check_certificate` has verified with y: y >= 0, every edge
    has dual load at least 1 and sum(y) = phi.weight().  The weights are
    the vertex that Bland's rule reaches on that order.
    """
    edges = sorted(tuple(sorted(e)) for e in host)
    _, weights, dual = lp.matching_lp(edges)
    return FractionalMatching(frozenset(edges), weights), dual


def _lp_branch_and_bound(edges, branch, incumbent, bound, node_cap):
    """LP-based branch and bound (Land & Doig 1960) over the matching LP.

    A node is a pair of edge-bound maps (lower, upper); an upper bound of 0
    excludes the edge.  A node is pruned when its LP is infeasible or when
    bound(value) <= the incumbent's value.  Otherwise branch(weights, lower,
    upper) returns None when the LP optimum is itself a solution, which then
    becomes the incumbent, or the child bound pairs in search order.
    Returns the final incumbent (value, weights).
    """
    best = incumbent
    nodes = 0

    def solve(lower: dict, upper: dict):
        nonlocal best, nodes
        nodes += 1
        if nodes > node_cap:
            raise SearchCapExceeded(f"LP branch and bound exceeded {node_cap} nodes")
        value, weights, _ = lp.matching_lp(edges, lower, upper)
        if value is None or bound(value) <= best[0]:
            return
        children = branch(weights, lower, upper)
        if children is None:
            best = (value, weights)
            return
        for child in children:
            solve(*child)

    solve({}, {})
    return best


def max_r_fractional(host, r: int) -> FractionalMatching:
    """Maximum-weight 1/r-fractional matching (all weights multiples of 1/r).

    Solved by LP-based branch and bound over the matching LP: branch on the
    first edge whose weight is not a multiple of 1/r, tightening its bounds
    to the neighbouring multiples.  Independent of the blow-up route, which
    makes the two usable as mutual oracles.
    """
    edges = sorted(tuple(sorted(e)) for e in host)

    def branch(weights, lower, upper):
        frac = next((e for e in sorted(weights) if (weights[e] * r).denominator != 1), None)
        if frac is None:
            return None
        floor_w = Fraction(math.floor(weights[frac] * r), r)
        return ((lower, {**upper, frac: floor_w}), ({**lower, frac: floor_w + ONE / r}, upper))

    # greedy warm start at weight 1 per edge; a 1/r-fractional solution below
    # a node weighs at most the node's LP value rounded down to a multiple of 1/r
    warm = {e: ONE for e in greedy_matching(edges)}
    _, best = _lp_branch_and_bound(edges, branch, (sum(warm.values(), ZERO), warm),
                                   lambda value: Fraction(math.floor(value * r), r),
                                   R_FRACTIONAL_NODE_CAP)
    return FractionalMatching(frozenset(edges), best)


def empty_intersection_matching(F) -> FractionalMatching:
    """Weight 1/(s-1) on each edge of a family F with empty intersection,
    hosted on F.

    With s = |F| and no common vertex, every vertex lies in at most s-1
    edges of F, so the vertex constraints hold and the weight is s/(s-1).
    """
    family = sorted(tuple(sorted(e)) for e in F)
    if not family:
        raise NonEmptyIntersection("family is empty")
    common = set(family[0])
    for e in family[1:]:
        common.intersection_update(e)
    if common:
        raise NonEmptyIntersection(f"family has common vertices {sorted(common)}")
    s = len(family)
    w = Fraction(1, s - 1)
    return FractionalMatching(frozenset(family), {e: w for e in family})


@dataclass(frozen=True)
class MuEstimate:
    value: Fraction
    exact: bool
    components: tuple       # component ids realizing the value


def _floored_lp_exact(edges, beta):
    """Exact optimum of the matching LP with the disjunctive constraint
    weight(e) = 0 or weight(e) >= beta, by branch and bound on violating edges."""
    def branch(weights, lower, upper):
        bad = next((e for e in sorted(weights) if ZERO < weights[e] < beta), None)
        if bad is None:
            return None
        return (({**lower, bad: beta}, upper), (lower, {**upper, bad: ZERO}))

    return _lp_branch_and_bound(edges, branch, (ZERO, {}), lambda value: value,
                                FLOORED_NODE_CAP)


def mu_estimate(CH: ColouredKGraph, s: int, beta) -> MuEstimate:
    """Best weight of a fractional matching supported on s monochromatic tight
    components with every nonzero weight at least beta.

    Exact (disjunctive branch and bound) when the chosen components carry at
    most EXACT_CAP edges; otherwise the plain LP optimum is floored and the
    verified value is reported as a lower bound with exact=False unless the
    plain optimum already honours the floor.
    """
    if s < 1:
        raise Unsupported(f"s = {s} < 1")
    beta = Fraction(beta)
    if beta <= 0:
        raise Unsupported(f"beta = {beta} <= 0")
    decomp = monochromatic_components(CH)
    ncomp = len(decomp.components)
    if s > ncomp:
        raise Unsupported(f"s = {s} exceeds {ncomp} monochromatic components")
    choices = []
    for combo in itertools.combinations(range(ncomp), s):
        # components are disjoint, so their edges need no set to merge
        edges = sorted(itertools.chain.from_iterable(map(decomp._sorted.__getitem__, combo)))
        if len(edges) <= EXACT_CAP:
            value, _ = _floored_lp_exact(edges, beta)
            choices.append((combo, value, True, value))
        else:
            value, weights, _ = lp.matching_lp(edges)
            kept = {e: w for e, w in weights.items() if w >= beta}
            verified = sum(kept.values(), ZERO)
            choices.append((combo, verified, verified == value, value))
    best = max(choices, key=lambda t: (t[1], tuple(-c for c in t[0])))
    best_value = best[1]
    # exact overall when every choice is exact or certifiably below the best
    overall_exact = all(ex or upper <= best_value for _, _, ex, upper in choices)
    return MuEstimate(best_value, overall_exact, best[0])

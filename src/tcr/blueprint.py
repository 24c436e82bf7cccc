"""Blueprints: auxiliary coloured (k-2)-graphs tracking monochromatic tight
components of a coloured k-graph.

Every blueprint edge e is assigned a same-colour tight component H(e) whose
shadow sees e with high degree (the degree condition), and same-colour edges
sharing k-3 vertices must agree on their component (the consistency
condition).  The checker is the contract; the constructor is a heuristic
that the checker must accept.

Shadow degrees are kept as vertex bitmasks (bit v set when e + v lies in the
shadow of the assigned component), next to a per-vertex bitmask of the
blueprint neighbours.  The growth step's point queries are bit operations
on these masks: a good edge is a handful of AND and shift tests, a
suitable pair is a subset test of a vertex set's bits in each pair's mask,
and the attachment vertices of a triple in W are the set bits of one AND
of masks, so no query scans the vertex set or a component's edges.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, isqrt

from .errors import ContractUnmet, HypothesisViolated, InconsistentWitness
from .hypergraph import Colour, ColouredKGraph, KGraph, edges_within, support_of
from .tight import TightDecomposition, _component_sets, monochromatic_components


def rational_sqrt_upper(x) -> Fraction:
    """Smallest m/1000 whose square is >= x (exact integer arithmetic)."""
    denominator = 1000
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    # smallest m with m^2 >= x * denominator^2
    target_num = x.numerator * denominator * denominator
    m = isqrt((target_num + x.denominator - 1) // x.denominator)
    while Fraction(m, denominator) ** 2 < x:
        m += 1
    return Fraction(m, denominator)


def blueprint_eps_for_density(eps) -> Fraction:
    """Blueprint quality achievable from a (1-eps, eps)-dense host: 3*sqrt(eps),
    rounded up to a rational so all later comparisons stay exact."""
    return 3 * rational_sqrt_upper(eps)


def pair_shadow_masks(decomp: TightDecomposition, k: int) -> dict:
    """component id -> {(k-2)-set: bitmask of z with set+z in the component's shadow}.

    Read off the decomposition's (k-1)-set buckets, not its edges: each
    (k-1)-set q of a component's shadow sets bit v in the mask of q - v,
    for each v in q.  Every (k-1)-set of the shadow lies in exactly one
    component of its colour, so the masks are those an edge scan gives.
    Computed once per decomposition and cached on it."""
    out = getattr(decomp, "_masks", None)
    if out is None:
        by_key = [{} for _ in decomp.components]
        for first, buckets in decomp._buckets:
            for q, local in buckets.items():
                masks = by_key[first + local]
                rest = q
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    masks[q ^ bit] = masks.get(q ^ bit, 0) | bit
        out = {cid: {_vertices(key, k - 2): mask for key, mask in masks.items()}
               for cid, masks in enumerate(by_key)}
        object.__setattr__(decomp, "_masks", out)
    return out


def _vertices(mask: int, size: int) -> tuple:
    """The `size` vertices of a vertex bitmask, ascending."""
    out = []
    for _ in range(size):
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return tuple(out)


@dataclass(frozen=True)
class Blueprint:
    graph: ColouredKGraph          # the coloured (k-2)-graph G
    eps: Fraction
    assign: dict                   # blueprint edge -> component id
    decomposition: TightDecomposition
    vertex_set: frozenset
    masks: dict                    # blueprint edge -> shadow bitmask of its component

    def pairs_of_colour(self, colour: Colour) -> list:
        return [e for e in self.graph.graph.sorted_edges if self.graph.colour[e] is colour]

    @cached_property
    def neighbours(self) -> dict:
        """vertex -> bitmask of the vertices y with pair(vertex, y) assigned."""
        out = {}
        for a, b in self.assign:
            if a < b:
                out[a] = out.get(a, 0) | 1 << b
                out[b] = out.get(b, 0) | 1 << a
        return out

    def min_degree(self) -> int:
        deg = {v: 0 for v in self.vertex_set}
        for e in self.assign:
            for v in e:
                deg[v] += 1
        return min(deg.values()) if deg else 0


def make_blueprint(CH: ColouredKGraph, eps, assign) -> Blueprint:
    """Assemble a Blueprint from an assignment of edges to the ids of
    monochromatic_components(CH).

    Edge colours are inherited from the assigned components, and each
    edge's shadow mask is read from CH's shared pair_shadow_masks.
    """
    decomp = monochromatic_components(CH)
    comp_masks = pair_shadow_masks(decomp, CH.k)
    colour = {}
    masks = {}
    for e, cid in assign.items():
        e = tuple(sorted(e))
        if cid < 0 or cid >= len(decomp.components):
            raise InconsistentWitness(f"assignment of {e} to unknown component {cid}")
        colour[e] = decomp.colour(cid)
        masks[e] = comp_masks[cid].get(e, 0)
    g = ColouredKGraph(KGraph(CH.k - 2, CH.n, frozenset(colour)), colour)
    vertex_set = frozenset(support_of(colour))
    return Blueprint(g, Fraction(eps), dict(sorted(assign.items())), decomp,
                     vertex_set, masks)


@dataclass(frozen=True)
class BlueprintCheck:
    ok: bool
    violations: tuple  # dict records naming the offending edge or pair


def check_blueprint(CH: ColouredKGraph, bp: Blueprint) -> BlueprintCheck:
    """Verify colour agreement, the shadow-degree condition at bp.eps, and
    pairwise component consistency.

    Components and shadow degrees come from CH's own analysis
    (monochromatic_components and pair_shadow_masks), never from
    bp.decomposition or bp.masks, so a blueprint carrying a forged
    analysis is still judged against the graph."""
    decomp = monochromatic_components(CH)
    comp_masks = pair_shadow_masks(decomp, CH.k)
    violations = []
    threshold = (1 - Fraction(bp.eps)) * CH.n
    for e, cid in bp.assign.items():
        if cid >= len(decomp.components):
            violations.append({"kind": "unknown_component", "edge": e, "component": cid})
            continue
        col = decomp.colour(cid)
        if bp.graph.colour[e] is not col:
            violations.append({"kind": "colour_mismatch", "edge": e, "component": cid})
        degree = comp_masks[cid].get(e, 0).bit_count()
        if degree < threshold:
            violations.append({"kind": "degree", "edge": e, "degree": degree,
                               "threshold": threshold})
    by_vertex_colour = {}
    for e, cid in bp.assign.items():
        col = bp.graph.colour[e]
        for v in e:
            by_vertex_colour.setdefault((v, col), []).append((e, cid))
    for (v, col), members in sorted(by_vertex_colour.items(),
                                    key=lambda t: (t[0][0], t[0][1].value)):
        cids = {cid for _, cid in members}
        if len(cids) > 1:
            first = sorted(members)[0]
            other = next(m for m in sorted(members) if m[1] != first[1])
            violations.append({"kind": "consistency", "pair": (first[0], other[0]),
                               "components": (first[1], other[1])})
    return BlueprintCheck(not violations, tuple(violations))


@dataclass(frozen=True)
class BlueprintBuild:
    blueprint: Blueprint
    omitted: int        # pairs with no component meeting the degree condition
    discarded: int      # pairs dropped by the consistency pass


def build_blueprint(CH: ColouredKGraph, eps) -> BlueprintBuild:
    """Heuristic constructor.

    For each (k-2)-set, take the monochromatic component maximizing its
    shadow degree per colour, keep the better colour (ties red) when it
    meets the degree threshold, then enforce consistency within each
    same-colour connected group by keeping the majority assignment.
    Blueprints are defined for 4-graphs only.
    """
    if CH.k != 4:
        raise HypothesisViolated(f"blueprints need a 4-graph, got k = {CH.k}")
    bp_eps = blueprint_eps_for_density(eps)
    decomp = monochromatic_components(CH)
    comp_masks = pair_shadow_masks(decomp, CH.k)
    threshold = (1 - bp_eps) * CH.n
    red_cids = [c for c in range(len(decomp.components)) if decomp.colour(c) is Colour.RED]
    blue_cids = [c for c in range(len(decomp.components)) if decomp.colour(c) is Colour.BLUE]

    chosen = {}
    omitted = 0
    for pair in itertools.combinations(range(1, CH.n + 1), CH.k - 2):
        best = {}
        for colour, cids in ((Colour.RED, red_cids), (Colour.BLUE, blue_cids)):
            top = None
            for cid in cids:
                d = comp_masks[cid].get(pair, 0).bit_count()
                if top is None or d > top[0]:
                    top = (d, cid)
            if top is not None and top[0] >= threshold:
                best[colour] = top
        if not best:
            omitted += 1
            continue
        if Colour.RED in best and (Colour.BLUE not in best
                                   or best[Colour.RED][0] >= best[Colour.BLUE][0]):
            chosen[pair] = best[Colour.RED][1]
        else:
            chosen[pair] = best[Colour.BLUE][1]

    # consistency pass: same-colour connected groups keep the majority component
    discarded = 0
    keep = {}
    for colour in (Colour.RED, Colour.BLUE):
        pairs = [p for p, cid in chosen.items() if decomp.colour(cid) is colour]
        for members in _component_sets(pairs)[0]:
            counts = {}
            for p in members:
                counts[chosen[p]] = counts.get(chosen[p], 0) + 1
            majority = min(cid for cid, c in counts.items()
                           if c == max(counts.values()))
            for p in members:
                if chosen[p] == majority:
                    keep[p] = majority
                else:
                    discarded += 1

    bp = make_blueprint(CH, bp_eps, keep)
    return BlueprintBuild(bp, omitted, discarded)


@dataclass(frozen=True)
class TrimResult:
    vertices: tuple
    colour: Colour
    spanning_edges: tuple   # the spanning monochromatic component's edges
    min_degree: int


def trim_spanning_component(F: ColouredKGraph, eps) -> TrimResult:
    """Shrink a dense coloured 2-graph to an induced subgraph with a spanning
    monochromatic component and high minimum degree.

    Vertices are deleted one at a time: lowest degree first while the degree
    target fails, then vertices missed by the largest monochromatic
    component.  Square comparisons keep the sqrt thresholds exact.  Fails
    loudly when the order floor would be crossed.
    """
    if F.k != 2:
        raise ValueError("trim operates on coloured 2-graphs")
    eps = Fraction(eps)
    n = F.n
    if F.graph.m < (1 - eps) * comb(n, 2):
        raise ValueError(
            f"edge count {F.graph.m} below (1-eps) * C({n},2) = {(1 - eps) * comb(n, 2)}")

    def order_ok(size: int) -> bool:
        # size >= (1 - 3 sqrt(eps)) n  <=>  (n - size)^2 <= 9 eps n^2 (or size >= n)
        d = n - size
        return d <= 0 or Fraction(d * d) <= 9 * eps * n * n

    def degree_ok(delta: int) -> bool:
        d = n - delta
        return d <= 0 or Fraction(d * d) <= 36 * eps * n * n

    kept = set(support_of(F.graph.edges))
    while True:
        edges = edges_within(F.graph.edges, kept, 2)
        deg = {v: 0 for v in kept}
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        if kept and not degree_ok(min(deg.values())):
            victim = min(kept, key=lambda v: (deg[v], v))
            if not order_ok(len(kept) - 1):
                raise ContractUnmet("degree target unreachable above the order floor")
            kept.remove(victim)
            continue
        best = set()
        for colour in (Colour.RED, Colour.BLUE):
            mono = [e for e in edges if F.colour[e] is colour]
            for comp in _component_sets(mono)[0]:
                comp_vs = set(support_of(comp))
                if comp_vs == kept:
                    return TrimResult(tuple(sorted(kept)), colour, tuple(comp),
                                      min(deg.values()))
                if len(comp_vs) > len(best):
                    best = comp_vs
        if not best:
            raise ContractUnmet("no monochromatic component at all")
        uncovered = sorted(kept - best)
        if not order_ok(len(kept) - 1):
            raise ContractUnmet("spanning component unreachable above the order floor")
        kept.remove(uncovered[0])


def good_flags(bp: Blueprint, f) -> tuple:
    """(g1, g2, g3) for a 4-set f: f inside V(G); blueprint complete on f;
    some z in f sees every remaining pair through its component's shadow,
    that is, z's bit is set in the shadow masks of the three pairs of f - z."""
    a, b, c, d = f = tuple(sorted(f))
    pairs = ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d))
    g1 = bp.vertex_set.issuperset(f)
    if not all(map(bp.assign.__contains__, pairs)):
        return g1, False, False
    ab, ac, ad, bc, bd, cd = [bp.masks.get(p, 0) for p in pairs]
    g3 = ((bc & bd & cd) >> a | (ac & ad & cd) >> b
          | (ab & ad & bd) >> c | (ab & ac & bc) >> d) & 1
    return g1, True, bool(g3)


def is_good(bp: Blueprint, f) -> bool:
    return all(good_flags(bp, f))


@dataclass(frozen=True)
class SuitablePairReport:
    f: tuple
    W: tuple
    sp: tuple          # six booleans
    good: tuple        # (g1, g2, g3) for f
    suitable: bool


def is_suitable_pair(CH: ColouredKGraph, bp: Blueprint, f, W) -> SuitablePairReport:
    """Flag-by-flag suitability of (f, W); suitable iff f is good and the
    completeness and shadow conditions (sp3-sp6: subset tests on the
    pairs' shadow masks) all hold."""
    f = tuple(sorted(f))
    W = tuple(sorted(W))
    if set(f) & set(W):
        raise ValueError("f and W must be disjoint")
    if not W:
        raise ValueError("W must be nonempty")
    if not bp.vertex_set.issuperset(W):
        raise ValueError("W must lie inside V(G)")
    union = tuple(sorted(f + W))
    sp1 = len(edges_within(CH.graph.edges, union, 4)) == comb(len(union), 4)
    sp2 = all(p in bp.assign for p in itertools.combinations(union, 2))
    f_bits = sum(1 << x for x in f)
    w_bits = sum(1 << w for w in W)

    def holds(p, need):   # p is a blueprint edge whose mask holds need's bits
        return p in bp.assign and bp.masks.get(p, 0) & need == need

    sp3 = sp2 and all(holds(p, w_bits) for p in itertools.combinations(f, 2))
    sp4 = sp2 and all(holds(p, f_bits) for p in itertools.combinations(W, 2))
    sp5 = len(W) < 2 or all(holds((min(x, y), max(x, y)), w_bits ^ 1 << y) for x in f for y in W)
    sp6 = len(W) < 3 or all(holds(p, w_bits ^ 1 << p[0] ^ 1 << p[1])
                            for p in itertools.combinations(W, 2))
    good = good_flags(bp, f)
    flags = (sp1, sp2, sp3, sp4, sp5, sp6)
    return SuitablePairReport(f, W, flags, good, all(flags) and all(good))


SAMPLE_ATTEMPTS = 60   # retry budget of sample_suitable_pairs per edge of M


def sample_suitable_pairs(CH: ColouredKGraph, bp: Blueprint, M, W, s: int, rng) -> tuple:
    """Randomized search for one suitable pair (f, W_f) per edge f of M, W_f an
    s-subset of W, each verified by is_suitable_pair.  The pairs found are
    pairwise disjoint; fewer than |M| means W or the retry budget ran out."""
    m_avail = sorted(tuple(sorted(e)) for e in M)
    w_avail = sorted(set(W))
    found = []
    budget = len(m_avail) * SAMPLE_ATTEMPTS
    while budget > 0 and m_avail and len(w_avail) >= s:
        budget -= 1
        f = rng.choice(m_avail)
        wf = tuple(sorted(rng.sample(w_avail, s)))
        report = is_suitable_pair(CH, bp, f, wf)
        if report.suitable:
            found.append((f, wf))
            m_avail.remove(f)
            for v in wf:
                w_avail.remove(v)
    return tuple(found)


@dataclass(frozen=True)
class BWResult:
    component: int      # the attached blue component
    gamma: dict         # witness triple inside W -> its attachment vertices


def compute_B_W(CH: ColouredKGraph, bp: Blueprint, R_id: int, W) -> BWResult:
    """The blue tight component attached to an uncovered set W with no good
    red edge inside.

    Witness triples are the blueprint triangles in W carrying a red pair
    and a nonzero degree; each of their attachment vertices must complete
    them into one common blue component, which must also receive every blue
    blueprint edge inside W.  Hypotheses are checked, not assumed.  The
    result's gamma maps each witness triple, in lexicographic order, to its
    attachment vertices, so the triple family is gamma's keys.

    A triple's degree is nonzero when its vertex bitmask is a (k-1)-set of
    either colour class's shadow.  Its attachment vertices are the bits of
    W's mask that survive the shadow masks of its three pairs and the
    neighbour masks of its three vertices, each then tested for an edge.
    Each attachment edge is verified once, however many triples reach it.
    """
    W = tuple(sorted(set(W)))
    if not bp.vertex_set.issuperset(W):
        raise HypothesisViolated("W must lie inside V(G)")
    for e in bp.pairs_of_colour(Colour.RED):
        if bp.assign[e] != R_id:
            raise HypothesisViolated(
                f"red blueprint edge {e} induces component {bp.assign[e]}, not {R_id}")
    decomp = bp.decomposition
    red_good = next((e for e in edges_within(decomp.edges_of(R_id), W, 4)
                     if is_good(bp, e)), None)
    if red_good is not None:
        raise HypothesisViolated(f"good red edge {red_good} inside W")

    shadows = [buckets for _, buckets in decomp._buckets]
    nbr = bp.neighbours
    masks = bp.masks
    pair_colour = bp.graph.colour
    edge_set = CH.graph.edges
    w_mask = 0
    for w in W:
        w_mask |= 1 << w
    candidates = {}
    gamma = {}
    attached = {}   # attachment edge -> None, in first-visit order
    for T in itertools.combinations(W, 3):
        a, b, c = T
        na, nb, nc = nbr.get(a, 0), nbr.get(b, 0), nbr.get(c, 0)
        if not (na >> b & na >> c & nb >> c & 1):
            continue
        ab, ac, bc = (a, b), (a, c), (b, c)
        if Colour.RED not in (pair_colour[ab], pair_colour[ac], pair_colour[bc]):
            continue
        t_mask = 1 << a | 1 << b | 1 << c
        if not any(t_mask in shadow for shadow in shadows):
            continue
        # nbr[x] never holds bit x, so T's own vertices drop out
        rest = (w_mask & masks.get(ab, 0) & masks.get(ac, 0) & masks.get(bc, 0)
                & na & nb & nc)
        hits = []
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length() - 1
            edge = tuple(sorted((a, b, c, w)))
            if edge not in edge_set:
                continue
            hits.append(w)
            if edge in attached:
                continue
            attached[edge] = None
            if CH.colour[edge] is Colour.RED:
                raise HypothesisViolated(
                    f"attachment edge {edge} is red (good red edge inside W)")
            candidates.setdefault(decomp.id_of(edge, Colour.BLUE), ("triple", T, w))
        if not hits:
            raise InconsistentWitness(f"triple {T} has no attachment vertex")
        gamma[T] = tuple(hits)

    for p in edges_within(bp.assign, W, 2):
        if pair_colour[p] is Colour.BLUE:
            candidates.setdefault(bp.assign[p], ("blue_pair", p))

    if not candidates:
        raise InconsistentWitness("no structure inside W determines a blue component")
    if len(candidates) > 1:
        items = sorted(candidates.items())
        raise InconsistentWitness(
            f"conflicting blue components {items[0][0]} ({items[0][1]}) "
            f"vs {items[1][0]} ({items[1][1]})")
    (b_id,) = candidates
    # full verification of the attachment property: every attachment edge is
    # a good edge of the attached component
    for edge in attached:
        if edge not in decomp.components[b_id] or not is_good(bp, edge):
            raise InconsistentWitness(
                f"attachment edge {edge} not good in component {b_id}")
    return BWResult(b_id, gamma)


def local_pivot(CH: ColouredKGraph, bp: Blueprint, R_id: int, f, W, e) -> int:
    """The pivot vertex of f: with (f, W) suitable, |W| = 3, a red blueprint
    edge e inside W, and the edges of the red component inside f + W sharing
    a vertex, some x in f lies in every red edge of H[f + W] containing e;
    every edge containing e and avoiding x is then blue.  Verified before
    returning; the smallest valid pivot is returned."""
    f = tuple(sorted(f))
    W = tuple(sorted(W))
    e = tuple(sorted(e))
    if len(W) != 3:
        raise HypothesisViolated(f"|W| = {len(W)}, expected 3")
    report = is_suitable_pair(CH, bp, f, W)
    if not report.suitable:
        raise HypothesisViolated(f"(f, W) not suitable: sp={report.sp} good={report.good}")
    decomp = bp.decomposition
    if f not in decomp.components[R_id] or not is_good(bp, f):
        raise HypothesisViolated(f"f = {f} is not a good edge of component {R_id}")
    if not set(e).issubset(W) or bp.assign.get(e) != R_id:
        raise HypothesisViolated(f"e = {e} is not a component-{R_id} blueprint edge in W")
    comp_edges = edges_within(decomp.edges_of(R_id), f + W, 4)
    if comp_edges and not set(f + W).intersection(*comp_edges):
        raise HypothesisViolated("component edges inside f + W have empty intersection")
    with_e = [edge for edge in edges_within(CH.graph.edges, f + W, 4)
              if set(e).issubset(edge)]
    pivot_pool = set(f).intersection(*(edge for edge in with_e
                                       if CH.colour[edge] is Colour.RED))
    for x in sorted(pivot_pool):
        if all(CH.colour[edge] is Colour.BLUE for edge in with_e if x not in edge):
            return x
    raise InconsistentWitness("no pivot vertex satisfies the conclusion")

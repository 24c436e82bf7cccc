"""The growth step's point queries against their scanning references.

`compute_B_W`, `good_flags`, `is_suitable_pair` and `_greedy_good` answer
with bit operations on the blueprint's masks; `tests/oracles.py` keeps the
scans they replaced.  On seeded instances both must give the same result,
or raise the same error class with the same message.
"""
import dataclasses
import itertools
import random
import re
from fractions import Fraction

from conftest import complete_random_coloured, split_edges
from oracles import (component_of, compute_B_W_reference, good_flags_reference,
                     greedy_good_reference, is_suitable_pair_reference)
from tcr import blueprint
from tcr.augment import DriverParams, _greedy_good
from tcr.blueprint import (build_blueprint, compute_B_W, good_flags, is_suitable_pair,
                           make_blueprint, pair_shadow_masks)
from tcr.extremal import parity_coloring
from tcr.hypergraph import Colour, build
from tcr.tight import monochromatic_components

EPS = DriverParams().eps


def threshold(N, t):
    """Red iff the edge has at least t vertices in [N/2]."""
    return build(4, N, [("R" if sum(v <= N // 2 for v in e) >= t else "B", e)
                        for e in itertools.combinations(range(1, N + 1), 4)])


def one_in_X(N, x):
    """Red iff the edge has exactly one vertex in X = [x]."""
    return build(4, N, [("R" if sum(v <= x for v in e) == 1 else "B", e)
                        for e in itertools.combinations(range(1, N + 1), 4)])


COLOURINGS = {
    "threshold10_1": lambda rng: threshold(10, 1),
    "threshold12_2": lambda rng: threshold(12, 2),
    "threshold14_1": lambda rng: threshold(14, 1),
    "random10": lambda rng: complete_random_coloured(4, 10, rng),
    "random12": lambda rng: complete_random_coloured(4, 12, rng),
    "random14": lambda rng: complete_random_coloured(4, 14, rng),
    "split11": lambda rng: split_edges(4, 3, 11),
    "split13": lambda rng: split_edges(4, 3),
    "split14": lambda rng: split_edges(4, 4, 14),
    "parity10": lambda rng: parity_coloring(4, 2, 2)[0],
    "parity13": lambda rng: parity_coloring(4, 3, 0)[0],
    "parity14": lambda rng: parity_coloring(4, 2, 1)[0],
    "one_in_X10": lambda rng: one_in_X(10, 4),
    "one_in_X12": lambda rng: one_in_X(12, 5),
    "one_in_X14": lambda rng: one_in_X(14, 6),
}

# compute_B_W's raise sites, in source order, by message
SITES = ("W must lie", "red blueprint edge", "good red edge", r"triple .* has no",
         r"attachment edge .* is red", "no structure", "conflicting",
         r"attachment edge .* not good")


def outcome(fn, *args):
    """The result, or the raised error's class name and message."""
    try:
        return fn(*args)
    except Exception as exc:  # the classes themselves are compared
        return type(exc).__name__, str(exc)


def site(result):
    """Index into SITES of a raised error, or None for a result."""
    if not (isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str)):
        return None
    return next(i for i, pattern in enumerate(SITES) if re.match(pattern, result[1]))


def bw_library(CH, bp, R_id, W):
    res = compute_B_W(CH, bp, R_id, W)
    return res.component, tuple(res.gamma), list(res.gamma.items())


def bw_reference(CH, bp, R_id, W):
    b_id, triples, gamma = compute_B_W_reference(CH, bp, R_id, W)
    return b_id, triples, list(gamma.items())


def blueprints(CH, rng):
    """The built blueprint; one from a random assignment of pairs to
    components whose shadow meets them; and that one with random extra
    bits in its shadow masks, as no honest analysis gives them."""
    built = build_blueprint(CH, EPS).blueprint
    decomp = monochromatic_components(CH)
    masks = pair_shadow_masks(decomp, 4)
    assign = {}
    for p in itertools.combinations(range(1, CH.n + 1), 2):
        cids = [cid for cid in range(len(decomp.components)) if masks[cid].get(p)]
        if cids and rng.random() < 0.85:
            assign[p] = rng.choice(cids)
    loose = make_blueprint(CH, built.eps, assign)
    noise = {p: m | rng.getrandbits(CH.n + 1) & ~1 for p, m in loose.masks.items()}
    forged = dataclasses.replace(loose, masks=noise)
    return built, loose, forged


def red_ids(bp):
    decomp = bp.decomposition
    ids = {bp.assign[p] for p in bp.pairs_of_colour(Colour.RED)}
    ids.update(cid for cid in range(len(decomp.components))
               if decomp.colour(cid) is Colour.RED)
    return sorted(ids)[:3]


def w_sets(bp, n, rng):
    vs = sorted(bp.vertex_set)
    out = [tuple(vs)]
    for _ in range(14):
        out.append(tuple(rng.sample(vs, rng.randint(0, len(vs)))))
    outside = sorted(set(range(1, n + 1)).difference(vs))
    if outside:
        out.append(tuple(rng.sample(vs, len(vs) // 2)) + (outside[0],))
    return out


def hand_built():
    """The raise sites that the seeded instances miss: a vertex of W outside
    V(G), and a red attachment edge.  The latter needs a shadow mask that no
    analysis of the graph gives: the red pair (1, 2) is assigned to the red
    component {5678}, yet its mask claims that {1, 2, 4} is in its shadow."""
    CH = build(4, 8, [("R" if e in ((1, 2, 3, 4), (5, 6, 7, 8)) else "B", e)
                      for e in itertools.combinations(range(1, 9), 4)])
    decomp = monochromatic_components(CH)
    ids = component_of(decomp)
    R_id = ids[(5, 6, 7, 8)]
    assign = {p: ids[(1, 2, 3, 5)] for p in itertools.combinations(range(1, 5), 2)}
    assign[(1, 2)] = R_id
    bp = make_blueprint(CH, Fraction(1, 2), assign)
    forged = dataclasses.replace(bp, masks={p: (1 << 9) - 2 for p in bp.masks})
    return [(CH, forged, R_id, (1, 2, 3, 4)), (CH, forged, R_id, (1, 5))]


def test_point_queries_match_their_scanning_references():
    rng = random.Random(20260213)
    reached = set()
    checked = 0
    for name, make in COLOURINGS.items():
        CH = make(rng)
        quads = list(itertools.combinations(range(1, CH.n + 1), 4))
        for bp in blueprints(CH, rng):
            for f in quads:
                assert good_flags(bp, f) == good_flags_reference(bp, f), (name, f)
            decomp = bp.decomposition
            for cid in range(len(decomp.components)):
                edges = decomp._sorted[cid]
                for size in (0, 2, 5, CH.n // 2, CH.n - 4):
                    forbidden = frozenset(rng.sample(range(1, CH.n + 1), size))
                    assert (_greedy_good(CH, bp, edges, forbidden)
                            == greedy_good_reference(bp, edges, forbidden)), (name, cid)
            for R_id in red_ids(bp):
                for W in w_sets(bp, CH.n, rng):
                    got = outcome(bw_library, CH, bp, R_id, W)
                    assert got == outcome(bw_reference, CH, bp, R_id, W), (name, R_id, W)
                    reached.add(site(got))
                    checked += 1
    assert checked > 500
    for CH, bp, R_id, W in hand_built():
        got = outcome(bw_library, CH, bp, R_id, W)
        assert got == outcome(bw_reference, CH, bp, R_id, W)
        reached.add(site(got))
    # the last site is unreachable: every attachment edge is good (its
    # attachment vertex sees the triple's three pairs) and is noted as a
    # candidate, so it lies in the one remaining component
    assert reached == {None, *range(len(SITES) - 1)}


def thinned(CH, rng):
    """CH without a tenth of its edges, so that some 4-sets are not edges."""
    return build(4, CH.n, [("R" if CH.colour[e] is Colour.RED else "B", e)
                           for e in CH.graph.sorted_edges if rng.random() < 0.9])


def suitable_library(CH, bp, f, W):
    rep = is_suitable_pair(CH, bp, f, W)
    return rep.sp, rep.good, rep.suitable


def test_suitable_pairs_match_their_scanning_reference():
    """Every blueprint variant, |W| = 1..4, f an edge and a non-edge of the
    host, and the three precondition failures."""
    rng = random.Random(20261019)
    seen, checked = set(), 0
    for name, make in COLOURINGS.items():
        full = make(rng)
        for CH in (full, thinned(full, rng)):
            non_edges = [q for q in itertools.combinations(range(1, CH.n + 1), 4)
                         if q not in CH.graph.edges]
            fs = rng.sample(CH.graph.sorted_edges, 6) + non_edges[:3]
            for bp in blueprints(CH, rng):
                vs = sorted(bp.vertex_set)
                for f in fs:
                    rest = [v for v in vs if v not in f]
                    Ws = [tuple(rng.sample(rest, s)) for s in (1, 2, 3, 4) * 3
                          if s <= len(rest)]
                    Ws += [(), (f[0],) + tuple(rest[:1]), (CH.n + 1,)]
                    for W in Ws:
                        got = outcome(suitable_library, CH, bp, f, W)
                        assert got == outcome(is_suitable_pair_reference, CH, bp, f, W), \
                            (name, f, W)
                        if got[0] == "ValueError":
                            seen.add(got[1])
                        else:
                            seen.update(("sp", i, flag) for i, flag in enumerate(got[0]))
                            seen.add(("suitable", got[2]))
                        checked += 1
    assert checked > 5000
    assert seen == {"f and W must be disjoint", "W must be nonempty",
                    "W must lie inside V(G)", ("suitable", True), ("suitable", False),
                    *(("sp", i, flag) for i in range(6) for flag in (True, False))}


def test_gamma_edges_are_good_edges_of_the_attached_component():
    """initial_matching's first-fit over compute_B_W's gamma takes these
    edges as good edges of B without testing them again."""
    rng = random.Random(20261020)
    checked = 0
    for make in COLOURINGS.values():
        CH = make(rng)
        for bp in blueprints(CH, rng):
            ids = component_of(bp.decomposition)
            for R_id in red_ids(bp):
                for W in w_sets(bp, CH.n, rng):
                    res = outcome(compute_B_W, CH, bp, R_id, W)
                    if site(res) is not None:
                        continue
                    for T, hits in res.gamma.items():
                        for w in hits:
                            edge = tuple(sorted(T + (w,)))
                            assert ids[edge] == res.component
                            assert all(good_flags_reference(bp, edge))
                            checked += 1
    assert checked > 1000


def test_compute_bw_tests_each_attachment_edge_once(monkeypatch):
    """is_good runs once per red edge of R inside W and once per distinct
    attachment edge, not once per (triple, attachment vertex) visit."""
    CH = threshold(14, 2)
    bp = build_blueprint(CH, EPS).blueprint
    (R_id,) = {bp.assign[p] for p in bp.pairs_of_colour(Colour.RED)}
    W = tuple(range(7, 15))
    calls = []
    original = blueprint.is_good
    monkeypatch.setattr(blueprint, "is_good", lambda bp, f: calls.append(f) or original(bp, f))
    res = compute_B_W(CH, bp, R_id, W)
    attached = {tuple(sorted(T + (w,))) for T, hits in res.gamma.items() for w in hits}
    visits = sum(len(hits) for hits in res.gamma.values())
    red_inside = [e for e in itertools.combinations(W, 4)
                  if e in bp.decomposition.components[R_id]]
    assert visits > len(attached) > 0
    assert len(calls) == len(attached) + len(red_inside)
    assert bw_library(CH, bp, R_id, W) == bw_reference(CH, bp, R_id, W)


class CountedReads(list):
    """A list that counts its item reads, the scan's and bisect's alike."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_greedy_good_bisects_past_used_prefix_runs():
    """On the canonical edge list of K_14^(4) (1,001 edges), `_greedy_good`
    first-fits as the full scan does, with or without forbidden vertices,
    but reads under an eighth of the list: each run of edges sharing a
    prefix that ends in a used vertex costs one bisection, not a read per
    edge.  Forbidding 1-3 puts 671 edges in three such runs at the front;
    forbidding 4 or 2 and 5 makes runs at every prefix length."""
    CH = threshold(14, 1)
    bp = build_blueprint(CH, EPS).blueprint
    edges = CH.graph.sorted_edges
    for forbidden in ((), {1, 2, 3}, {4}, {2, 5}, set(range(1, 7))):
        counted = CountedReads(edges)
        got = _greedy_good(CH, bp, counted, forbidden)
        assert got == greedy_good_reference(bp, edges, forbidden), forbidden
        assert got and counted.reads < len(edges) // 8, (forbidden, counted.reads)

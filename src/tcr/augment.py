"""The matching-growth engine: the growth set-up, initial good matching, one
augmentation step, and the outer driver producing a heavy monochromatic
tightly connected fractional matching.

`growth_setup` fixes the frame that `run_driver` and `tcr augment` share:
colours named so the blueprint's trimmed spanning component is red.  Weights
are exact rationals; iterated blow-ups are replaced by direct fractional
bookkeeping (the tests convert its weightings to matchings in blow-ups and
back as a cross-check).  A step that cannot certify the required gain
returns a structured trace naming the first failing claim instead of
forcing an answer; a growth that cannot start raises ContractUnmet naming
its claim, so every run that returns has a validated weighting.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .blueprint import (Blueprint, build_blueprint, compute_B_W, is_good,
                        is_suitable_pair, local_pivot, make_blueprint,
                        sample_suitable_pairs, trim_spanning_component)
from .errors import (ContractUnmet, HypothesisViolated, InconsistentWitness,
                     InternalError, NonEmptyIntersection, TcrError)
from .hypergraph import Colour, ColouredKGraph, density_check, edges_within, support_of
from .matchings import (FractionalMatching, empty_intersection_matching,
                        from_matching, greedy_matching, validate_fractional)
from .tight import monochromatic_components

ZERO = Fraction(0)
ONE = Fraction(1)
ITERATION_CAP = 25   # growth steps run_driver takes at most


@dataclass(frozen=True)
class DriverParams:
    """Finite stand-ins for the asymptotic constant hierarchy.

    Values are configuration, surfaced in every report; they are not claims
    about any limit.  Requires 0 < eps < gamma < delta < eta < 1.
    """

    eps: Fraction = Fraction(1, 50)
    gamma: Fraction = Fraction(1, 20)
    delta: Fraction = Fraction(1, 10)
    eta: Fraction = Fraction(3, 20)
    c: Fraction = Fraction(1, 100)

    def __post_init__(self):
        vals = (Fraction(self.eps), Fraction(self.gamma), Fraction(self.delta),
                Fraction(self.eta))
        for name, v in zip(("eps", "gamma", "delta", "eta"), vals):
            object.__setattr__(self, name, v)
        object.__setattr__(self, "c", Fraction(self.c))
        if not (0 < self.eps < self.gamma < self.delta < self.eta < 1):
            raise ValueError("need 0 < eps < gamma < delta < eta < 1")

    def scale_n(self, N: int) -> Fraction:
        """The matching-scale parameter n with N = (5/4 + 3 eta) n."""
        return Fraction(N) / (Fraction(5, 4) + 3 * self.eta)


@dataclass
class AugmentationState:
    matching: tuple           # current good matching, canonical order
    colour: Colour
    component: int


@dataclass(frozen=True)
class InitialOutcome:
    status: str               # ok | target_reached
    matching: tuple
    colour: Colour
    component: int
    kind: str
    trace: tuple


@dataclass(frozen=True)
class AugmentOutcome:
    status: str               # improved | terminal | step_failed
    fractional: FractionalMatching
    next_matchings: tuple     # (edges tuple, colour, component id) candidates
    trace: tuple


def _max_bipartite(admissible: dict) -> dict:
    """Maximum bipartite matching u -> f by augmenting paths (Kuhn)."""
    match_f: dict = {}

    def try_assign(u, seen):
        for f in admissible[u]:
            if f in seen:
                continue
            seen.add(f)
            if f not in match_f or try_assign(match_f[f], seen):
                match_f[f] = u
                return True
        return False

    for u in sorted(admissible):
        try_assign(u, set())
    return {u: f for f, u in sorted(match_f.items())}


def _greedy_good(CH, bp, edges, forbidden=()):
    """First-fit maximal matching among the good edges of `edges`, a
    sequence in canonical order, that avoid the `forbidden` vertices.

    When an edge's j-th vertex is used, every later edge that shares its
    first j + 1 vertices is used too, and these form one run of `edges`:
    the scan bisects past the run instead of reading it.  CH is unread;
    perfbench/selftest.py calls this with it."""
    out = []
    used = set(forbidden)
    i, end = 0, len(edges)
    while i < end:
        e = edges[i]
        for j, v in enumerate(e):
            if v in used:
                i = bisect_left(edges, e[:j] + (v + 1,), i + 1)
                break
        else:
            if is_good(bp, e):
                out.append(e)
                used.update(e)
            i += 1
    return out


def _largest_red(CH, bp, vertices):
    """The good edges of H inside `vertices`, the red component holding most
    of them (ties to the smaller id, None when no good edge is red), and
    that component's share."""
    good = [e for e in edges_within(CH.graph.edges, vertices, 4) if is_good(bp, e)]
    by_comp = {}
    for e in good:
        if CH.colour[e] is Colour.RED:
            by_comp.setdefault(bp.decomposition.id_of(e, Colour.RED), []).append(e)
    if not by_comp:
        return good, None, []
    r_star = max(by_comp, key=lambda cid: (len(by_comp[cid]), -cid))
    return good, r_star, by_comp[r_star]


def verify_case_hypotheses(bp, R_id, state: AugmentationState):
    """H1/H2 entry checks: M is a good matching inside its stated
    monochromatic component, and the red blueprint edges all induce R."""
    decomp = bp.decomposition
    for e in bp.pairs_of_colour(Colour.RED):
        if bp.assign[e] != R_id:
            raise HypothesisViolated(
                f"red blueprint edge {e} induces {bp.assign[e]}, not {R_id}")
    used = set()
    for e in state.matching:
        if used.intersection(e):
            raise HypothesisViolated(f"matching edges overlap at {e}")
        used.update(e)
        if e not in decomp.components[state.component]:
            raise HypothesisViolated(f"{e} outside component {state.component}")
        if not is_good(bp, e):
            raise HypothesisViolated(f"matching edge {e} is not good")
    col = decomp.colour(state.component)
    if col is not state.colour:
        raise HypothesisViolated("stated colour disagrees with the component")
    if state.colour is Colour.RED and state.component != R_id:
        raise HypothesisViolated(
            "a red matching must live in the spanning red component")


def initial_matching(CH: ColouredKGraph, bp: Blueprint, R_id: int,
                     params: DriverParams, rng) -> InitialOutcome:
    """A non-empty good matching in the spanning red component or in a
    blue component.

    Greedy in the red good edges first; if small, attach the uncovered set's
    blue component and build blue edges from witness triples, or fall back
    to the all-blue-pairs region whose good edges are red.  Raises
    ContractUnmet, naming the failed claim, when R_id is no component or
    every candidate is empty.  rng is unread; perfbench/runner.py calls
    this with five arguments."""
    decomp = bp.decomposition
    n_scale = params.scale_n(CH.n)
    target = n_scale / 4
    small = 3 * params.delta * n_scale
    trace = []
    if R_id >= len(decomp.components):
        raise ContractUnmet(f"initial_matching: component {R_id} does not exist")
    M = tuple(_greedy_good(CH, bp, decomp._sorted[R_id]))
    trace.append({"claim": "greedy_red", "size": len(M)})
    if len(M) >= target:
        return InitialOutcome("target_reached", M, Colour.RED, R_id,
                              "red_greedy", tuple(trace))
    if len(M) >= small:
        return InitialOutcome("ok", M, Colour.RED, R_id, "red_greedy", tuple(trace))

    covered = support_of(M)
    W = tuple(v for v in sorted(bp.vertex_set) if v not in covered)
    try:
        bw = compute_B_W(CH, bp, R_id, W)
    except (HypothesisViolated, InconsistentWitness) as exc:
        trace.append({"claim": "B_W", "failed": str(exc)})
        if not M:
            raise ContractUnmet(f"initial_matching: no good red edge, and B_W failed: {exc}")
        return InitialOutcome("ok", M, Colour.RED, R_id, "red_greedy", tuple(trace))
    B = bw.component
    b_edges = decomp.edges_of(B)

    red_pairs_W = [p for p in edges_within(bp.assign, W, 2) if bp.graph.colour[p] is Colour.RED]
    pair_matching = greedy_matching(red_pairs_W)
    trace.append({"claim": "red_pairs_in_W", "matching": len(pair_matching)})

    candidates = [(len(M), M, Colour.RED, R_id, "red_greedy")]

    if pair_matching:
        # every gamma edge is a good edge of B: compute_B_W has checked it
        blue_edges = greedy_matching(
            tuple(sorted(T + (w2,)))
            for T in (tuple(sorted((u, v, w))) for u, v in pair_matching for w in W)
            for w2 in bw.gamma.get(T, ()))
        trace.append({"claim": "blue_from_triples", "size": len(blue_edges)})
        if blue_edges:
            candidates.append((len(blue_edges), tuple(sorted(blue_edges)),
                               Colour.BLUE, B, "blue_triples"))

    w_prime = [v for v in W if all(v not in p for p in pair_matching)]
    blue_good_wp = _greedy_good(CH, bp, edges_within(b_edges, w_prime, 4))
    trace.append({"claim": "blue_in_W_prime", "size": len(blue_good_wp)})
    if blue_good_wp:
        candidates.append((len(blue_good_wp), tuple(sorted(blue_good_wp)),
                           Colour.BLUE, B, "blue_in_W_prime"))

    wpp = [v for v in w_prime if all(v not in e for e in blue_good_wp)]
    _, r_star, red_good = _largest_red(CH, bp, wpp)
    if r_star is not None:
        fallback = greedy_matching(red_good)
        trace.append({"claim": "red_fallback", "component": r_star,
                      "size": len(fallback)})
        candidates.append((len(fallback), tuple(sorted(fallback)),
                           Colour.RED, r_star, "red_fallback"))

    size, M_best, colour, comp, kind = max(candidates, key=lambda t: t[0])
    if size == 0:
        raise ContractUnmet("initial_matching: every candidate matching is empty")
    status = "target_reached" if size >= target else "ok"
    return InitialOutcome(status, M_best, colour, comp, kind, tuple(trace))


def _mono_k5(CH, f, u, colour) -> bool:
    edges = edges_within(CH.graph.edges, f + (u,), 4)
    return len(edges) == 5 and all(CH.colour[e] is colour for e in edges)


def _comp_partner(decomp, cid, f, u):
    """Smallest edge of component cid inside f + {u}; it must contain u."""
    for q in edges_within(decomp.edges_of(cid), f + (u,), 4):
        if u in q:
            return q
    return None


def _partners(CH, bp, W, M, fits) -> dict:
    """A maximum assignment u -> f of distinct edges f in M to vertices u in
    W, over the pairs with (f, {u}) suitable and fits(f, u)."""
    admissible = {}
    for u in W:
        opts = [f for f in M if is_suitable_pair(CH, bp, f, (u,)).suitable and fits(f, u)]
        if opts:
            admissible[u] = opts
    return _max_bipartite(admissible)


def _assemble(host, parts, colour, component) -> FractionalMatching:
    weights = {}
    for part in parts:
        for e, w in part.items():
            weights[e] = weights.get(e, ZERO) + w
    weights = {e: w for e, w in sorted(weights.items()) if w}
    return FractionalMatching(frozenset(host), weights, colour, component)


def _replace(CH, bp, cid, M, W, s, rng, trace, name,
             partners=None, pivot_R=None):
    """Empty-intersection replacements on sampled suitable pairs (f, W_f),
    f in M and W_f an s-subset of W.

    The component-cid edges inside f + W_f, plus the partner edge of f when
    `partners` maps f to (u, partner edge), get weight 1/(t-1) each when
    their t edges share no vertex; they replace f, or its partner.  A family
    with a common vertex is traced as `<name>_core_nonempty`, with its local
    pivot when pivot_R names the red component.  Returns (weights, replaced).
    """
    weights, replaced = {}, set()
    if not M or len(W) < s:
        return weights, replaced
    comp = bp.decomposition.edges_of(cid)
    for f, wf in sample_suitable_pairs(CH, bp, M, W, s, rng):
        family = set(edges_within(comp, f + wf, 4))
        out = f
        if partners is not None:
            u, out = partners[f]
            family.add(out)
        try:
            phi = empty_intersection_matching(family)
        except NonEmptyIntersection:
            entry = {"claim": f"{name}_core_nonempty", "f": f}
            entry.update({"W_f": wf} if partners is None else {"W_u": wf, "u": u})
            if pivot_R is not None:
                red_pairs = [p for p in edges_within(bp.assign, wf, 2)
                             if bp.assign[p] == pivot_R]
                if red_pairs:
                    try:
                        entry["pivot"] = local_pivot(CH, bp, pivot_R, f, wf, red_pairs[0])
                    except TcrError as exc:
                        entry["pivot_failed"] = str(exc)
            trace.append(entry)
            continue
        weights.update(phi.weights)
        replaced.add(out)
    return weights, replaced


def _partner_route(CH, bp, cid, u2, W2, rng, trace, name, inside):
    """The integral matching of component cid made of the partner edges of
    u2's (u, f) pairs and a first-fit good matching disjoint from them.

    With `inside` the second part stays inside W2 and the route ends there;
    otherwise it may use any vertex and empty-intersection replacements
    around the surviving partners follow.  Returns the route's weighting and
    its integral matching."""
    decomp = bp.decomposition
    c_edges = decomp.edges_of(cid)
    partner = {u: _comp_partner(decomp, cid, f, u) for u, f in sorted(u2.items())}
    m1 = sorted(partner.values())
    forbidden = set(support_of(m1))
    if inside:
        forbidden |= set(range(1, CH.n + 1)).difference(W2)
    m2 = _greedy_good(CH, bp, decomp._sorted[cid], forbidden=forbidden)
    entry = {"claim": f"{name}_route", "partners": len(m1)}
    entry.update({"component": cid, "inside": len(m2)} if inside else {"disjoint": len(m2)})
    trace.append(entry)
    fact, replaced = {}, set()
    if not inside:
        used2 = set(support_of(m2))
        u_pp = [u for u in sorted(u2) if not used2.intersection(u2[u] + (u,))]
        fact, replaced = _replace(
            CH, bp, cid, sorted(u2[u] for u in u_pp), [v for v in W2 if v not in used2],
            4, rng, trace, name, partners={u2[u]: (u, partner[u]) for u in u_pp})
    kept = {e: ONE for e in m1 + m2 if e not in replaced}
    return (_assemble(c_edges, [kept, fact], decomp.colour(cid), cid),
            tuple(sorted(m1 + m2)))


def augment_once(CH: ColouredKGraph, bp: Blueprint, R_id: int,
                 state: AugmentationState, params: DriverParams,
                 rng) -> AugmentOutcome:
    """One growth step for a good matching of either colour.

    Searches, in the proof order: integral extension into the uncovered
    set; single-vertex monochromatic K5 extensions at the empty-intersection
    weight 1/4; opposite-colour partner edges (of the blue component
    attached to the uncovered set for a red matching; of a red component
    for a blue one); and empty-intersection replacements on sampled
    suitable pairs.  Every candidate output is revalidated; success means a
    gain of at least gamma * n over the incoming matching."""
    verify_case_hypotheses(bp, R_id, state)
    decomp = bp.decomposition
    n_scale = params.scale_n(CH.n)
    target = n_scale / 4
    colour, cid = state.colour, state.component
    c_edges = decomp.edges_of(cid)
    if len(state.matching) >= target:
        return AugmentOutcome("terminal", from_matching(
            state.matching, c_edges, colour, cid), (), ({"claim": "already_at_target"},))
    primary = colour is Colour.RED
    name = colour.name.lower()
    base = len(state.matching)
    need = base + params.gamma * n_scale
    trace = []

    # maximality repair: extend M greedily inside its component
    added = _greedy_good(CH, bp, decomp._sorted[cid], forbidden=support_of(state.matching))
    M = tuple(sorted([*state.matching, *added]))
    next_matchings = []
    if added:
        trace.append({"claim": "maximality_repair", "added": len(added)})
        next_matchings.append((M, colour, cid))
    if len(M) >= target:
        return AugmentOutcome("terminal", from_matching(M, c_edges, colour, cid),
                              tuple(next_matchings),
                              tuple(trace) + ({"claim": "target_reached_integrally"},))
    covered = support_of(M)
    W = tuple(v for v in sorted(bp.vertex_set) if v not in covered)

    partner_cid = None
    if primary:
        try:
            partner_cid = compute_B_W(CH, bp, R_id, W).component
        except (HypothesisViolated, InconsistentWitness) as exc:
            trace.append({"claim": "B_W", "failed": str(exc)})

    # single-vertex monochromatic K5 extensions, spread by the empty-intersection
    # weighting; the K5s are disjoint, as the u are distinct and the f disjoint
    u_match = _partners(CH, bp, W, M, lambda f, u: _mono_k5(CH, f, u, colour))
    trace.append({"claim": f"{name}_k5_extensions", "count": len(u_match)})
    spread = {q: w for u, f in sorted(u_match.items())
              for q, w in empty_intersection_matching(
                  edges_within(CH.graph.edges, f + (u,), 4)).weights.items()}
    spread_f = set(u_match.values())
    W1 = [u for u in W if u not in u_match]
    M1 = [f for f in M if f not in spread_f]

    # opposite-colour partners: a distinct f per u with an edge of the
    # partner component inside f + u
    route, inside = colour.opposite.name.lower(), False
    if not primary:
        pairs_w1 = edges_within(bp.assign, W1, 2)
        red_pairs = [p for p in pairs_w1 if bp.graph.colour[p] is Colour.RED]
        own_pairs = [p for p in pairs_w1 if bp.assign[p] == cid]
        inside = not red_pairs and bool(own_pairs)
        trace.append({"claim": "case_split", "red_pairs": len(red_pairs),
                      "b2_pairs": len(own_pairs), "case": 1 if inside else 2})
        partner_cid = R_id
        if inside:
            route = "red_star"
            good_w1, partner_cid, _ = _largest_red(CH, bp, W1)
            stray_blue = [e for e in good_w1 if CH.colour[e] is Colour.BLUE]
            if stray_blue:
                trace.append({"claim": "good_in_W1_all_red", "failed": stray_blue[:3]})
            if partner_cid is None:
                trace.append({"claim": "red_star_route", "failed": "no good red edges"})
    u2 = {}
    if partner_cid is not None:
        u2 = _partners(CH, bp, W1, M1, lambda f, u: _comp_partner(
            decomp, partner_cid, f, u) is not None)
    if not inside:
        trace.append({"claim": f"{route}_partners", "count": len(u2)})
    W2 = [u for u in W1 if u not in u2]
    M2 = [f for f in M1 if f not in set(u2.values())]

    # empty-intersection replacements inside the matching's own component
    fact, replaced = _replace(CH, bp, cid, M2, W2, 3 if primary else 4, rng,
                              trace, name, pivot_R=R_id if primary else None)
    if primary:
        gain = sum(fact.values(), ZERO) - len(replaced)
        trace.append({"claim": "red_replacements", "gain": gain})
    kept = {e: ONE for e in M if e not in spread_f and e not in replaced}
    candidates = [(name, _assemble(c_edges, [kept, spread, fact], colour, cid))]

    if partner_cid is not None and (u2 or inside):
        phi, matching = _partner_route(CH, bp, partner_cid, u2, W2, rng,
                                       trace, route, inside)
        candidates.append((route, phi))
        next_matchings.append((matching, decomp.colour(partner_cid), partner_cid))

    best_name, best = max(candidates, key=lambda t: (t[1].weight(), t[0]))
    ok, violation = validate_fractional(CH, best)
    if not ok:
        raise InternalError(f"constructed weighting invalid: {violation}")
    trace.append({"claim": "best_route", "route": best_name,
                  "weight": best.weight(), "needed": need})
    status = "improved" if best.weight() >= need else "step_failed"
    return AugmentOutcome(status, best, tuple(next_matchings), tuple(trace))


@dataclass(frozen=True)
class DriverReport:
    """What run_driver did: the best validated weighting found, and how.
    On a colour-swapped run, best and the trace are in the working (swapped)
    frame; final_colour and final_component are in the input's frame (its
    colours and its monochromatic_components ids)."""

    status: str                 # reached | improved | step_failed
    n_vertices: int
    n_scale: Fraction
    target: Fraction
    colour_swapped: bool
    initial_kind: str
    iterations: int
    final_colour: Colour
    final_component: int
    min_weight_ok: bool
    support_good: bool
    trace: tuple
    best: FractionalMatching


def growth_setup(CH: ColouredKGraph, params: DriverParams):
    """Check density, build the blueprint, trim it to a spanning monochromatic
    component (at its own missing-pair density if worse) and name colours so
    that component is red.  Returns (work, swapped, bp, R_id, trace), work
    being CH or CH.swapped() and R_id the one id of bp's red pairs.  Raises
    HypothesisViolated on a sparse input and ContractUnmet, naming
    canonical_red_spanning, when the spanning component is blue in both
    frames.

    The kept red pairs are the trim's spanning component, which is
    connected, and build_blueprint gives each connected group of red pairs
    one id, so they all carry R_id."""
    if not density_check(CH.graph, 1 - params.eps, params.eps).passed:
        raise HypothesisViolated(
            f"input is not (1-eps, eps)-dense at eps = {params.eps}")
    for swapped in (False, True):
        work = CH.swapped() if swapped else CH
        bp0 = build_blueprint(work, params.eps).blueprint
        miss = 1 - Fraction(bp0.graph.graph.m, comb(CH.n, 2))
        trim = trim_spanning_component(bp0.graph, max(params.eps, miss))
        if trim.colour is Colour.RED:
            break
    else:
        raise ContractUnmet("canonical_red_spanning: the trimmed spanning component "
                            "is blue in both colour frames")
    trace = [{"claim": "trim", "kept": len(trim.vertices), "min_degree": trim.min_degree}]

    spanning = set(trim.spanning_edges)
    kept_assign = {e: bp0.assign[e] for e in edges_within(bp0.assign, trim.vertices, 2)
                   if bp0.graph.colour[e] is Colour.BLUE or e in spanning}
    bp = make_blueprint(work, bp0.eps, kept_assign)
    return work, swapped, bp, bp.assign[trim.spanning_edges[0]], trace


def run_driver(CH: ColouredKGraph, params: DriverParams, seed: int) -> DriverReport:
    """Set up the growth frame (growth_setup), seed a good matching and grow it
    until the n/4 target is reached, the iteration cap trips, or no route
    certifies the required gain.  Outputs are fully revalidated; a failed
    revalidation is an InternalError."""
    rng = random.Random(seed)
    work, swapped, bp, R_id, trace = growth_setup(CH, params)
    n_scale = params.scale_n(CH.n)
    target = n_scale / 4
    init = initial_matching(work, bp, R_id, params, rng)
    trace.extend(init.trace)

    decomp = bp.decomposition
    best = from_matching(init.matching, decomp.edges_of(init.component),
                         init.colour, init.component)
    state = AugmentationState(init.matching, init.colour, init.component)
    iterations = 0
    status = "improved"
    if init.status == "target_reached":
        status = "reached"
    else:
        while iterations < ITERATION_CAP:
            iterations += 1
            if state.colour is Colour.RED and state.component != R_id:
                trace.append({"claim": "iterate", "stopped":
                              "matching outside the spanning red component"})
                status = "step_failed"
                break
            outcome = augment_once(work, bp, R_id, state, params, rng)
            trace.append({"claim": f"step_{iterations}", "status": outcome.status,
                          "weight": outcome.fractional.weight()})
            if outcome.fractional.weight() > best.weight():
                best = outcome.fractional
            if outcome.status == "terminal" or best.weight() >= target:
                status = "reached"
                break
            grown = [m for m in outcome.next_matchings
                     if len(m[0]) > len(state.matching)]
            if not grown:
                if outcome.status == "step_failed":
                    status = "step_failed"
                else:
                    trace.append({"claim": "iterate",
                                  "stopped": "no integral continuation"})
                break
            edges, colour, comp = max(grown, key=lambda m: (len(m[0]), m[1].value))
            state = AugmentationState(edges, colour, comp)

    ok, violation = validate_fractional(work, best)
    if not (ok and decomp.components[best.component].issuperset(best.weights)):
        raise InternalError(f"driver output failed validation: {violation}")
    support_good = all(is_good(bp, e) for e in best.weights)
    min_weight_ok = all(w >= params.c for w in best.weights.values())
    final_colour, final_component = best.colour, best.component
    if swapped:
        # the swapped analysis numbers blue components first; re-read the id
        # as that of the input's component holding the least support edge
        final_colour = final_colour.opposite
        first = min(best.weights)
        final_component = next(cid for cid, comp in enumerate(
            monochromatic_components(CH).components) if first in comp)
    return DriverReport(status, CH.n, n_scale, target, swapped, init.kind,
                        iterations, final_colour, final_component, min_weight_ok,
                        support_good, tuple(trace), best)

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (all_red, complete_random_coloured, near_complete_coloured,
                      rand_coloured, split_edges, threshold_colouring)
from tcr.augment import (AugmentationState, DriverParams, augment_once, growth_setup,
                         initial_matching, run_driver, verify_case_hypotheses)
from oracles import component_of, fractional_to_matching
from tcr.blowup import blow_up
from tcr.blueprint import build_blueprint, is_good
from tcr.errors import ContractUnmet, HypothesisViolated
from tcr.extremal import parity_coloring
from tcr.hypergraph import Colour, build
from tcr.matchings import (empty_intersection_matching, validate_fractional)
from tcr.tight import monochromatic_components

SMALL_STEPS = DriverParams(eps=Fraction(1, 100), gamma=Fraction(1, 80),
                           delta=Fraction(1, 40), eta=Fraction(3, 20))


def spanning_setup(ch, eps=Fraction(1, 50)):
    res = build_blueprint(ch, eps)
    bp = res.blueprint
    (red_id,) = {bp.assign[p] for p in bp.pairs_of_colour(Colour.RED)}
    return bp, red_id


def test_params_hierarchy_validated():
    with pytest.raises(ValueError):
        DriverParams(eps=Fraction(1, 10), gamma=Fraction(1, 20),
                     delta=Fraction(1, 5), eta=Fraction(1, 4))
    p = DriverParams()
    assert 0 < p.eps < p.gamma < p.delta < p.eta < 1


def test_scale_n():
    p = DriverParams(eta=Fraction(3, 20))
    assert p.scale_n(17) == Fraction(10)   # 17 = (5/4 + 9/20) * 10


def test_initial_all_red_k20():
    ch = all_red(4, 20)
    bp, red_id = spanning_setup(ch)
    rng = random.Random(0)
    out = initial_matching(ch, bp, red_id, SMALL_STEPS, rng)
    assert out.status == "target_reached"
    assert len(out.matching) == 5
    assert out.colour is Colour.RED


def test_initial_split_goes_blue():
    """On the split colouring the red good matching is capped by |X|, so the
    initial matching comes from the uncovered set's blue component."""
    ch = split_edges(4, 3)   # N = 13, |X| = 2
    bp, red_id = spanning_setup(ch)
    rng = random.Random(1)
    out = initial_matching(ch, bp, red_id, DriverParams(), rng)
    assert out.colour is Colour.BLUE
    assert len(out.matching) >= 2
    ids = component_of(bp.decomposition)
    for e in out.matching:
        assert ids[e] == out.component
        assert is_good(bp, e)


def test_initial_empty_graph_stuck():
    from tcr.hypergraph import ColouredKGraph, KGraph
    from tcr.blueprint import make_blueprint
    empty = ColouredKGraph(KGraph(4, 8, frozenset()), {})
    bp = make_blueprint(empty, Fraction(1, 2), {})
    rng = random.Random(0)
    with pytest.raises(ContractUnmet, match="initial_matching: component 0"):
        initial_matching(empty, bp, 0, DriverParams(), rng)


GROWTH_INPUTS = {
    "all_red20": lambda: all_red(4, 20),
    "all_blue17": lambda: build(4, 17, [("B", e)
                                        for e in itertools.combinations(range(1, 18), 4)]),
    "split8": lambda: split_edges(4, 2),
    "split13": lambda: split_edges(4, 3),
    "parity442": lambda: parity_coloring(4, 4, 2)[0],
    "parity450": lambda: parity_coloring(4, 5, 0)[0],
    **{f"threshold{N}_t{t}": (lambda N=N, t=t: threshold_colouring(N, t))
       for N in (16, 24) for t in (1, 2, 3)},
    **{f"random{N}_{seed}": (lambda N=N, seed=seed: complete_random_coloured(
        4, N, random.Random(seed))) for N in (12, 16) for seed in range(3)},
}


@pytest.mark.parametrize("name", sorted(GROWTH_INPUTS))
def test_growth_setup_red_pairs_carry_one_id(name):
    """The kept red pairs are the trim's connected spanning component, and
    the blueprint's consistency pass gives each connected group of red
    pairs one id: so every red pair of the set-up blueprint carries R_id,
    a red component, in either frame."""
    work, swapped, bp, R_id, trace = growth_setup(GROWTH_INPUTS[name](), DriverParams())
    red = bp.pairs_of_colour(Colour.RED)
    assert red and {bp.assign[p] for p in red} == {R_id}
    assert bp.decomposition.colour(R_id) is Colour.RED
    assert [t["claim"] for t in trace] == ["trim"]


def test_hypothesis_checks_fire_before_search():
    ch = all_red(4, 16)
    bp, red_id = spanning_setup(ch)
    rng = random.Random(0)
    # overlap
    state = AugmentationState(((1, 2, 3, 4), (4, 5, 6, 7)), Colour.RED, red_id)
    with pytest.raises(HypothesisViolated):
        augment_once(ch, bp, red_id, state, SMALL_STEPS, rng)
    # wrong colour tag
    state = AugmentationState(((1, 2, 3, 4),), Colour.BLUE, red_id)
    with pytest.raises(HypothesisViolated):
        augment_once(ch, bp, red_id, state, SMALL_STEPS, rng)
    # an edge outside the stated component (here outside the graph)
    state = AugmentationState(((1, 2, 3, 17),), Colour.RED, red_id)
    with pytest.raises(HypothesisViolated, match="outside component"):
        augment_once(ch, bp, red_id, state, SMALL_STEPS, rng)


def test_case_hypotheses_on_a_hand_built_blueprint():
    """Red edges 1234 and 5678 are red components 0 and 1.  A blueprint with
    pair 56 assigned to component 1 has a red pair outside R_id = 0; one
    with only pair 12 assigned makes 1234, an edge of component 0, not good."""
    from tcr.blueprint import make_blueprint
    ch = build(4, 8, [("R", (1, 2, 3, 4)), ("R", (5, 6, 7, 8)), ("B", (1, 2, 5, 6))])
    two_ids = make_blueprint(ch, Fraction(1, 2), {(1, 2): 0, (5, 6): 1})
    with pytest.raises(HypothesisViolated, match=r"red blueprint edge \(5, 6\) induces 1, not 0"):
        verify_case_hypotheses(two_ids, 0, AugmentationState((), Colour.RED, 0))
    one_pair = make_blueprint(ch, Fraction(1, 2), {(1, 2): 0})
    with pytest.raises(HypothesisViolated, match=r"matching edge \(1, 2, 3, 4\) is not good"):
        verify_case_hypotheses(one_pair, 0, AugmentationState(((1, 2, 3, 4),), Colour.RED, 0))


def test_initial_keeps_the_red_greedy_matching_when_B_W_fails(monkeypatch):
    """split-13 at the default parameters: the red greedy matching is 1234,
    which covers both vertices of X, below 3 delta n = 39/17, so the
    uncovered set's blue component is sought; when compute_B_W fails, the
    red greedy matching is returned."""
    from tcr import augment
    from tcr.errors import InconsistentWitness

    def failed(*args):
        raise InconsistentWitness("forced")

    work, swapped, bp, R_id, _ = growth_setup(split_edges(4, 3), DriverParams())
    monkeypatch.setattr(augment, "compute_B_W", failed)
    out = initial_matching(work, bp, R_id, DriverParams(), random.Random(0))
    assert (out.status, out.kind, out.colour, out.component) == ("ok", "red_greedy",
                                                                 Colour.RED, R_id)
    assert out.matching == ((1, 2, 3, 4),)
    assert out.trace == ({"claim": "greedy_red", "size": 1},
                         {"claim": "B_W", "failed": "forced"})


def test_augment_terminal_when_at_target():
    ch = all_red(4, 17)   # n = 10 at eta = 3/20, target 5/2
    bp, red_id = spanning_setup(ch)
    rng = random.Random(0)
    state = AugmentationState(((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)),
                              Colour.RED, red_id)
    out = augment_once(ch, bp, red_id, state, DriverParams(), rng)
    assert out.status == "terminal"


def test_augment_all_red_k24_reaches_four():
    """From a size-3 matching in all-red K_24 one step must certify weight 4
    or more (the maximality repair plus quarter-spreads deliver it)."""
    ch = all_red(4, 24)
    bp, red_id = spanning_setup(ch)
    rng = random.Random(3)
    params = DriverParams(eps=Fraction(1, 100), gamma=Fraction(1, 80),
                          delta=Fraction(1, 40), eta=Fraction(13, 4) / 3 - Fraction(5, 12))
    # eta chosen so n = 24 / (5/4 + 3 eta) keeps the target above 4
    state = AugmentationState(((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)),
                              Colour.RED, red_id)
    out = augment_once(ch, bp, red_id, state, SMALL_STEPS, rng)
    assert out.status in ("improved", "terminal")
    assert out.fractional.weight() >= 4
    ok, _ = validate_fractional(ch, out.fractional)
    assert ok


def test_augment_quarter_spread_matches_fact_construction():
    """A single-vertex extension spreads quarters over the five edges of the
    red K_5^(4), exactly the empty-intersection construction at s = 5."""
    ch = all_red(4, 9)
    bp, red_id = spanning_setup(ch, eps=Fraction(1, 4))
    family = [e for e in itertools.combinations(range(1, 6), 4)]
    phi = empty_intersection_matching(family)
    assert phi.weight() == Fraction(5, 4)
    assert all(phi.weights[e] == Fraction(1, 4) for e in family)


def test_augment_u_case_output_is_fact_at_s5():
    """Two red cliques K_9 and K_8 with blue cross edges: the covered clique
    leaves exactly one uncovered vertex, so the step's only route is the
    single-vertex extension; its restriction to that edge must equal the
    empty-intersection weighting of the five red edges."""
    from tcr.blueprint import make_blueprint
    from tcr.hypergraph import build
    edges = []
    for e in itertools.combinations(range(1, 18), 4):
        if e[-1] <= 9 or e[0] >= 10:
            edges.append(("R", e))
        else:
            edges.append(("B", e))
    ch = build(4, 17, edges)
    decomp = monochromatic_components(ch)
    r0 = component_of(decomp)[(1, 2, 3, 4)]
    assign = {p: r0 for p in itertools.combinations(range(1, 10), 2)}
    bp = make_blueprint(ch, Fraction(1, 2), assign)
    M = ((1, 2, 3, 4), (5, 6, 7, 8))
    state = AugmentationState(M, Colour.RED, r0)
    rng = random.Random(0)
    out = augment_once(ch, bp, r0, state, SMALL_STEPS, rng)
    assert out.status == "improved"
    assert out.fractional.weight() == Fraction(9, 4)
    replaced = next(f for f in M
                    if out.fractional.weights.get(f) == Fraction(1, 4))
    family = [e for e in itertools.combinations(tuple(sorted(replaced + (9,))), 4)]
    fact = empty_intersection_matching(family)
    for e in family:
        assert out.fractional.weights[e] == fact.weights[e] == Fraction(1, 4)


def test_augment_soundness_on_dense_random():
    rng = random.Random(2024)
    ch = near_complete_coloured(4, 16, rng, deletions=2)
    bp, red_id = spanning_setup(ch, eps=Fraction(1, 20))
    rng2 = random.Random(5)
    out = initial_matching(ch, bp, red_id, SMALL_STEPS, rng2)
    if out.status != "ok":
        return
    state = AugmentationState(out.matching, out.colour, out.component)
    step = augment_once(ch, bp, red_id, state, SMALL_STEPS, rng2)
    assert step.fractional is not None
    ok, violation = validate_fractional(ch, step.fractional)
    assert ok, violation
    decomp = bp.decomposition
    ids = component_of(decomp)
    comp_ids = {ids[e] for e in step.fractional.weights}
    assert len(comp_ids) <= 1
    for e in step.fractional.weights:
        assert is_good(bp, e)


def two_clique_fixture():
    """Blue K_6^(4) on 1..6, red K_6^(4) on 5..10, nothing else; blueprint
    pairs split between the two cliques' components."""
    from tcr.blueprint import make_blueprint
    from tcr.hypergraph import build
    edges = []
    for e in itertools.combinations(range(1, 7), 4):
        edges.append(("B", e))
    for e in itertools.combinations(range(5, 11), 4):
        edges.append(("R", e))
    ch = build(4, 10, edges)
    decomp = monochromatic_components(ch)
    red_id = next(c for c in range(len(decomp.components))
                  if decomp.colour_of[c] is Colour.RED)
    blue_id = 1 - red_id
    assign = {p: blue_id for p in itertools.combinations(range(1, 7), 2)}
    assign.update({p: red_id for p in itertools.combinations(range(7, 11), 2)})
    bp = make_blueprint(ch, Fraction(2, 3), assign)
    return ch, bp, red_id, blue_id


def test_augment_blue_case_k5_spread():
    """H2 route: a blue matching grows by a blue K_5^(4) quarter-spread on an
    uncovered clique vertex."""
    ch, bp, red_id, blue_id = two_clique_fixture()
    state = AugmentationState(((1, 2, 3, 4),), Colour.BLUE, blue_id)
    rng = random.Random(0)
    out = augment_once(ch, bp, red_id, state, SMALL_STEPS, rng)
    assert out.status == "improved"
    assert out.fractional.weight() == Fraction(5, 4)
    assert out.fractional.colour is Colour.BLUE
    quarters = [e for e, w in out.fractional.weights.items()
                if w == Fraction(1, 4)]
    assert len(quarters) == 5
    ok, _ = validate_fractional(ch, out.fractional)
    assert ok


def test_augment_blue_case_on_split():
    """H2 on the split colouring: the blue matching inside Y is grown or the
    step fails with a structured trace; either way the output validates."""
    ch = split_edges(4, 3)
    bp, red_id = spanning_setup(ch)
    decomp = bp.decomposition
    blue_id = next(c for c in range(len(decomp.components))
                   if decomp.colour_of[c] is Colour.BLUE)
    M = ((3, 4, 5, 6), (7, 8, 9, 10))
    state = AugmentationState(M, Colour.BLUE, blue_id)
    rng = random.Random(4)
    out = augment_once(ch, bp, red_id, state, SMALL_STEPS, rng)
    assert out.fractional is not None
    ok, violation = validate_fractional(ch, out.fractional)
    assert ok, violation
    ids = component_of(decomp)
    comp_ids = {ids[e] for e in out.fractional.weights}
    assert len(comp_ids) == 1
    for e in out.fractional.weights:
        assert is_good(bp, e)
    if out.status == "step_failed":
        assert any("claim" in entry for entry in out.trace)


def test_driver_all_red_reaches_target():
    ch = all_red(4, 25)
    rep = run_driver(ch, DriverParams(), seed=11)
    assert rep.status == "reached"
    assert rep.status == "reached" and rep.best.weight() >= rep.target
    assert rep.support_good and rep.min_weight_ok
    assert rep.final_colour is Colour.RED


def test_driver_split_consistent_with_lower_bound():
    """At N = (k+1)n - 2 the driver cannot reach a monochromatic matching of
    weight n: the split construction caps both colours below n."""
    ch = split_edges(4, 3)   # N = 13, n_construction = 3
    rep = run_driver(ch, DriverParams(), seed=11)
    assert rep.best.weight() < 3
    ok, _ = validate_fractional(ch, rep.best)
    assert ok


def test_driver_stops_when_matching_leaves_spanning_component():
    """parity_coloring(4, 5, 0), seed 7: the initial matching falls back to
    a red component other than the spanning one, so the driver stops after
    one iteration with a validated output."""
    ch, _ = parity_coloring(4, 5, 0)
    rep = run_driver(ch, DriverParams(), seed=7)
    assert rep.status == "step_failed"
    assert rep.iterations == 1
    assert rep.initial_kind == "red_fallback"
    assert {"claim": "iterate",
            "stopped": "matching outside the spanning red component"} in rep.trace
    ok, _ = validate_fractional(ch, rep.best)
    assert ok


def test_driver_rejects_sparse_input():
    rng = random.Random(0)
    ch = rand_coloured(4, 12, 10, rng)
    with pytest.raises(HypothesisViolated):
        run_driver(ch, DriverParams(), seed=0)


def test_driver_deterministic_given_seed():
    from conftest import complete_random_coloured
    rng = random.Random(77)
    ch = complete_random_coloured(4, 14, rng)
    a = run_driver(ch, DriverParams(), seed=3)
    b = run_driver(ch, DriverParams(), seed=3)
    assert a.best.weight() == b.best.weight()
    assert a.best.weights == b.best.weights
    assert a.trace == b.trace


def test_driver_swaps_to_red_spanning():
    """All-blue instance: the spanning component is blue, so the driver works
    on the swapped colouring and reports the original colour."""
    edges = [("B", e) for e in itertools.combinations(range(1, 18), 4)]
    from tcr.hypergraph import build
    ch = build(4, 17, edges)
    rep = run_driver(ch, DriverParams(), seed=2)
    assert rep.colour_swapped
    assert rep.status == "reached"
    assert rep.final_colour is Colour.BLUE


def test_driver_swapped_run_reports_the_input_component():
    """Red iff |e ∩ [12]| >= 3 on N = 24, seed 7: the spanning component is
    blue, so the driver works on the swapped colouring.  The reported colour
    and component are those of the weighting's support in the input's own
    analysis, which numbers the red components first."""
    from tcr.hypergraph import build
    ch = build(4, 24, [("R" if sum(v <= 12 for v in e) >= 3 else "B", e)
                       for e in itertools.combinations(range(1, 25), 4)])
    rep = run_driver(ch, DriverParams(), seed=7)
    assert rep.colour_swapped
    ids = component_of(monochromatic_components(ch))
    assert rep.best.weights
    for e in rep.best.weights:
        assert ids[e] == rep.final_component
        assert ch.colour[e] is rep.final_colour


def test_fractional_step_converts_to_blown_matching():
    """Driver-style quarter-weight output converts to an integral matching in
    the 4-blow-up of the same size ratio (the two growth routes agree)."""
    ch = all_red(4, 6)
    decomp = monochromatic_components(ch)
    host = decomp.edges_of(0)
    family = [e for e in itertools.combinations(range(1, 6), 4)]
    from tcr.matchings import FractionalMatching
    phi = FractionalMatching(host, empty_intersection_matching(family).weights, Colour.RED, 0)
    blown, bmap = blow_up(ch, 4)
    m = fractional_to_matching(bmap, phi)
    assert len(m) == 5 == phi.weight() * 4
    blown_decomp = monochromatic_components(blown)
    ids = component_of(blown_decomp)
    assert len({ids[e] for e in m}) == 1


def star_fixture(N):
    """Complete K_N^(4), red iff the edge contains vertex 1, every pair
    assigned to the red component: each (f, W) with f an edge is suitable."""
    from tcr.blueprint import make_blueprint
    from tcr.hypergraph import build
    ch = build(4, N, [("R" if e[0] == 1 else "B", e)
                      for e in itertools.combinations(range(1, N + 1), 4)])
    decomp = monochromatic_components(ch)
    ids = component_of(decomp)
    red_id, blue_id = ids[(1, 2, 3, 4)], ids[(2, 3, 4, 5)]
    assign = {p: red_id for p in itertools.combinations(range(1, N + 1), 2)}
    return ch, make_blueprint(ch, Fraction(1, 2), assign), red_id, blue_id


def test_replace_empty_intersection_family():
    """The blue edges inside f + W_f share no vertex: each gets 1/(s-1) for
    the s = 35 edges of K_7^(4), and f is replaced."""
    from tcr.augment import _replace
    ch, bp, red_id, blue_id = star_fixture(8)
    f = (2, 3, 4, 5)
    trace = []
    weights, replaced = _replace(ch, bp, blue_id, [f], (6, 7, 8), 3, random.Random(0),
                                 trace, "blue")
    family = list(itertools.combinations(range(2, 9), 4))
    assert weights == {e: Fraction(1, 34) for e in family}
    assert replaced == {f}
    assert trace == []


def test_replace_nonempty_core_is_traced_with_pivot():
    """Every red edge contains vertex 1, so the red family has a common
    vertex: nothing is replaced and the trace names the pair and its pivot."""
    from tcr.augment import _replace
    ch, bp, red_id, blue_id = star_fixture(8)
    f = (1, 2, 3, 4)
    trace = []
    weights, replaced = _replace(ch, bp, red_id, [f], (5, 6, 7), 3, random.Random(0),
                                 trace, "red", pivot_R=red_id)
    assert weights == {} and replaced == set()
    assert trace == [{"claim": "red_core_nonempty", "f": f, "W_f": (5, 6, 7), "pivot": 1}]


def test_replace_around_a_partner_edge():
    """With a partner map the partner edge joins the family and is the edge
    replaced; a family with a common vertex is traced with W_u and u."""
    from tcr.augment import _replace
    ch, bp, red_id, blue_id = star_fixture(9)
    f = (1, 2, 3, 4)
    trace = []
    weights, replaced = _replace(ch, bp, blue_id, [f], (6, 7, 8, 9), 4, random.Random(0),
                                 trace, "blue",
                                 partners={f: (5, (2, 3, 4, 5))})
    family = list(itertools.combinations((2, 3, 4, 6, 7, 8, 9), 4)) + [(2, 3, 4, 5)]
    assert weights == {e: Fraction(1, 35) for e in family}
    assert replaced == {(2, 3, 4, 5)}
    assert trace == []
    f = (2, 3, 4, 5)
    weights, replaced = _replace(ch, bp, red_id, [f], (6, 7, 8, 9), 4, random.Random(0),
                                 trace, "red",
                                 partners={f: (1, (1, 2, 3, 4))})
    assert weights == {} and replaced == set()
    assert trace == [{"claim": "red_core_nonempty", "f": f, "W_u": (6, 7, 8, 9), "u": 1}]


@pytest.mark.parametrize("with_partner", [True, False])
def test_red_star_route_on_hand_built_blueprint(with_partner):
    """Case 1 of the blue step: W1 carries only blue blueprint pairs, so the
    red partners come from the red component holding the good red edge
    1234.  With 4568 and 4578 present, (5678, {4}) is suitable and 4678 is
    the partner of 4; without them the route takes 1234 inside W1."""
    from tcr.blueprint import make_blueprint
    from tcr.hypergraph import build
    blue = [(1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5), (3, 4, 5, 6),
            (4, 5, 6, 7), (5, 6, 7, 8)]
    if with_partner:
        blue += [(4, 5, 6, 8), (4, 5, 7, 8)]
    red = [(1, 2, 3, 4), (2, 3, 4, 6), (3, 4, 6, 7), (4, 6, 7, 8)]
    ch = build(4, 8, [("B", e) for e in blue] + [("R", e) for e in red])
    decomp = monochromatic_components(ch)
    ids = component_of(decomp)
    blue_id, red_id = ids[(5, 6, 7, 8)], ids[(1, 2, 3, 4)]
    assign = {p: blue_id for p in itertools.combinations(range(1, 9), 2)}
    bp = make_blueprint(ch, Fraction(1, 2), assign)
    state = AugmentationState(((5, 6, 7, 8),), Colour.BLUE, blue_id)
    out = augment_once(ch, bp, red_id, state, DriverParams(), random.Random(0))
    route = (4, 6, 7, 8) if with_partner else (1, 2, 3, 4)
    assert out.status == "step_failed"
    assert out.fractional.colour is Colour.RED and out.fractional.component == red_id
    assert out.fractional.weights == {route: 1}
    assert out.next_matchings == (((route,), Colour.RED, red_id),)
    assert out.trace == (
        {"claim": "blue_k5_extensions", "count": 0},
        {"claim": "case_split", "red_pairs": 0, "b2_pairs": 6, "case": 1},
        {"claim": "red_star_route", "component": red_id, "partners": int(with_partner),
         "inside": int(not with_partner)},
        {"claim": "best_route", "route": "red_star", "weight": Fraction(1),
         "needed": Fraction(21, 17)})

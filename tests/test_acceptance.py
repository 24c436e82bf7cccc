"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s or
-rA to see them on success).  Tolerances are exact rational comparisons
throughout; stated runtime budgets are asserted where given.
"""
import itertools
import json
import random
import time
from fractions import Fraction
from math import comb


from conftest import complete_random_coloured, near_complete_coloured, rand_coloured
from oracles import (blueprint_blowup, component_of, fractional_to_matching,
                     lp_vertex_enumeration, matching_to_fractional)
from tcr.augment import DriverParams, run_driver
from tcr.blowup import blow_up
from tcr.blueprint import build_blueprint, check_blueprint
from tcr.cli import run as cli_run, serialize_coloured_hypergraph
from tcr.extremal import TargetSpec, ramsey_search_tiny, split_coloring
from tcr.hypergraph import Colour, build, density_check
from tcr.matchings import (FractionalMatching, empty_intersection_matching,
                           max_fractional_lp, max_matching_exact,
                           max_r_fractional, validate_fractional)
from tcr.tight import Absent, find_tight_cycle, monochromatic_components


def verdict(cid, ok, detail=""):
    print(f"\nACCEPTANCE CRITERION {cid}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {cid}: {detail}"


def cli_json(capsys, argv):
    code = cli_run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_criterion_1_lower_bound_constructions(capsys):
    """Split and parity certificates, cross-confirmed by exhaustive search."""
    runs = [
        (["extremal", "split", "--k", "4", "--n", "2", "--verify", "--len", "8"], 8),
        (["extremal", "split", "--k", "3", "--n", "2", "--verify", "--len", "6"], 6),
        (["extremal", "parity", "--k", "3", "--n", "2", "--i", "0",
          "--verify", "--len", "6"], 6),
    ]
    ok = True
    detail = []
    for argv, length in runs:
        t0 = time.monotonic()
        code, report, _ = cli_json(capsys, argv)
        cert = report["result"]["certificate"]
        elapsed = time.monotonic() - t0
        ok &= code == 0 and cert["ok"] is True and elapsed < 30
        detail.append(f"{argv[1]}k{argv[3]} {elapsed:.1f}s")
        # independent cross-confirmation by exhaustive cycle search
        if argv[1] == "split":
            ch, spec = split_coloring(int(argv[3]), int(argv[5]))
        else:
            from tcr.extremal import parity_coloring
            ch, spec = parity_coloring(int(argv[3]), int(argv[5]), 0)
        for colour in (Colour.RED, Colour.BLUE):
            res = find_tight_cycle(ch.monochromatic_subgraph(colour), length)
            ok &= isinstance(res, Absent)
    verdict(1, ok, " ".join(detail))


def test_criterion_2_ramsey_anchors():
    """r(C_3) = r(C_4) = 6 re-derived by exhaustion."""
    t0 = time.monotonic()
    ok = True
    for length in (3, 4):
        ok &= ramsey_search_tiny(2, TargetSpec("cycle", length), 6,
                                 allow_seeds=False).all_coloured
        res5 = ramsey_search_tiny(2, TargetSpec("cycle", length), 5,
                                  allow_seeds=False)
        ok &= not res5.all_coloured
        ce = res5.counterexample
        for colour in (Colour.RED, Colour.BLUE):
            ok &= isinstance(
                find_tight_cycle(ce.monochromatic_subgraph(colour), length), Absent)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120
    verdict(2, ok, f"{elapsed:.1f}s")


def test_criterion_3_empty_intersection_suite():
    """200 random families with empty intersection, weight exactly s/(s-1)."""
    rng = random.Random(30_2025)
    ok = True
    done = 0
    while done < 200:
        n = rng.randint(6, 11)
        s = rng.randint(2, 8)
        pool = list(itertools.combinations(range(1, n + 1), 4))
        rng.shuffle(pool)
        family = pool[:s]
        common = set(family[0]).intersection(*family[1:])
        if common:
            continue
        ch = build(4, n, [("R", e) for e in family])
        phi = empty_intersection_matching(family)
        valid, _ = validate_fractional(ch.graph, phi)
        ok &= valid and phi.weight() == Fraction(s, s - 1)
        ok &= all(w == Fraction(1, s - 1) for w in phi.weights.values())
        done += 1
    verdict(3, ok, f"{done} families")


def _blowup_suite():
    rng = random.Random(40_2025)
    suite = []
    for i in range(70):
        n = rng.randint(5, 10)
        suite.append(rand_coloured(4, n, rng.randint(4, 25), rng))
    for i in range(30):
        n = rng.randint(6, 8)
        suite.append(near_complete_coloured(4, n, rng,
                                            deletions=rng.choice((0, 1))))
    return suite


def test_criterion_4_blow_up_round_trips():
    """Counts, component preservation, weight round trips, and the two
    independent matching oracles, per component, over 100 graphs."""
    t0 = time.monotonic()
    ok = True
    suite = _blowup_suite()
    rng = random.Random(41_2025)
    for idx, ch in enumerate(suite):
        r = 2 if idx % 2 == 0 else 3
        blown, bmap = blow_up(ch, r)
        ok &= blown.graph.m == ch.graph.m * r ** 4
        base = monochromatic_components(ch)
        star = monochromatic_components(blown)
        ok &= len(base.components) == len(star.components)
        ids = component_of(star)
        for cid, comp in enumerate(base.components):
            f = min(comp)
            star_edge = tuple(sorted(bmap.classes[x][0] for x in f))
            star_comp = star.edges_of(ids[star_edge])
            size = max_matching_exact(star_comp).size
            phi = max_r_fractional(comp, r)
            ok &= Fraction(size) == r * phi.weight()
            # round trip on the optimiser's weighting
            phi = FractionalMatching(comp, phi.weights, base.colour(cid), cid)
            m = fractional_to_matching(bmap, phi)
            if m:
                back = matching_to_fractional(bmap, m)
                ok &= back.weights == phi.weights
        assert ok, f"instance {idx} failed"
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300
    verdict(4, ok, f"100 graphs, {elapsed:.1f}s")


def transfer_eps(n, r, k=4):
    """Smallest eps making base (1-eps, eps)-density provably transfer to
    (1-2eps, 2eps) in the r-blow-up at this finite size (exact bounds from
    the degree scaling and the non-partite exceptional counts)."""
    bounds = [Fraction(0)]
    for i in range(1, k):
        A = comb(n - i, k - i) * r ** (k - i)
        B = comb(n * r - i, k - i)
        bounds.append(Fraction(B - A, 2 * B - A))
        non_partite = comb(n * r, i) - comb(n, i) * r ** i
        bounds.append(Fraction(non_partite, 2 * comb(n * r, i) - comb(n, i) * r ** i))
    return max(bounds)


def test_criterion_5_density_transfer():
    """pass(H, 1-eps, eps) implies pass(H_*, 1-2eps, 2eps) on the same suite."""
    ok = True
    exercised = 0
    suite = _blowup_suite()
    for idx, ch in enumerate(suite):
        r = 2 if idx % 2 == 0 else 3
        eps = transfer_eps(ch.n, r)
        base = density_check(ch.graph, 1 - eps, eps)
        if not base.passed:
            continue
        blown, _ = blow_up(ch, r)
        ok &= density_check(blown.graph, 1 - 2 * eps, 2 * eps).passed
        exercised += 1
    ok &= exercised >= 25   # the implication must not be vacuous
    verdict(5, ok, f"{exercised} non-vacuous instances")


def test_criterion_6_blueprint_suite():
    """Builder output accepted by the checker on 100 dense instances;
    blow-up preserves acceptance with exact degree scaling."""
    t0 = time.monotonic()
    rng = random.Random(60_2025)
    eps = Fraction(1, 20)
    ok = True
    smallest = []
    for i in range(100):
        n = rng.randint(20, 40)
        deletions = rng.choice((1, 2)) if n >= 23 else 0
        ch = near_complete_coloured(4, n, rng, deletions=deletions)
        assert density_check(ch.graph, 1 - eps, eps).passed
        res = build_blueprint(ch, eps)
        ok &= check_blueprint(ch, res.blueprint).ok
        if n <= 23:
            smallest.append((ch, res.blueprint))
        assert ok, f"instance {i} (n={n})"
    for ch, bp in smallest[:6]:
        blown, bmap = blow_up(ch, 2)
        blown_bp = blueprint_blowup(bp, bmap, blown)
        ok &= check_blueprint(blown, blown_bp).ok
        ok &= blown_bp.min_degree() == 2 * bp.min_degree()
    elapsed = time.monotonic() - t0
    verdict(6, ok, f"100 built+checked, {len(smallest[:6])} blown, {elapsed:.0f}s")


def test_criterion_7_lp_vs_support_enumeration():
    """500 random instances with n <= 8: simplex equals the basic-solution
    enumeration oracle, exact rational equality."""
    rng = random.Random(70_2025)
    ok = True
    for i in range(500):
        n = rng.randint(5, 8)
        m = rng.randint(1, 12)
        ch = rand_coloured(4, n, m, rng)
        lp = max_fractional_lp(ch.graph.edges)
        oracle = lp_vertex_enumeration(ch.graph.edges)
        ok &= lp.weight() == oracle
        valid, _ = validate_fractional(ch.graph, lp)
        ok &= valid
        assert ok, f"instance {i}"
    verdict(7, ok, "500 instances")


def _validate_driver_output(ch, rep):
    target_graph = ch.swapped() if rep.colour_swapped else ch
    valid, violation = validate_fractional(target_graph, rep.best)
    if not valid:
        return False, f"invalid: {violation}"
    decomp = monochromatic_components(target_graph)
    ids = component_of(decomp)
    comp_ids = {ids[e] for e in rep.best.weights}
    if len(comp_ids) > 1:
        return False, "support spans components"
    if not rep.support_good:
        return False, "support not good"
    return True, ""


def test_criterion_8_augmentation_soundness():
    """Driver validity on 50 dense random instances plus reachability of the
    n/4 target on the all-red family."""
    t0 = time.monotonic()
    params = DriverParams()
    ok = True
    details = []
    for N in (20, 33, 41):
        ch = build(4, N, [("R", e)
                          for e in itertools.combinations(range(1, N + 1), 4)])
        rep = run_driver(ch, params, seed=8)
        good, why = _validate_driver_output(ch, rep)
        ok &= good and rep.status == "reached" and rep.best.weight() >= rep.target
        ok &= rep.min_weight_ok
        details.append(f"all-red N={N}: {rep.status}")
        assert ok, details[-1] + why
    rng = random.Random(80_2025)
    statuses = {}
    for i in range(50):
        N = rng.randint(40, 60)
        ch = complete_random_coloured(4, N, rng)
        rep = run_driver(ch, params, seed=1000 + i)
        good, why = _validate_driver_output(ch, rep)
        ok &= good
        if rep.status == "step_failed":
            ok &= len(rep.trace) > 0 and any("claim" in t for t in rep.trace)
        statuses[rep.status] = statuses.get(rep.status, 0) + 1
        assert ok, f"instance {i} N={N} {rep.status} {why}"
    elapsed = time.monotonic() - t0
    verdict(8, ok, f"{statuses} {elapsed:.0f}s")


def test_criterion_9_byte_identical_reports(tmp_path, capsys):
    """Every subcommand produces byte-identical stdout across two runs with
    the same seed."""
    ch, _ = split_coloring(4, 3)
    f13 = tmp_path / "split13.tcg"
    f13.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    ch2, _ = split_coloring(4, 2)
    f8 = tmp_path / "split8.tcg"
    f8.write_text(serialize_coloured_hypergraph(ch2), encoding="utf-8")
    commands = [
        ["components", "--in", str(f8), "--mono"],
        ["match", "exact", "--in", str(f8), "--host", "red"],
        ["match", "lp", "--in", str(f8), "--component", "1"],
        ["match", "mu", "--in", str(f8), "--s", "1", "--beta", "1/100"],
        ["blueprint", "check", "--in", str(f8), "--eps", "1/20"],
        ["blowup", "--in", str(f8), "--r", "2"],
        ["augment", "--in", str(f13), "--seed", "7"],
        ["driver", "--in", str(f13), "--seed", "7"],
        ["extremal", "split", "--k", "4", "--n", "2", "--verify", "--len", "8"],
        ["extremal", "parity", "--k", "3", "--n", "2", "--i", "0",
         "--verify", "--len", "6"],
        ["ramsey", "--k", "2", "--target", "c3", "--N", "6"],
        ["ramsey", "--k", "2", "--target", "c4", "--N", "5"],
    ]
    ok = True
    for argv in commands:
        code1 = cli_run(argv)
        out1 = capsys.readouterr().out
        code2 = cli_run(argv)
        out2 = capsys.readouterr().out
        ok &= code1 == code2 and out1 == out2 and bool(out1.strip())
        assert ok, argv
    verdict(9, bool(ok), f"{len(commands)} subcommand invocations")

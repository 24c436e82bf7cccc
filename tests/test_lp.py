"""The revised simplex against the Fraction tableau it replaced, and the
dual certificate that every optimum carries."""
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from conftest import complete_kgraph
from oracles import dense_matching_lp, simplex_fraction_reference
from tcr import lp
from tcr.errors import CertificateFailed, InternalError, TcrError
from tcr.lp import matching_lp
from tcr.matchings import max_fractional_lp, max_r_fractional


def random_lp(rng):
    """A small 0/1 LP with no empty column, degenerate rhs = 0 rows and,
    half the time, a repeated row (a ratio-test tie whenever a column
    enters through both)."""
    nv, m = rng.randint(1, 8), rng.randint(1, 7)
    rows = [[int(rng.random() < 0.4) for _ in range(nv)] for _ in range(m)]
    for j in range(nv):
        if not any(row[j] for row in rows):
            rows[rng.randrange(m)][j] = 1
    rhs = [rng.choice([0, 0, 1, 2, Fraction(rng.randint(0, 9), rng.randint(1, 4))])
           for _ in range(m)]
    if rng.random() < 0.5:
        i = rng.randrange(m)
        rows.append(list(rows[i]))
        rhs.append(rhs[i])
    if rng.random() < 0.05:
        rhs[0] = -1
    return rows, rhs


def transpose(rows, nv):
    """The sparse columns of the dense 0/1 rows: the rows holding a 1."""
    return [[i for i, row in enumerate(rows) if row[j]] for j in range(nv)]


def outcome(solve):
    try:
        value, x = solve()[:2]
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (value, x)


def test_simplex_agrees_with_fraction_reference():
    """400 seeded LPs: the same value and vertex, exactly, or the same
    ValueError; the pivot path is the reference's, ties included."""
    kinds = {"optimal": 0, "negative rhs": 0}
    degenerate = tied = 0
    for seed in range(400):
        rows, rhs = random_lp(random.Random(seed))
        nv = len(rows[0])
        ties = []
        expected = outcome(lambda: simplex_fraction_reference([1] * nv, rows, rhs, ties=ties))
        degenerate += 0 in rhs
        tied += bool(ties)
        got = outcome(lambda: lp.simplex_max(transpose(rows, nv), rhs))
        assert got == expected, seed
        if got[0] != "ValueError":
            assert all(type(v) is Fraction for v in [got[0], *got[1]])
            kinds["optimal"] += 1
        else:
            kinds["negative rhs"] += 1
    assert kinds["optimal"] >= 300 and kinds["negative rhs"] >= 10, kinds
    assert degenerate >= 100 and tied >= 50, (degenerate, tied)


def test_matching_lp_agrees_with_dense_reference():
    """500 seeded matching LPs with lower and upper bounds and excluded
    edges, passed to matching_lp as an upper bound of 0 and to the
    reference as every edge whose upper bound is 0: matching_lp's sparse
    columns give the reference tableau's vertex, exactly, or the same
    infeasibility."""
    seen = {"lower": 0, "upper": 0, "excluded": 0, "infeasible": 0, "tied": 0}
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(5, 9)
        edges = sorted(rng.sample(list(itertools.combinations(range(1, n + 1), 4)),
                                  rng.randint(1, min(30, comb(n, 4)))))
        lower = {e: Fraction(1, rng.choice([3, 4, 6, 8])) for e in edges if rng.random() < 0.1}
        upper = {e: lower.get(e, 0) + Fraction(rng.randint(0, 3), rng.choice([2, 3, 4]))
                 for e in edges if rng.random() < 0.4}
        if upper and rng.random() < 0.15:
            upper[min(upper)] = -1
        excluded = {e for e in edges if rng.random() < 0.15}
        upper.update((e, 0) for e in excluded)
        ties = []
        expected = dense_matching_lp(edges, lower, upper,
                                     {e for e, u in upper.items() if u == 0}, ties)
        assert matching_lp(edges, lower, upper)[:2] == expected, seed
        seen["lower"] += bool(lower)
        seen["upper"] += bool(upper)
        seen["excluded"] += bool(excluded)
        seen["infeasible"] += expected == (None, None)
        seen["tied"] += bool(ties)
    assert min(seen.values()) >= 40, seen


def vertex_rows(edges):
    vertices = sorted({v for e in edges for v in e})
    return [[1 if v in e else 0 for e in edges] for v in vertices]


def test_k5_dual_is_the_quarter_weighting():
    """The fractional matching LP of K_5^(4) has the unique dual 1/4 at
    every vertex (each vertex lies in four of the five edges)."""
    edges = complete_kgraph(4, 5).sorted_edges
    value, x, y = lp.simplex_max(transpose(vertex_rows(edges), 5), [1] * 5)
    assert value == Fraction(5, 4)
    assert y == [Fraction(1, 4)] * 5
    assert sum(x) == value


def test_check_certificate_rejects_perturbations():
    edges = list(itertools.combinations(range(1, 8), 4))[:12]
    rows, rhs = transpose(vertex_rows(edges), len(edges)), [1] * len(vertex_rows(edges))
    value, x, y = lp.simplex_max(rows, rhs)
    assert lp.check_certificate(rows, rhs, value, x, y)
    j = next(j for j, v in enumerate(x) if v)
    i = next(i for i, w in enumerate(y) if w)
    bumped_x = list(x)
    bumped_x[j] += Fraction(1, 7)
    lowered_x = list(x)
    lowered_x[j] -= Fraction(1, 7)
    lowered_y = list(y)
    lowered_y[i] -= Fraction(1, 7)
    raised_y = list(y)
    raised_y[i] += Fraction(1, 7)
    negative_x = list(x)
    negative_x[next(j for j, v in enumerate(x) if not v)] = Fraction(-1, 3)
    assert not lp.check_certificate(rows, rhs, value, bumped_x, y)
    assert not lp.check_certificate(rows, rhs, value, lowered_x, y)
    assert not lp.check_certificate(rows, rhs, value, negative_x, y)
    assert not lp.check_certificate(rows, rhs, value, x, lowered_y)
    assert not lp.check_certificate(rows, rhs, value, x, raised_y)
    assert not lp.check_certificate(rows, rhs, value + 1, x, y)
    assert not lp.check_certificate(rows, rhs, value, x, y[:-1])
    assert not lp.check_certificate(rows, rhs, value, x + [Fraction(0)], y)


def test_check_certificate_rejects_shifted_mass():
    """Moving weight between two entries keeps both objectives equal, so
    only the feasibility checks can catch it (K5: x = y = 1/4 everywhere)."""
    edges = complete_kgraph(4, 5).sorted_edges
    rows, rhs = transpose(vertex_rows(edges), 5), [1] * 5
    value, x, y = lp.simplex_max(rows, rhs)
    shifted = [Fraction(0), Fraction(1, 2)] + [Fraction(1, 4)] * 3
    assert sum(shifted) == value and sum(x) == value
    assert lp.check_certificate(rows, rhs, value, x, y)
    assert not lp.check_certificate(rows, rhs, value, shifted, y)
    assert not lp.check_certificate(rows, rhs, value, x, shifted)


def test_check_certificate_rejects_negative_entries():
    """A negative entry that leaves every other condition intact."""
    assert lp.simplex_max(transpose([[1, 1]], 2), [1]) == (1, [1, 0], [1])
    assert not lp.check_certificate(transpose([[1, 1]], 2), [1], 1, [-1, 2], [1])
    assert lp.simplex_max(transpose([[1], [1]], 1), [1, 2]) == (1, [1], [1, 0])
    assert not lp.check_certificate(transpose([[1], [1]], 1), [1, 2], 1, [1], [3, -1])


def test_every_simplex_result_is_certified(monkeypatch):
    """Each simplex optimum is the one check_certificate accepted, in
    order, through max_fractional_lp and the LP branch and bound."""
    checked, returned = [], []
    check, solve = lp.check_certificate, lp.simplex_max

    def recording_check(rows, rhs, value, x, y):
        ok = check(rows, rhs, value, x, y)
        checked.append((ok, value, [v for v in x if v], list(y)))
        return ok

    def recording_solve(*args):
        value, x, y = solve(*args)
        returned.append((True, value, [v for v in x if v], list(y)))
        return value, x, y

    monkeypatch.setattr(lp, "check_certificate", recording_check)
    monkeypatch.setattr(lp, "simplex_max", recording_solve)
    max_fractional_lp(complete_kgraph(4, 6).edges)
    for seed in range(6):
        max_fractional_lp(random.Random(seed).sample(
            list(itertools.combinations(range(1, 10), 4)), 19))
    max_r_fractional(list(itertools.combinations(range(1, 8), 4))[:10], 2)
    assert checked == returned
    assert len(returned) >= 8, len(returned)


def test_failed_certificate_is_an_internal_error(monkeypatch):
    """A failed optimum check raises CertificateFailed, an internal error."""
    monkeypatch.setattr(lp, "check_certificate", lambda *args: False)
    with pytest.raises(CertificateFailed) as info:
        max_fractional_lp(complete_kgraph(4, 5).edges)
    assert isinstance(info.value, InternalError)
    assert not isinstance(info.value, (TcrError, ValueError))
    assert "dual certificate" in str(info.value)

"""Exact rational simplex for small linear programs.

Solves max c.x subject to A x <= b, x >= 0 with b >= 0 (so the slack basis
is feasible and no phase-1 is needed).  Bland's rule guarantees termination.
The tableau is fraction-free (integer-preserving elimination, Bareiss 1968):
every row, the objective row included, is a list of Python ints over one
positive row denominator, and a pivot scales rows by the pivot entry and
divides out their gcd.  Fractions are built only for the optimum.  Every
optimum comes with the dual y read off the objective row, and
`check_certificate` verifies (x, y) with its own arithmetic before it is
returned, as QSopt_ex does (Applegate-Cook-Dash-Espinoza 2007); a failed
check raises CertificateFailed, an internal error.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CertificateFailed

ZERO = Fraction(0)


def _integer_row(values):
    """(ints, d) with ints[j] / d == values[j] and d >= 1, for int or
    Fraction values."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def simplex_max(c, rows, rhs):
    """Maximize c.x, rows[i].x <= rhs[i], x >= 0.

    c: list of rationals (length nv); rows: list of lists; rhs: list of
    rationals, all >= 0.  Returns (value, x, y): the optimum, a primal
    optimal vertex and a dual optimal y (one entry per row), all Fractions,
    verified by `check_certificate`.  Raises ValueError for a negative rhs
    or an unbounded program.
    """
    m = len(rows)
    nv = len(c)
    # columns: nv vars, m slacks, rhs; row i's true entries are tab[i][j] / den[i]
    tab = []
    den = []
    for i, row in enumerate(rows):
        if rhs[i] < 0:
            raise ValueError("simplex_max requires rhs >= 0")
        ints, d = _integer_row(list(row) + [rhs[i]])
        slacks = [0] * m
        slacks[i] = d
        tab.append(ints[:-1] + slacks + ints[-1:])
        den.append(d)
    ints, obj_den = _integer_row(c)
    obj = [-v for v in ints] + [0] * (m + 1)
    basis = [nv + i for i in range(m)]

    while True:
        enter = next((j for j in range(nv + m) if obj[j] < 0), -1)
        if enter < 0:
            break
        # least ratio rhs_i / a_i (the row denominators cancel), ties to the
        # smaller basis index
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                b = tab[i][-1]
                if leave < 0:
                    leave, best_a, best_b = i, a, b
                    continue
                lhs, rhs_best = b * best_a, best_b * a
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave, best_a, best_b = i, a, b
        if leave < 0:
            raise ValueError("unbounded linear program")
        prow = tab[leave]
        g = gcd(*prow)
        if g > 1:
            prow = [v // g for v in prow]
            tab[leave] = prow
        p = prow[enter]
        den[leave] = p
        for i in range(m):
            f = tab[i][enter]
            if f and i != leave:
                tab[i], den[i] = _eliminate(tab[i], den[i], prow, p, f)
        f = obj[enter]
        if f:
            obj, obj_den = _eliminate(obj, obj_den, prow, p, f)
        basis[leave] = enter

    x = [ZERO] * nv
    for i, b in enumerate(basis):
        if b < nv:
            x[b] = Fraction(tab[i][-1], den[i])
    value = Fraction(obj[-1], obj_den)
    y = [Fraction(v, obj_den) if v else ZERO for v in obj[nv:nv + m]]
    if not check_certificate(c, rows, rhs, value, x, y):
        raise CertificateFailed(f"simplex optimum {value} failed its dual certificate")
    return value, x, y


def _eliminate(row, d, prow, p, f):
    """row / d minus f / d times the pivot row prow / p, whose entry in the
    pivot column is 1: (row * p - f * prow) / (d * p), reduced by the gcd."""
    new = [r * p - f * q for r, q in zip(row, prow)]
    d *= p
    g = gcd(d, *new)
    if g > 1:
        new = [v // g for v in new]
        d //= g
    return new, d


def check_certificate(c, rows, rhs, value, x, y) -> bool:
    """Whether x and y are optimal for max c.x, rows.x <= rhs, x >= 0 and its
    dual, with objective `value`: x is primal feasible, y is dual feasible
    (y >= 0 and y.rows >= c) and c.x = rhs.y = value, so weak duality proves
    both optimal.  Exact arithmetic on x and y brought to a common
    denominator each, over the non-zero entries only."""
    if len(x) != len(c) or len(y) != len(rows):
        return False
    if any(v < 0 for v in x) or any(w < 0 for w in y):
        return False
    x, dx = _integer_row(x)
    y, dy = _integer_row(y)
    support = [(j, v) for j, v in enumerate(x) if v]
    for row, b in zip(rows, rhs):
        if sum(row[j] * v for j, v in support) > b * dx:
            return False
    cover = [0] * len(c)
    for row, w in zip(rows, y):
        if w:
            for j, a in enumerate(row):
                if a:
                    cover[j] += w * a
    if any(cv < cj * dy for cv, cj in zip(cover, c)):
        return False
    return (sum(c[j] * v for j, v in support) == value * dx
            and sum(w * b for w, b in zip(y, rhs) if w) == value * dy)


def matching_lp(edge_list, vertex_caps=None, lower=None, upper=None, excluded=None):
    """Max total weight over edges with per-vertex load caps.

    edge_list: canonical sorted list of edges.  vertex_caps maps vertex ->
    Fraction cap (default 1).  lower / upper map edge -> Fraction bounds on
    that edge's weight (lower bounds are substituted out, upper bounds add a
    row).  excluded is a set of edges forced to 0.  Returns
    (value, {edge: weight}) including the lower-bounded mass, or
    (None, None) when the bounds alone are infeasible.
    """
    excluded = excluded or frozenset()
    lower = lower or {}
    upper = upper or {}
    active = [e for e in edge_list if e not in excluded]
    vertices = sorted({v for e in active for v in e})
    vindex = {v: i for i, v in enumerate(vertices)}
    base = [Fraction(1)] * len(vertices) if vertex_caps is None else [
        Fraction(vertex_caps[v]) for v in vertices]
    # substitute fixed lower mass
    for e in active:
        lb = lower.get(e)
        if lb:
            for v in e:
                base[vindex[v]] -= lb
    if any(b < 0 for b in base):
        return None, None
    rows = []
    rhs = list(base)
    for v in vertices:
        rows.append([1 if v in e else 0 for e in active])
    for j, e in enumerate(active):
        if e in upper:
            residual = Fraction(upper[e]) - lower.get(e, ZERO)
            if residual < 0:
                return None, None
            rows.append([1 if jj == j else 0 for jj in range(len(active))])
            rhs.append(residual)
    _, x, _ = simplex_max([1] * len(active), rows, rhs)
    weights = {}
    total = ZERO
    for e, w in zip(active, x):
        w = w + lower.get(e, ZERO)
        if w:
            weights[e] = w
            total += w
    return total, weights

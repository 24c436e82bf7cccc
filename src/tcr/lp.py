"""Exact rational revised simplex for the fractional matching LP.

Solves max sum(x) subject to A x <= b, x >= 0, where A is a 0/1 matrix
given by sparse columns, none of them empty (so the program is bounded),
and b >= 0 (so the slack basis is feasible and no phase-1 is needed).
Bland's rule guarantees termination.  The rhs is scaled to integers by
one common denominator L, and the basis inverse is kept fraction-free
(Edmonds 1967; Bareiss 1968) as the integer adjugate M of the 0/1 basis B
over D = det B > 0: a pivot on entry p in row r replaces each other row
M_i by (p * M_i - alpha_i * M_r) // D, an exact division, and sets D = p.
The duals y = Y / D price each column from its own rows, so no eliminated
column is ever stored; x and the optimum come back over D * L.  Every
optimum comes with its dual y, and `check_certificate` verifies (x, y)
with its own arithmetic before it is returned, as QSopt_ex does
(Applegate-Cook-Dash-Espinoza 2007); a failed check raises
CertificateFailed, an internal error.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import CertificateFailed

ZERO = Fraction(0)


def _integer_row(values):
    """(ints, d) with ints[j] / d == values[j] and d >= 1, for int or
    Fraction values."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def simplex_max(columns, rhs):
    """Maximize sum(x), A.x <= rhs, x >= 0, where column j of A is 1 in the
    rows listed in columns[j] (never empty) and 0 elsewhere.

    rhs: list of rationals, all >= 0, one per row.  Returns (value, x, y):
    the optimum, a primal optimal vertex and a dual optimal y (one entry
    per row), all Fractions, verified by `check_certificate`.  Raises
    ValueError for a negative rhs.  Entering column: the first improving
    one, structural columns before slacks; leaving row: the least ratio,
    ties to the smaller basis index.
    """
    m = len(rhs)
    nv = len(columns)
    if any(b < 0 for b in rhs):
        raise ValueError("simplex_max requires rhs >= 0")
    # one common denominator scales x and the value, not the pivot path
    L = lcm(*[b.denominator for b in rhs])
    # rows[i] = (M_i, beta_i) with beta = M b; obj = (Y, z) with z = Y b
    rows = [[0] * i + [1] + [0] * (m - i - 1) + [b.numerator * (L // b.denominator)]
            for i, b in enumerate(rhs)]
    obj = [0] * (m + 1)
    D = 1
    basis = [nv + i for i in range(m)]

    while True:
        # price: the reduced cost of column j is (D - Y.A_j) / D
        for enter, col in enumerate(columns):
            g = D
            for i in col:
                g -= obj[i]
            if g > 0:
                alpha = [sum(row[i] for i in col) for row in rows]
                break
        else:
            enter = next((i for i in range(m) if obj[i] < 0), -1)
            if enter < 0:
                break
            g = -obj[enter]
            alpha = [row[enter] for row in rows]
            enter += nv
        # least ratio beta_i / alpha_i (D cancels), ties to the smaller
        # basis index; some alpha_i > 0 because the program is bounded
        leave = -1
        for i, a in enumerate(alpha):
            if a > 0:
                b = rows[i][-1]
                if leave < 0:
                    leave, best_a, best_b = i, a, b
                    continue
                lhs, rhs_best = b * best_a, best_b * a
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave, best_a, best_b = i, a, b
        prow = rows[leave]
        p = alpha[leave]
        for i, f in enumerate(alpha):
            if i != leave:
                rows[i] = _pivot(rows[i], f, prow, p, D)
        obj = _pivot(obj, -g, prow, p, D)
        D = p
        basis[leave] = enter

    x = [ZERO] * nv
    for row, b in zip(rows, basis):
        if b < nv:
            x[b] = Fraction(row[-1], D * L)
    value = Fraction(obj[-1], D * L)
    y = [Fraction(w, D) if w else ZERO for w in obj[:m]]
    if not check_certificate(columns, rhs, value, x, y):
        raise CertificateFailed(f"simplex optimum {value} failed its dual certificate")
    return value, x, y


def _pivot(row, f, prow, p, D):
    """The row of the next adjugate: (p * row - f * prow) // D, exact."""
    if f:
        return [(p * u - f * v) // D for u, v in zip(row, prow)]
    if p == D:
        return row
    return [p * u // D for u in row]


def check_certificate(columns, rhs, value, x, y) -> bool:
    """Whether x and y are optimal for max sum(x), A.x <= rhs, x >= 0 (A
    given by `columns` as in `simplex_max`) and its dual, with objective
    `value`: x is primal feasible, y is dual feasible (y >= 0 and
    y.A_j >= 1 for every column j) and sum(x) = rhs.y = value, so weak
    duality proves both optimal.  Exact arithmetic on x and y brought to a
    common denominator each; each column is priced from its own rows."""
    if len(x) != len(columns) or len(y) != len(rhs):
        return False
    if any(v < 0 for v in x) or any(w < 0 for w in y):
        return False
    x, dx = _integer_row(x)
    y, dy = _integer_row(y)
    load = [0] * len(rhs)
    for col, v in zip(columns, x):
        if v:
            for i in col:
                load[i] += v
    if any(ld > b * dx for ld, b in zip(load, rhs)):
        return False
    for col in columns:
        if sum(y[i] for i in col) < dy:
            return False
    return (sum(x) == value * dx
            and sum(w * b for w, b in zip(y, rhs) if w) == value * dy)


def matching_lp(edge_list, lower=None, upper=None):
    """Max total weight over edges with load at most 1 at every vertex.

    edge_list: canonical sorted list of edges.  lower / upper map edge ->
    Fraction bounds on that edge's weight (lower bounds are substituted
    out, upper bounds add a row); an upper bound of 0 drops the edge, which
    then gets no column, no bound row and no lower mass.  Returns (value,
    {edge: weight}) including the lower-bounded mass, or (None, None) when
    the bounds alone are infeasible.  Each edge's column has a 1 in the row
    of each of its vertices and in its bound row.
    """
    lower = lower or {}
    upper = upper or {}
    active = [e for e in edge_list if upper.get(e) != 0]
    vertices = sorted({v for e in active for v in e})
    vindex = {v: i for i, v in enumerate(vertices)}
    rhs = [Fraction(1)] * len(vertices)
    # substitute fixed lower mass
    for e in active:
        lb = lower.get(e)
        if lb:
            for v in e:
                rhs[vindex[v]] -= lb
    if any(b < 0 for b in rhs):
        return None, None
    columns = []
    for e in active:
        col = [vindex[v] for v in e]
        if e in upper:
            residual = Fraction(upper[e]) - lower.get(e, ZERO)
            if residual < 0:
                return None, None
            col.append(len(rhs))
            rhs.append(residual)
        columns.append(col)
    _, x, _ = simplex_max(columns, rhs)
    weights = {}
    total = ZERO
    for e, w in zip(active, x):
        w = w + lower.get(e, ZERO)
        if w:
            weights[e] = w
            total += w
    return total, weights

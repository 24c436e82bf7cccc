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

A solve can keep its final state in a `Basis`, and later solves of the
same program with some columns held at 0 start from it by the dual
simplex (Lemke 1954): the basis stays dual feasible, so the program is
re-optimised without a phase 1.  The leaving row is the infeasible one
with the smallest basic index, where a held column counts as infeasible
when it is basic and positive; the entering column is the least dual
ratio, ties to the smaller index: Bland's rule in its dual form.  A dual
pivot entry may be negative; every row, the objective row and D are then
negated, so D stays positive (D = |det B|, M the adjugate up to sign).  A
held column that is nonbasic never enters, and one that is basic at 0
stays until a pivot would make it positive.  The dual objective never
rises, so a solve stops as soon as it falls below the state's optimum:
its dual y then bounds the program below that optimum, and `check_bound`
verifies the bound before it is returned.
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


class Basis:
    """The final state of an optimal solve, for later solves of the same
    program to start from: its columns and rhs, the adjugate rows
    (M_i, beta_i), the objective row (Y, z), D = |det B|, the basic column
    of each row (`order`; slack i is column len(columns) + i), the rhs
    scale L and the optimum `value`.  Empty (value None) until a solve
    fills it."""

    __slots__ = ("columns", "rhs", "rows", "obj", "D", "order", "L", "value")

    def __init__(self):
        self.value = None


def simplex_max(columns, rhs, basis=None):
    """Maximize sum(x), A.x <= rhs, x >= 0, where column j of A is 1 in the
    rows listed in columns[j] (never empty) and 0 elsewhere.

    rhs: list of rationals, all >= 0, one per row.  Returns (value, x, y):
    the optimum, a primal optimal vertex and a dual optimal y (one entry
    per row), all Fractions, verified by `check_certificate`.  Raises
    ValueError for a negative rhs.  Entering column: the first improving
    one, structural columns before slacks; leaving row: the least ratio,
    ties to the smaller basis index.  A `basis` given is filled with the
    optimal state.
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
    order = [nv + i for i in range(m)]

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
                if lhs < rhs_best or (lhs == rhs_best and order[i] < order[leave]):
                    leave, best_a, best_b = i, a, b
        prow = rows[leave]
        p = alpha[leave]
        for i, f in enumerate(alpha):
            if i != leave:
                rows[i] = _pivot(rows[i], f, prow, p, D)
        obj = _pivot(obj, -g, prow, p, D)
        D = p
        order[leave] = enter

    state = Basis() if basis is None else basis
    state.columns, state.rhs, state.rows, state.obj = columns, rhs, rows, obj
    state.D, state.order, state.L = D, order, L
    value, x, y = _optimum(state, ())
    state.value = value
    return value, x, y


def _optimum(state, held):
    """(value, x, y) at an optimal state, with x over every column, verified
    by `check_certificate` on the program without the `held` columns."""
    columns, rhs, D, L = state.columns, state.rhs, state.D, state.L
    nv = len(columns)
    x = [ZERO] * nv
    for row, b in zip(state.rows, state.order):
        if b < nv:
            x[b] = Fraction(row[-1], D * L)
    value = Fraction(state.obj[-1], D * L)
    y = [Fraction(w, D) if w else ZERO for w in state.obj[:len(rhs)]]
    checked = x
    if held:
        columns = [c for j, c in enumerate(columns) if j not in held]
        checked = [v for j, v in enumerate(x) if j not in held]
    if not check_certificate(columns, rhs, value, checked, y):
        raise CertificateFailed(f"simplex optimum {value} failed its dual certificate")
    return value, x, y


def _reoptimise(basis, held):
    """Re-solve `basis`'s program with the columns in `held` fixed at 0, by
    the dual simplex from its optimal state.

    Returns (value, x, y) at the new optimum, which is then `basis`'s state,
    once every basic value is >= 0 and every held basic column is at 0; or
    (bound, None, y), with `basis` unchanged, as soon as the dual objective
    rhs.y falls below basis.value, verified by `check_bound`.  Every
    nonbasic column stays at 0, so beta = M.b throughout.
    """
    columns, rhs, L, value = basis.columns, basis.rhs, basis.L, basis.value
    nv = len(columns)
    rows, obj, D, order = list(basis.rows), basis.obj, basis.D, list(basis.order)
    while True:
        leave = -1
        for i, (row, b) in enumerate(zip(rows, order)):
            if (row[-1] < 0 or (row[-1] > 0 and b in held)) and (leave < 0 or b < order[leave]):
                leave = i
        if leave < 0:
            break
        # a row below 0 leaves through a negative entry, a held column above
        # 0 through a positive one: a = s * alpha_j > 0.  The ratio is r / a,
        # r = Y.A_j - D >= 0 (Y_i for slack i), D times minus the reduced cost
        prow = rows[leave]
        s = 1 if prow[-1] > 0 else -1
        enter = -1
        get = prow.__getitem__
        for j, col in enumerate(columns):
            if j not in held:
                a = s * sum(map(get, col))
                if a > 0:
                    r = sum(map(obj.__getitem__, col)) - D
                    if enter < 0 or r * best_a < best_r * a:
                        enter, best_a, best_r = j, a, r
                        if not r:
                            break   # a zero ratio is the least, and no column before it
        if enter < 0 or best_r:
            for i, u in enumerate(prow[:-1]):
                a = s * u
                if a > 0 and (enter < 0 or obj[i] * best_a < best_r * a):
                    enter, best_a, best_r = nv + i, a, obj[i]
        if enter < nv:
            col = columns[enter]
            alpha = [sum(map(row.__getitem__, col)) for row in rows]
        else:
            alpha = [row[enter - nv] for row in rows]
        # the pivot entry is s * best_a; on a negative one the next adjugate
        # and its determinant are negated, which leaves every ratio as it is
        for i, f in enumerate(alpha):
            if i != leave:
                rows[i] = _pivot(rows[i], s * f, prow, best_a, D)
        obj = _pivot(obj, s * best_r, prow, best_a, D)
        if s < 0:
            rows[leave] = [-u for u in prow]
        D = best_a
        order[leave] = enter
        if obj[-1] * value.denominator < value.numerator * D * L:
            y = [Fraction(w, D) if w else ZERO for w in obj[:len(rhs)]]
            if not check_bound([c for j, c in enumerate(columns) if j not in held],
                               rhs, value, y):
                raise CertificateFailed(f"dual bound below {value} failed its check")
            return Fraction(obj[-1], D * L), None, y
    basis.rows, basis.obj, basis.D, basis.order = rows, obj, D, order
    return _optimum(basis, held)


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
    if len(x) != len(columns) or any(v < 0 for v in x):
        return False
    dual = _dual_feasible(columns, rhs, y)
    if dual is None:
        return False
    x, dx = _integer_row(x)
    load = [0] * len(rhs)
    for col, v in zip(columns, x):
        if v:
            for i in col:
                load[i] += v
    if any(ld > b * dx for ld, b in zip(load, rhs)):
        return False
    y, dy = dual
    return (sum(x) == value * dx
            and sum(w * b for w, b in zip(y, rhs) if w) == value * dy)


def check_bound(columns, rhs, value, y) -> bool:
    """Whether y proves that max sum(x), A.x <= rhs, x >= 0 lies below
    `value`: y is dual feasible and rhs.y < value, so weak duality bounds
    every feasible x.  The same exact arithmetic as `check_certificate`."""
    dual = _dual_feasible(columns, rhs, y)
    if dual is None:
        return False
    y, dy = dual
    return sum(w * b for w, b in zip(y, rhs) if w) < value * dy


def _dual_feasible(columns, rhs, y):
    """(integers, d) with y = integers / d when y has one entry per row,
    y >= 0 and y.A_j >= 1 for every column j; else None."""
    if len(y) != len(rhs) or any(w < 0 for w in y):
        return None
    y, dy = _integer_row(y)
    for col in columns:
        if sum(y[i] for i in col) < dy:
            return None
    return y, dy


def matching_lp(edge_list, lower=None, upper=None, basis=None):
    """Max total weight over edges with load at most 1 at every vertex.

    edge_list: canonical sorted list of edges.  lower / upper map edge ->
    Fraction bounds on that edge's weight (lower bounds are substituted
    out, upper bounds add a row); an upper bound of 0 drops the edge, which
    then gets no column, no bound row and no lower mass.  Returns (value,
    {edge: weight}) including the lower-bounded mass, or (None, None) when
    the bounds alone are infeasible.  Each edge's column has a 1 in the row
    of each of its vertices and in its bound row.

    basis: a `Basis`.  An empty one is filled by the solve, which must then
    have no bounds.  A filled one comes from such a solve on the same
    edge_list, and `upper` may only hold 0s: the edges it names are held at
    0 by `_reoptimise`, which keeps every vertex row.  The result is the
    optimum, which `basis` then holds, or (bound, None) with a verified
    bound below the optimum that `basis` holds, which is left unchanged.
    """
    lower = lower or {}
    upper = upper or {}
    if basis is not None and basis.value is not None:
        value, x, _ = _reoptimise(basis, {j for j, e in enumerate(edge_list) if e in upper})
        if x is None:
            return value, None
        return value, {e: w for e, w in zip(edge_list, x) if w}
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
    _, x, _ = simplex_max(columns, rhs, basis)
    weights = {}
    total = ZERO
    for e, w in zip(active, x):
        w = w + lower.get(e, ZERO)
        if w:
            weights[e] = w
            total += w
    return total, weights

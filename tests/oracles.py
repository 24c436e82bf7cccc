"""Independent brute-force oracles used to freeze expected values.

Nothing here imports the algorithms under test beyond plain data types:
matchings come from bare include/exclude recursion, LP optima from basic
solution enumeration and from a dense Fraction tableau, connectivity from
BFS, shadow masks from subset tests over all (k-2)-sets, small Ramsey
verdicts from every 2-colouring, parity certificate records from explicit
per-edge counts.  The reference tcg parser uses only
`hypergraph.build` for construction, and the reference `build` is its
per-edge loop over `canon_edge`, with no colour-class cache.  Deliberately
simple and slow.

The blow-up references behind the round-trip and blueprint blow-up
acceptance criteria are the exception: the edge projection and the two
conversions between blown matchings and 1/r-fractional matchings read the
base components from `monochromatic_components` and check weightings with
`validate_fractional`, and the blueprint blow-up reads the blown components
from `monochromatic_components` and builds its result with
`make_blueprint`, which `check_blueprint` then judges.  They raise
ValueError on input outside their contract.

The growth step's point queries (a blueprint's good-edge flags, the
first-fit good matching, the suitable-pair flags and the attached blue
component `compute_B_W`) are kept here as the scans the library replaced
with mask operations: they read only the blueprint's and the graph's
fields, the suitable-pair flags raise the library's ValueError messages,
and the attached component raises the library's error classes with its
messages.
"""
from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction


def brute_max_matching(edges) -> int:
    """Plain include/exclude recursion; no bounds, no pruning."""
    edges = sorted(tuple(sorted(e)) for e in edges)

    def rec(i, used):
        if i == len(edges):
            return 0
        best = rec(i + 1, used)
        e = edges[i]
        if not used.intersection(e):
            best = max(best, 1 + rec(i + 1, used | set(e)))
        return best

    return rec(0, frozenset())


def _solve_square_int(A, b):
    """Fraction-free (Bareiss) forward elimination on integer rows, then a
    small Fraction back substitution; None when singular."""
    n = len(A)
    M = [list(A[i]) + [b[i]] for i in range(n)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
        pk = M[col][col]
        for i in range(col + 1, n):
            mik = M[i][col]
            row = M[i]
            krow = M[col]
            for j in range(col + 1, n + 1):
                row[j] = (row[j] * pk - mik * krow[j]) // prev
            row[col] = 0
        prev = pk
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(M[i][n])
        for j in range(i + 1, n):
            acc -= M[i][j] * x[j]
        x[i] = acc / M[i][i]
    return x


def lp_vertex_enumeration(edges) -> Fraction:
    """Exact optimum of the fractional matching LP by enumerating basic
    solutions: for each support S and equally sized tight vertex set T
    meeting every support edge, solve the square system and keep the best
    feasible value.  Intended for at most ~12 edges.

    Pruning (sound for the maximum): supports whose size or vertex span
    cannot beat the incumbent are skipped, and the enumeration stops once
    the incumbent hits the global span/k cap."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    m = len(edges)
    if m == 0:
        return Fraction(0)
    k = len(edges[0])
    verts = sorted({v for e in edges for v in e})
    emask = [sum(1 << v for v in e) for e in edges]

    best = Fraction(0)
    used = 0
    for mask in emask:   # greedy integral warm start
        if not mask & used:
            best += 1
            used |= mask
    cap = Fraction(len(verts), k)
    for size in range(1, min(m, len(verts)) + 1):
        if best >= cap:
            break
        if Fraction(size) <= best:
            continue
        for S in itertools.combinations(range(m), size):
            union = 0
            for i in S:
                union |= emask[i]
            nv = union.bit_count()
            if Fraction(nv, k) <= best:
                continue
            vs = [v for v in verts if union >> v & 1]
            sedges = [edges[i] for i in S]
            for T in itertools.combinations(vs, size):
                tmask = 0
                for v in T:
                    tmask |= 1 << v
                if any(not emask[i] & tmask for i in S):
                    continue
                A = [[1 if union >> v & 1 and v in e else 0 for e in sedges]
                     for v in T]
                x = _solve_square_int(A, [1] * size)
                if x is None or any(xi <= 0 or xi > 1 for xi in x):
                    continue
                loads = {}
                for e, xi in zip(sedges, x):
                    for v in e:
                        loads[v] = loads.get(v, Fraction(0)) + xi
                if any(load > 1 for load in loads.values()):
                    continue
                value = sum(x, Fraction(0))
                if value > best:
                    best = value
    return best


def bfs_tight_walk(k, edges, start, goal):
    """Explicit tight walk between two edges, or None.

    BFS over the |e ∩ e'| = k-1 adjacency computed by pairwise
    intersection (quadratic on purpose: this is the oracle)."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    start = tuple(sorted(start))
    goal = tuple(sorted(goal))
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            walk = []
            while cur is not None:
                walk.append(cur)
                cur = parent[cur]
            return list(reversed(walk))
        for e in edges:
            if e not in parent and len(set(cur) & set(e)) == k - 1:
                parent[e] = cur
                queue.append(e)
    return None


def component_of(decomp) -> dict:
    """Edge -> component id of a tight decomposition, read off its
    component sets."""
    return {e: cid for cid, comp in enumerate(decomp.components) for e in comp}


def brute_components(k, edges):
    """Edge partition into tight components via repeated BFS."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    seen = set()
    comps = []
    for e in edges:
        if e in seen:
            continue
        comp = {e}
        queue = deque([e])
        while queue:
            cur = queue.popleft()
            for f in edges:
                if f not in comp and len(set(cur) & set(f)) == k - 1:
                    comp.add(f)
                    queue.append(f)
        seen.update(comp)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def verify_cycle_witness(edge_set, k, ordering) -> bool:
    ordering = tuple(ordering)
    if len(set(ordering)) != len(ordering):
        return False
    ell = len(ordering)
    edge_set = {tuple(sorted(e)) for e in edge_set}
    for i in range(ell):
        window = tuple(sorted(ordering[(i + j) % ell] for j in range(k)))
        if window not in edge_set:
            return False
    return True


def verify_path_witness(edge_set, k, ordering) -> bool:
    ordering = tuple(ordering)
    if len(set(ordering)) != len(ordering):
        return False
    edge_set = {tuple(sorted(e)) for e in edge_set}
    for i in range(len(ordering) - k + 1):
        window = tuple(sorted(ordering[i + j] for j in range(k)))
        if window not in edge_set:
            return False
    return True


def brute_has_tight(edge_set, N, k, kind, length) -> bool:
    """Whether some ordering of `length` distinct vertices of [N] has all
    its k-windows (cyclic ones for a cycle) in `edge_set`."""
    windows = length if kind == "cycle" else length - k + 1
    return any(all(tuple(sorted(o[(i + j) % length] for j in range(k))) in edge_set
                   for i in range(windows))
               for o in itertools.permutations(range(1, N + 1), length))


def brute_ramsey(k, N, kind, length) -> bool:
    """Whether every red/blue colouring of K_N^(k) has a monochromatic tight
    cycle or path on `length` vertices: all 2^C(N, k) colourings, both
    colour classes tested by `brute_has_tight`."""
    edges = list(itertools.combinations(range(1, N + 1), k))
    for bits in range(2 ** len(edges)):
        red = {e for i, e in enumerate(edges) if bits >> i & 1}
        blue = set(edges) - red
        if not (brute_has_tight(red, N, k, kind, length)
                or brute_has_tight(blue, N, k, kind, length)):
            return False
    return True


def parity_certificate_brute(colour, X, N, k, length) -> list:
    """The records `extremal.verify_no_mono_cycle` gives a colouring checked
    against a parity spec, recomputed from the colouring alone.

    `colour` maps each edge to "R" or "B".  Components come from
    `brute_components`, red first; each edge's |e ∩ X| is an explicit count.
    A component that neither its support nor its profile blocks gets
    `blocked_by: None`: only a tight-cycle search decides it."""
    X = set(X)
    records = []
    for letter in ("R", "B"):
        for comp in brute_components(k, [e for e, c in colour.items() if c == letter]):
            profile = set()
            for e in comp:
                count = 0
                for v in e:
                    if v in X:
                        count += 1
                profile.add(count)
            r1 = min(profile) if len(profile) == 1 else None
            support = len({v for e in comp for v in e})
            record = {"component": len(records), "colour": letter, "r1": r1,
                      "support": support, "blocked_by": None}
            if support < length:
                record["blocked_by"] = "support"
            elif r1 is not None and r1 * length % k:
                record["blocked_by"] = "divisibility"
            elif r1 is not None and r1 * length // k > len(X):
                record["blocked_by"] = "x_capacity"
                record["x_needed"] = r1 * length // k
            elif r1 is not None and (k - r1) * length // k > N - len(X):
                record["blocked_by"] = "y_capacity"
                record["y_needed"] = (k - r1) * length // k
            records.append(record)
    return records


def degree_brute(edges, S) -> int:
    ss = set(S)
    return sum(1 for e in edges if ss.issubset(e))


def edges_within_brute(edges, vertices) -> list:
    """Every member of `edges` whose vertices all lie in the set, by a full
    scan, sorted."""
    vs = set(vertices)
    return sorted(e for e in edges if vs.issuperset(e))


def shadow_masks_brute(component_edges, k) -> dict:
    """{(k-2)-set: bitmask}: bit z is set iff the (k-2)-set plus z lies
    inside some edge of the component; (k-2)-sets with no such z are left
    out.  Every (k-2)-set of the support against every z, by subset tests."""
    edges = [set(e) for e in component_edges]
    support = sorted(set().union(*edges)) if edges else []
    out = {}
    for pair in itertools.combinations(support, k - 2):
        mask = 0
        for z in support:
            if z not in pair and any(e.issuperset(pair + (z,)) for e in edges):
                mask |= 1 << z
        if mask:
            out[pair] = mask
    return out


def parse_reference(text: str):
    """The tcg parser as first written: every meaningful line is collected
    and checked (colour letter, arity, integers, strictly increasing, range)
    before the edges go to `build`, which checks them again.  The oracle
    that `cli.parse_coloured_hypergraph` must agree with."""
    from tcr.errors import ParseError
    from tcr.hypergraph import build

    lines = text.split("\n")
    meaningful = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            meaningful.append((lineno, stripped))
    if not meaningful:
        raise ParseError("empty input")
    lineno, header = meaningful[0]
    if header != "tcg 1":
        raise ParseError(f"expected 'tcg 1' header, got {header!r}", lineno)
    if len(meaningful) < 2:
        raise ParseError("missing 'k=... n=...' line", lineno)
    lineno, dims = meaningful[1]
    parts = dims.split()
    if (len(parts) != 2 or not parts[0].startswith("k=")
            or not parts[1].startswith("n=")):
        raise ParseError(f"expected 'k=<int> n=<int>', got {dims!r}", lineno)
    try:
        k = int(parts[0][2:])
        n = int(parts[1][2:])
    except ValueError:
        raise ParseError(f"non-integer dimensions in {dims!r}", lineno) from None
    coloured = []
    for lineno, line in meaningful[2:]:
        fields = line.split()
        if fields[0] not in ("R", "B"):
            raise ParseError(f"colour must be R or B, got {fields[0]!r}", lineno)
        if len(fields) != k + 1:
            raise ParseError(f"expected {k} vertices, got {len(fields) - 1}", lineno)
        try:
            verts = [int(f) for f in fields[1:]]
        except ValueError:
            raise ParseError(f"non-integer vertex in {line!r}", lineno) from None
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise ParseError("vertices must be strictly increasing", lineno)
        if verts[0] < 1 or verts[-1] > n:
            raise ParseError(f"vertex outside [1, {n}]", lineno)
        coloured.append((fields[0], tuple(verts)))
    return build(k, n, coloured)


def build_reference(k: int, n: int, coloured_edges):
    """`hypergraph.build` as a plain per-edge loop: every edge is sorted and
    checked by `canon_edge`, and a repeat is checked against the colour
    already given.  The graph it returns has no cached colour classes, so
    its `edges_of` scans the edges."""
    from tcr.errors import ConflictingColour, MalformedEdge
    from tcr.hypergraph import Colour, ColouredKGraph, KGraph, canon_edge

    if k < 2:
        raise MalformedEdge(f"uniformity {k} < 2")
    if n < k:
        raise MalformedEdge(f"vertex count {n} < uniformity {k}")
    colour = {}
    for c, raw in coloured_edges:
        if isinstance(c, str):
            c = Colour(c)
        e = canon_edge(raw, k, n)
        old = colour.get(e)
        if old is not None and old is not c:
            raise ConflictingColour(f"edge {e} given as both {old.value} and {c.value}")
        colour[e] = c
    return ColouredKGraph(KGraph(k, n, frozenset(colour)), colour)


def simplex_fraction_reference(c, rows, rhs, ties=None):
    """Maximize c.x, rows[i].x <= rhs[i], x >= 0, on a dense Fraction
    tableau with Bland's rule: the exact simplex as first written, kept as
    the oracle that `lp.simplex_max` must agree with pivot for pivot.
    Returns (value, x list); raises ValueError for rhs < 0 or unboundedness.
    Each ratio-test tie is appended to `ties` as (entering column, row).
    """
    m = len(rows)
    nv = len(c)
    # tableau: m constraint rows + objective row; columns: nv vars, m slacks, rhs
    width = nv + m + 1
    tab = []
    for i, row in enumerate(rows):
        if rhs[i] < 0:
            raise ValueError("simplex_max requires rhs >= 0")
        t = [Fraction(x) for x in row] + [Fraction(0)] * m + [Fraction(rhs[i])]
        t[nv + i] = Fraction(1)
        tab.append(t)
    obj = [-Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = [nv + i for i in range(m)]

    while True:
        enter = -1
        for j in range(nv + m):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if ratio == best and ties is not None:
                    ties.append((enter, i))
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ValueError("unbounded linear program")
        piv = tab[leave][enter]
        prow = tab[leave]
        if piv != Fraction(1):
            for j in range(width):
                if prow[j]:
                    prow[j] /= piv
        for i in range(m):
            if i == leave:
                continue
            f = tab[i][enter]
            if f:
                row = tab[i]
                for j in range(width):
                    if prow[j]:
                        row[j] -= f * prow[j]
        f = obj[enter]
        if f:
            for j in range(width):
                if prow[j]:
                    obj[j] -= f * prow[j]
        basis[leave] = enter

    x = [Fraction(0)] * nv
    for i, b in enumerate(basis):
        if b < nv:
            x[b] = tab[i][-1]
    return obj[-1], x


def dense_matching_lp(edge_list, lower=None, upper=None, excluded=None, ties=None):
    """`lp.matching_lp` on dense rows, solved by the reference tableau: one
    row per vertex, then one per upper-bounded edge in edge order."""
    lower, upper, excluded = lower or {}, upper or {}, excluded or frozenset()
    active = [e for e in edge_list if e not in excluded]
    vertices = sorted({v for e in active for v in e})
    rhs = [Fraction(1) - sum(lower.get(e, 0) for e in active if v in e) for v in vertices]
    if any(b < 0 for b in rhs):
        return None, None
    rows = [[1 if v in e else 0 for e in active] for v in vertices]
    for j, e in enumerate(active):
        if e in upper:
            if upper[e] < lower.get(e, 0):
                return None, None
            rows.append([1 if i == j else 0 for i in range(len(active))])
            rhs.append(Fraction(upper[e]) - lower.get(e, 0))
    _, x = simplex_fraction_reference([1] * len(active), rows, rhs, ties=ties)
    weights = {e: w + lower.get(e, 0) for e, w in zip(active, x) if w + lower.get(e, 0)}
    return sum(weights.values(), Fraction(0)), weights


def lp_report_certified(result, host) -> bool:
    """Whether a `match lp` result proves its weight optimal on `host` by
    weak duality, read from the report's strings alone: the weights are a
    fractional matching on host (each in (0, 1], load at most 1 at every
    vertex), the dual is >= 0 with sum_{v in e} y_v >= 1 for every host
    edge, and both sum to the reported weight."""
    weight = Fraction(result["weight"])
    weights = {tuple(map(int, key.split())): Fraction(w) for key, w in result["weights"].items()}
    dual = {int(v): Fraction(y) for v, y in result["dual"].items()}
    load = {}
    for e, w in weights.items():
        if e not in host or not 0 < w <= 1:
            return False
        for v in e:
            load[v] = load.get(v, 0) + w
    return (all(ld <= 1 for ld in load.values())
            and all(y >= 0 for y in dual.values())
            and all(sum(dual.get(v, 0) for v in e) >= 1 for e in host)
            and sum(weights.values()) == weight == sum(dual.values()))


def project_edge(bmap, e_star):
    """f(e*): the base edge whose classes the blown edge traverses."""
    e_star = tuple(sorted(e_star))
    bases = [bmap.vertex_class.get(y) for y in e_star]
    if any(b is None for b in bases):
        raise ValueError(f"{e_star} uses vertices outside the blow-up")
    if len(set(bases)) != len(bases):
        raise ValueError(f"{e_star} has two vertices in one class")
    base_edge = tuple(sorted(bases))
    if base_edge not in bmap.base.graph.edges:
        raise ValueError(f"projection {base_edge} is not a base edge")
    return base_edge


def matching_to_fractional(bmap, m_star):
    """A matching in one monochromatic blown component becomes a
    1/r-fractional matching of weight |M|/r in the corresponding base
    component, with the same colour."""
    from tcr.matchings import FractionalMatching, validate_fractional
    from tcr.tight import monochromatic_components

    edges = [tuple(sorted(e)) for e in m_star]
    used = set()
    for e in edges:
        if used.intersection(e):
            raise ValueError(f"edges overlap at {sorted(used.intersection(e))}")
        used.update(e)
    decomp = monochromatic_components(bmap.base)
    ids = component_of(decomp)
    counts = {}
    comp_ids = set()
    for e in edges:
        f = project_edge(bmap, e)
        counts[f] = counts.get(f, 0) + 1
        comp_ids.add(ids[f])
    if len(comp_ids) > 1:
        raise ValueError(f"projections span components {sorted(comp_ids)}")
    if not edges:
        return FractionalMatching(frozenset(), {})
    cid = comp_ids.pop()
    host = decomp.edges_of(cid)
    weights = {f: Fraction(c, bmap.r) for f, c in sorted(counts.items())}
    phi = FractionalMatching(host, weights, decomp.colour(cid), cid)
    ok, violation = validate_fractional(bmap.base, phi)
    if not ok:
        raise ValueError(f"converted weighting invalid: {violation}")
    return phi


def fractional_to_matching(bmap, phi) -> tuple:
    """A 1/r-fractional matching in the base becomes a matching of size
    weight*r in the blow-up.

    For each base vertex x the classes are carved into disjoint runs of
    r*phi(e) clones per incident support edge (possible because the loads
    are at most 1), and each support edge contributes the diagonal perfect
    matching of its runs.
    """
    from tcr.matchings import validate_fractional

    r = bmap.r
    for e, w in phi.weights.items():
        if (w * r).denominator != 1:
            raise ValueError(f"weight {w} on {e} is not a multiple of 1/{r}")
    ok, violation = validate_fractional(bmap.base, phi)
    if not ok:
        raise ValueError(f"input weighting invalid: {violation}")
    cursor = {x: 0 for x in bmap.classes}
    matching = []
    for e in sorted(phi.weights):
        count = int(phi.weights[e] * r)
        runs = []
        for x in e:
            start = cursor[x]
            cursor[x] = start + count
            runs.append(bmap.classes[x][start:start + count])
        for i in range(count):
            matching.append(tuple(sorted(run[i] for run in runs)))
    matching.sort()
    return tuple(matching)


def blueprint_blowup(bp, bmap, blown_ch):
    """Blow up a blueprint along a BlowUpMap into the blown graph blown_ch.

    Each blueprint edge's clones are assigned to the blow-up of its base
    component; the result passes the checker at the same eps.
    """
    from tcr.blueprint import make_blueprint
    from tcr.tight import monochromatic_components

    ids = component_of(monochromatic_components(blown_ch))
    cid_map = {}
    for cid, comp in enumerate(bp.decomposition.components):
        f = min(comp)
        e_star = tuple(sorted(bmap.classes[x][0] for x in f))
        cid_map[cid] = ids[e_star]
    assign = {}
    for e, cid in bp.assign.items():
        blown_cid = cid_map[cid]
        for combo in itertools.product(*(bmap.classes[x] for x in e)):
            assign[tuple(sorted(combo))] = blown_cid
    return make_blueprint(blown_ch, bp.eps, assign)


def good_flags_reference(bp, f) -> tuple:
    """(g1, g2, g3) of f by the definition: f inside V(G), every pair of f a
    blueprint edge, and some z in f whose bit is set in the shadow mask of
    every pair of f - z.  One membership or bit test per pair and vertex."""
    f = tuple(sorted(f))
    g1 = bp.vertex_set.issuperset(f)
    pairs = list(itertools.combinations(f, 2))
    g2 = all(p in bp.assign for p in pairs)
    g3 = False
    if g2:
        for z in f:
            rest = [v for v in f if v != z]
            if all(bp.masks.get(p, 0) >> z & 1 for p in itertools.combinations(rest, 2)):
                g3 = True
                break
    return g1, g2, g3


def greedy_good_reference(bp, edges, forbidden=frozenset()) -> list:
    """First-fit maximal matching among the good edges avoiding `forbidden`,
    by a scan of every edge in sorted order."""
    out = []
    used = set(forbidden)
    for e in sorted(edges):
        if used.intersection(e):
            continue
        if all(good_flags_reference(bp, e)):
            out.append(e)
            used.update(e)
    return out


def is_suitable_pair_reference(CH, bp, f, W) -> tuple:
    """(sp, good, suitable) of `blueprint.is_suitable_pair`, raising the same
    ValueError messages, by its first scans: every vertex of W against every
    pair of f, every vertex of f against every pair of W, every ordered pair
    of W against every vertex of f, and every triple of W."""
    def seen(p, z):
        return bool(bp.masks.get(p, 0) >> z & 1)

    f = tuple(sorted(f))
    W = tuple(sorted(W))
    if set(f) & set(W):
        raise ValueError("f and W must be disjoint")
    if not W:
        raise ValueError("W must be nonempty")
    if not bp.vertex_set.issuperset(W):
        raise ValueError("W must lie inside V(G)")
    union = tuple(sorted(f + W))
    sp1 = all(e in CH.graph.edges for e in itertools.combinations(union, 4))
    sp2 = all(p in bp.assign for p in itertools.combinations(union, 2))
    sp3 = all(seen(p, z) for p in itertools.combinations(f, 2) for z in W
              if p in bp.assign) and sp2
    sp4 = all(seen(p, z) for p in itertools.combinations(W, 2) for z in f
              if p in bp.assign) and sp2
    sp5 = True
    for x in f:
        for y, z in itertools.permutations(W, 2):
            p = tuple(sorted((x, y)))
            if p not in bp.assign or not seen(p, z):
                sp5 = False
    sp6 = True
    for T in itertools.combinations(W, 3):
        for p in itertools.combinations(T, 2):
            (z,) = set(T).difference(p)
            if p not in bp.assign or not seen(p, z):
                sp6 = False
    good = good_flags_reference(bp, f)
    sp = (sp1, sp2, sp3, sp4, sp5, sp6)
    return sp, good, all(sp) and all(good)


def compute_B_W_reference(CH, bp, R_id, W) -> tuple:
    """(component, triples, gamma) of `blueprint.compute_B_W`, raising the
    same error class with the same message, by its first scans: every
    triple of W against every vertex of [n] for the degree test, every
    vertex of W against every triple for attachment, and a goodness test at
    each visit of an attachment edge."""
    from tcr.errors import HypothesisViolated, InconsistentWitness
    from tcr.hypergraph import Colour

    def is_good(f):
        return all(good_flags_reference(bp, f))

    def inside(edges, size):
        return [e for e in itertools.combinations(W, size) if e in edges]

    W = tuple(sorted(set(W)))
    if not bp.vertex_set.issuperset(W):
        raise HypothesisViolated("W must lie inside V(G)")
    for e in sorted(bp.graph.colour):
        if bp.graph.colour[e] is Colour.RED and bp.assign[e] != R_id:
            raise HypothesisViolated(
                f"red blueprint edge {e} induces component {bp.assign[e]}, not {R_id}")
    decomp = bp.decomposition
    ids = component_of(decomp)
    red_good_inside = [e for e in inside(decomp.edges_of(R_id), 4) if is_good(e)]
    if red_good_inside:
        raise HypothesisViolated(f"good red edge {red_good_inside[0]} inside W")

    edges = CH.graph.edges
    triples = []
    for T in itertools.combinations(W, 3):
        pairs = list(itertools.combinations(T, 2))
        if not all(p in bp.assign for p in pairs):
            continue
        if not any(bp.graph.colour[p] is Colour.RED for p in pairs):
            continue
        if not any(tuple(sorted(T + (w,))) in edges for w in range(1, CH.n + 1)
                   if w not in T):
            continue
        triples.append(T)

    candidates = {}
    gamma = {}
    for T in triples:
        hits = []
        for w in W:
            if w in T:
                continue
            if not all(tuple(sorted((x, w))) in bp.assign for x in T):
                continue
            if not all(bp.masks.get(p, 0) >> w & 1 for p in itertools.combinations(T, 2)):
                continue
            if tuple(sorted(T + (w,))) not in edges:
                continue
            hits.append(w)
        gamma[T] = tuple(hits)
        if not hits:
            raise InconsistentWitness(f"triple {T} has no attachment vertex")
        for w in hits:
            edge = tuple(sorted(T + (w,)))
            if CH.colour[edge] is Colour.RED:
                raise HypothesisViolated(
                    f"attachment edge {edge} is red (good red edge inside W)")
            candidates.setdefault(ids[edge], ("triple", T, w))

    for p in inside(bp.assign, 2):
        if bp.graph.colour[p] is Colour.BLUE:
            candidates.setdefault(bp.assign[p], ("blue_pair", p))

    if not candidates:
        raise InconsistentWitness("no structure inside W determines a blue component")
    if len(candidates) > 1:
        items = sorted(candidates.items())
        raise InconsistentWitness(
            f"conflicting blue components {items[0][0]} ({items[0][1]}) "
            f"vs {items[1][0]} ({items[1][1]})")
    (b_id,) = candidates
    for T, hits in gamma.items():
        for w in hits:
            edge = tuple(sorted(T + (w,)))
            if ids[edge] != b_id or not is_good(edge):
                raise InconsistentWitness(
                    f"attachment edge {edge} not good in component {b_id}")
    return b_id, tuple(triples), gamma

import functools
import inspect
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # noqa: E402
from tcr.hypergraph import Colour, KGraph, build  # noqa: E402

# Tier-1 time split: wall seconds inside the outermost calls into oracles.py
# against the seconds of every test's setup, call and teardown.  The
# functions are wrapped here, before any test module imports them by name;
# a nested oracle call is not counted twice.
ORACLE_TIME = {"seconds": 0.0, "depth": 0}


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if ORACLE_TIME["depth"]:
            return fn(*args, **kwargs)
        ORACLE_TIME["depth"] = 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ORACLE_TIME["seconds"] += time.perf_counter() - start
            ORACLE_TIME["depth"] = 0
    return wrapper


for _name, _fn in inspect.getmembers(oracles, inspect.isfunction):
    if _fn.__module__ == oracles.__name__:
        setattr(oracles, _name, _timed(_fn))


def pytest_terminal_summary(terminalreporter):
    total = sum(r.duration for reports in terminalreporter.stats.values() for r in reports
                if getattr(r, "when", None) in ("setup", "call", "teardown"))
    oracle = ORACLE_TIME["seconds"]
    terminalreporter.write_line(
        f"tier-1 time split: {oracle:.1f} s in tests/oracles.py and {total - oracle:.1f} s "
        f"in the system under test and the test bodies, of {total:.1f} s in tests "
        f"({100 * oracle / total if total else 0:.0f}% oracle)")


def parse_outcome(parse, text):
    """What a tcg parser makes of a text: the graph with its cached orders
    and colour classes, or the error class and line."""
    try:
        CH = parse(text)
    except Exception as exc:   # the class and line are compared, not caught
        return type(exc), getattr(exc, "line", None)
    return (CH.k, CH.n, CH.colour, CH.graph.sorted_edges,
            CH.edges_of(Colour.RED), CH.edges_of(Colour.BLUE))


def rand_coloured(k, n, m, rng):
    """Random coloured k-graph: m distinct edges, independent fair colours."""
    pool = list(itertools.combinations(range(1, n + 1), k))
    rng.shuffle(pool)
    return build(k, n, [(rng.choice("RB"), e) for e in pool[:m]])


def near_complete_coloured(k, n, rng, deletions=2):
    """Complete K_n^(k) minus a packing of edges pairwise sharing at most
    k-2 vertices, randomly coloured.  Each (k-1)-set loses at most one
    edge, so degrees stay within 1 of complete at every level."""
    pool = list(itertools.combinations(range(1, n + 1), k))
    rng.shuffle(pool)
    removed = []
    shadows = set()
    for e in pool:
        if len(removed) >= deletions:
            break
        subs = set(itertools.combinations(e, k - 1))
        if shadows & subs:
            continue
        removed.append(e)
        shadows |= subs
    removed = set(removed)
    return build(k, n, [(rng.choice("RB"), e)
                        for e in sorted(pool) if e not in removed])


def complete_kgraph(k, n):
    """K_n^(k) as an uncoloured KGraph."""
    return KGraph(k, n, frozenset(itertools.combinations(range(1, n + 1), k)))


def all_red(k, n):
    return build(k, n, [("R", e) for e in itertools.combinations(range(1, n + 1), k)])


def complete_random_coloured(k, n, rng):
    """Complete K_n^(k) with independent fair colours: (1, 0)-dense."""
    return build(k, n, [(rng.choice("RB"), e)
                        for e in itertools.combinations(range(1, n + 1), k)])


def threshold_colouring(N, t):
    """Complete K_N^(4), red iff the edge has at least t vertices in [N/2].
    At N = 24, t = 3 the spanning component is blue, so the growth set-up
    swaps colours."""
    return build(4, N, [("R" if sum(v <= N // 2 for v in e) >= t else "B", e)
                        for e in itertools.combinations(range(1, N + 1), 4)])


def split_edges(k, n_param, N=None):
    """Split-style colouring on N vertices: X = [n_param - 1] red rule."""
    if N is None:
        N = (k + 1) * n_param - 2
    x_top = n_param - 1
    return build(k, N, [("R" if e[0] <= x_top else "B", e)
                        for e in itertools.combinations(range(1, N + 1), k)])

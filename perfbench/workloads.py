"""Seeded input generator for the benchmark workloads.

Everything here is stdlib only and independent of the package under test:
the colourings, component ids and edge sets are computed by this file, so
a change to `tcr` cannot change the inputs it is measured on.  Generation
is untimed.  The same seed gives byte-identical job files.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1
CORPUS_SEED = 1       # lp_exact's fixed instance corpus

WHY = {
    "driver_dense": (
        "tcr driver on random complete 2-colourings of K_N^(4), N = 32, 36, 40: parse, "
        "density check, components, shadow masks, blueprint build and trim do the work"),
    "lp_exact": (
        "match lp on the largest component at N = 10, 11, match mu, max_r_fractional(r=2) on "
        "sparse 4-graphs, a fixed corpus: the exact simplex and LP branch and bound do the work"),
    "growth_steps": (
        "augment_once chains on threshold colourings (red iff |e & [N/2]| >= t, N = 36, "
        "t = 1, 2): blueprint point queries and the K5, partner and blue routes do the work"),
    "cli_corpus": (
        "criterion-9 commands on split 8/13, ramsey --no-seeds and extremal --verify: "
        "per-command fixed cost plus blowup, extremal and the tight-cycle DFS"),
}

DRIVER_NS = (32, 36, 40)
LP_NS = ((10, 5), (11, 1))      # (N, colourings)
MU_N = 10
MAX_R = dict(r=2, vertices=9, edges=22, instances=4)
GROWTH = dict(N=36, thresholds=(1, 2), step_cap=4)
# calls of each command or library call in its process (see runner.py)
REPEATS = {"driver_dense": 5, "lp_exact": 3, "growth_steps": 10, "cli_corpus": 4}
# extremal runs large enough to time, parity k=4 n=7 i=2 is the N = 40 one
EXTREMAL_VERIFY = (("parity", 4, 7, 2), ("split", 4, 9, 0), ("parity", 3, 12, 1))
RAMSEY_NO_SEEDS = ((2, "c4", 6), (2, "c5", 6), (2, "c4", 7), (3, "c5", 6))


@dataclass
class Graph:
    """A coloured 4-graph as the benchmark knows it: edge tuple -> 'R' | 'B'."""

    k: int
    n: int
    colour: dict

    def tcg(self) -> bytes:
        lines = ["tcg 1", f"k={self.k} n={self.n}"]
        lines += [c + " " + " ".join(map(str, e)) for e, c in sorted(self.colour.items())]
        return ("\n".join(lines) + "\n").encode()


@dataclass
class Job:
    """One unit of load: a tcr command line or one library call.

    `spec` is what the runner executes; `check` names the output checks and
    carries the inputs they need; `key` identifies the job and its input
    bytes, so recorded solver values apply to any seed that reproduces it."""

    name: str
    spec: dict
    check: dict
    key: str = ""


@dataclass
class Workload:
    name: str
    seed: int
    why: str
    repeats: int = 1                             # timed calls per job process
    jobs: list = field(default_factory=list)     # run in order, one process each
    setup: dict = field(default_factory=dict)    # runner spec timed as setup_s
    chains: list = field(default_factory=list)   # growth_steps: prepared instances
    inputs: dict = field(default_factory=dict)   # file name -> Graph


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + parts)))


def random_complete(n: int, rng: random.Random) -> Graph:
    return Graph(4, n, {e: rng.choice("RB")
                        for e in itertools.combinations(range(1, n + 1), 4)})


def threshold_colouring(n: int, t: int) -> Graph:
    """Red iff the edge has at least t vertices in X = [n/2]."""
    half = n // 2
    return Graph(4, n, {e: "R" if sum(v <= half for v in e) >= t else "B"
                        for e in itertools.combinations(range(1, n + 1), 4)})


def split_colouring(k: int, n: int) -> Graph:
    """The split colouring on N = (k+1)n - 2 vertices: red iff e meets [n-1]."""
    big = (k + 1) * n - 2
    return Graph(k, big, {e: "R" if e[0] <= n - 1 else "B"
                          for e in itertools.combinations(range(1, big + 1), k)})


def sparse_edges(vertices: int, edges: int, rng: random.Random) -> list:
    pool = list(itertools.combinations(range(1, vertices + 1), 4))
    return sorted(rng.sample(pool, edges))


def mono_components(g: Graph) -> list:
    """Monochromatic tight components numbered as tcr numbers them: red
    components first, each colour ordered by smallest edge."""
    comps = []
    for colour in "RB":
        edges = sorted(e for e, c in g.colour.items() if c == colour)
        parent = list(range(len(edges)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        first = {}
        for i, e in enumerate(edges):
            for sub in itertools.combinations(e, g.k - 1):
                j = first.setdefault(sub, i)
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        groups = {}
        for i, e in enumerate(edges):
            groups.setdefault(find(i), []).append(e)
        comps += [frozenset(es) for es in sorted(groups.values(), key=min)]
    return comps


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
        h.update(b"\0")
    return h.hexdigest()[:20]


def _write(wl: Workload, workdir: Path, name: str, g: Graph) -> str:
    (workdir / name).write_bytes(g.tcg())
    wl.inputs[name] = g
    return name


def _cli(wl: Workload, workdir: Path, name: str, argv: list, check: dict, files=()) -> None:
    """argv uses bare file names; they are resolved inside workdir here."""
    key = _digest("cli", json.dumps(argv), *((workdir / f).read_bytes() for f in files))
    real = [str(workdir / a) if a in files else a for a in argv]
    wl.jobs.append(Job(name, {"kind": "cli", "argv": real}, check, key))


def driver_dense(seed: int, workdir: Path) -> Workload:
    wl = Workload("driver_dense", seed, WHY["driver_dense"])
    for n in DRIVER_NS:
        f = _write(wl, workdir, f"random{n}.tcg", random_complete(n, _rng(seed, "driver", n)))
        _cli(wl, workdir, f"driver N={n}", ["driver", "--in", f, "--seed", "7"],
             {"kind": "driver", "input": f}, files=[f])
    wl.setup = {"kind": "parse", "path": str(workdir / f"random{DRIVER_NS[-1]}.tcg")}
    return wl


def lp_exact(seed: int, workdir: Path) -> Workload:
    """The instances come from a fixed corpus, the same for every seed.
    Bland's rule and the branching order make LP cost depend on the edge
    order: relabelling one instance changes its solve count by up to 4x,
    and ten random draws spread the pass time by 18%, wider than any bound.
    The job count is odd and the N = 10 jobs are the largest group, so the
    median job falls among jobs of like cost."""
    wl = Workload("lp_exact", seed, WHY["lp_exact"])
    for n, copies in LP_NS:
        for i in range(copies):
            g = random_complete(n, _rng(CORPUS_SEED, "lp", n, i))
            f = _write(wl, workdir, f"random{n}_{i}.tcg", g)
            comps = mono_components(g)
            cid = max(range(len(comps)), key=lambda c: (len(comps[c]), -c))
            _cli(wl, workdir, f"match lp N={n} #{i}",
                 ["match", "lp", "--in", f, "--component", str(cid)],
                 {"kind": "match_lp", "input": f, "component": sorted(comps[cid])}, files=[f])
    f = _write(wl, workdir, f"random{MU_N}.tcg", random_complete(MU_N, _rng(CORPUS_SEED, "mu")))
    _cli(wl, workdir, f"match mu N={MU_N}",
         ["match", "mu", "--in", f, "--s", "1", "--beta", "1/100"],
         {"kind": "match_mu", "input": f}, files=[f])
    rng = _rng(CORPUS_SEED, "max_r")
    for i in range(MAX_R["instances"]):
        edges = sparse_edges(MAX_R["vertices"], MAX_R["edges"], rng)
        spec = {"kind": "max_r_fractional", "edges": edges, "r": MAX_R["r"]}
        wl.jobs.append(Job(f"max_r_fractional #{i}", spec,
                           {"kind": "max_r", "edges": edges, "r": MAX_R["r"]},
                           _digest("lib", json.dumps(spec))))
    wl.setup = {"kind": "parse", "path": str(workdir / f"random{LP_NS[-1][0]}_0.tcg")}
    return wl


def growth_steps(seed: int, workdir: Path) -> Workload:
    """Threshold colourings are symmetric inside X and inside Y, so every
    relabelling that keeps them is an automorphism; the seed reaches these
    jobs through the step RNG only."""
    wl = Workload("growth_steps", seed, WHY["growth_steps"])
    n = GROWTH["N"]
    instances = []
    for t in GROWTH["thresholds"]:
        f = _write(wl, workdir, f"threshold{n}_t{t}.tcg", threshold_colouring(n, t))
        rng_seed = _rng(seed, "growth", t).randrange(2**31)
        instances.append({"path": str(workdir / f), "input": f, "rng_seed": rng_seed,
                          "pickle": str(workdir / f"threshold{n}_t{t}.pickle"),
                          "key": _digest("growth", (workdir / f).read_bytes(), rng_seed)})
    wl.chains = instances
    wl.setup = {"kind": "prepare", "instances": instances}
    return wl


def cli_corpus(seed: int, workdir: Path) -> Workload:
    wl = Workload("cli_corpus", seed, WHY["cli_corpus"])
    f8 = _write(wl, workdir, "split8.tcg", split_colouring(4, 2))
    f13 = _write(wl, workdir, "split13.tcg", split_colouring(4, 3))
    run_seed = str(_rng(seed, "corpus").randrange(1000))
    plan = [
        ("components", ["components", "--in", f8, "--mono"], {"kind": "components", "input": f8}),
        ("match exact", ["match", "exact", "--in", f8, "--host", "red"],
         {"kind": "match_exact", "input": f8, "colour": "R"}),
        ("match lp", ["match", "lp", "--in", f8, "--component", "1"],
         {"kind": "match_lp", "input": f8,
          "component": sorted(mono_components(wl.inputs[f8])[1])}),
        ("match mu", ["match", "mu", "--in", f8, "--s", "1", "--beta", "1/100"],
         {"kind": "match_mu", "input": f8}),
        ("blueprint check", ["blueprint", "check", "--in", f8, "--eps", "1/20"],
         {"kind": "blueprint", "input": f8}),
        ("blowup", ["blowup", "--in", f8, "--r", "2"], {"kind": "blowup", "input": f8}),
        ("augment", ["augment", "--in", f13, "--seed", run_seed],
         {"kind": "augment", "input": f13}),
        ("driver", ["driver", "--in", f13, "--seed", run_seed], {"kind": "driver", "input": f13}),
        ("extremal split", ["extremal", "split", "--k", "4", "--n", "2", "--verify", "--len", "8"],
         {"kind": "extremal"}),
        ("extremal parity", ["extremal", "parity", "--k", "3", "--n", "2", "--i", "0",
                             "--verify", "--len", "6"], {"kind": "extremal"}),
        ("ramsey c3 N=6", ["ramsey", "--k", "2", "--target", "c3", "--N", "6"],
         {"kind": "ramsey"}),
        ("ramsey c4 N=5", ["ramsey", "--k", "2", "--target", "c4", "--N", "5"],
         {"kind": "ramsey"}),
    ]
    for mode, k, n, i in EXTREMAL_VERIFY:
        argv = ["extremal", mode, "--k", str(k), "--n", str(n)]
        argv += ["--i", str(i)] if mode == "parity" else []
        plan.append((f"extremal {mode} k={k} n={n} verify", argv + ["--verify"],
                     {"kind": "extremal"}))
    for k, target, n in RAMSEY_NO_SEEDS:
        plan.append((f"ramsey k={k} {target} N={n} no-seeds",
                     ["ramsey", "--k", str(k), "--target", target, "--N", str(n), "--no-seeds"],
                     {"kind": "ramsey"}))
    for name, argv, check in plan:
        files = [a for a in argv if a in wl.inputs]
        _cli(wl, workdir, name, argv, check, files=files)
    wl.setup = {"kind": "parse", "path": str(workdir / f13)}
    return wl


GENERATORS = {"driver_dense": driver_dense, "lp_exact": lp_exact,
              "growth_steps": growth_steps, "cli_corpus": cli_corpus}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    wl = GENERATORS[name](seed, workdir)
    wl.repeats = REPEATS[name]
    return wl


def manifest(wl: Workload, workdir: Path) -> bytes:
    """Everything a workload feeds the program, independent of workdir."""
    body = json.dumps({"jobs": [j.spec for j in wl.jobs], "setup": wl.setup,
                       "chains": wl.chains}, sort_keys=True).replace(str(workdir), "")
    files = b"".join(wl.inputs[f].tcg() for f in sorted(wl.inputs))
    return body.encode() + files

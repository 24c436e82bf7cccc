"""Frozen report corpus: byte-level regression data for refactors.

`frozen_corpus.json` holds the CLI stdout of the criterion-9 commands and of
`augment`/`driver` on two structured colourings, the full `augment_once`
outcome on hand-built states, and tight cycle/path search results on small
graphs.  Every entry is recomputed here and must match the recorded value
exactly; the data is never regenerated by the suite.  The reports of the
larger `extremal --verify` runs, about 40 kB each, are pinned by their
SHA-256 digests below instead.
"""
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from conftest import complete_kgraph
from tcr.augment import AugmentationState, DriverParams, _greedy_good, augment_once
from tcr.blueprint import build_blueprint
from tcr.cli import run, serialize_coloured_hypergraph, to_jsonable
from tcr.extremal import parity_coloring, split_coloring
from tcr.hypergraph import Colour, KGraph, build
from tcr.tight import Absent, find_tight_cycle, find_tight_path, monochromatic_components

DATA = json.loads((Path(__file__).parent / "frozen_corpus.json").read_text(encoding="utf-8"))


def threshold_colouring(N, t):
    """Red iff the edge has at least t vertices in [N/2]."""
    half = N // 2
    return build(4, N, [("R" if sum(v <= half for v in e) >= t else "B", e)
                        for e in itertools.combinations(range(1, N + 1), 4)])


# tcg files written into the working directory; CLI paths stay relative so
# the recorded `inputs` do not depend on where the suite runs
FILES = {
    "split8.tcg": lambda: split_coloring(4, 2)[0],
    "split13.tcg": lambda: split_coloring(4, 3)[0],
    "threshold24.tcg": lambda: threshold_colouring(24, 1),
    "parity442.tcg": lambda: parity_coloring(4, 4, 2)[0],
}

CLI = {
    "components": ["components", "--in", "split8.tcg", "--mono"],
    "match exact": ["match", "exact", "--in", "split8.tcg", "--host", "red"],
    "match lp": ["match", "lp", "--in", "split8.tcg", "--component", "1"],
    "match mu": ["match", "mu", "--in", "split8.tcg", "--s", "1", "--beta", "1/100"],
    "blueprint check": ["blueprint", "check", "--in", "split8.tcg", "--eps", "1/20"],
    "blowup": ["blowup", "--in", "split8.tcg", "--r", "2"],
    "augment split13": ["augment", "--in", "split13.tcg", "--seed", "7"],
    "driver split13": ["driver", "--in", "split13.tcg", "--seed", "7"],
    "extremal split": ["extremal", "split", "--k", "4", "--n", "2", "--verify", "--len", "8"],
    "extremal parity": ["extremal", "parity", "--k", "3", "--n", "2", "--i", "0",
                        "--verify", "--len", "6"],
    "ramsey c3": ["ramsey", "--k", "2", "--target", "c3", "--N", "6"],
    "ramsey c4": ["ramsey", "--k", "2", "--target", "c4", "--N", "5"],
    "augment threshold24": ["augment", "--in", "threshold24.tcg", "--seed", "7"],
    "driver threshold24": ["driver", "--in", "threshold24.tcg", "--seed", "7"],
    "augment parity442": ["augment", "--in", "parity442.tcg", "--seed", "7"],
    "driver parity442": ["driver", "--in", "parity442.tcg", "--seed", "7"],
}

# the perfbench extremal --verify runs (N = 40, 43 and 46): SHA-256 of stdout
EXTREMAL_DIGESTS = {
    "parity k=4 n=7 i=2": (["extremal", "parity", "--k", "4", "--n", "7", "--i", "2", "--verify"],
                           "42614d0a0b54f4e96b01c4d8bc0faabf5997d14b113f8d84c3fb06583a17df97"),
    "split k=4 n=9": (["extremal", "split", "--k", "4", "--n", "9", "--verify"],
                      "ff88fea51bfba08797e52b0d62ac51ba5a25e9c75de406285668c4f77049a7b9"),
    "parity k=3 n=12 i=1": (["extremal", "parity", "--k", "3", "--n", "12", "--i", "1",
                             "--verify"],
                            "a23220d903f697a5c4b4a34ba944c193c5f2eb62cba631c9393d8cfb3a8d44dc"),
}

# (instance, component, matching size): the state is the first 1 or 2 edges
# of the greedy good matching of that component
STATES = {
    "threshold24 red 0 x1": ("threshold24.tcg", 0, 1),
    "threshold24 red 0 x2": ("threshold24.tcg", 0, 2),
    "threshold24 blue 1 x1": ("threshold24.tcg", 1, 1),
    "threshold24 blue 1 x2": ("threshold24.tcg", 1, 2),
    "parity440 red 0 x1": ("parity440", 0, 1),
    "parity440 blue 2 x1": ("parity440", 2, 1),
    "parity440 blue 3 x1": ("parity440", 3, 1),
    "parity442 red 1 x1": ("parity442.tcg", 1, 1),
    "parity442 red 1 x2": ("parity442.tcg", 1, 2),
    "parity442 blue 3 x1": ("parity442.tcg", 3, 1),
    "parity442 blue 3 x2": ("parity442.tcg", 3, 2),
}


def _coloured(name):
    if name == "parity440":
        return parity_coloring(4, 4, 0)[0]
    return FILES[name]()


def augment_outcome(instance, cid, size):
    CH = _coloured(instance)
    params = DriverParams()
    bp = build_blueprint(CH, params.eps).blueprint
    (R_id,) = {bp.assign[e] for e in bp.pairs_of_colour(Colour.RED)}
    decomp = bp.decomposition
    M = tuple(sorted(_greedy_good(CH, bp, decomp._sorted[cid])[:size]))
    state = AugmentationState(M, decomp.colour(cid), cid)
    out = augment_once(CH, bp, R_id, state, params, random.Random(7))
    phi = out.fractional
    return to_jsonable({
        "status": out.status, "next_matchings": out.next_matchings, "trace": out.trace,
        "weight": phi.weight(), "weights": phi.weights, "colour": phi.colour,
        "component": phi.component, "host": len(phi.host)})


def _random_graph(n, m, seed):
    pool = list(itertools.combinations(range(1, n + 1), 4))
    return KGraph(4, n, frozenset(random.Random(seed).sample(pool, m)))


def _search_record(res):
    return {"found": not isinstance(res, Absent), "explored": res.explored,
            "ordering": list(getattr(res, "ordering", ()))}


def tight_search(name):
    kind, length = SEARCHES[name][0], SEARCHES[name][1]
    search = find_tight_cycle if kind == "cycle" else find_tight_path
    if name.startswith("parity"):
        CH = parity_coloring(3, 2, 0)[0]
        decomp = monochromatic_components(CH)
        return [_search_record(search(KGraph(CH.k, CH.n, decomp.edges_of(cid)), length))
                for cid in range(len(decomp.components))]
    if name.startswith("split"):
        CH = split_coloring(4, 2)[0]
        return [_search_record(search(CH.monochromatic_subgraph(c), length))
                for c in (Colour.RED, Colour.BLUE)]
    return [_search_record(search(SEARCHES[name][2](), length))]


SEARCHES = {
    "K5 cycle 5": ("cycle", 5, lambda: complete_kgraph(4, 5)),
    "K6 cycle 6": ("cycle", 6, lambda: complete_kgraph(4, 6)),
    "K6 path 5": ("path", 5, lambda: complete_kgraph(4, 6)),
    "K7 path 7": ("path", 7, lambda: complete_kgraph(4, 7)),
    "random 8/40 cycle 7": ("cycle", 7, lambda: _random_graph(8, 40, 1)),
    "random 8/40 path 7": ("path", 7, lambda: _random_graph(8, 40, 1)),
    "random 9/50 cycle 8": ("cycle", 8, lambda: _random_graph(9, 50, 2)),
    "random 9/30 path 6": ("path", 6, lambda: _random_graph(9, 30, 3)),
    "split 4/2 mono cycle 8": ("cycle", 8),
    "split 4/2 mono path 8": ("path", 8),
    "parity 3/2/0 components cycle 6": ("cycle", 6),
    "parity 3/2/0 components path 5": ("path", 5),
}


@pytest.fixture
def corpus_dir(tmp_path, monkeypatch):
    for name, make in FILES.items():
        (tmp_path / name).write_text(serialize_coloured_hypergraph(make()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(CLI))
def test_cli_report_frozen(name, corpus_dir, capsys):
    code = run(CLI[name])
    out = capsys.readouterr().out
    assert {"exit": code, "stdout": out} == DATA["cli"][name]


@pytest.mark.parametrize("name", sorted(EXTREMAL_DIGESTS))
def test_extremal_verify_report_digest_frozen(name, capsys):
    argv, digest = EXTREMAL_DIGESTS[name]
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(STATES))
def test_augment_once_frozen(name):
    assert augment_outcome(*STATES[name]) == DATA["augment_once"][name]


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_tight_search_frozen(name):
    assert tight_search(name) == DATA["tight"][name]


def test_corpus_covers_every_entry():
    assert sorted(DATA["cli"]) == sorted(CLI)
    assert sorted(DATA["augment_once"]) == sorted(STATES)
    assert sorted(DATA["tight"]) == sorted(SEARCHES)

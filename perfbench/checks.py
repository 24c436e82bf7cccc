"""Output checks for every benchmark job, independent of `tcr`'s own validators.

`check_job` raises CheckError naming the first problem.  Each returned
weighting is re-validated against the generated input; recorded solver
values (golden.json, taken at the commit that introduced the benchmark)
are compared whenever a job reproduces a recorded job exactly.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from pathlib import Path

from workloads import mono_components

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


class CheckError(Exception):
    pass


def _edge(key: str) -> tuple:
    return tuple(int(v) for v in key.split())


def check_weighting(weights: dict, total, colour_of: dict, colour=None, host=None,
                    r=None) -> None:
    """weights: 'v1 v2 v3 v4' -> 'p/q'.  Weights in (0, 1], every support edge
    an input edge (of the given colour and inside host when given), vertex
    loads at most 1, reported total equal to the sum, multiples of 1/r."""
    loads = {}
    acc = Fraction(0)
    for key, text in weights.items():
        e, w = _edge(key), Fraction(text)
        if not 0 < w <= 1:
            raise CheckError(f"weight {w} of {e} outside (0, 1]")
        if e not in colour_of:
            raise CheckError(f"support edge {e} is not an input edge")
        if colour is not None and colour_of[e] != colour:
            raise CheckError(f"support edge {e} is {colour_of[e]}, reported {colour}")
        if host is not None and e not in host:
            raise CheckError(f"support edge {e} outside the host edge set")
        if r is not None and (w * r).denominator != 1:
            raise CheckError(f"weight {w} of {e} is not a multiple of 1/{r}")
        for v in e:
            loads[v] = loads.get(v, 0) + w
        acc += w
    over = [v for v, load in loads.items() if load > 1]
    if over:
        raise CheckError(f"vertex {over[0]} overloaded: {loads[over[0]]}")
    if acc != Fraction(total):
        raise CheckError(f"reported total {total} != sum of weights {acc}")


def _check_complete(tcg: str) -> None:
    """A serialized colouring must colour every edge of K_n^(k)."""
    lines = [ln for ln in tcg.splitlines() if ln.strip()]
    k, n = (int(part.split("=")[1]) for part in lines[1].split())
    edges = {tuple(map(int, ln.split()[1:])) for ln in lines[2:]}
    if len(edges) != comb(n, k):
        raise CheckError(f"counterexample has {len(edges)} edges, not C({n},{k})")


def solver_values(kind: str, report: dict) -> dict:
    """The values recorded for comparison across commits."""
    res = report.get("result", report)
    if kind == "driver":
        return {"status": res["status"], "weight": res["weight"]}
    if kind == "match_lp":
        return {"weight": res["weight"]}
    if kind == "match_mu":
        return {"value": res["value"], "exact": res["exact"]}
    if kind == "match_exact":
        return {"size": res["size"]}
    if kind == "max_r":
        return {"weight": res["weight"]}
    if kind == "ramsey":
        return {"all_coloured": res["all_coloured"]}
    if kind == "extremal":
        return {"ok": res["certificate"]["ok"]}
    if kind == "blueprint":
        return {"check_ok": res["check_ok"]}
    if kind == "components":
        return {"count": res["count"]}
    if kind == "blowup":
        return {"blown_edges": res["blown_edges"]}
    if kind == "augment":
        return {"initial": res["initial"]["status"],
                "step": res.get("step", {}).get("status")}
    if kind == "augment_step":
        return {"status": res["status"], "weight": res["weight"]}
    raise CheckError(f"unknown check kind {kind}")


def check_report(check: dict, report: dict, inputs: dict) -> None:
    """Structural checks that hold for every seed."""
    kind = check["kind"]
    res = report.get("result", report)
    colour_of = inputs[check["input"]].colour if "input" in check else None
    if kind == "driver":
        check_weighting(res["weights"], res["weight"], colour_of, colour=res["colour"])
        if res["reached"] and Fraction(res["weight"]) < Fraction(res["target"]):
            raise CheckError(f"reached with weight {res['weight']} < target {res['target']}")
        if res["status"] not in ("reached", "improved", "step_failed", "stuck"):
            raise CheckError(f"unknown driver status {res['status']}")
    elif kind == "match_lp":
        check_weighting(res["weights"], res["weight"], colour_of,
                        host=set(map(tuple, check["component"])))
        if len({colour_of[_edge(e)] for e in res["weights"]}) > 1:
            raise CheckError("LP support mixes colours inside one component")
    elif kind == "match_mu":
        if not 0 <= Fraction(res["value"]) <= Fraction(inputs[check["input"]].n, 4):
            raise CheckError(f"mu value {res['value']} outside [0, n/4]")
    elif kind == "match_exact":
        used = set()
        for e in map(tuple, res["edges"]):
            if colour_of.get(e) != check["colour"]:
                raise CheckError(f"matching edge {e} not a {check['colour']} input edge")
            if used.intersection(e):
                raise CheckError(f"matching edges overlap at {e}")
            used.update(e)
        if res["size"] != len(res["edges"]) or not res["optimal"]:
            raise CheckError("matching certificate inconsistent")
    elif kind == "max_r":
        check_weighting(res["weights"], res["weight"], {tuple(e): None for e in check["edges"]},
                        r=check["r"])
    elif kind == "augment_step":
        if res["status"] not in ("improved", "terminal", "step_failed"):
            raise CheckError(f"unknown step status {res['status']}")
        check_weighting(res["weights"], res["weight"], colour_of, colour=res["colour"])
    elif kind == "ramsey":
        if res["all_coloured"] == ("counterexample" in res):
            raise CheckError("verdict and counterexample disagree")
        if "counterexample" in res:
            _check_complete(res["counterexample"])
    elif kind == "extremal":
        if res["red_edges"] + res["blue_edges"] != comb(res["N"], res["k"]):
            raise CheckError("extremal colouring is not complete")
        if not res["certificate"]["ok"]:
            raise CheckError("absence certificate not ok")
    elif kind == "components":
        sizes = sorted(c["edges"] for c in res["components"])
        if sizes != sorted(map(len, mono_components(inputs[check["input"]]))):
            raise CheckError(f"component sizes {sizes} differ from the benchmark's own")
    elif kind == "blueprint":
        if not res["check_ok"]:
            raise CheckError(f"blueprint check failed: {res['violations'][:2]}")
    elif kind == "blowup":
        if res["blown_edges"] != res["expected_edges"]:
            raise CheckError("blow-up edge count differs from m * r^k")
    elif kind == "augment":
        if res["initial"]["status"] not in ("ok", "target_reached", "stuck"):
            raise CheckError(f"unknown initial status {res['initial']['status']}")


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def check_job(check: dict, key: str, result: dict, inputs: dict, golden: dict) -> dict:
    """Full check of one job result; returns its solver values."""
    if result.get("exit") != 0:
        raise CheckError(f"exit code {result.get('exit')}: {result.get('stderr', '')}")
    report = result.get("report")
    if not isinstance(report, dict):
        raise CheckError("no JSON report")
    check_report(check, report, inputs)
    values = solver_values(check["kind"], report)
    expected = golden.get(key)
    if expected is not None and expected != values:
        raise CheckError(f"solver values {values} != recorded {expected}")
    return values

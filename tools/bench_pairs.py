"""Run one perfbench workload on two checkouts in alternating pairs.

Each pair runs `python3 perfbench/run.py --workload W --seed S --trace 0`
once in each checkout, at perfbench's own run length, the base first in
even pairs and the change first in odd ones, and keeps the last two lines of each run (the
run record, which holds the machine, and the result) and the median CPU
seconds of each job, from its `job <name> median <s> CPU s` line.  The
summary gives, per end-to-end metric and per job, both medians, the base's
interquartile range and the number of pairs the change wins; each bounded
metric also gets a verdict against its bound in the base's BENCHMARK.json:

- `worse`: the change's median is worse than the base median by more than
  the bound;
- `unresolved`: not worse, but the base's IQR / median exceeds the bound and
  not every change run beats every base run;
- `better`: the change wins at least nine pairs in ten and its median beats
  the base median by more than the base's IQR;
- `no worse`: anything else.

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --workload lp_exact --pairs 10 --out BENCH_lp_exact.json
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

JOB_LINE = re.compile(r"\s*job (.+?)\s+median\s+(\S+) CPU s of \d+ calls")


def job_medians(lines) -> dict:
    """Job name -> median CPU seconds, from perfbench's per-job lines."""
    return {m[1]: float(m[2]) for m in map(JOB_LINE.fullmatch, lines) if m}


def run_once(checkout: str, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True).stdout.splitlines()
    return {"record": json.loads(out[-2]), "result": json.loads(out[-1]),
            "jobs": job_medians(out[:-2])}


def compare(base: list, change: list) -> dict:
    """Both medians, the base's interquartile range and the pairs the change
    wins; the runs are listed pair by pair."""
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (0, 0, 0)
    return {"base_median": statistics.median(base),
            "change_median": statistics.median(change), "base_iqr": q3 - q1,
            "change_lower_in": sum(c < b for b, c in zip(base, change))}


def verdict(row: dict, base: list, change: list, bound: float) -> str:
    """One metric's verdict from its `compare` row; lower is better."""
    b_med, c_med, iqr = row["base_median"], row["change_median"], row["base_iqr"]
    if c_med > b_med * (1 + bound):
        return "worse"
    if iqr > b_med * bound and not max(change) < min(base):
        return "unresolved"
    if 10 * row["change_lower_in"] >= 9 * len(base) and b_med - c_med > iqr:
        return "better"
    return "no worse"


def summary(pairs: list, bounds: dict) -> dict:
    """bounds maps each end-to-end metric to its BENCHMARK.json entry."""
    out = {}
    for name in pairs[0]["base"]["result"]["metrics"]:
        base = [p["base"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        out[name] = compare(base, change)
        if name in bounds:
            bound = bounds[name]["bound"]
            out[name]["bound"] = bound
            out[name]["verdict"] = verdict(out[name], base, change, bound)
    out["jobs"] = {name: compare([p["base"]["jobs"][name] for p in pairs],
                                 [p["change"]["jobs"][name] for p in pairs])
                   for name in pairs[0]["base"]["jobs"]}
    out["all_correct"] = all(p[side]["result"]["correct"] and not p[side]["result"]["failed"]
                             for p in pairs for side in ("base", "change"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": i + 1, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, i + 1)
        pairs.append(pair)
        print(json.dumps({side: pair[side]["result"]["metrics"] for side in order}), flush=True)
    benchmark = json.loads((Path(args.base) / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    record = {"workload": args.workload, "pairs": pairs, "summary": summary(pairs, bounds)}
    print(json.dumps(record["summary"], indent=1))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Time `max_fractional_lp` (`tcr match lp`) on large tight components.

For each N, the input is the largest monochromatic tight component of a
random complete 2-colouring of K_N^(4) (each 4-set red or blue with equal
odds, drawn from random.Random(N) in lexicographic order).  The script runs
`max_fractional_lp` on it -- one certified LP solve -- with the cyclic
garbage collector off, as `tcr.cli.run` runs a command, and reports the
median CPU time over the repeats, the number of LP solves (calls of
`lp.matching_lp`: one, where a checkout with the lexicographic-support
loop made one more per trial), the optimum and a digest of the exact
weights, together with the machine it ran on.

    python3 tools/lp_scale.py --ns 14 18 22 26 30 --repeats 5 --out BENCH_lp_scale.json

`--src` points at the `src` directory of another checkout, to time it on
the same inputs.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import machine_record  # noqa: E402


def largest_component(n: int):
    from tcr.hypergraph import build
    from tcr.tight import monochromatic_components
    rng = random.Random(n)
    ch = build(4, n, [(rng.choice("RB"), e)
                      for e in itertools.combinations(range(1, n + 1), 4)])
    return max(monochromatic_components(ch)._sorted, key=len)


def measure(n: int, repeats: int) -> dict:
    from tcr import lp
    from tcr.matchings import max_fractional_lp
    component = largest_component(n)
    solves = 0
    solve = lp.matching_lp

    def counting(*args, **kwargs):
        nonlocal solves
        solves += 1
        return solve(*args, **kwargs)

    times = []
    lp.matching_lp = counting
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            solves = 0
            start = time.process_time()
            result = max_fractional_lp(component)
            times.append(time.process_time() - start)
    finally:
        lp.matching_lp = solve
        if collecting:
            gc.enable()
    # a checkout with the lexicographic-support loop returns the matching alone
    phi = result[0] if isinstance(result, tuple) else result
    weights = sorted(phi.weights.items())
    digest = hashlib.sha256(repr([(e, str(w)) for e, w in weights]).encode()).hexdigest()
    return {"N": n, "edges": len(component), "solves": solves,
            "cpu_s": round(statistics.median(times), 4),
            "cpu_s_runs": [round(t, 4) for t in times],
            "value": str(phi.weight()), "support": len(weights), "weights_sha256": digest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ns", type=int, nargs="+", default=[14, 18, 22, 26])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--out", help="write the JSON record here as well as to stdout")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    record = {"what": "max_fractional_lp on the largest monochromatic component of a "
                      "random complete colouring of K_N^(4) seeded by N",
              "machine": machine_record(), "repeats": args.repeats,
              "results": [measure(n, args.repeats) for n in args.ns]}
    text = json.dumps(record, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Time `tcr driver --seed 7` at the north star's sizes, one process per run.

For each N the input is perfbench's random complete 2-colouring of K_N^(4)
(`workloads.random_complete`, drawn from the generator perfbench's
`driver_dense` uses at seed 1), written once as a tcg file.  Every run is a
fresh interpreter that imports `tcr.cli` from the given `src` and makes one
`tcr.cli.run` call, as the `tcr` command does.  A run reports the CPU
seconds of that call, the process's peak resident set size (VmHWM) after
it, the exit code, the status and a digest of the JSON report.  With
several `--src` checkouts the runs alternate between them, N by N and
repeat by repeat; the record holds each checkout's median CPU seconds and
its largest VmHWM per N, together with the machine it ran on.

    python3 tools/driver_scale.py --src parent=../parent/src --src change=src \\
        --out BENCH_driver_scale.json

`--src` points at the `src` directory of a checkout (this one by default),
as `[label=]path`; the label names its results in the record.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import machine_record  # noqa: E402
from workloads import _rng, random_complete  # noqa: E402

CHILD = """
import contextlib, hashlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
import tcr.cli
out = io.StringIO()
started = time.process_time()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = tcr.cli.run(["driver", "--in", sys.argv[2], "--seed", "7"])
cpu = time.process_time() - started
with open("/proc/self/status", encoding="ascii") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
report = out.getvalue()
print(json.dumps({"exit": code, "cpu_s": round(cpu, 4), "vmhwm_mb": round(hwm / 1024, 2),
                  "status": json.loads(report).get("result", {}).get("status"),
                  "report_sha256": hashlib.sha256(report.encode()).hexdigest()}))
"""


def run_once(src: str, path: Path) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD, src, str(path)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ns", type=int, nargs="+", default=[40, 50, 60])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", action="append",
                    help="[label=]path of a checkout's src directory, once per checkout")
    ap.add_argument("--out", help="write the JSON record here as well as to stdout")
    args = ap.parse_args(argv)
    srcs = {}
    for given in args.src or [str(ROOT / "src")]:
        label, _, path = given.rpartition("=")
        srcs[label or path] = str(Path(path).resolve())
    runs = {label: {n: [] for n in args.ns} for label in srcs}
    edges = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.ns:
            g = random_complete(n, _rng(1, "driver", n))
            path = Path(tmp) / f"random{n}.tcg"
            path.write_bytes(g.tcg())
            edges[n] = len(g.colour)
            del g
            for repeat in range(args.repeats):
                order = list(srcs) if repeat % 2 == 0 else list(srcs)[::-1]
                for label in order:
                    runs[label][n].append(run_once(srcs[label], path))
    results = []
    for label in srcs:
        for n in args.ns:
            rs = runs[label][n]
            results.append({"src": label, "N": n, "edges": edges[n],
                            "cpu_s": round(statistics.median(r["cpu_s"] for r in rs), 4),
                            "vmhwm_mb": max(r["vmhwm_mb"] for r in rs), "runs": rs})
    record = {"what": "tcr driver --seed 7 on perfbench's random complete colouring of "
                      "K_N^(4) (driver_dense's generator, seed 1), one process per run",
              "machine": machine_record(), "repeats": args.repeats, "results": results}
    text = json.dumps(record, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

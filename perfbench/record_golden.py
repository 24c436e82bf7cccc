"""Record the solver values of every job at the default seed into golden.json.

    python3 perfbench/record_golden.py

Run once on the commit whose answers are taken as reference; later runs of
the benchmark compare every job that reproduces a recorded job (same
command or call on the same input bytes) against these values.  Jobs that
fail their structural checks are not recorded, and the script exits 1.
"""
from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    values = {}
    failures = []
    for name in workloads.GENERATORS:
        workdir = run.WORK / f"record-{name}"
        try:
            wl = workloads.generate(name, workloads.DEFAULT_SEED, workdir)
            bench = run.Bench(wl, workdir)
            bench.golden = {}
            wl.repeats = 1
            bench.setup([])
            bench.one_pass(traced=False)
            values.update(bench.values)
            failures += bench.failures
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if run.WORK.is_dir() and not any(run.WORK.iterdir()):
        run.WORK.rmdir()
    if failures:
        print("\n".join(failures))
        return 1
    checks.GOLDEN_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"recorded {len(values)} jobs in {checks.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

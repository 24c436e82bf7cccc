"""Benchmark for the tcr toolkit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout that holds `src/tcr`.  One client, a
closed loop: jobs run one at a time, each in a fresh process that makes its
`tcr` command or call several times and times each in CPU seconds.  Passes
over the workload's job list repeat while the next should end within
--seconds (always at least one).  A job's time is the median of all its
timings in the run, scaled to a reference CPU speed (see `speed`).
With --trace 0 the end-to-end metrics are measured; with --trace 1 half
the time goes to untraced passes and half to traced passes, and the
per-layer metrics and the tracing overhead are reported.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 7, 2.0
JOB_LIMIT_S = 60.0
# CPU seconds of runner.reference_loop on a 2-vCPU Xeon VM with Python 3.11
REF_LOOP_S = 0.03

END_TO_END = [("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

# Per-layer metrics that must read non-zero on the workload the layer map
# assigns them to.  cli.emit_s is left out on growth_steps, whose library
# jobs emit no report.
REQUIRED_NONZERO = {
    "driver_dense": [
        "cli.parse_s", "hypergraph.build_s", "hypergraph.edges",
        "hypergraph.density_check_s", "tight.monochromatic_components_s",
        "tight.monochromatic_components_calls", "blueprint.pair_shadow_masks_s",
        "blueprint.pair_shadow_masks_calls", "blueprint.build_blueprint_self_s",
        "blueprint.make_blueprint_s", "blueprint.trim_spanning_component_s",
        "augment.run_driver_self_s", "augment.initial_matching_s",
        "matchings.validate_fractional_s", "cli.emit_s"],
    "lp_exact": [
        "matchings.max_fractional_lp_s", "matchings.max_fractional_lp_solves",
        "matchings.mu_estimate_s", "matchings.max_r_fractional_s",
        "matchings.max_r_fractional_solves", "lp.simplex_max_s", "lp.simplex_max_calls",
        "lp.tableau_cells", "cli.emit_s"],
    "growth_steps": [
        "blueprint.compute_B_W_s", "blueprint.compute_B_W_calls", "blueprint.is_good_calls",
        "blueprint.is_suitable_pair_calls", "augment.augment_once_s",
        "augment.augment_once_calls", "augment.steps_improved", "augment.steps_failed",
        "augment.steps_terminal", "augment.route.red_k5", "augment.route.blue_partners",
        "augment.route.blue_route", "matchings.validate_fractional_s"],
    "cli_corpus": [
        "cli.import_s", "blueprint.check_blueprint_s", "matchings.max_matching_exact_s",
        "matchings.bnb_nodes", "blowup.blow_up_s", "blowup.blown_edges",
        "extremal.colouring_s", "extremal.verify_no_mono_cycle_s",
        "extremal.ramsey_search_tiny_s", "extremal.ramsey_nodes", "extremal.ramsey_prunes",
        "tight.find_tight_cycle_s", "tight.dfs_explored", "cli.emit_s"],
}
REQUIRED_EVERYWHERE = ["trace.overhead_ratio"]


@dataclass
class JobRun:
    name: str
    rss_mb: float        # peak RSS of the job process through its first call
    seconds: list        # CPU seconds of each call, timed inside the process
    loops: list          # CPU seconds of the reference loops around the calls
    result: dict
    error: str = ""


@dataclass
class Pass:
    jobs: list = field(default_factory=list)
    totals: tracing.PassTotals = field(default_factory=tracing.PassTotals)


def job_samples(passes: list) -> dict:
    """Job name -> the CPU times of all its calls over the passes."""
    samples = {}
    for p in passes:
        for j in p.jobs:
            samples.setdefault(j.name, []).extend(j.seconds)
    return {name: secs for name, secs in samples.items() if secs}


def job_times(passes: list) -> dict:
    """Job name -> the median CPU time of its calls over the passes."""
    return {name: statistics.median(secs) for name, secs in job_samples(passes).items()}


def speed(runs: list) -> float:
    """Factor from CPU seconds in this run to reference seconds.

    The CPU speed of a shared VM drifts: the same call can take 1.5 times
    as long a few minutes later.  Every job process times a fixed loop
    around its calls; REF_LOOP_S over the median of those loops over the
    run gives the run's speed.  A change to `tcr` moves the calls but not
    the loop."""
    loops = [x for j in runs for x in j.loops]
    return REF_LOOP_S / statistics.median(loops) if loops else 1.0


def all_jobs(passes: list) -> list:
    return [j for p in passes for j in p.jobs]


class Bench:
    def __init__(self, wl: workloads.Workload, workdir: Path):
        self.wl = wl
        self.workdir = workdir
        self.golden = checks.load_golden()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failures: list = []
        self.values: dict = {}   # golden key -> solver values (for recording)
        self._n = 0

    def spawn(self, argv: list, stdout_path: Path, stderr_path: Path) -> int:
        """Run one process to completion and return its exit code.  A
        process over the time limit is killed and reported as exit -9."""
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            try:
                return subprocess.run(argv, stdout=out, stderr=err, env=self.env,
                                      cwd=self.workdir, timeout=JOB_LIMIT_S).returncode
            except subprocess.TimeoutExpired:
                return -9

    def run_spec(self, name: str, spec: dict, traced: bool) -> JobRun:
        """One job in a fresh runner process, traced or not."""
        self._n += 1
        out = self.workdir / f"job{self._n}.out"
        err = self.workdir / f"job{self._n}.err"
        job = self.workdir / f"job{self._n}.json"
        job.write_text(json.dumps(spec), encoding="utf-8")
        res = self.workdir / f"job{self._n}.result"
        argv = [sys.executable, str(HERE / "runner.py"), str(job), str(res)]
        code = self.spawn(argv + (["--trace"] if traced else []), out, err)
        try:
            result = json.loads(res.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = {"exit": code if code else -1, "report": None}
        if code != 0:
            result["stderr"] = err.read_text(encoding="utf-8", errors="replace")[-300:]
        for path in (job, res, out, err):
            path.unlink(missing_ok=True)
        return JobRun(name, result.get("rss_mb", 0.0), result.get("seconds", []),
                      result.get("loops", []), result)

    def checked(self, run: JobRun, check: dict, key: str) -> JobRun:
        self.attempted += 1
        try:
            self.values[key] = checks.check_job(check, key, run.result,
                                                self.wl.inputs, self.golden)
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            run.error = f"{type(exc).__name__}: {exc}"
            self.failures.append(f"{run.name}: {run.error}")
        return run

    def setup(self, setups: list) -> None:
        """Time one set-up in CPU seconds and append its run.  The CLI
        workloads time a fresh interpreter that imports tcr.cli and parses
        the largest input; growth_steps times its preparation."""
        run = self.run_spec("setup", self.wl.setup, traced=False)
        self.attempted += 1
        if run.result.get("exit") != 0:
            self.failures.append(f"setup: exit {run.result.get('exit')} "
                                 f"{run.result.get('stderr', '')}")
        setups.append(run)

    def one_pass(self, traced: bool) -> Pass:
        p = Pass()
        for job in self.wl.jobs:
            spec = dict(job.spec, repeats=self.wl.repeats)
            p.jobs.append(self.checked(self.run_spec(job.name, spec, traced),
                                       job.check, job.key))
        for inst in self.wl.chains:
            state = inst["pickle"] + ".state0"
            for step in range(workloads.GROWTH["step_cap"]):
                nxt = inst["pickle"] + f".state{step + 1}"
                spec = {"kind": "augment_step", "instance": inst["pickle"],
                        "state": state, "next_state": nxt, "repeats": self.wl.repeats}
                run = self.checked(self.run_spec(f"{inst['input']} step {step}", spec, traced),
                                   {"kind": "augment_step", "input": inst["input"]},
                                   f"{inst['key']}:{step}")
                p.jobs.append(run)
                if run.error or not run.result["report"]["continue"]:
                    break
                state = nxt
        if traced:
            for run in p.jobs:
                p.totals.add_job(run.result.get("spans", []))
        return p

    def passes(self, seconds: float, traced: bool, setups: list = None) -> list:
        """At least one pass; another only if it should end within `seconds`.
        With `setups`, a set-up is timed before each pass and appended."""
        out = []
        started = perf_counter()
        while not out or (perf_counter() - started) * (len(out) + 1) / len(out) <= seconds:
            if setups is not None:
                self.setup(setups)
            out.append(self.one_pass(traced))
        return out


def machine_record() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model or platform.processor(), "loadavg_start": loadavg()}


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def end_to_end(setups: list, passes: list) -> dict:
    """In reference seconds: the median set-up, and the sum over jobs of
    each job's median time in the run.  The highest peak RSS of any job
    process."""
    scale = speed(setups + all_jobs(passes))
    return {
        "setup_s": statistics.median([x for s in setups for x in s.seconds] or [0.0]) * scale,
        "cpu_s": sum(job_times(passes).values()) * scale,
        "peak_rss_mb": max(j.rss_mb for j in all_jobs(passes)),
    }


def per_layer(untraced: list, traced: list) -> dict:
    per_pass = [p.totals.layer_metrics() for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass)
           for name, _, _ in tracing.LAYER_METRICS}
    out["trace.overhead_ratio"] = (sum(job_times(traced).values()) * speed(all_jobs(traced))
                                   / sum(job_times(untraced).values())
                                   / speed(all_jobs(untraced)))
    return out


UNITS = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
UNITS.update(END_TO_END)
UNITS["trace.overhead_ratio"] = "ratio"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    """Measure one workload and print its summary, its record and the result line."""
    machine = machine_record()
    workdir = WORK / f"{name}-{os.getpid()}"
    gate = []
    try:
        wl = workloads.generate(name, seed, workdir)
        bench = Bench(wl, workdir)
        setups = []
        if trace:
            bench.setup(setups)
            untraced = bench.passes(seconds / 2, traced=False)
            traced = bench.passes(seconds / 2, traced=True)
            metrics = per_layer(untraced, traced)
            zero = [m for m in REQUIRED_NONZERO[name] + REQUIRED_EVERYWHERE if not metrics[m]]
            gate = [f"per-layer metric {m} reads zero on {name}" for m in zero]
        else:
            untraced = bench.passes(seconds, traced=False, setups=setups)
            while len(setups) < SETUP_MIN_REPS or (
                    len(setups) < SETUP_MAX_REPS
                    and sum(x for s in setups for x in s.seconds) < SETUP_BUDGET_S):
                bench.setup(setups)
            traced = []
            metrics = end_to_end(setups, untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    machine["loadavg_end"] = loadavg()

    failed = len(bench.failures)
    fail_ratio = failed / bench.attempted
    print(f"workload {wl.name} (seed {wl.seed}): {wl.why}")
    for metric, value in metrics.items():
        print(f"  {metric:40s} {value:14.6f} {UNITS[metric]}")
    print(f"  {'fail_ratio':40s} {fail_ratio:14.6f} ratio "
          f"({failed} failed of {bench.attempted} attempted)")
    for job, secs in job_samples(untraced).items():
        print(f"    job {job:50s} median {statistics.median(secs):8.4f} CPU s of {len(secs)} calls")
    print(f"  passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"set-up timed {len(setups)} times")
    for line in bench.failures + gate:
        print(f"  FAILED {line}")
    print(json.dumps({"record": {"workload": wl.name, "seed": wl.seed, "why": wl.why,
                                 "machine": machine, "fail_ratio": fail_ratio,
                                 "passes": len(untraced), "traced_passes": len(traced),
                                 "repeats": wl.repeats, "setup_reps": len(setups),
                                 "unscaled_cpu_s": sum(job_times(untraced).values()),
                                 "speed": speed(setups + all_jobs(untraced))}}))
    print(json.dumps({"correct": not failed and not gate, "attempted": bench.attempted,
                      "failed": failed,
                      "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tcr" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no tcr sources under {SRC}\n")
        return 2
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

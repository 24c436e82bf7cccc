"""Run one benchmark job in this process and write its result as JSON.

    python3 perfbench/runner.py <job.json> <result.json> [--trace]

`src` must be on PYTHONPATH.  A job is a `tcr` command line run through
`tcr.cli.run`, one library call, or a set-up step.  A command or call is
made spec["repeats"] times in this process, each timed in CPU seconds by a
timer around the call alone; every repeat must give the same report.  With
--trace the public functions of `tcr` are wrapped first, and the spans of
the first repeat are written out with the result, after the timing ends.
A fixed loop is also timed after each call, so that run.py can scale the
times to a reference CPU speed.  The process's peak RSS is read at the end
of the first call, before the loop's table exists.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import pickle
import random
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


REF_MASK = (1 << 19) - 1
REF_TABLE: list = []


def reference_loop() -> float:
    """CPU seconds of a fixed loop of lookups scattered over a 512k-entry
    table of tuples (about 50 MB), with integer arithmetic and dict stores.
    Scattered beyond the core's own caches, it follows the speed drift of
    the tcr jobs (parse, DFS and LP alike) more closely than a loop that
    stays in them.  The table is built untimed on first use."""
    if not REF_TABLE:
        REF_TABLE.extend((i, i + 1) for i in range(REF_MASK + 1))
    started = process_time()
    d, x, s = {}, 1, 0
    for i in range(25_000):
        x = (x * 1103515245 + 12345) & REF_MASK
        a, b = REF_TABLE[x]
        s += a - b
        d[x & 0xFFFF] = (a, i)
    return process_time() - started


def peak_rss_mb() -> float:
    """Peak RSS of this process since its exec, in MB (VmHWM on Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rat(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def weights_json(phi) -> dict:
    return {" ".join(map(str, e)): rat(w) for e, w in sorted(phi.weights.items())}


# A timed job kind prepares its inputs untimed and returns (call, report):
# call() is what is timed, report(result) turns its result into the JSON
# report outside the timing.

def cli_job(spec):
    import tcr.cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tcr.cli.run(spec["argv"])
        return code, out.getvalue()

    def report(result):
        code, text = result
        return {"exit": code, "report": json.loads(text)}

    return call, report


def max_r_job(spec):
    from tcr import matchings
    edges = [tuple(e) for e in spec["edges"]]

    def report(phi):
        return {"exit": 0, "report": {"weight": rat(phi.weight()), "weights": weights_json(phi)}}

    return lambda: matchings.max_r_fractional(edges, spec["r"]), report


def step_job(spec):
    """One augment_once call on a prepared state, on a fresh copy of the
    state's RNG.  The next state follows the largest grown next matching,
    as run_driver picks it."""
    from tcr import augment
    with open(spec["instance"], "rb") as fh:
        CH, bp, R_id, params = pickle.load(fh)
    with open(spec["state"], "rb") as fh:
        state, rng_state = pickle.load(fh)

    def call():
        rng = random.Random()
        rng.setstate(rng_state)
        return augment.augment_once(CH, bp, R_id, state, params, rng), rng

    def report(result):
        outcome, rng = result
        phi = outcome.fractional
        grown = [m for m in outcome.next_matchings if len(m[0]) > len(state.matching)]
        out = {"status": outcome.status,
               "weight": rat(phi.weight()) if phi else None,
               "colour": phi.colour.value if phi and phi.colour else None,
               "weights": weights_json(phi) if phi else {},
               "continue": outcome.status != "terminal" and bool(grown)}
        if out["continue"]:
            edges, colour, comp = max(grown, key=lambda m: (len(m[0]), m[1].value))
            with open(spec["next_state"], "wb") as fh:
                pickle.dump((augment.AugmentationState(edges, colour, comp), rng.getstate()),
                            fh, protocol=pickle.HIGHEST_PROTOCOL)
        return {"exit": 0, "report": out}

    return call, report


def parse_setup(spec):
    """Set-up of the CLI workloads: the process's CPU time from its start
    (interpreter, import of tcr.cli, parse of the largest input)."""
    from tcr import cli
    with open(spec["path"], encoding="utf-8") as fh:
        CH = cli.parse_coloured_hypergraph(fh.read())
    cpu = process_time()
    return {"exit": 0, "report": {"edges": CH.graph.m}, "seconds": [cpu],
            "loops": [reference_loop()]}


def prepare_setup(spec):
    """Set-up of growth_steps, as `tcr augment` does it: parse, build the
    blueprint, take the initial matching.  Pickling is not timed."""
    from tcr import augment, blueprint, cli
    from tcr.hypergraph import Colour
    params = augment.DriverParams()
    elapsed = 0.0
    report = []
    for inst in spec["instances"]:
        started = process_time()
        with open(inst["path"], encoding="utf-8") as fh:
            CH = cli.parse_coloured_hypergraph(fh.read())
        bp = blueprint.build_blueprint(CH, params.eps).blueprint
        (R_id,) = {bp.assign[e] for e in bp.pairs_of_colour(Colour.RED)}
        rng = random.Random(inst["rng_seed"])
        init = augment.initial_matching(CH, bp, R_id, params, rng)
        elapsed += process_time() - started
        state = augment.AugmentationState(init.matching, init.colour, init.component)
        with open(inst["pickle"], "wb") as fh:
            pickle.dump((CH, bp, R_id, params), fh, protocol=pickle.HIGHEST_PROTOCOL)
        with open(inst["pickle"] + ".state0", "wb") as fh:
            pickle.dump((state, rng.getstate()), fh, protocol=pickle.HIGHEST_PROTOCOL)
        report.append({"status": init.status, "size": len(init.matching)})
    return {"exit": 0, "report": {"instances": report}, "seconds": [elapsed],
            "loops": [reference_loop()]}


TIMED = {"cli": cli_job, "max_r_fractional": max_r_job, "augment_step": step_job}
SETUP = {"parse": parse_setup, "prepare": prepare_setup}


def timed(spec, tracer: Tracer) -> dict:
    """Make the call spec["repeats"] times; keep the spans of the first.
    Garbage is collected after each call, outside the timing."""
    call, report = TIMED[spec["kind"]](spec)
    seconds, loops, first, first_text, kept = [], [], None, None, None
    for _ in range(spec["repeats"]):
        started = process_time()
        result = call()
        seconds.append(process_time() - started)
        if kept is None:
            rss_mb = peak_rss_mb()
            kept = len(tracer.spans)
        del tracer.spans[kept:]
        out = report(result)
        text = json.dumps(out, sort_keys=True)
        if first is None:
            first, first_text = out, text
        elif text != first_text:
            first["exit"] = first["exit"] or -2
            first["unstable"] = "a repeat gave another report"
        del result, out
        gc.collect()
        loops.append(reference_loop())
    first.update(seconds=seconds, loops=loops, rss_mb=rss_mb)
    return first


def main(argv) -> int:
    job_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(job_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer()
    started = perf_counter()
    import tcr.cli  # noqa: F401  (loads every tcr module)
    tracer.span("cli.import", started, perf_counter())
    if traced:
        tracer.install()
    if spec["kind"] in SETUP:
        result = SETUP[spec["kind"]](spec)
    else:
        result = timed(spec, tracer)
    tracer.uninstall()
    if traced:
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

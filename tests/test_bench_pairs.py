"""The verdicts `tools/bench_pairs.py` gives each end-to-end metric."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import compare, job_medians, summary, verdict  # noqa: E402

STEADY = [1.0, 1.01, 0.99, 1.0, 1.0] * 2
SPREAD = [1.0, 2.0] * 5


def judge(base, change, bound):
    return verdict(compare(base, change), base, change, bound)


def test_verdicts():
    assert judge(STEADY, [0.5] * 10, 0.1) == "better"
    assert judge(STEADY, [1.05] * 10, 0.1) == "no worse"
    assert judge(STEADY, [1.2] * 10, 0.1) == "worse"
    assert judge(SPREAD, [1.05] * 10, 0.1) == "unresolved"
    # a wide base spread is resolved when every change run beats every base run
    assert judge(SPREAD, [0.9] * 10, 0.1) == "no worse"


def test_summary_gives_a_verdict_to_bounded_metrics_only():
    def run(setup, cpu):
        return {"result": {"metrics": {"setup_s": {"value": setup}, "cpu_s": {"value": cpu}},
                           "correct": True, "failed": 0}, "jobs": {}}

    pairs = [{"base": run(1.0, b), "change": run(1.0, 1.5)} for b in STEADY]
    out = summary(pairs, {"cpu_s": {"name": "cpu_s", "bound": 0.24, "better": "lower"}})
    assert out["cpu_s"]["verdict"] == "worse" and out["cpu_s"]["bound"] == 0.24
    assert "verdict" not in out["setup_s"]
    assert out["all_correct"]


def test_job_lines_are_kept_and_summarised():
    """perfbench prints `    job <name padded to 50> median <s> CPU s of <n> calls`
    per job; the summary gives every job's two medians."""
    lines = ["workload cli_corpus (seed 1): why",
             f"  {'cpu_s':40s} {1.5:14.6f} s",
             f"    job {'extremal parity k=4 n=7 i=2':50s} median {0.6431:8.4f} CPU s of 4 calls",
             f"    job {'match lp':50s} median {0.0123:8.4f} CPU s of 12 calls",
             "  passes: 3 untraced, 0 traced; set-up timed 5 times"]
    assert job_medians(lines) == {"extremal parity k=4 n=7 i=2": 0.6431, "match lp": 0.0123}

    def run(cpu, job):
        return {"result": {"metrics": {"cpu_s": {"value": cpu}}, "correct": True, "failed": 0},
                "jobs": {"extremal": job, "match lp": 0.01}}

    pairs = [{"base": run(b, b), "change": run(b * 0.8, b * 0.6)} for b in STEADY]
    jobs = summary(pairs, {})["jobs"]
    assert jobs["extremal"]["base_median"] == 1.0
    assert jobs["extremal"]["change_median"] == 0.6
    assert jobs["extremal"]["change_lower_in"] == 10
    assert jobs["match lp"]["base_median"] == jobs["match lp"]["change_median"] == 0.01

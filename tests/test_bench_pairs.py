"""The verdicts `tools/bench_pairs.py` gives each end-to-end metric."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import compare, summary, verdict  # noqa: E402

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
                           "correct": True, "failed": 0}}

    pairs = [{"base": run(1.0, b), "change": run(1.0, 1.5)} for b in STEADY]
    out = summary(pairs, {"cpu_s": {"name": "cpu_s", "bound": 0.24, "better": "lower"}})
    assert out["cpu_s"]["verdict"] == "worse" and out["cpu_s"]["bound"] == 0.24
    assert "verdict" not in out["setup_s"]
    assert out["all_correct"]

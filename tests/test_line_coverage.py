"""The line collector of `tools/line_coverage.py`."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from line_coverage import LineCollector, ranges  # noqa: E402

TWO_BRANCHES = """\
def sign(x):
    if x >= 0:
        return 1
    else:
        return -1
"""


def test_line_collector_names_the_branch_not_taken(tmp_path):
    source = tmp_path / "two_branches.py"
    source.write_text(TWO_BRANCHES, encoding="utf-8")
    collector = LineCollector(tmp_path)
    namespace = {}
    collector.start()
    try:
        exec(compile(TWO_BRANCHES, str(source), "exec"), namespace)
        assert namespace["sign"](5) == 1
    finally:
        collector.stop()
    assert collector.missed(source) == [5]


def test_ranges():
    assert ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
    assert ranges([]) == ""

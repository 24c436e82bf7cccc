"""Self-tests for the benchmark's generator, checker and tracer.

    python3 perfbench/selftest.py

Stdlib unittest; `src` is put on the path here.
"""
from __future__ import annotations

import copy
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Workloads on a fixed instance corpus: the seed changes none of their inputs.
SEED_INVARIANT = {"lp_exact"}


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def manifest(self, name, seed, sub):
        workdir = self.tmp / sub
        return workloads.manifest(workloads.generate(name, seed, workdir), workdir)

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name in workloads.GENERATORS:
            with self.subTest(workload=name):
                first = self.manifest(name, 5, f"{name}-a")
                self.assertEqual(first, self.manifest(name, 5, f"{name}-b"))
                other = self.manifest(name, 6, f"{name}-c")
                if name in SEED_INVARIANT:
                    self.assertEqual(first, other)
                else:
                    self.assertNotEqual(first, other)

    def test_component_numbering_matches_tcr(self):
        from tcr.tight import monochromatic_components
        from tcr.cli import parse_coloured_hypergraph
        g = workloads.random_complete(9, workloads._rng(3, "test"))
        ours = workloads.mono_components(g)
        theirs = monochromatic_components(parse_coloured_hypergraph(g.tcg().decode()))
        self.assertEqual(ours, list(theirs.components))


class CheckerTest(unittest.TestCase):
    """A report built by hand on the 4-graph {1234 R, 1256 R, 3456 B}."""

    def setUp(self):
        self.inputs = {"g": workloads.Graph(4, 6, {(1, 2, 3, 4): "R", (1, 2, 5, 6): "R",
                                                  (3, 4, 5, 6): "B"})}
        self.check = {"kind": "match_lp", "input": "g",
                      "component": [[1, 2, 3, 4], [1, 2, 5, 6]]}
        self.result = {"exit": 0, "report": {"result": {
            "weight": "1/1", "weights": {"1 2 3 4": "1/2", "1 2 5 6": "1/2"}}}}

    def run_check(self, result, golden=None):
        return checks.check_job(self.check, "key", result, self.inputs, golden or {})

    def test_valid_report_passes(self):
        self.assertEqual(self.run_check(self.result), {"weight": "1/1"})

    def test_overloaded_vertex(self):
        bad = copy.deepcopy(self.result)
        bad["report"]["result"]["weights"] = {"1 2 3 4": "1/1", "1 2 5 6": "1/2"}
        bad["report"]["result"]["weight"] = "3/2"
        with self.assertRaisesRegex(checks.CheckError, "overloaded"):
            self.run_check(bad)

    def test_wrong_lp_value(self):
        with self.assertRaisesRegex(checks.CheckError, "recorded"):
            self.run_check(self.result, golden={"key": {"weight": "3/2"}})
        bad = copy.deepcopy(self.result)
        bad["report"]["result"]["weight"] = "3/2"
        with self.assertRaisesRegex(checks.CheckError, "sum of weights"):
            self.run_check(bad)

    def test_colour_mismatch(self):
        check = {"kind": "driver", "input": "g"}
        report = {"result": {"status": "reached", "colour": "B", "weight": "1/1",
                             "target": "1/1", "reached": True,
                             "weights": {"1 2 3 4": "1/1"}}}
        with self.assertRaisesRegex(checks.CheckError, "is R, reported B"):
            checks.check_job(check, "key", {"exit": 0, "report": report}, self.inputs, {})

    def test_failed_exit(self):
        with self.assertRaisesRegex(checks.CheckError, "exit code"):
            self.run_check({"exit": 2, "report": self.result["report"]})


class TracerTest(unittest.TestCase):
    def test_is_good_called_from_augment_is_counted(self):
        import tcr.cli  # noqa: F401  (loads every module before wrapping)
        from tcr import augment, blueprint
        from tcr.cli import parse_coloured_hypergraph
        CH = parse_coloured_hypergraph(
            workloads.threshold_colouring(12, 1).tcg().decode())
        bp = blueprint.build_blueprint(CH, augment.DriverParams().eps).blueprint
        original = blueprint.is_good
        tracer = tracing.Tracer()
        tracer.install()
        try:
            augment._greedy_good(CH, bp, sorted(CH.graph.edges)[:20])
        finally:
            tracer.uninstall()
        self.assertIs(augment.is_good, original)
        totals = tracing.PassTotals()
        totals.add_job(tracer.spans)
        self.assertGreater(totals.layer_metrics()["blueprint.is_good_calls"], 0)


if __name__ == "__main__":
    unittest.main()

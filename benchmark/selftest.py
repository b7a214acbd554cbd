"""Tests of the benchmark itself, on smoke-sized loads.

    python3 benchmark/selftest.py

Takes about 20 s: two of the runs build the Gr(3,8) U matrix.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Summary, Tracer  # noqa: E402
from workloads import WORKLOADS, primitive_ratios  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


class SpecTest(unittest.TestCase):
    def test_metric_names_and_units_match_the_spec(self):
        self.assertEqual(E2E, list(run.END_TO_END))
        for m in SPEC["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END[m["name"]])
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class InputTest(unittest.TestCase):
    def test_primitive_ratios_are_weight_zero(self):
        prims = primitive_ratios()
        self.assertEqual(len(prims), 80)
        for ratio in prims:
            content = [0] * 9
            for name, e in ratio.items():
                for c in name[2:-1]:
                    content[int(c)] += e
            self.assertEqual(content, [0] * 9)

    def test_same_seed_gives_same_cases(self):
        w = WORKLOADS["gr38-check"]
        first = w.cases(random.Random(5), smoke=False)
        self.assertEqual(first, w.cases(random.Random(5), smoke=False))
        self.assertNotEqual(first, w.cases(random.Random(6), smoke=False))
        verdicts = [v for _, v in first]
        self.assertEqual(
            (verdicts.count("bounded"), verdicts.count("unbounded"),
             verdicts.count("not-weight-zero")), (12, 12, 3))


class SmokeTest(unittest.TestCase):
    def check_result(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), names)

    def test_every_workload_untraced(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, meta = run.run(name, 1, 0.0, trace=False, smoke=True)
                self.check_result(result, E2E)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                self.assertEqual(meta["processes"], 1)

    def test_traced_runs_report_every_layer_metric(self):
        for name in ("catalog-symbolic", "gr48-table"):
            with self.subTest(workload=name):
                result, _ = run.run(name, 2, 0.0, trace=True, smoke=True)
                self.check_result(result, PER_LAYER)
        laurent = sys.modules["clustercones.laurent"]
        self.assertFalse(hasattr(laurent.LaurentPolynomial.__mul__, "__wrapped__"))
        metrics = result["metrics"]
        self.assertGreater(metrics["grassmannian.gr48_evals"]["value"], 0)

    def test_golden_mismatch_fails_the_op(self):
        golden = json.loads((HERE / "golden.json").read_text())
        golden["enumerate"]["D5+5"] = "0" * 64
        result, _ = run.run("catalog-symbolic", 1, 0.0, trace=False,
                            smoke=True, golden=golden)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_raising_op_is_counted(self):
        def boom():
            raise ValueError("broken")

        records: list = []
        run.run_round([("a", 1, boom), ("b", 1, lambda: None)], 0, None, records,
                      SpeedProbe(enabled=False))
        self.assertEqual([r[3] is None for r in records], [False, True])
        self.assertIn("ValueError", records[0][3])


class SpeedProbeTest(unittest.TestCase):
    def test_probes_sample_the_work_and_leave_its_time(self):
        with SpeedProbe() as probe:
            mark = probe.start("busy")
            t0 = perf_counter()
            while perf_counter() - t0 < 0.3:
                pass
            busy = probe.stop(mark)
        self.assertGreater(len(probe.samples["busy"]), 5)
        self.assertAlmostEqual(busy + probe.spent, perf_counter() - t0, delta=0.05)
        self.assertGreater(probe.scale("busy"), 0)
        self.assertEqual(probe.scale("busy"), probe.scale("other"))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_disabled_probe_only_times(self):
        with SpeedProbe(enabled=False) as probe:
            mark = probe.start("busy")
            self.assertGreaterEqual(probe.stop(mark), 0)
        self.assertEqual(probe.scale("busy"), 1.0)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        t = Tracer()
        t.kinds.update({0: "x", 1: "x"})
        # (sid, parent, op, layer, name, start, end, child, tag)
        t.spans += [
            (2, 1, 0, "linalg", "solve", 1.0, 2.0, 0.0, None),
            (1, 0, 0, "cones", "membership", 0.0, 3.0, 1.0, "bounded"),
            (3, 0, 1, "cones", "membership", 0.0, 2.0, 0.0, "bounded"),
            (4, 0, "setup0", "linalg", "solve", 0.0, 4.0, 0.0, None),
        ]
        s = Summary(t, setups=1, rounds=2)
        selfs = s.self_seconds()
        self.assertEqual(selfs["cones"], (2.0 + 2.0) / 2)
        self.assertEqual(selfs["linalg"], 4.0 + 1.0 / 2)
        self.assertEqual(s.median_ms("cones", "membership", tag="bounded"), 2500.0)
        self.assertEqual(s.calls("linalg", "solve"), 0.5)

    def test_install_wraps_every_namespace_and_uninstall_restores(self):
        cc = run.load_package(HERE.parent)
        cones, linalg = cc.cones, cc.linalg
        original = linalg.rank
        t = Tracer()
        t.install()
        try:
            self.assertIs(cones.rank, linalg.rank)
            self.assertIsNot(linalg.rank, original)
            with t.op_scope(0, "x"):
                self.assertEqual(cones.rank([[1, 2], [2, 4]]), 1)
        finally:
            t.uninstall()
        self.assertIs(linalg.rank, original)
        self.assertIs(cones.rank, original)
        names = {(sp[3], sp[4]) for sp in t.spans}
        self.assertIn(("linalg", "rank"), names)
        self.assertIn(("linalg", "rref"), names)


class CommandTest(unittest.TestCase):
    def test_command_line_prints_the_result_last(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "gr48-table",
             "--seed", "3", "--seconds", "0.5", "--trace", "0"],
            capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])

    def test_fails_without_the_package_source(self):
        bare = HERE.parent / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "gr48-table", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

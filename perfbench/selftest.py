#!/usr/bin/env python3
"""Self-tests of the benchmark, on the tiny preset of each workload.

    python3 perfbench/selftest.py

Run from the repository root; builds perfbench_world like run.py does.
Checks that every metric BENCHMARK.json names is printed with its unit,
that every registry prefix the simulator uses has a layer, and that the
benchmark refuses to run without the simulator sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
INSTRUMENT = re.compile(r'\b(?:counter|gauge|histogram)\(\s*"([a-z_]+)\.')


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--preset", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.world = run.build()

    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = result["metrics"]
                    self.assertEqual(list(printed), [m["name"] for m in SPEC[key]])
                    for metric in SPEC[key]:
                        self.assertEqual(printed[metric["name"]]["unit"], metric["unit"])
                        self.assertIsInstance(printed[metric["name"]]["value"], (int, float))

    def test_layer_map_covers_registry_prefixes(self):
        layers = json.loads(subprocess.run(
            [str(self.world), "--layers"], capture_output=True, text=True,
            check=True).stdout)
        mapped = set(layers["prefixes"])
        # Every prefix the sources can register, used or not by a workload.
        in_source = set()
        for path in (run.ROOT / "src").rglob("*.[ch]pp"):
            in_source.update(INSTRUMENT.findall(path.read_text()))
        self.assertTrue(in_source)
        self.assertEqual(in_source - mapped, set(),
                         "registry prefixes without a layer in world.cpp")
        # And every prefix a traced world actually registered.
        for workload in WORKLOADS:
            done = subprocess.run(
                [str(self.world), "--workload", workload, "--seed", "3",
                 "--preset", "tiny", "--trace"],
                capture_output=True, text=True, check=True)
            record = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(record["unmapped_prefixes"], [], workload)
            self.assertEqual(record["failures"], [], workload)

    def test_traced_and_untraced_worlds_agree(self):
        for workload in WORKLOADS:
            digests = set()
            for flags in ([], ["--trace"]):
                done = subprocess.run(
                    [str(self.world), "--workload", workload, "--seed", "3",
                     "--preset", "tiny"] + flags,
                    capture_output=True, text=True, check=True)
                record = json.loads(done.stdout)
                digests.add(record["digest"])
                # The slices cover the whole run, as run_s sums them.
                run_s = record["metrics"]["run_s"]["value"]
                self.assertTrue(record["slice_s"], workload)
                self.assertAlmostEqual(sum(record["slice_s"]), run_s,
                                       delta=0.05 * run_s + 1e-3, msg=workload)
            self.assertEqual(len(digests), 1, workload)

    def test_refuses_to_run_without_sources(self):
        bare = self.world.parent.parent / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
                env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

"""Self-tests of the benchmark, run at minimal length.

    python3 bench/selftest.py

They check that a run emits every metric named in BENCHMARK.json with its
unit, in both modes, and that the correctness gate counts a failure when
a reference value is corrupted.  The name keeps the file out of the
package's pytest collection; it takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from session import run_session  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS, load_references  # noqa: E402

# A single cheap flag keeps the in-process gate test short.
TINY = {"flags": ["C:5:[1,4]:+"], "reports": 5}


def _bench_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def _check(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, entry in result["metrics"].items():
            self.assertIsInstance(entry["value"], (int, float), name)

    def test_workloads_declared(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(WORKLOADS))

    def test_end_to_end_metrics(self):
        self._check(_bench_run("solve-diag", 0), self.spec["end_to_end"])

    def test_per_layer_metrics(self):
        self._check(_bench_run("solve-diag", 1), self.spec["per_layer"])


class GateCountsFailures(unittest.TestCase):
    def _failed(self, refs):
        out = BENCH.parent / ".bench_out"
        out.mkdir(exist_ok=True)
        res = run_session(TINY, 0, 0, "full", NullTracer(), refs, out)
        self.assertEqual(res["attempted"], 1 + 1 + 5 + 1)
        return res["failed"]

    def test_true_references_pass(self):
        self.assertEqual(self._failed(load_references()), 0)

    def test_corrupted_count(self):
        refs = copy.deepcopy(load_references())
        refs["solve"]["C:5:[1,4]:+"]["count"] = 2
        self.assertEqual(self._failed(refs), 1)

    def test_corrupted_coefficient(self):
        refs = copy.deepcopy(load_references())
        refs["solve"]["C:5:[1,4]:+"]["solutions"]["mu0-double"][0] = 2.001
        self.assertEqual(self._failed(refs), 1)

    def test_corrupted_check_total(self):
        refs = copy.deepcopy(load_references())
        refs["checks"] = 23
        self.assertEqual(self._failed(refs), 1)

    def test_corrupted_scalar_tolerance(self):
        refs = copy.deepcopy(load_references())
        refs["scalar_rtol"] = -1.0
        self.assertEqual(self._failed(refs), 5)


if __name__ == "__main__":
    unittest.main()

"""The benchmark's own test: smoke mode on the tiny preset.

    python3 -m unittest discover -s perfbench

Smoke mode runs every workload path untraced and traced, the correctness
gate against the ccgraph CLI, the committed-digest check, the generator
check against `ccgraph simulate`, and the replay == serve == anomaly
--window 3 agreement. It builds the benchmark first if needed.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class SmokeTest(unittest.TestCase):
    def test_smoke_mode_passes(self):
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                           cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        lines = p.stdout.strip().splitlines()
        self.assertEqual(lines[-1], "smoke: ok")
        results = [json.loads(line) for line in lines if line.startswith("{")]
        self.assertEqual(len(results), 6)  # 3 workloads x traced/untraced
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        e2e = {m["name"] for m in bench["end_to_end"]}
        per_layer = {m["name"] for m in bench["per_layer"]}
        for res in results:
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertIn(set(res["metrics"]), (e2e, per_layer))


if __name__ == "__main__":
    unittest.main()

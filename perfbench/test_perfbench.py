#!/usr/bin/env python3
"""The benchmark's own tests, on the small "tiny" workload.

    python3 perfbench/test_perfbench.py      # from the repository root

- the traced pipeline, composed from the layer calls, matches
  run_comparison bit for bit (a check inside every traced run), and its
  top-level spans account for the traced pass;
- every metric named in BENCHMARK.json is printed, and BENCHMARK.json is
  what run.py --write-manifest would write;
- a different seed changes the inputs but not the set of metric names.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def bench(seed, trace):
    """Runs the tiny workload; returns (stdout lines, result object)."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "tiny",
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.splitlines()
    return lines, json.loads(lines[-1])


def line_value(lines, prefix):
    return next(line.split()[1] for line in lines if line.startswith(prefix + " "))


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.untraced = bench(seed=1, trace=0)
        cls.traced = bench(seed=1, trace=1)
        cls.manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_traced_pipeline_matches_run_comparison(self):
        lines, result = self.traced
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["ops_failed_pct"]["value"], 0)
        # Untraced and traced passes computed the same rows.
        self.assertEqual(line_value(lines, "digest.results"),
                         line_value(self.untraced[0], "digest.results"))

    def test_top_level_self_times_cover_the_traced_pass(self):
        lines, result = self.traced
        spans = json.loads((ROOT / line_value(lines, "spans")).read_text())["spans"]
        work = [s for s in spans if s["name"] != "setup"]
        top = sum(s["end_s"] - s["start_s"] for s in work if s["parent"] == -1)
        # One thread: self times partition the top-level spans.
        self.assertAlmostEqual(sum(s["self_s"] for s in work), top, delta=1e-6)
        self.assertLess(abs(result["metrics"]["trace.unspanned_s"]["value"]), 0.01)

    def test_manifest_is_generated_from_the_spec(self):
        self.assertEqual(self.manifest, run.manifest())

    def test_every_metric_in_the_manifest_is_printed(self):
        for (_, result), key in ((self.untraced, "end_to_end"), (self.traced, "per_layer")):
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in self.manifest[key]})
            for metric in self.manifest[key]:
                printed = result["metrics"][metric["name"]]
                self.assertEqual(printed["unit"], metric["unit"])
                self.assertIsInstance(printed["value"], (int, float))

    def test_other_seed_changes_inputs_not_metric_names(self):
        lines, result = bench(seed=2, trace=0)
        self.assertTrue(result["correct"])
        self.assertNotEqual(line_value(lines, "digest.results"),
                            line_value(self.untraced[0], "digest.results"))
        self.assertEqual(set(result["metrics"]), set(self.untraced[1]["metrics"]))


if __name__ == "__main__":
    unittest.main()

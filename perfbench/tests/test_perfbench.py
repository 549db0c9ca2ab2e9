"""Self-tests for the simulator benchmark.

    python3 -m unittest discover -s perfbench/tests

The schema and naming tests are pure Python. The end-to-end tests
build and run the benchmark briefly (about 10 s once built).
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

SPEC = run.load_spec()


def fake_result(metrics):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                        for m in metrics}}


class SpecNames(unittest.TestCase):
    def test_benchmark_json_follows_the_naming_rules(self):
        self.assertEqual(run.spec_problems(SPEC), [])

    def test_bad_names_units_and_duplicates_are_reported(self):
        spec = copy.deepcopy(SPEC)
        spec["per_layer"].append(
            {"name": "_leading", "unit": "count", "better": "lower"})
        spec["per_layer"].append(
            {"name": "x" * 65, "unit": "count", "better": "lower"})
        spec["per_layer"].append(
            {"name": "ok.name", "unit": "has space", "better": "up"})
        spec["per_layer"].append(dict(spec["per_layer"][0]))
        problems = run.spec_problems(spec)
        self.assertEqual(len(problems), 5, problems)

    def test_end_to_end_holds_setup_s_and_the_issue_metrics(self):
        names = {m["name"]: m for m in SPEC["end_to_end"]}
        self.assertEqual(names["setup_s"]["unit"], "s")
        self.assertEqual(names["setup_s"]["better"], "lower")
        self.assertEqual(
            max(m["bound"] for m in SPEC["end_to_end"]),
            names["setup_s"]["bound"])
        for n in ("sim_cycles_per_s", "run_s", "peak_rss_mb",
                  "sim_cycles", "pass_frac"):
            self.assertIn(n, names)


class ResultSchema(unittest.TestCase):
    def test_well_formed_result_passes(self):
        for group in ("end_to_end", "per_layer"):
            expected = SPEC[group]
            self.assertEqual(
                run.result_problems(fake_result(expected), expected), [])

    def test_schema_violations_are_reported(self):
        expected = SPEC["end_to_end"]
        bad = fake_result(expected)
        bad["extra"] = 1
        self.assertTrue(run.result_problems(bad, expected))

        bad = fake_result(expected)
        del bad["metrics"]["run_s"]
        self.assertTrue(run.result_problems(bad, expected))

        bad = fake_result(expected)
        bad["metrics"]["run_s"]["unit"] = "ms"
        self.assertTrue(run.result_problems(bad, expected))

        bad = fake_result(expected)
        bad["metrics"]["run_s"]["value"] = float("nan")
        self.assertTrue(run.result_problems(bad, expected))

        bad = fake_result(expected)
        bad["attempted"] = True
        self.assertTrue(run.result_problems(bad, expected))

        bad = fake_result(expected)
        bad["attempted"] = 0
        self.assertTrue(run.result_problems(bad, expected))


def bench(*extra):
    cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
           "--workload", "bdb-contended", "--seed", "1", "--seconds", "1",
           "--trace", "0"] + list(extra)
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class EndToEnd(unittest.TestCase):
    def test_clean_run_passes_and_prints_every_end_to_end_metric(self):
        code, result = bench()
        self.assertEqual(code, 0)
        self.assertEqual(
            run.result_problems(result, SPEC["end_to_end"]), [])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["pass_frac"]["value"], 1)

    def test_results_file_keeps_the_reference_and_wall_clock_view(self):
        code, result = bench()
        self.assertEqual(code, 0)
        path = os.path.join(run.OUT_DIR, "bdb-contended-seed1-trace0.json")
        with open(path) as f:
            facts = json.load(f)
        self.assertGreater(facts["reference_median_s"], 0)
        self.assertGreater(facts["wall_sim_cycles_per_s"], 0)
        self.assertGreater(facts["wall_run_s"], 0)
        self.assertTrue(all(r["reference_s"] > 0 for r in facts["runs"]))

    def test_planted_digest_mismatch_is_a_failed_run(self):
        code, result = bench("--plant-digest-mismatch")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["pass_frac"]["value"], 1)


if __name__ == "__main__":
    unittest.main()

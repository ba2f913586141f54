#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py            # all tests
    python3 perfbench/test_perfbench.py Spec       # static checks only

Run from the root of a checkout. The Smoke tests build the meter and
run every workload through run.py at tiny sizes (--smoke), with tracing
off and on; the first one also trains the fleet bundle, so expect a few
minutes on a cold build directory.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Spec(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for name in names:
            self.assertRegex(name, NAME_RE)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_end_to_end_bounds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_layer_metric_maps_to_end_to_end_and_workloads(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(per_layer, set(LAYERS))
        for name, entry in LAYERS.items():
            self.assertTrue(entry["moves"], name)
            for metric, on in entry["moves"].items():
                self.assertIn(metric, e2e, name)
                self.assertTrue(on, name)
                self.assertTrue(set(on) <= workloads, name)
            self.assertTrue(set(entry["runs_on"]) <= workloads, name)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        code, result, proc = run_bench(workload, trace)
        self.assertEqual(code, 0, proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        for name in LAYERS if trace else ():
            if workload in LAYERS[name]["runs_on"] and name.endswith(
                    ("_us", "_ms", "_s")):
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_fleet(self):
        self.check("fleet", 0)
        self.check("fleet", 1)

    def test_fleet_proc(self):
        self.check("fleet-proc", 0)
        self.check("fleet-proc", 1)

    def test_train(self):
        self.check("train", 0)
        self.check("train", 1)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:], verbosity=2)

#!/usr/bin/env python3
"""Self-checks of the repository benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that the metric catalog
matches BENCHMARK.json, that the Poisson schedule depends only on the seed,
and that each workload exercises the layers it was chosen for (short traced
runs, about a minute in total).
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SECONDS = "4"


def binary(*args):
    done = subprocess.run([run.BINARY, *args], stdout=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S, check=False)
    return done.returncode, done.stdout.splitlines()


def traced(workload):
    """Runs a short traced run; returns (exit code, result, notes)."""
    code, lines = binary("--workload", workload, "--seed", "11",
                         "--seconds", SECONDS, "--trace", "1")
    notes = {}
    for line in lines:
        fields = line.split()
        if fields and fields[0] == "note":
            notes[fields[1]] = float(fields[2])
    return code, json.loads(lines[-1]), notes


def value(result, name):
    return result["metrics"][name]["value"]


class Catalog(unittest.TestCase):
    def test_catalog_matches_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        code, lines = binary("--metrics")
        self.assertEqual(code, 0)
        catalog = {"end_to_end": [], "per_layer": []}
        for line in lines:
            kind, name, unit = line.split()
            catalog[kind].append((name, unit))
        for kind in catalog:
            self.assertEqual(catalog[kind],
                             [(m["name"], m["unit"]) for m in spec[kind]])
        names = [n for kind in catalog for n, _ in catalog[kind]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)


class Schedule(unittest.TestCase):
    def schedule(self, seed):
        code, lines = binary("--schedule", "--workload", "serve-cold",
                             "--seed", str(seed), "--seconds", "10")
        self.assertEqual(code, 0)
        return [float(x) for x in lines]

    def test_same_seed_same_schedule(self):
        first = self.schedule(5)
        self.assertEqual(first, self.schedule(5))
        self.assertNotEqual(first, self.schedule(6))
        self.assertEqual(first, sorted(first))
        self.assertTrue(all(0.0 <= t < 10.0 for t in first))


class Workloads(unittest.TestCase):
    def check_result(self, code, result):
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for name in result["metrics"]:
            self.assertRegex(name, NAME)

    def test_serve_cold_misses_and_plans(self):
        code, result, _ = traced("serve-cold")
        self.check_result(code, result)
        self.assertLess(value(result, "engine.plan_cache.hit_ratio"), 0.02)
        self.assertGreater(value(result, "engine.plan_cache.lookups"), 0)
        self.assertGreaterEqual(value(result, "core.plan_ms"),
                                0.5 * value(result, "engine.exec_ms_p50"))

    def test_serve_warm_hits_and_never_plans(self):
        code, result, notes = traced("serve-warm")
        self.check_result(code, result)
        self.assertEqual(value(result, "engine.plan_cache.hit_ratio"), 1.0)
        self.assertEqual(notes["replay.planning_spans"], 0)
        self.assertEqual(value(result, "core.plan_ms"), 0)
        self.assertGreater(value(result, "gpusim.simulate_ms"), 0)

    def test_multiply_is_expand_and_merge(self):
        code, result, notes = traced("multiply-powerlaw")
        self.check_result(code, result)
        self.assertGreater(notes["expand_merge_share"], 0.5)
        self.assertEqual(value(result, "gpusim.simulate_ms"), 0)
        self.assertEqual(value(result, "core.plan_ms"), 0)


if __name__ == "__main__":
    if not run.build():
        sys.exit("perfbench: build failed")
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own tests, in quick mode (small meshes, short phases).

    python3 perfbench/test_run.py

They check that every workload emits every declared metric with its unit
in both modes, that a deliberately perturbed output is counted as failed,
that exact counts repeat across runs of one seed, and that the benchmark
refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["quake_sf5", "exec_sf5", "proc_sf10", "chaos_sf10"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=5, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--quick", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().split("\n")[-1])


class Benchmark(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    res = result(run(w, trace))
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {n: m["unit"] for n, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_a_perturbed_output_is_counted_as_failed(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    res = result(run(w, trace, extra=["--perturb"]))
                    self.assertFalse(res["correct"])
                    self.assertGreaterEqual(res["failed"], 1)

    def test_exact_counts_repeat_for_a_seed(self):
        exact = [
            "mesh.nodes", "mesh.elements", "partition.f_max", "partition.c_max_words",
            "partition.b_max_blocks", "kernel.bytes", "kernel.flops", "exchange.words_per_step",
            "exchange.blocks_per_step", "fault.injected", "fault.recovered", "fault.retries",
            "fault.refetches", "fault.replayed_steps", "fault.respawned_workers",
        ]
        a = result(run("chaos_sf10", 1, seed=11))["metrics"]
        b = result(run("chaos_sf10", 1, seed=11))["metrics"]
        for name in exact:
            self.assertEqual(a[name]["value"], b[name]["value"], name)
        self.assertGreater(a["fault.injected"]["value"], 0)
        self.assertEqual(a["fault.injected"]["value"], a["fault.recovered"]["value"])

    def test_refuses_to_run_without_the_program(self):
        # A scratch directory inside the build directory keeps the test's
        # writes inside the checkout.
        base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        os.makedirs(base, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "exec_sf5", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=d, env=env, capture_output=True, text=True, timeout=300,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)

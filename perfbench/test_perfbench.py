#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload at tiny size in both modes and checks that the output
carries every metric BENCHMARK.json names, with its unit; that the traced
engine replica reproduces run_experiment's counters; that a corrupted
expected output counts as failed ops; that the fingerprints are present and
the simulated-statistics hash is a function of the seed; and that the
benchmark refuses to run without the repository sources.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
# Every workload perfbench runs; BENCHMARK.json lists the steady ones.
WORKLOADS = ["mc-uniform-n512", "mc-gauss-n64", "svc-hit", "sweep-cold", "sweep-warm"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, seed=7, cwd=ROOT, script=RUN):
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--tiny"] + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def result(done):
    if done.returncode != 0:
        raise AssertionError("run failed (%d): %s" % (done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    fingerprints = {}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        fingerprints[tag] = json.loads(body)
    return json.loads(lines[-1]), fingerprints


class BenchmarkSpec(unittest.TestCase):
    def test_contract_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for workload in SPEC["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for metric in SPEC["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class Workloads(unittest.TestCase):
    def check_metrics(self, got, declared):
        self.assertEqual(set(got["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            self.assertEqual(got["metrics"][metric["name"]]["unit"], metric["unit"])
            self.assertIsInstance(got["metrics"][metric["name"]]["value"], (int, float))

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                got, fingerprints = result(run(workload, 0))
                self.assertTrue(got["correct"])
                self.assertGreaterEqual(got["attempted"], 1)
                self.assertEqual(got["failed"], 0)
                self.check_metrics(got, SPEC["end_to_end"])
                for metric in got["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                host = fingerprints["host"]
                for key in ("cpu_model", "nproc", "backend", "lane_words", "compiler",
                            "build_type"):
                    self.assertIn(key, host)
                self.assertRegex(fingerprints["fingerprint"]["sim_hash"], r"^[0-9a-f]{16}$")

    def test_traced_runs_print_every_per_layer_metric(self):
        # failed == 0 on a traced mc run also says the replica's merged
        # counters equalled run_experiment's on every seed it ran.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                got, _ = result(run(workload, 1))
                self.assertTrue(got["correct"])
                self.assertEqual(got["failed"], 0)
                self.check_metrics(got, SPEC["per_layer"])
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        spans = os.path.join(ROOT, build, "perfbench", "traces", "mc-gauss-n64-seed7.jsonl")
        with open(spans) as f:
            names = {json.loads(line).get("name") for line in f}
        for name in ("replica", "shard_setup", "fill_batch", "step_batch", "fold"):
            self.assertIn(name, names)

    def test_corrupted_expectation_counts_as_failed_ops(self):
        for workload in ["mc-uniform-n512", "svc-hit", "sweep-cold", "sweep-warm"]:
            with self.subTest(workload=workload):
                got, _ = result(run(workload, 0, "--fault", "corrupt-expected"))
                self.assertFalse(got["correct"])
                self.assertGreater(got["failed"], 0)

    def test_simulated_statistics_hash_follows_the_seed(self):
        first = result(run("mc-gauss-n64", 0, seed=11))[1]["fingerprint"]
        again = result(run("mc-gauss-n64", 0, seed=11))[1]["fingerprint"]
        other = result(run("mc-gauss-n64", 0, seed=12))[1]["fingerprint"]
        self.assertEqual(first["sim_hash"], again["sim_hash"])
        self.assertNotEqual(first["sim_hash"], other["sim_hash"])
        self.assertEqual(first["stream_version"], "gauss-rng-v2")

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "svc-hit", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

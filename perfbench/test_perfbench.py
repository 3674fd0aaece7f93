#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 -m unittest perfbench/test_perfbench.py -v

Run from the repository root. Builds the benchmark through run.py (the same
entry point BENCHMARK.json names) and runs every workload briefly.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["acq-multi", "router-query", "tcp-ingest", "shm-ingest"]

# Every metric the benchmark's specification names, with its unit.
END_TO_END = {
    "throughput_tps": "tuples/s", "latency_p50_us": "us",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
PER_LAYER = {
    "plan.build_us": "us", "engine.push_ns.max": "ns",
    "engine.push_ns.sum": "ns", "engine.answer_push_us_p99": "us",
    "engine.answers_per_tuple": "ratio", "core.combines_per_tuple": "ratio",
    "core.inverses_per_tuple": "ratio", "core.bulk_slide_ns_per_tuple": "ns",
    "core.memory_bytes": "bytes", "runtime.push_ns_per_tuple": "ns",
    "runtime.flush_us_p99": "us", "runtime.epoch_wait_us_p50": "us",
    "runtime.epoch_wait_us_p99": "us", "runtime.slide_us_p50": "us",
    "runtime.slide_us_p99": "us", "runtime.batch_size_p50": "count",
    "runtime.idle_poll_ratio": "ratio", "runtime.ring_highwater": "count",
    "runtime.producer_flush_ns_per_tuple": "ns", "net.send_us_p50": "us",
    "net.send_us_p99": "us", "net.frame_us_p50": "us",
    "net.frame_us_p99": "us", "net.encode_ns_per_tuple": "ns",
    "net.decode_ns_per_tuple": "ns", "net.frames": "count",
    "net.frame_errors": "count", "util.crc32_mb_s": "MB/s",
    "shm.attach_us": "us", "shm.push_ns_per_tuple": "ns",
    "shm.full_ratio": "ratio", "shm.leases_reclaimed": "count",
    "shm.slots_tombstoned": "count", "shm.zombie_fences": "count",
    "gen.lag_us_p99": "us", "trace.overhead_frac": "ratio",
    "check.failed_ratio": "ratio", "e2e.latency_p99_us": "us",
}
# Exact counts: a pure function of the workload and the seed.
EXACT = ["engine.answers_per_tuple", "core.combines_per_tuple",
         "core.inverses_per_tuple", "net.frames"]


def run(workload, seed=1, seconds=1, trace=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return out.returncode, result


class MetricsTest(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         END_TO_END)
        layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name, unit in PER_LAYER.items():
            self.assertEqual(layers.get(name), unit, name)

    def test_every_workload_prints_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for w in WORKLOADS:
            for trace, want in ((0, END_TO_END), (1, per_layer)):
                with self.subTest(workload=w, trace=trace):
                    code, r = run(w, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 1:
                        m = r["metrics"]
                        self.assertEqual(m["check.failed_ratio"]["value"], 0)
                        self.assertEqual(m["net.frame_errors"]["value"], 0)
                        for reaper in ("shm.leases_reclaimed",
                                       "shm.slots_tombstoned",
                                       "shm.zombie_fences"):
                            self.assertEqual(m[reaper]["value"], 0)
                    else:
                        for name in END_TO_END:
                            self.assertGreater(r["metrics"][name]["value"], 0,
                                               name)

    def test_same_seed_same_exact_counts(self):
        for w in ("acq-multi", "tcp-ingest"):
            with self.subTest(workload=w):
                a = run(w, seed=7, trace=1)[1]["metrics"]
                b = run(w, seed=7, trace=1)[1]["metrics"]
                for name in EXACT:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)
        m = run("acq-multi", seed=7, trace=1)[1]["metrics"]
        self.assertGreater(m["engine.answers_per_tuple"]["value"], 0)
        self.assertGreater(m["core.combines_per_tuple"]["value"], 0)
        self.assertGreater(run("tcp-ingest", seed=7, trace=1)[1]["metrics"]
                           ["net.frames"]["value"], 0)


class OracleTest(unittest.TestCase):
    def test_oracle_rejects_a_wrong_expected_answer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, r = run(w, extra=("--corrupt-oracle", "1"))
                self.assertNotEqual(code, 0)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertLess(r["metrics"]["ok_ratio"]["value"], 1)


class CheckoutTest(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, r = run("acq-multi", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(r)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

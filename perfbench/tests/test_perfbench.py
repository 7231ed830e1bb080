#!/usr/bin/env python3
"""Tests of the benchmark's own code.

Run from the root of a checkout (builds the benchmark first if needed):

    python3 -m unittest discover -s perfbench/tests -v

Each test runs the benchmark binary with --seconds 0, i.e. one pass per
mode, so the whole file takes well under a minute once built.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (perfbench/run.py: the build step)

WORKLOADS = run.WORKLOADS


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            spec)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.tmp = tempfile.TemporaryDirectory(dir=run.bench_root())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def bench(self, workload, seed=1, trace=0, golden=True, extra=()):
        cmd = [str(self.binary), "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace)]
        if golden:
            cmd += ["--golden", str(BENCH / "golden" / f"{workload}.txt")]
        done = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        return done, lines

    def test_printed_metrics_match_the_declaration(self):
        e2e, layer, _ = declared()
        for workload in WORKLOADS:
            for trace, want in ((0, e2e), (1, layer)):
                with self.subTest(workload=workload, trace=trace):
                    done, lines = self.bench(workload, trace=trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_perturbed_golden_fingerprint_is_caught(self):
        workload = "tree-commit"
        lines = (BENCH / "golden" / f"{workload}.txt").read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l and not l.startswith("#"))
        name, fp = lines[idx].split()
        lines[idx] = f"{name} {int(fp, 16) ^ 1:016x}"
        bad = Path(self.tmp.name) / "perturbed.txt"
        bad.write_text("\n".join(lines) + "\n")
        done, out = self.bench(workload, golden=False,
                               extra=["--golden", str(bad)])
        self.assertEqual(done.returncode, 1)
        result = json.loads(out[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn(name, done.stderr)

    def test_other_seeds_are_checked_by_invariants_not_golden(self):
        done, lines = self.bench("tree-commit", seed=7)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertTrue(json.loads(lines[-1])["correct"])

    def test_seed_changes_the_inputs(self):
        def digest(workload, seed):
            done, lines = self.bench(workload, seed=seed, golden=False)
            self.assertEqual(done.returncode, 0, done.stderr)
            return next(l for l in lines if l.startswith("# inputs "))

        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(digest(workload, 3), digest(workload, 3))
                self.assertNotEqual(digest(workload, 3), digest(workload, 4))

    def test_host_is_recorded(self):
        _, lines = self.bench("tree-commit")
        host = json.loads(next(l for l in lines if l.startswith("# host "))[7:])
        for key in ("nproc", "cpu", "compiler", "build_type", "commit", "seed"):
            self.assertIn(key, host)

    def test_bad_usage_exits_2(self):
        done, _ = self.bench("no-such-workload", golden=False)
        self.assertEqual(done.returncode, 2)

    def test_fails_without_the_simulator_sources(self):
        _, _, spec = declared()
        bare = Path(self.tmp.name) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        done = subprocess.run(
            spec["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")

    def test_sources_pass_the_repo_linter(self):
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "lint" / "sihle_lint.py"),
             str(BENCH / "src")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)


if __name__ == "__main__":
    unittest.main()

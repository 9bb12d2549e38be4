"""Self-tests of the ujam benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root; the first test builds the benchmark.
Seed determinism: the same seed gives byte-identical request streams
and sweep manifest, another seed different ones. Smoke: a short run
of every workload, untraced and traced, prints every metric named in
BENCHMARK.json with its unit and passes its output checks.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(*args):
    result = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                            text=True, timeout=600)
    if result.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited "
                             f"{result.returncode}:\n{result.stderr[-2000:]}")
    return result.stdout


def sections(dump):
    """Group a --dump-inputs listing by its leading tag."""
    out = {}
    for line in dump.splitlines():
        tag, _, rest = line.partition(" ")
        out.setdefault(tag, []).append(rest)
    return out


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(run("--dump-inputs", "--seed", "7"),
                         run("--dump-inputs", "--seed", "7"))

    def test_other_seed_other_stream(self):
        a = sections(run("--dump-inputs", "--seed", "7"))
        b = sections(run("--dump-inputs", "--seed", "8"))
        for tag in ("cold", "manifest", "job"):
            self.assertNotEqual(a[tag], b[tag], tag)
        self.assertEqual(len(set(a["cold"])), len(a["cold"]))

    def test_seed_zero_is_the_default_manifest(self):
        manifest = json.loads(
            sections(run("--dump-inputs", "--seed", "0"))["manifest"][0])
        self.assertEqual(manifest["seeds"], [0, 1])
        self.assertEqual(manifest["machines"], ["alpha", "parisc"])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        lines = run("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace)).strip().splitlines()
        result = json.loads(lines[-1])
        self.assertIn("host", json.loads(lines[-2]))
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in wanted})

    def test_workloads(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()

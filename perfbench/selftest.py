"""Self-tests of the benchmark itself, at the tiny size.

Usage (from the repository root): python3 perfbench/selftest.py

* every workload prints every metric that applies to it, with its unit;
* counts repeat exactly across two runs with the same seed;
* a wrong reference digest makes failed_ratio non-zero;
* without the program beside it the benchmark exits non-zero and
  prints no result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("corpus", "logistic", "cli")
CLI_ONLY = {"cmd.run_s", "cmd.batch_s", "cmd.plot_s", "cmd.verify_s"}
EXACT_SUFFIXES = (".calls", "_bytes", "lemma.checks", "run_loop.history_mb")


def bench(*args, cwd=ROOT, report=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seconds", "0.1",
           "--size", "tiny", *args]
    if report is not None:
        cmd += ["--report", str(report)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
        cls.runs = {}
        for workload in WORKLOADS:
            for k in range(2):
                report = cls.tmp / f"{workload}{k}.json"
                proc = bench("--workload", workload, "--seed", "7", "--trace", "1",
                             report=report)
                cls.runs[workload, k] = (proc, report)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_metric_printed_with_unit(self):
        units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
        for workload in WORKLOADS:
            proc, report = self.runs[workload, 0]
            result = self.result(proc)
            self.assertTrue(result["correct"], proc.stderr)
            self.assertEqual(result["failed"], 0)
            lines = proc.stdout.splitlines()
            for name, unit in units.items():
                if name in CLI_ONLY and workload != "cli":
                    continue
                row = [line for line in lines if line.split()[:1] == [name]]
                self.assertEqual(len(row), 1, f"{workload}: {name} not printed once")
                self.assertTrue(row[0].split()[2] in (unit, "(not"), row[0])
            for name, m in result["metrics"].items():
                self.assertEqual(m["unit"], units[name])
                self.assertIsInstance(m["value"], (int, float), f"{workload}: {name}")

    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            first, second = (json.loads(self.runs[workload, k][1].read_text())["per_layer"]
                             for k in range(2))
            exact = [n for n in first if n.endswith(EXACT_SUFFIXES)]
            self.assertIn("run_loop.calls", exact)
            for name in exact:
                self.assertEqual(first[name], second[name], f"{workload}: {name}")

    def test_wrong_reference_digest_fails(self):
        refs = json.loads((HERE / "refs.json").read_text())
        refs["digests"] = {key: "0" * 64 for key in refs["digests"]}
        wrong = self.tmp / "wrong_refs.json"
        wrong.write_text(json.dumps(refs))
        proc = bench("--workload", "logistic", "--seed", "7", "--trace", "0",
                     "--refs", str(wrong), report=self.tmp / "wrong.json")
        result = self.result(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        report = json.loads((self.tmp / "wrong.json").read_text())
        self.assertGreater(report["end_to_end"]["failed_ratio"], 0.0)

    def test_without_program_exits_nonzero(self):
        bare = self.tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "corpus", "--seed", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

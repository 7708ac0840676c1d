"""Smoke tests for the benchmark, on tiny inputs; under a minute in all.

    python3 bench/smoke.py

Every workload runs and passes its checks, every metric name is well formed,
the traced run reports at least one nonzero metric for each of the ten
modules, and two runs with the same seed give the same digests.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_library()
import workloads  # noqa: E402
from nilpath.paths import LiftCore, RootPath  # noqa: E402
from nilpath.sections import ConjugationSection  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MODULES = ("scalar", "matrix", "jordan", "profiles", "criteria", "graph", "polynomials", "sections", "paths", "cli")


def tiny(name: str, seed: int = 1):
    """The workload on the smallest inputs that still reach every layer it uses."""
    if name == "connect":
        return workloads.ConnectWorkload(seed, catalog=((2, (4, 2), (3, 3)), (3, (3, 3), (2, 2, 1, 1))))
    if name == "verify":
        return workloads.VerifyWorkload(seed, catalog=((2, (4, 2), (3, 3)),), samples=2)
    if name == "certified":
        return workloads.CertifiedWorkload(seed, catalog=((3, (3, 3), (2, 2, 1, 1)),))
    return workloads.DecideWorkload(seed, sizes=(6, 9), pool=4)


class SmokeTest(unittest.TestCase):
    def check_result(self, result: dict, section: str) -> None:
        """The result line holds exactly the metrics BENCHMARK.json lists in `section`."""
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = {m["name"]: m["unit"] for m in CONTRACT[section]}
        self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, listed)
        for key, m in result["metrics"].items():
            self.assertRegex(key, NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIsInstance(m["value"], float)

    def test_every_workload_runs(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                record, result = run.run(tiny(name), 0.2, trace=False)
                self.check_result(result, "end_to_end")
                self.assertGreater(result["metrics"]["op_p50_gmean_ref"]["value"], 0)
                self.assertEqual(record["error_rate"], 0)

    def test_traced_run_covers_every_module(self):
        seen = {}
        for name in run.WORKLOAD_NAMES:
            record, result = run.run(tiny(name), 0.2, trace=True)
            self.check_result(result, "per_layer")
            for key, m in result["metrics"].items():
                if m["value"] and not key.endswith(("accept_ratio", "ok_ratio")):  # these read 1.0 when unused
                    seen[key.split(".")[0]] = key
        for module in MODULES:
            self.assertIn(module, seen)
        self.assertIn("trace", seen)
        # every patched name is restored
        for name, module in sys.modules.items():
            if name.startswith("nilpath"):
                for key, value in vars(module).items():
                    self.assertFalse(hasattr(value, "__wrapped__"), f"{name}.{key}")
        for cls, meth in ((ConjugationSection, "conjugator_at"), (RootPath, "evaluate"), (LiftCore, "q_at")):
            self.assertFalse(hasattr(cls.__dict__[meth], "__wrapped__"), f"{cls.__name__}.{meth}")

    def test_same_seed_same_digests(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                first, _ = run.run(tiny(name, seed=5), 0.1, trace=False)
                again, _ = run.run(tiny(name, seed=5), 0.1, trace=False)
                other, _ = run.run(tiny(name, seed=6), 0.1, trace=False)
                self.assertEqual(first["inputs_sha256"], again["inputs_sha256"])
                self.assertEqual(first["outputs_sha256"], again["outputs_sha256"])
                self.assertNotEqual(first["inputs_sha256"], other["inputs_sha256"])


if __name__ == "__main__":
    unittest.main()

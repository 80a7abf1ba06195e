"""Self-tests of the benchmark's own checks.

Run from the root of a checkout::

    python3 userbench/selftest.py

They cover what the benchmark's verdict rests on: metric names, the
tail-percentile rule, the digest check, the leak check and tracing of
boundaries that no longer exist.
"""

from __future__ import annotations

import atexit
import json
import os
import subprocess
import sys
import tempfile
import types
import unittest
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
import procs  # noqa: E402
import tracing  # noqa: E402


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_every_name_is_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        for name in names:
            self.assertTrue(checks.valid_metric_name(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertFalse(checks.valid_metric_name("job s"))
        self.assertFalse(checks.valid_metric_name(".job_s"))

    def test_benchmark_json_matches_the_tables(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.spec["workloads"]],
            [(w, layers.WHY[w]) for w in layers.WORKLOADS])
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
            list(layers.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
            [(m.name, m.unit, m.better) for m in layers.PER_LAYER])
        for layer in layers.PER_LAYER:
            self.assertIn(layer.moves, dict(layers.END_TO_END))
            self.assertTrue(set(layer.workloads) <= set(layers.WORKLOADS))


class TailRule(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        self.assertIsNone(checks.tail([1.0] * 10))
        self.assertIsNone(checks.tail([]))

    def test_reports_highest_percentile_with_ten_beyond(self):
        pct, value, n = checks.tail([float(i) for i in range(11)])
        self.assertEqual((value, n), (0.0, 11))
        self.assertAlmostEqual(pct, 100 / 11)
        pct, value, n = checks.tail([float(i) for i in range(100, 0, -1)])
        self.assertEqual((pct, value, n), (90.0, 90.0, 100))


class DigestCheck(unittest.TestCase):
    def test_reference_matches_program_and_catches_altered_output(self):
        from repro.apps.wordcount import make_wordcount_job
        from repro.core.options import RuntimeOptions
        from repro.core.phoenix import PhoenixRuntime
        from repro.workloads import generate_text_file

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.dat"
            generate_text_file(path, 20_000, seed=3)
            expected = checks.reference_digest("wordcount", path)
            result = PhoenixRuntime(RuntimeOptions.baseline(1, 1)).run(
                make_wordcount_job([path]))
            self.assertEqual(result.output_digest(), expected)

            workload = jobs.WordCount(jobs.Context(Path(tmp), {}, 3))
            workload.expected = expected
            self.assertIsNone(workload.check({"digest": expected}))
            pairs = checks.wordcount_pairs(path)
            key, count = pairs[0]
            pairs[0] = (key, count + 1)
            altered = checks.digest_pairs(pairs)
            self.assertIn("digest", workload.check({"digest": altered}))

    def test_sort_reference_is_ordered_by_key(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.dat"
            path.write_bytes(b"BBBBBBBBBB second\r\nAAAAAAAAAA first\r\n")
            self.assertEqual(checks.sort_pairs(path), [
                (b"AAAAAAAAAA", b"first"), (b"BBBBBBBBBB", b"second")])


class LeakCheck(unittest.TestCase):
    def test_catches_planted_segment_spill_dir_and_orphan(self):
        token = uuid.uuid4().hex
        segment = procs.SHM_DIR / f"{procs.SHM_PREFIX}-selftest-{os.getpid()}"
        with tempfile.TemporaryDirectory() as tmp:
            check = procs.LeakCheck(token, Path(tmp))
            self.assertEqual(check.leaks(), [])
            segment.write_bytes(b"x")
            (Path(tmp) / f"{procs.SPILL_PREFIX}selftest").mkdir()
            orphan = subprocess.Popen(
                ["sleep", "30"], env=dict(os.environ, BENCH_TOKEN=token))
            try:
                found = check.settle(grace_s=0.2)
                self.assertTrue(any(segment.name in f for f in found), found)
                self.assertTrue(any("spill dir" in f for f in found), found)
                self.assertTrue(any(f"orphan pid {orphan.pid}" in f
                                    for f in found), found)
                self.assertEqual(orphan.wait(timeout=10), -9)
                self.assertFalse(segment.exists())
                self.assertEqual(check.leaks(), [])
            finally:
                orphan.kill()
                orphan.wait()
                segment.unlink(missing_ok=True)


class Tracing(unittest.TestCase):
    def test_missing_boundaries_are_absent_and_present_ones_traced(self):
        fake = types.ModuleType("repro_selftest_fake")
        fake.work = lambda n: n * 2
        fake.outer = lambda n: fake.work(n) + fake.work(n)
        sys.modules[fake.__name__] = fake
        try:
            with tempfile.TemporaryDirectory() as tmp:
                recorder = tracing.install(Path(tmp), (
                    ("fake.work", fake.__name__, "work",
                     lambda args, kwargs, result: {"items": result}),
                    ("fake.outer", fake.__name__, "outer", None),
                    ("gone.module", "repro_selftest_missing", "run", None),
                    ("gone.attr", fake.__name__, "Deleted.run", None),
                ))
                atexit.unregister(recorder.dump)
                self.assertEqual(fake.outer(21), 84)
                self.assertEqual(recorder.absent, [
                    "repro_selftest_missing.run",
                    "repro_selftest_fake.Deleted.run"])
                recorder.dump()
                spans, absent = tracing.load(Path(tmp))
            self.assertEqual(len(absent), 2)
            outer = spans[0]
            self.assertEqual(
                [(s["name"], s["parent"], s["counts"]) for s in spans],
                [("fake.outer", None, {}),
                 ("fake.work", outer["id"], {"items": 42}),
                 ("fake.work", outer["id"], {"items": 42})])
            tracing.assign_jobs(spans, [("job0", outer["start"], outer["end"])])
            totals = tracing.per_job(spans, "job0")
            self.assertEqual(totals["fake.work.items"], 84)
            self.assertLessEqual(totals["fake.work_s"], totals["fake.outer_s"])
        finally:
            del sys.modules[fake.__name__]


if __name__ == "__main__":
    unittest.main()

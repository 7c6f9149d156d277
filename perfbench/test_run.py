#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 perfbench/test_run.py

Needs no build: the CLI is replaced by canned reports and a sleeping child.
"""

import json
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def span(sid, parent, name, start, end, item="item:0:app"):
    return {"id": sid, "parent": parent, "name": name, "item": item, "start": start, "end": end}


# One traced item: 100 units of wall, two CLI invocations, and 6 units that no
# layer span covers (1 in the item, 2 in cmd.test, 3 in cmd.static).
SPANS = [
    span(0, -1, "item", 0, 100),
    span(1, 0, "edit", 0, 1),
    span(2, 0, "cmd.test", 2, 50),
    span(3, 2, "lang.read", 2, 10),
    span(4, 2, "dynamic", 10, 48),
    span(5, 4, "nested", 20, 30),
    span(6, 0, "cmd.static", 50, 100),
    span(7, 6, "lang.read", 50, 55),
    span(8, 6, "static", 55, 97),
]


class ArithmeticTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        values = list(range(10, 0, -1))  # Unsorted on purpose.
        self.assertAlmostEqual(run.percentile(values, 50), 5.5)
        self.assertAlmostEqual(run.percentile(values, 90), 9.1)
        self.assertEqual(run.percentile(values, 100), 10)
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        self.assertEqual(run.beyond(values, 90), 1)
        self.assertEqual(run.beyond(list(range(100)), 90), 10)

    def test_percentile_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_self_time_subtracts_children(self):
        selfs = run.self_times(SPANS)
        self.assertEqual(selfs[0], 100 - 1 - 48 - 50)
        self.assertEqual(selfs[2], 48 - 8 - 38)
        self.assertEqual(selfs[4], 38 - 10)
        self.assertEqual(selfs[5], 10)
        self.assertEqual(selfs[6], 50 - 5 - 42)
        # Self times add back up to the item's wall time.
        self.assertEqual(sum(selfs.values()), 100)

    def test_self_time_counts_overlapping_children_once(self):
        spans = [span(0, -1, "item", 0, 10), span(1, 0, "a", 2, 6), span(2, 0, "b", 4, 8),
                 span(3, 0, "c", 9, 12)]
        self.assertEqual(run.self_times(spans)[0], 10 - 6 - 1)

    def test_coverage_share_counts_layer_spans_only(self):
        shares = run.coverage_shares(SPANS)
        self.assertAlmostEqual(shares["item:0:app"], (1 + 8 + 38 + 5 + 42) / 100)

    def test_layer_metrics_take_item_medians_and_derive_cli_residual(self):
        spans = [span(i * 2, -1, "item", 0, 10_000_000 * (i + 1), f"item:{i}:a")
                 for i in range(3)]
        spans += [span(i * 2 + 1, i * 2, "identify", 0, 1_000_000 * (i + 1), f"item:{i}:a")
                  for i in range(3)]
        cli = [{"seq": i, "ms": ms} for i, ms in enumerate((25.0, 31.0, 36.0, 99.0))]
        metrics, shares = run.layer_metrics(spans, [], cli)
        self.assertAlmostEqual(metrics["identify.ms"], 2.0)
        # Residuals 15, 11, 6 ms; item 3 has no in-process twin and is left out.
        self.assertAlmostEqual(metrics["cli.process_ms"], 11.0)
        self.assertAlmostEqual(metrics["trace.coverage_min"], 0.1)
        self.assertEqual(len(shares), 3)


TRUTH = "B-1\tWHEN/missing-cap\tLoop.mj\tLoop.retry\nB-2\tHOW\tState.mj\tState.retry\n"
TEST_REPORT = json.dumps([
    {"type": "WHEN/missing-cap", "technique": "unit-testing", "app": "app", "file": "Loop.mj",
     "line": 3, "coordinator": "Loop.retry", "exception": "", "detail": ""},
    {"type": "WHEN/missing-delay", "technique": "unit-testing", "app": "app", "file": "Poll.mj",
     "line": 9, "coordinator": "Poll.spin", "exception": "", "detail": ""},
]).encode()
STATIC_REPORT = b"[]"


class FailureAccountingTest(unittest.TestCase):
    def make_run(self, expected):
        bench = run.Run("scan", 7, {"app": expected})
        bench.apps = ["app"]
        shutil.rmtree(bench.dir, ignore_errors=True)
        bench.truth.mkdir(parents=True)
        (bench.truth / "app.tsv").write_text(TRUTH)
        self.addCleanup(shutil.rmtree, bench.dir, True)
        return bench

    def canned(self, command, app, cache_dir=None):
        stdout = TEST_REPORT if command == "test" else STATIC_REPORT
        return run.Child(0, stdout, 0.01, 0.01, 1024, False)

    def test_known_answer_scores_the_report(self):
        truth = run.read_truth(Path(self.make_run({}).truth) / "app.tsv")
        self.assertEqual(run.verdict("test", TEST_REPORT, truth), {"unit-testing": [1, 1, 1]})

    def test_right_answer_passes(self):
        bench = self.make_run({"test": {"unit-testing": [1, 1, 1]},
                               "static": {"llm-static": [0, 0, 1], "codeql-static": [0, 0, 0]}})
        bench.cli = self.canned
        items = bench.loop(0)
        self.assertEqual([i["failed"] for i in items], [False])
        self.assertEqual(bench.errors, [])

    def test_corrupted_expected_answer_fails_every_item(self):
        bench = self.make_run({"test": {"unit-testing": [2, 0, 0]},
                               "static": {"llm-static": [0, 0, 1], "codeql-static": [0, 0, 0]}})
        bench.cli = self.canned
        items = bench.loop(0.05)
        self.assertGreaterEqual(len(items), 1)
        self.assertTrue(all(i["failed"] for i in items))
        self.assertEqual(len(bench.errors), len(items))  # Never retried away.

    def test_child_killed_by_timeout_is_a_failed_item(self):
        bench = self.make_run({"test": {"unit-testing": [1, 1, 1]}})
        bench.dir.mkdir(parents=True, exist_ok=True)
        timeouts = dict(run.TIMEOUT_S)
        self.addCleanup(run.TIMEOUT_S.update, timeouts)
        run.TIMEOUT_S.update(test=0.2, static=0.2)

        def hanging(command, app, cache_dir=None):
            sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
            return run.run_child(sleeper, run.TIMEOUT_S[command], bench.stderr)

        bench.cli = hanging
        items = bench.loop(0)
        self.assertEqual(len(items), 1)
        self.assertTrue(items[0]["failed"])
        self.assertLess(items[0]["ms"], 5000)
        # A hang is a failure, not a wrong verdict.
        self.assertEqual(bench.errors, [])

    def test_killed_cold_fill_is_counted_and_run_again(self):
        bench = self.make_run({"test": {"unit-testing": [1, 1, 1]}})
        results = [run.Child(-9, b"", 10.0, 40.0, 1024, True), self.canned("test", "app")]
        bench.cli = lambda command, app, cache_dir=None: results.pop(0)
        self.assertEqual(bench.fill("test", "app"), TEST_REPORT)
        self.assertEqual(bench.setup_failures, 1)

    def test_failed_items_are_left_out_of_timings(self):
        items = [{"ms": 10.0, "cpu_ms": 5.0, "rss_kb": 2048, "failed": False},
                 {"ms": 30.0, "cpu_ms": 7.0, "rss_kb": 1024, "failed": False},
                 {"ms": 20000.0, "cpu_ms": 80000.0, "rss_kb": 4096, "failed": True}]
        metrics = run.end_to_end(items, [1.0, 3.0, 2.0])
        self.assertEqual(metrics["setup_s"], 2.0)
        self.assertAlmostEqual(metrics["items_per_s"], 2 / 0.040)
        self.assertAlmostEqual(metrics["item_ms_p50"], 20.0)
        self.assertAlmostEqual(metrics["cpu_ms_per_item"], 6.0)
        self.assertAlmostEqual(metrics["peak_rss_mb"], 2.0)
        with self.assertRaises(run.BenchError):
            run.end_to_end(items[2:], [1.0])


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in contract["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in contract["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in contract["workloads"]], list(run.WORKLOADS))

    def test_seed_orders_a_fixed_app_set(self):
        first, second = run.workload_apps("repair", 1), run.workload_apps("repair", 2)
        self.assertEqual(sorted(first), sorted(second))
        self.assertNotEqual(first, second)
        self.assertEqual(first, run.workload_apps("repair", 1))
        self.assertEqual(len(run.workload_apps("scan", 1)), 32)

    def test_edits_are_round_robin_and_never_repeat(self):
        files = {"a": ["x.mj"], "b": ["y.mj", "z.mj"]}
        edits = run.edit_sequence(5, files, 10)
        self.assertEqual(edits, run.edit_sequence(5, files, 10))
        for start in range(0, 10, 2):
            self.assertEqual(sorted(e[0] for e in edits[start:start + 2]), ["a", "b"])
        self.assertEqual(len({e[2] for e in edits}), 10)


if __name__ == "__main__":
    unittest.main()

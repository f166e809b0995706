"""Self-tests of the repo benchmark.

    python3 perfbench/test_perfbench.py

Checks that every workload runs correct at a tiny scale in both trace
modes, that BENCHMARK.json's metric names and limits are well-formed, and
that self time is right on hand-built span lists. The tiny runs build the
benchmark first (into .bench_build/perfbench) if needed.
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
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(tid, ts, dur, name="s", cat="c"):
    return {"tid": tid, "ts": ts, "dur": dur, "name": name, "cat": cat}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_on_one_thread(self):
        spans = [
            span(0, 0, 100),   # root: children cover 10..40 and 50..90
            span(0, 10, 30),   # child with its own child 15..25
            span(0, 15, 10),
            span(0, 50, 40),
        ]
        self.assertEqual(run.self_times(spans), [30, 20, 10, 40])

    def test_other_threads_do_not_count_as_children(self):
        spans = [span(0, 0, 100), span(1, 10, 50), span(1, 20, 5)]
        self.assertEqual(run.self_times(spans), [100, 45, 5])

    def test_siblings_in_any_input_order(self):
        # A span starting where another ends is its sibling, not its child.
        spans = [span(0, 60, 10), span(0, 0, 50), span(0, 40, 10),
                 span(0, 50, 10)]
        self.assertEqual(run.self_times(spans), [10, 40, 10, 10])

    def test_overhanging_child_is_clipped(self):
        spans = [span(0, 0, 10), span(0, 5, 7)]
        self.assertEqual(run.self_times(spans), [5, 7])

    def test_equal_start_longer_span_is_the_parent(self):
        spans = [span(0, 5, 3), span(0, 5, 10)]
        self.assertEqual(run.self_times(spans), [3, 7])


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_metric_names_units_and_limits(self):
        e2e, per_layer = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(per_layer), 128)
        names = [m["name"] for m in e2e + per_layer]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e + per_layer:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in e2e:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))

    def test_workloads(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])


class TinyWorkloadTest(unittest.TestCase):
    """Every workload, both trace modes, at 1% of its table sizes."""

    def run_tiny(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "0",
             "--trace", str(trace), "--scale", "0.01"],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_every_workload_runs_correct(self):
        spec = run.load_spec()
        for w in spec["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    result = self.run_tiny(w["name"], trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(
                        sorted(result["metrics"]),
                        sorted(m["name"] for m in spec[section]))
                    if trace:
                        dropped = result["metrics"]["obs.spans_dropped"]
                        self.assertEqual(dropped["value"], 0)
                    else:
                        for m in spec[section]:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark itself: exact counts from traced executions.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Each workload runs once untraced and twice traced on one seed, about a
minute in all.  The counts asserted here are properties of the current
program (fold steps and Haar draws per sample, cache misses per pass); a
change that alters one on purpose updates the number here.  The share
test checks the layer shares the workloads were chosen for.  The file name
keeps pytest from collecting it with the package's own tests.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import unittest
from pathlib import Path

import run
import tracer
from workloads import WORKLOADS

SEED = 1
# per sample: (fold steps, Haar draws); long-chain holds U fixed, drawn once
PER_SAMPLE = {"short-chain": (18, 3), "long-chain": (998, 2), "wide-window": (2, 3)}
FIXED_DRAWS = {"short-chain": 0, "long-chain": 1, "wide-window": 0}
EXACT_LAYERS = ("weingarten.", "symgroup.")


def _traced_twice(name: str, work: Path) -> run.Run:
    bench = run.Run(WORKLOADS[name], SEED, seconds=0, trace=1, work=work / name)
    bench.checks()
    bench.execute("plain")
    bench.execute("traced")
    bench.execute("traced")
    return bench


class TracedWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = run.OUT_DIR / f"selftest-{os.getpid()}"
        try:
            cls.runs = {name: _traced_twice(name, cls.work) for name in WORKLOADS}
        finally:
            shutil.rmtree(cls.work, ignore_errors=True)

    def spans(self, name: str) -> dict:
        return self.runs[name].summaries[0]["spans"]

    def share(self, name: str, *span_names: str) -> float:
        summary = self.runs[name].summaries[0]
        return sum(summary["spans"][s]["self_s"] for s in span_names) / summary["base_s"]

    def test_every_execution_passes_the_gate(self):
        for name, bench in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual([e.reason for e in bench.ledger.executions if not e.ok], [])
                self.assertEqual(len(bench.summaries), 2)

    def test_counts_repeat_exactly(self):
        for name, bench in self.runs.items():
            with self.subTest(workload=name):
                first, second = bench.summaries
                self.assertEqual(run.counts_of(first), run.counts_of(second))

    def test_fold_steps_per_sample(self):
        for name, (steps, _) in PER_SAMPLE.items():
            with self.subTest(workload=name):
                spans = self.spans(name)
                folds = (spans["engine.channel_apply"]["calls"]
                         + spans["engine.channel_apply_adjoint"]["calls"])
                self.assertEqual(folds, steps * WORKLOADS[name].samples)
                self.assertEqual(spans["engine.channel_apply"]["calls"],
                                 spans["engine.channel_apply_adjoint"]["calls"])

    def test_haar_draws_per_sample(self):
        for name, (_, draws) in PER_SAMPLE.items():
            with self.subTest(workload=name):
                self.assertEqual(self.spans(name)["ensembles.haar_unitary"]["calls"],
                                 draws * WORKLOADS[name].samples + FIXED_DRAWS[name])

    def test_monte_carlo_workloads_make_no_exact_calls(self):
        for name in PER_SAMPLE:
            with self.subTest(workload=name):
                calls = {s: v["calls"] for s, v in self.spans(name).items()
                         if s.startswith(EXACT_LAYERS)}
                self.assertTrue(calls)
                self.assertEqual(set(calls.values()), {0})

    def test_exact_wg_misses_cold_never_warm(self):
        by_phase = self.runs["exact-wg"].summaries[0]["by_phase"]
        cold = by_phase["exact_wg.cold_pass"]["weingarten.cache.lookup"]
        warm = by_phase["exact_wg.warm_pass"]["weingarten.cache.lookup"]
        self.assertEqual(cold["value"], 0)  # a new file: every lookup misses
        self.assertEqual(cold["calls"], warm["calls"])
        self.assertEqual(warm["value"], warm["calls"])
        self.assertNotIn("weingarten.cache.store", by_phase["exact_wg.warm_pass"])

    def test_layer_shares(self):
        self.assertGreaterEqual(self.share(
            "long-chain", "engine.channel_apply", "engine.channel_apply_adjoint"), 0.8)
        self.assertGreaterEqual(self.share(
            "wide-window", "engine.window_products", "engine.reduced_density"), 0.6)
        short = self.spans("short-chain")
        self.assertEqual(max(short, key=lambda s: short[s]["self_s"]),
                         "ensembles.haar_unitary")
        exact = [s for s in self.spans("exact-wg") if s.startswith(EXACT_LAYERS)]
        self.assertGreaterEqual(self.share("exact-wg", *exact), 0.9)

    def test_every_per_layer_metric_is_reported(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["per_layer"]]
        for name, bench in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(sorted(bench.per_layer(names)), sorted(names))


class Specification(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))

    def test_every_layer_metric_has_a_target(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        targets = json.loads((run.HERE / "layer_targets.json").read_text())
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(targets))

    def test_strict_json_rejects_nan(self):
        path = run.OUT_DIR / f"selftest-nan-{os.getpid()}.json"
        run.OUT_DIR.mkdir(exist_ok=True)
        try:
            path.write_text('{"x": NaN}')
            with self.assertRaises(ValueError):
                run.strict_json(path)
        finally:
            path.unlink()


class TracerArithmetic(unittest.TestCase):
    def test_self_time_excludes_children(self):
        trace = tracer.Tracer()
        inner = trace.wrap("inner", lambda: time.sleep(0.02))

        def outer():
            time.sleep(0.01)
            inner()
            inner()

        trace.wrap(tracer.ROOT_SPAN, trace.wrap("outer", outer))()
        path = run.OUT_DIR / f"selftest-spans-{os.getpid()}.npz"
        run.OUT_DIR.mkdir(exist_ok=True)
        try:
            trace.save(path)
            summary = tracer.summarize(path)
        finally:
            path.unlink()
        spans = summary["spans"]
        self.assertEqual(spans["inner"]["calls"], 2)
        self.assertGreaterEqual(spans["inner"]["self_s"], 0.04)
        self.assertGreaterEqual(spans["outer"]["self_s"], 0.01)
        self.assertLess(spans["outer"]["self_s"], 0.03)
        total = sum(s["self_s"] for s in spans.values())
        self.assertAlmostEqual(total, summary["base_s"], places=9)
        self.assertEqual(summary["by_phase"]["outer"]["inner"]["calls"], 2)


if __name__ == "__main__":
    unittest.main()

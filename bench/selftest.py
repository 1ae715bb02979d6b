#!/usr/bin/env python3
"""Self-tests for the benchmark's own arithmetic.

Run from the repository root with ``python3 bench/selftest.py``. The file
name keeps it out of pytest's collection, so timing code never joins the
library's test suite.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from run import Tally, per_reference  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    Tracer,
    digest,
    install,
    layer_metrics,
    self_times,
    summarize,
)


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a [0,10] holds b [1,4] and c [5,9]; c holds d [6,7]
        tracer = Tracer(clock=ScriptedClock([0, 1, 4, 5, 6, 7, 9, 10]))
        a = tracer.open("a")
        b = tracer.open("b")
        tracer.close(b)
        c = tracer.open("c")
        d = tracer.open("d")
        tracer.close(d)
        tracer.close(c)
        tracer.close(a)
        own = self_times(tracer.spans)
        self.assertEqual(own, {a: 3, b: 3, c: 3, d: 1})
        summary = summarize(tracer.spans)
        self.assertEqual(summary["a"], {"calls": 1, "s": 10, "self_s": 3})
        self.assertEqual(summary["c"], {"calls": 1, "s": 4, "self_s": 3})

    def test_overlapping_children_are_counted_once(self):
        spans = [Span(0, "p", 0.0, 10.0, None), Span(1, "x", 2.0, 6.0, 0), Span(2, "y", 4.0, 8.0, 0)]
        self.assertEqual(self_times(spans)[0], 4.0)

    def test_recursion_is_not_counted_twice(self):
        spans = [Span(0, "f", 0.0, 10.0, None), Span(1, "f", 2.0, 6.0, 0)]
        summary = summarize(spans)
        self.assertEqual(summary["f"], {"calls": 2, "s": 10.0, "self_s": 10.0})


class DistinctTest(unittest.TestCase):
    def test_repeated_inputs(self):
        tracer = Tracer()
        f = tracer.wrap("f", lambda x: x.sum(), key=lambda x: digest(x))
        a, b = np.arange(6.0), np.ones(6)
        for x in (a, a.copy(), b, a):
            f(x)
        calls = summarize(tracer.spans)["f"]["calls"]
        self.assertEqual((calls, len(tracer.keys["f"])), (4, 2))

    def test_digest_sees_shape(self):
        a = np.arange(6.0)
        self.assertNotEqual(digest(a), digest(a.reshape(2, 3)))
        self.assertEqual(digest(a.reshape(2, 3)), digest(a.reshape(2, 3).copy()))

    def test_layer_metrics_ratios(self):
        tracer = Tracer()
        solve = tracer.wrap("scm.solve_scm", lambda x: None, key=lambda x: digest(x))
        jk = tracer.wrap("inference.jackknife_plus", lambda: [solve(np.ones(3)) for _ in range(4)])
        jk()
        m = layer_metrics(tracer, rows_per_panel=0)
        self.assertEqual(m["scm.solve_scm.calls"], 4)
        self.assertEqual(m["scm.solve_scm.distinct_ratio"], 0.25)
        self.assertEqual(m["inference.jackknife_plus.calls"], 1)
        self.assertEqual(m["selection.loo_cv.calls"], 0)
        self.assertEqual(m["panel.load_panel.rows_per_s"], 0.0)


class TallyTest(unittest.TestCase):
    def test_cli_operations(self):
        t = Tally()
        t.record(1, [], 0)
        t.record(1, ["exit code 2"], 0)
        t.record(1, [], 0)
        self.assertEqual((t.attempted, t.failed), (3, 1))
        self.assertAlmostEqual(t.ok_ratio, 2 / 3)

    def test_dropped_replications_count_as_failures(self):
        t = Tally()
        t.record(10, [], 2)
        t.record(10, ["non-finite"], 2)
        t.record(10, [], 0)
        self.assertEqual((t.attempted, t.failed), (30, 12))


class PerReferenceTest(unittest.TestCase):
    def test_divides_the_mean_time_by_the_mean_reference(self):
        # four operations, five reference samples
        self.assertEqual(per_reference([4.0, 12.0, 6.0, 2.0], [1.0, 1.0, 3.0, 2.0, 3.0]), 3.0)


class InstallTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        import panelctrl
        from panelctrl import estimators, inference, ridge, scm, selection

        original = scm.solve_scm
        svd_compute = ridge.ControlSVD.__dict__["compute"]
        tracer = Tracer()
        restore = install(tracer)
        try:
            for module in (panelctrl, scm, estimators, inference, selection):
                self.assertIsNot(module.solve_scm, original, module.__name__)
            p = panelctrl.draw_panel("factor", panelctrl.default_dgp("factor"), 6, 12, 9, 1)
            panelctrl.estimate(p, panelctrl.EstimatorSpec(method="ridge_ascm", lam=1.0))
        finally:
            restore()
        for module in (panelctrl, scm, estimators, inference, selection):
            self.assertIs(module.solve_scm, original)
        self.assertIs(ridge.ControlSVD.__dict__["compute"], svd_compute)

        summary = summarize(tracer.spans)
        for name in ("estimators.estimate", "scm.solve_scm", "ridge.augment_weights"):
            self.assertEqual(summary[name]["calls"], 1, name)
        by_name = {s.name: s for s in tracer.spans}
        by_id = {s.id: s for s in tracer.spans}

        def ancestors(span):
            while span.parent is not None:
                span = by_id[span.parent]
                yield span.name

        self.assertIn("estimators.estimate", ancestors(by_name["scm.solve_scm"]))
        self.assertIn("ridge.augment_weights", ancestors(by_name["ridge.ControlSVD.compute"]))


if __name__ == "__main__":
    unittest.main()

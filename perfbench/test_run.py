#!/usr/bin/env python3
"""Tests of run.py that need no build.

    python3 perfbench/test_run.py
"""

import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fake_rep(workload):
    """A repetition result with every field the aggregation reads."""
    counts = {"cluster.ticks": 1000.0, "cluster.decisions": 10.0, "ossim.run_until_s": 0.5,
              "tele.kernel.ctx_switches": 5.0, "tele.align.scans": 3.0, "tele.recal.refits": 2.0}
    return {"workload": workload, "setup_s": [0.5, 0.6, 0.4], "calibrate_s": [0.4, 0.5, 0.3], "wall_s": [2.0, 2.1],
            "dispatched": 100, "completed": 99, "failed": 1, "attr_err": 0.03, "j_per_req": 0.2,
            "peak_rss_mb": 20.0, "gauge_s": [0.1, 0.11, 0.09], "proc_s": 2.6, "span_root_s": 2.55, "counts": counts}


class Declarations(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_every_emitted_metric_is_declared_and_every_declared_one_emitted(self):
        e2e, layer = run.declared_metrics()
        for wl in run.WORKLOADS:
            rep = fake_rep(wl)
            self.assertEqual(set(run.e2e_metrics(wl, [rep])), set(e2e), wl)
            self.assertEqual(set(run.layer_metrics(wl, [rep], [rep], rep)), set(layer), wl)

    def test_declared_workloads_are_the_ones_run_py_runs(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))

    def test_names_units_and_bounds_are_well_formed(self):
        metrics = self.bench["end_to_end"] + self.bench["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in self.bench["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = next(m for m in self.bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()

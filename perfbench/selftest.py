"""Self-tests of the benchmark's own measurement code.

    python3 perfbench/selftest.py

Checks the layer attribution on a hand-built profile, the row
aggregates on hand-built metric rows, and, on real rounds of
``swift-mix`` and ``hdfs-bulk``, that the modelled counters read from
exported rows are non-zero and that the layer self times add up to the
profiled total.
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from layers import (LAYERS, SUM_TOLERANCE, LayerProfile,  # noqa: E402
                    RowCounters, parse_rows)
from worker import run_round  # noqa: E402

SRC = "/x/src/repro"
BENCH = "/x/perfbench"


def _edge(calls, tottime, cumtime):
    return (calls, calls, tottime, cumtime)


class LayerAttributionTest(unittest.TestCase):
    """Builtin and stdlib self time goes to the calling layer."""

    def setUp(self):
        step = (f"{SRC}/sim/kernel.py", 1, "step")
        frame = (f"{SRC}/net/headers.py", 1, "build")
        push = ("~", 0, "<built-in method _heapq.heappush>")
        join = ("~", 0, "<method 'join' of 'bytes' objects>")
        helper = ("/usr/lib/python3/struct_helper.py", 1, "pack_all")
        root = (f"{BENCH}/worker.py", 1, "run_round")
        self.stats = {
            root: (1, 1, 0.5, 10.0, {}),
            step: (10, 10, 2.0, 9.0, {root: _edge(10, 2.0, 9.0)}),
            frame: (4, 4, 1.0, 6.0, {step: _edge(4, 1.0, 6.0)}),
            push: (12, 12, 1.2, 1.2, {step: _edge(8, 0.9, 0.9),
                                      frame: _edge(4, 0.3, 0.3)}),
            helper: (4, 4, 1.0, 4.0, {frame: _edge(4, 1.0, 4.0)}),
            join: (8, 8, 3.0, 3.0, {helper: _edge(8, 3.0, 3.0)}),
        }
        self.profile = LayerProfile(self.stats, SRC, BENCH)

    def test_builtin_split_by_caller_edges(self):
        self.assertAlmostEqual(self.profile.self_s["sim"], 2.0 + 0.9)
        # net: own 1.0 + heappush 0.3 + stdlib helper 1.0 + join via helper
        self.assertAlmostEqual(self.profile.self_s["net"], 1.0 + 0.3 + 4.0)
        self.assertAlmostEqual(self.profile.self_s["other"], 0.5)

    def test_time_is_conserved(self):
        self.assertAlmostEqual(sum(self.profile.self_s.values()),
                               self.profile.total_s)
        self.assertEqual(set(self.profile.self_s), set(LAYERS))

    def test_calls_in_counts_cross_layer_edges_only(self):
        self.assertEqual(self.profile.calls_in["sim"], 10)   # from other
        self.assertEqual(self.profile.calls_in["net"], 4)    # from sim
        self.assertEqual(self.profile.calls_in["other"], 0)


class RowCountersTest(unittest.TestCase):
    LINES = ["sim,time_ns,metric,labels,value",
             "a/sim0,100,nvme.commands,dev=ssd;node=node0,2",
             "a/sim0,300,nvme.commands,dev=ssd;node=node0,5",
             "a/sim0,100,nvme.sq_depth,node=node0;qid=1,4",
             "a/sim0,200,nvme.sq_depth,node=node0;qid=1,0",
             "a/sim0,400,nvme.sq_depth,node=node0;qid=1,0",
             "a/sim0,400,nvme.commands,dev=ssd;node=node0,5",
             "a/sim1,200,nvme.commands,dev=ssd;node=node0,1"]

    def test_aggregates(self):
        rows = RowCounters(parse_rows(self.LINES))
        self.assertEqual(rows.final_sum("nvme.commands"), 6)
        self.assertEqual(rows.final_sum("nvme.commands", "node=node1"), 0)
        self.assertEqual(rows.peak("nvme.sq_depth"), 4)
        # 4 held for 100 ns over 400 + 200 simulated ns.
        self.assertAlmostEqual(rows.time_mean("nvme.sq_depth"), 400 / 600)


class RealRoundTest(unittest.TestCase):
    """One real round per workload that does host CPU work and I/O."""

    def test_counters_nonzero_and_profile_adds_up(self):
        with tempfile.TemporaryDirectory() as scratch:
            for workload in ("swift-mix", "hdfs-bulk"):
                with self.subTest(workload=workload):
                    metered = run_round(workload, 1, "metered", scratch)
                    self.assertEqual(metered["failed_ops"], 0)
                    counters = metered["counters"]
                    self.assertGreater(counters["host.cpu_busy_ns"], 0)
                    self.assertGreater(counters["devices.nvme.commands"], 0)
                    profiled = run_round(workload, 1, "profile", scratch)
                    self.assertEqual(profiled["fingerprint"],
                                     metered["fingerprint"])
                    profile = profiled["profile"]
                    self.assertLessEqual(
                        abs(sum(profile["self_s"].values())
                            - profile["total_s"]),
                        SUM_TOLERANCE * profile["total_s"])
                    self.assertEqual(profile["step_calls"],
                                     profiled["events_in_run"])


if __name__ == "__main__":
    unittest.main()

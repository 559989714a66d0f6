"""Golden-output test for the "sim-top" terminal report."""

import pytest

from repro.experiments.common import measure_send
from repro.metrics import MetricsSession, aggregate, csv_lines, render_top
from repro.schemes import DcsCtrlScheme
from repro.sim.kernel import Simulator

GOLDEN = """\
sim-top — 1 sim, 4 series, 0.001 ms simulated
resource                                         kind        mean  peak  last  total
------------------------------------------  ---------  ----------  ----  ----  -----
engine.d2d_latency_ns{engine=n0:engine}     histogram         600  1023     -      2
engine.ddr3_bytes_in_use{engine=n0:engine}      gauge           -  4096  1024      -
nvme.commands{dev=ssd;node=n0}                counter  10000000/s     -     -     10
nvme.sq_depth{dev=ssd;node=n0;qid=1}        timegauge           2     4     0      -"""


def _scenario():
    """One of each kind, driven over a fixed 1 us timeline."""
    session = MetricsSession(label="golden", interval_ns=100).install()
    sim = Simulator()
    ms = sim.metrics
    counter = ms.counter("nvme.commands", node="n0", dev="ssd")
    gauge = ms.gauge("engine.ddr3_bytes_in_use", engine="n0:engine")
    tg = ms.timegauge("nvme.sq_depth", node="n0", dev="ssd", qid=1)
    hist = ms.histogram("engine.d2d_latency_ns", engine="n0:engine")

    def body(s):
        tg.set(4)             # depth 4 for the first half...
        gauge.set(4096)
        counter.inc(10)
        yield s.timeout(500)
        tg.set(0)             # ...0 for the second: mean exactly 2
        gauge.set(1024)
        hist.observe(300)     # bucket 9
        hist.observe(900)     # bucket 10 (peak edge 1023)
        yield s.timeout(500)

    sim.process(body(sim))
    sim.run()
    session.uninstall()
    session.finalize()
    return session


class TestSimTop:
    def test_golden_table(self):
        assert render_top(_scenario()) == GOLDEN

    def test_kind_specific_cells(self):
        rows = {agg.name: agg.cells() for agg in aggregate(_scenario())}
        # counter: rate + total, no peak/last
        assert rows["nvme.commands"][2:] == ("10000000/s", "-", "-", "10")
        # gauge: peak/last only
        assert rows["engine.ddr3_bytes_in_use"][2:] == (
            "-", "4096", "1024", "-")
        # timegauge: time-weighted mean (4 for half the run = 2)
        assert rows["nvme.sq_depth"][2] == "2"
        # histogram: mean observation, top bucket edge, count
        assert rows["engine.d2d_latency_ns"][2:] == ("600", "1023", "-", "2")

    def test_max_rows_truncates_with_note(self):
        out = render_top(_scenario(), max_rows=2)
        assert "... 2 more series" in out
        assert "nvme.sq_depth" not in out

    def test_empty_session_renders_placeholder(self):
        session = MetricsSession(label="empty")
        assert "(no metrics registered)" in render_top(session)

    def test_live_run_renders_without_error_and_sorted(self):
        with MetricsSession(label="live") as session:
            measure_send(DcsCtrlScheme, None)
        out = render_top(session)
        lines = out.splitlines()
        assert lines[0].startswith("sim-top — ")
        resources = [line.split()[0] for line in lines[3:]
                     if not line.startswith("...")]
        assert resources == sorted(resources)

    def test_multi_sim_series_merge(self):
        # Two simulators with the same series must merge into one row
        # whose counter total is the sum.
        session = MetricsSession(label="merge", interval_ns=100).install()
        try:
            totals = []
            for amount in (3, 4):
                sim = Simulator()
                counter = sim.metrics.counter("nvme.commands",
                                              node="n0", dev="ssd")

                def body(s, counter=counter, amount=amount):
                    counter.inc(amount)
                    yield s.timeout(200)

                sim.process(body(sim))
                sim.run()
                totals.append(amount)
        finally:
            session.uninstall()
            session.finalize()
        rows = aggregate(session)
        assert len(rows) == 1
        assert rows[0].total == pytest.approx(sum(totals))

    def test_polled_series_cells_match_final_csv_values(self):
        # A report cell summarizes the exported data: per simulator, each
        # counter's total and each gauge's last value equal the series'
        # final CSV value -- including polled series, which never see an
        # inc()/set() from the model.
        with MetricsSession(label="truth") as session:
            measure_send(DcsCtrlScheme, "md5")
        checked = set()
        for metric_set in session.sets:
            final = {}
            for line in list(csv_lines(metric_set))[1:]:
                head, value = line.rsplit(",", 1)
                _, _, name, labels = head.split(",", 3)
                final[(name, labels)] = value
            for agg in aggregate(metric_set):
                _, kind, _, _, last, total = agg.cells()
                if kind in ("counter", "gauge"):
                    cell = total if kind == "counter" else last
                    assert cell == final[(agg.name, agg.labels)], agg.resource
                    checked.add(agg.name)
        assert {"engine.scoreboard_issued", "engine.ddr3_bytes_in_use",
                "nvme.commands", "host.cpu.busy_ns",
                "host.cpu.util"} <= checked

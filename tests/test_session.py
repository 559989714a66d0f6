"""The observability session contract shared by the trace and metrics
planes: labelling through ``trace_section`` and sampling-interval
validation."""

import pytest

from repro.errors import MetricsError
from repro.metrics import MetricsSession
from repro.sim.kernel import Simulator
from repro.trace import TraceSession, trace_section


class TestSharedLabelling:
    def test_trace_section_labels_both_planes(self):
        with TraceSession(label="outer"), MetricsSession(label="outer"):
            with trace_section("x"):
                sim = Simulator()
        assert sim.tracer.label.startswith("x/")
        assert sim.metrics.label.startswith("x/")

    def test_both_labels_restored_after_the_block(self):
        with TraceSession(label="outer"), MetricsSession(label="outer"):
            with trace_section("x"):
                Simulator()
            sim = Simulator()
        assert sim.tracer.label == "outer/sim1"
        assert sim.metrics.label == "outer/sim1"


class TestIntervalValidation:
    @pytest.mark.parametrize("interval_ns", [0, -1])
    def test_non_positive_interval_rejected(self, interval_ns):
        with pytest.raises(MetricsError, match="must be positive"):
            MetricsSession(interval_ns=interval_ns)

"""Reconstruct per-request latency breakdowns directly from span events.

The simulator's classic numbers come from
:class:`~repro.analysis.breakdown.LatencyTrace` (per-request) and
:class:`~repro.sim.stats.BusyTracker` (per-window) aggregates.  This
module recomputes the same Fig 3a/11-style decomposition *from the
event stream alone*: each ``request`` root span groups the ``phase``
segments emitted under it, so the breakdown a reader sees in Perfetto
is provably the breakdown the experiment tables report
(``tests/test_trace.py`` asserts per-category agreement within 1 ns).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.trace.tracer import TraceEvent, Tracer


class RequestBreakdown:
    """The span-derived decomposition of one scheme operation."""

    def __init__(self, root: TraceEvent):
        self.root = root
        self.categories: Dict[str, int] = {}

    @property
    def name(self) -> str:
        return self.root.name

    @property
    def total_ns(self) -> int:
        return self.root.duration or 0

    @property
    def attributed_ns(self) -> int:
        return sum(self.categories.values())

    def render(self) -> str:
        lines = [f"{self.name}: {self.total_ns / 1000:.2f} us total"]
        for category, dur in sorted(self.categories.items(),
                                    key=lambda kv: -kv[1]):
            share = dur / self.total_ns if self.total_ns else 0.0
            lines.append(f"  {category:<20} {dur / 1000:8.2f} us "
                         f"({share * 100:5.1f} %)")
        unattributed = self.total_ns - self.attributed_ns
        if unattributed > 0:
            lines.append(f"  {'(unattributed)':<20} "
                         f"{unattributed / 1000:8.2f} us")
        return "\n".join(lines)


def request_breakdowns(tracer: Tracer) -> List[RequestBreakdown]:
    """One :class:`RequestBreakdown` per ``request`` root span, in start
    order.  ``phase`` events attach to their root via ``parent_id``."""
    breakdowns: Dict[int, RequestBreakdown] = {}
    for event in tracer.sorted_events():
        if event.type == "request":
            breakdowns[event.id] = RequestBreakdown(event)
    for event in tracer.sorted_events():
        if event.type != "phase" or event.parent_id is None:
            continue
        breakdown = breakdowns.get(event.parent_id)
        if breakdown is None or event.duration is None:
            continue
        breakdown.categories[event.name] = (
            breakdown.categories.get(event.name, 0) + event.duration)
    return list(breakdowns.values())


def last_breakdown(tracer: Tracer) -> Optional[RequestBreakdown]:
    """The most recent request's breakdown (the usual steady-state
    measurement after warmups), or None if no request was traced."""
    found = request_breakdowns(tracer)
    return found[-1] if found else None

"""docs-check: the trace taxonomy and docs/tracing.md stay in lock-step.

Run via ``make docs-check`` (or as part of the normal suite).
"""

from repro.experiments.common import measure_send
from repro.schemes import DcsCtrlScheme
from repro.trace import EVENT_TYPES, TraceSession, is_registered
from tests.conftest import doc_headings


def _documented_types() -> list[str]:
    return [name for name, _ in doc_headings("tracing.md", r"[a-z0-9_.-]+")]


class TestContract:
    def test_every_registered_type_is_documented(self):
        documented = set(_documented_types())
        missing = set(EVENT_TYPES) - documented
        assert not missing, (
            f"event types registered in repro/trace/events.py but missing "
            f"a '### `type`' section in docs/tracing.md: {sorted(missing)}")

    def test_every_documented_type_is_registered(self):
        documented = _documented_types()
        unknown = [t for t in sorted(documented) if not is_registered(t)]
        assert not unknown, (
            f"docs/tracing.md documents types that repro/trace/events.py "
            f"does not register: {unknown}")

    def test_no_duplicate_doc_sections(self):
        documented = _documented_types()
        assert len(documented) == len(set(documented))

    def test_live_run_emits_only_documented_types(self):
        # Belt and braces on top of the Tracer's runtime check: a real
        # end-to-end run emits nothing outside the documented taxonomy.
        documented = set(_documented_types())
        with TraceSession(label="docscheck") as session:
            measure_send(DcsCtrlScheme, "md5")
        emitted = {event.type for tracer in session.tracers
                   for event in tracer.events}
        assert emitted  # the run actually traced something
        assert emitted <= documented

    def test_registry_descriptions_are_one_liners(self):
        for event_type, description in EVENT_TYPES.items():
            assert description and "\n" not in description, event_type

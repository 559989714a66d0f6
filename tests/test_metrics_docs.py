"""docs-check: the metric catalog and docs/metrics.md stay in lock-step.

Run via ``make docs-check`` (or as part of the normal suite).
"""

from repro.experiments.common import measure_send
from repro.metrics import KINDS, METRICS, MetricsSession
from repro.schemes import DcsCtrlScheme
from tests.conftest import doc_headings


def _documented_names() -> list[str]:
    return [name for name, _ in doc_headings("metrics.md", r"[a-z0-9_.-]+")]


class TestContract:
    def test_every_cataloged_metric_is_documented(self):
        documented = set(_documented_names())
        missing = set(METRICS) - documented
        assert not missing, (
            f"metrics cataloged in repro/metrics/catalog.py but missing "
            f"a '### `name`' section in docs/metrics.md: {sorted(missing)}")

    def test_every_documented_metric_is_cataloged(self):
        documented = _documented_names()
        unknown = [name for name in sorted(documented) if name not in METRICS]
        assert not unknown, (
            f"docs/metrics.md documents metrics that "
            f"repro/metrics/catalog.py does not register: {unknown}")

    def test_no_duplicate_doc_sections(self):
        documented = _documented_names()
        assert len(documented) == len(set(documented))

    def test_every_entry_has_a_valid_kind_and_one_line_description(self):
        for name, (kind, unit, description) in METRICS.items():
            assert kind in KINDS, name
            assert unit and "\n" not in unit, name
            assert description and "\n" not in description, name

    def test_live_run_emits_only_documented_metrics(self):
        # Belt and braces on top of the registry's runtime check: a real
        # end-to-end run registers nothing outside the documented catalog.
        documented = set(_documented_names())
        with MetricsSession(label="docscheck") as session:
            measure_send(DcsCtrlScheme, "md5")
        emitted = {metric.name for metric_set in session.sets
                   for metric in metric_set.series()}
        assert emitted  # the run actually registered something
        assert emitted <= documented

"""docs-check: the rule registry and docs/lint.md stay in lock-step.

Same contract pattern as tests/test_metrics_docs.py and
tests/test_trace_docs.py: every registered rule has a '### `RULEID`'
section, every documented rule id is registered, no duplicates.
"""

from repro.lint import rule_classes, rule_ids
from tests.conftest import doc_headings


def _documented() -> list[tuple[str, str]]:
    """(rule id, rest-of-heading-line) for each doc section."""
    return doc_headings("lint.md", r"[A-Z]+[0-9]+")


class TestContract:
    def test_every_registered_rule_is_documented(self):
        documented = {rule_id for rule_id, _ in _documented()}
        missing = [rule_id for rule_id in rule_ids()
                   if rule_id not in documented]
        assert not missing, (
            f"rules registered in repro/lint/rules.py but missing a "
            f"'### `RULEID`' section in docs/lint.md: {missing}")

    def test_every_documented_rule_is_registered(self):
        known = set(rule_ids())
        unknown = [rule_id for rule_id, _ in _documented()
                   if rule_id not in known]
        assert not unknown, (
            f"docs/lint.md documents rule ids that repro/lint/rules.py "
            f"does not register: {unknown}")

    def test_no_duplicate_doc_sections(self):
        ids = [rule_id for rule_id, _ in _documented()]
        assert len(ids) == len(set(ids))

    def test_headings_carry_the_rule_name_slug(self):
        names = {cls.id: cls.name for cls in rule_classes()}
        for rule_id, rest in _documented():
            assert rest == names[rule_id], (
                f"docs/lint.md heading for {rule_id} says {rest!r}; the "
                f"registered rule name is {names[rule_id]!r}")

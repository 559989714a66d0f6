"""The fast experiment runners: every paper claim they state holds.

The claim bounds live on the results themselves; the app-scale runners'
claims are checked by the full ``python -m repro.experiments`` run.
"""

from repro.experiments import (run_ablations, run_fig11, run_fig3, run_fig8,
                               run_sweep, run_table1, run_table3, run_table4)
from repro.experiments.result import ExperimentResult


def assert_claims_hold(result: ExperimentResult) -> None:
    assert result.claims, f"{result.name} states no claims"
    failed = result.failed_claims()
    assert not failed, "\n".join(
        f"{c.name} = {c.measured:.3f} (bound {c.bound})" for c in failed)


class TestResultContainer:
    def test_render_includes_rows_and_metrics(self):
        result = ExperimentResult(name="demo", headers=["a", "b"])
        result.add_row("x", 1)
        result.metrics["k"] = 2.5
        result.notes.append("a note")
        result.claim("k_band", "2.4", 2.5, lower=2.0, upper=3.0)
        result.claim("k_small", "tiny", 2.5, upper=1.0)
        text = result.render()
        assert "demo" in text
        assert "k = 2.500" in text
        assert "note: a note" in text
        claims = text.split("claims:")[1].splitlines()
        assert claims[3].split() == ["k_band", "2.4", "2.500", ">", "2,",
                                     "<", "3", "ok"]
        assert claims[4].split() == ["k_small", "tiny", "2.500", "<", "1",
                                     "FAIL"]
        assert [c.name for c in result.failed_claims()] == ["k_small"]


class TestTables:
    def test_table1_rows(self):
        result = run_table1()
        assert len(result.rows) == 4
        assert_claims_hold(result)

    def test_table3_matches_paper_averages(self):
        assert_claims_hold(run_table3())

    def test_table4_matches_paper(self):
        assert_claims_hold(run_table4())


class TestMicrobenchFigures:
    def test_fig8_ordering(self):
        assert_claims_hold(run_fig8())

    def test_fig11_headline_bands(self):
        result = run_fig11()
        assert len(result.rows) == 6  # 3 schemes x 2 panels
        assert_claims_hold(result)

    def test_fig3_integrated_wins(self):
        result = run_fig3()
        assert len(result.rows) == 3
        assert_claims_hold(result)

    def test_sweep_software_gain_persists(self):
        result = run_sweep()
        assert len(result.rows) == 4  # one per transfer size
        assert_claims_hold(result)

    def test_ablations(self):
        result = run_ablations()
        assert len(result.rows) == 9  # 2 + 2 + 3 + 2 variants
        assert_claims_hold(result)

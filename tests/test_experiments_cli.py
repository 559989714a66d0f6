"""The ``python -m repro.experiments`` command line, driven in-process."""

import pytest

from repro.analysis.projection import project_cores
from repro.experiments import ExperimentResult, run_fig13
from repro.experiments import __main__ as cli
from repro.experiments.__main__ import main
from repro.experiments.fig12 import SCHEMES
from repro.experiments.fig13 import CORE_BUDGET, CORES, TARGET_GBPS
from repro.metrics import MetricsSession
from repro.sim import Simulator
from repro.sim.session import installed
from repro.trace import TraceSession


class TestMain:
    def test_traced_metered_run_writes_both_outputs(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.csv"
        assert main(["--trace-jsonl", str(trace), "--metrics", str(metrics),
                     "fig11"]) == 0
        assert trace.stat().st_size > 0
        assert metrics.stat().st_size > 0
        assert "sim-top — " in capsys.readouterr().out
        assert installed(TraceSession) is None
        assert installed(MetricsSession) is None

    def test_unwritable_output_fails_before_any_experiment(self, tmp_path,
                                                           capsys):
        missing = tmp_path / "no-such-dir" / "m.csv"
        assert main(["--metrics", str(missing), "fig11"]) == 2
        captured = capsys.readouterr()
        assert "regenerated" not in captured.out
        assert "cannot write metrics output" in captured.err
        assert installed(TraceSession) is None
        assert installed(MetricsSession) is None


class TestDependencies:
    """Each slug runs at most once per invocation; a dependent slug gets
    its dependencies' results as arguments."""

    @pytest.fixture
    def stubs(self, monkeypatch):
        calls, labels = [], []

        def run_b():
            calls.append("B")
            labels.append(Simulator().tracer.label)
            return ExperimentResult(name="result of B", headers=["x"])

        def run_c(b):
            calls.append("C")
            assert b.name == "result of B"
            return ExperimentResult(name="result of C", headers=["x"])

        monkeypatch.setattr(cli, "EXPERIMENTS", {
            "B": ("B", run_b, True, ()),
            "C": ("C", run_c, True, ("B",)),
        })
        return calls, labels

    def test_shared_dependency_runs_once(self, stubs, tmp_path, capsys):
        calls, _ = stubs
        assert main(["--trace-jsonl", str(tmp_path / "t.jsonl"),
                     "B", "C"]) == 0
        assert calls == ["B", "C"]
        out = capsys.readouterr().out
        assert "result of B" in out and "result of C" in out

    def test_dependency_is_run_but_not_printed(self, stubs, tmp_path,
                                               capsys):
        calls, labels = stubs
        assert main(["--trace-jsonl", str(tmp_path / "t.jsonl"), "C"]) == 0
        assert calls == ["B", "C"]
        out = capsys.readouterr().out
        assert "result of C" in out and "result of B" not in out
        # B's simulator is labelled with B's slug, not the dependent's.
        assert labels == ["B/sim0"]


class TestClaims:
    def test_failed_claim_exits_1_and_is_named(self, monkeypatch, capsys):
        def run_a():
            result = ExperimentResult(name="table of A", headers=["x"])
            result.add_row(1)
            result.claim("speedup", "2x", 1.2, lower=1.5)
            result.claim("cores", "<= 3", 2.0, upper=3.0)
            return result

        monkeypatch.setattr(cli, "EXPERIMENTS",
                            {"A": ("A", run_a, True, ())})
        assert main(["A"]) == 1
        captured = capsys.readouterr()
        assert "table of A" in captured.out
        assert "FAIL" in captured.out
        assert "claim failed: A: speedup" in captured.err
        assert "cores" not in captured.err


class TestFig13Projection:
    @staticmethod
    def _fig12(app, base):
        """A synthetic Fig 12 result and the (Gbps, cores) it implies."""
        result = ExperimentResult(name=app, headers=["x"])
        numbers = {}
        for index, (name, key, _) in enumerate(SCHEMES):
            gbps, cpu = base + index, 0.1 / (index + 1)
            result.metrics[f"{app}_{key}_gbps"] = gbps
            result.metrics[f"{app}_{key}_cpu"] = cpu
            numbers[name] = (gbps, cpu * CORES)
        return result, numbers

    def test_projects_fig12_metrics_without_simulating(self):
        fig12a, swift = self._fig12("swift", 3.0)
        fig12b, hdfs = self._fig12("hdfs", 4.5)
        with TraceSession() as session:
            result = run_fig13(fig12a, fig12b)
        assert session.recorders == []
        expected = []
        for app, numbers in (("swift", swift), ("hdfs", hdfs)):
            for p in project_cores(numbers, target_gbps=TARGET_GBPS,
                                   cpu_core_budget=CORE_BUDGET):
                expected.append([app, p.scheme, f"{p.measured_gbps:.2f}",
                                 f"{p.measured_core_equivalents:.2f}",
                                 f"{p.cores_needed_at_target:.2f}",
                                 f"{p.achievable_gbps:.2f}"])
        assert result.rows == expected

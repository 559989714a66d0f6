"""The ``python -m repro.experiments`` command line, driven in-process."""

from repro.experiments.__main__ import main
from repro.metrics import MetricsSession
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

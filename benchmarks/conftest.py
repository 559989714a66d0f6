"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures and
prints the reproduced rows (run with ``-s`` to see them inline; they
are also validated by assertions).  The simulations are deterministic,
so one round per benchmark is meaningful — pytest-benchmark's role here
is to time the reproduction itself and keep a uniform harness.
"""

import pytest

from repro.experiments import run_fig12_hdfs, run_fig12_swift


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under the benchmark clock."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _run


# The Fig 12 runs that Fig 13 and the headline summarize, simulated
# once per session.
@pytest.fixture(scope="session")
def fig12a():
    return run_fig12_swift()


@pytest.fixture(scope="session")
def fig12b():
    return run_fig12_hdfs()

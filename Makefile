# Convenience targets; everything runs with the in-tree sources
# (PYTHONPATH=src) so no install step is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test experiments faults-smoke trace-demo metrics-smoke \
        docs-check lint perfbench-selftest clean

test:            ## tier-1 suite (ROADMAP.md verify command)
	$(PYTHON) -m pytest -x -q

experiments:     ## print all reproduced tables/figures; exit 1 on a failed claim
	$(PYTHON) -m repro.experiments

faults-smoke:    ## fault-rate sweep across all four schemes (docs/faults.md)
	$(PYTHON) -m repro.experiments faults

trace-demo:      ## traced headline run -> trace.json (ui.perfetto.dev)
	$(PYTHON) -m repro.experiments --trace trace.json headline
	@echo "wrote trace.json - load it in https://ui.perfetto.dev"

metrics-smoke:   ## metered headline == metered fig11 fig12a fig12b, non-empty
	$(PYTHON) -m repro.experiments --metrics metrics-a.csv headline
	$(PYTHON) -m repro.experiments --metrics metrics-b.csv fig11 fig12a fig12b
	@test -s metrics-a.csv || (echo "metrics CSV is empty" && exit 1)
	@cmp metrics-a.csv metrics-b.csv \
	    || (echo "headline's metrics CSV differs from fig11 fig12a fig12b's" \
	        && exit 1)
	@echo "metrics-smoke OK: $$(wc -l < metrics-a.csv) rows, byte-identical"

docs-check:      ## catalogs <-> docs/{tracing,metrics,lint}.md lock-step check
	$(PYTHON) -m pytest -q tests/test_trace_docs.py tests/test_metrics_docs.py \
	    tests/test_lint_docs.py

lint:            ## simlint: determinism/scheduling/plane-contract rules
	$(PYTHON) -m repro.lint src tests examples

perfbench-selftest: ## the benchmark's own self-tests (perfbench/README.md)
	$(PYTHON) perfbench/selftest.py

clean:
	rm -rf .pytest_cache .hypothesis trace.json metrics.csv metrics-a.csv \
	    metrics-b.csv
	find . -name __pycache__ -type d -prune -exec rm -rf {} +

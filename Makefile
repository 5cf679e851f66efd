# Entry points shared by developers and CI (.github/workflows/ci.yml).
# The package runs straight from src/ -- no build step, PYTHONPATH does
# the wiring.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test bench bench-smoke perf-smoke perf-diff docs-check lint lint-static lint-examples

## tier-1 test suite (the gate every change must keep green)
test:
	$(PYTHON) -m pytest -x -q

## full benchmark/figure regeneration (minutes; rewrites benchmarks/results/)
bench:
	$(PYTHON) -m pytest benchmarks/ -q

## CI smoke pass over every benchmark (shrunk workloads, same pipeline)
bench-smoke:
	BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/ -q

## perf benchmark smoke (benchmarks/perf, 4 operations per workload, one
## round): fails unless the runner's last line, one JSON object, reports
## "correct": true -- every verdict still matches benchmarks/perf/expected/
perf-smoke:
	$(PYTHON) benchmarks/perf/run.py --smoke | tee /dev/stderr | tail -n 1 | \
		$(PYTHON) -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'

## perf benchmark, three interleaved runs per workload, judged metric by
## metric against BASE with diff.py (the result lands in PERF_OUT, under
## the git-ignored benchmarks/perf/out/ unless overridden)
BASE ?= benchmarks/perf/results/baseline.json
PERF_OUT ?= benchmarks/perf/out/perf-diff.json
perf-diff:
	$(PYTHON) benchmarks/perf/run.py --repeats 3 --out $(PERF_OUT)
	$(PYTHON) benchmarks/perf/diff.py $(BASE) $(PERF_OUT)

## docs-rot check only (links, paths, dotted names, doctests)
docs-check:
	$(PYTHON) -m pytest tests/test_docs.py -q

## lint with the committed configuration (needs ruff installed)
lint:
	ruff check .

## repo-specific static checks: the custom AST rules always, mypy strict
## frontier when mypy is installed (CI always has it; see pyproject.toml)
lint-static:
	$(PYTHON) tools/repro_lint.py
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping the typed-API check"; \
	fi

## netlist/fault-list ERC over the example circuits (the CI lint step)
lint-examples:
	set -e; for netlist in examples/netlists/*.cir; do \
		$(PYTHON) -m repro.anafault lint $$netlist; \
	done
	$(PYTHON) -m repro.anafault lint examples/netlists/vco.cir \
		examples/netlists/vco.lift

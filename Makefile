# Entry points shared by developers and CI (.github/workflows/ci.yml).
# The package runs straight from src/ -- no build step, PYTHONPATH does
# the wiring.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test bench bench-smoke examples perf-smoke perf-diff perf-ab record-identity docs-check lint lint-static lint-examples

## tier-1 test suite (the gate every change must keep green)
test:
	$(PYTHON) -m pytest -x -q

## full benchmark/figure regeneration (minutes; rewrites benchmarks/results/)
bench:
	$(PYTHON) -m pytest benchmarks/ -q

## CI smoke pass over every benchmark (shrunk workloads, same pipeline)
bench-smoke:
	BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/ -q

## run every example script end to end (the VCO campaign on its 6 most
## probable faults; ~10 s)
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/resistor_model_study.py
	$(PYTHON) examples/layout_fault_extraction.py
	$(PYTHON) examples/vco_fault_campaign.py --faults 6

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

## paired A/B of one perf workload: git revision BASE (extracted with git
## archive) against the working tree, PAIRS pairs of run.py --repeats 1,
## order alternating; prints both medians and quartiles and the pairs won
## (give BASE=<rev>, e.g. make perf-ab BASE=main WORKLOAD=fig3_nominal)
WORKLOAD ?= fig3_nominal
PAIRS ?= 10
perf-ab:
	$(PYTHON) tools/perf_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

## record identity: every case of CASES (ci: the 24 most probable faults,
## full: all 99, plus fig. 3 transients and the VCO's layout, extracted
## netlist, LVS and fault lists) built on git revision BASE, extracted with
## git archive, and on the working tree; fails naming each case and field
## that differs (give BASE=<rev>, e.g. BASE=main)
CASES ?= ci
record-identity:
	$(PYTHON) tools/record_identity.py check --base $(BASE) --cases $(CASES)

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

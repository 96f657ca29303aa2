# Developer entry points.  Everything assumes the in-tree layout
# (PYTHONPATH=src); `make lint` is the same gate CI's static-analysis
# job runs, minus --require-all so missing optional tools skip locally.
# `make bench` and `make bench-smoke` run the repo's one benchmark, the
# command BENCHMARK.json declares (benchmarks/e2e/README.md says what
# its numbers mean; compare two result sets with benchmarks/e2e/compare.py).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-strict bench bench-smoke

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.devtools.check

lint-strict:
	$(PYTHON) -m repro.devtools.check --require-all

# All five workloads on seed 7, end-to-end and per-layer metrics; the
# result set lands in the harness's own git-ignored scratch directory.
bench:
	$(PYTHON) benchmarks/e2e/run.py --out benchmarks/e2e/out/bench.json

# The sub-second inputs benchmarks/e2e/test_e2e_smoke.py drives: proves
# every workload still runs and checks out, measures nothing.
bench-smoke:
	$(PYTHON) benchmarks/e2e/run.py --scale tiny --seconds 0.2

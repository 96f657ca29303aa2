# Developer entry points.  Everything assumes the in-tree layout
# (PYTHONPATH=src); `make lint` is the same gate CI's static-analysis
# job runs, minus --require-all so missing optional tools skip locally.
# `make bench` and `make bench-smoke` run the repo's one benchmark, the
# command BENCHMARK.json declares (benchmarks/e2e/README.md says what
# its numbers mean; compare two result sets with benchmarks/e2e/compare.py).
# `make bench-pair` is how a performance claim is made: interleaved
# parent/change runs of one workload, then compare.py over the two sets.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-strict bench bench-smoke bench-pair

test:
	$(PYTHON) -m pytest -x -q --durations=20

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

# make bench-pair PARENT=<ref> WORKLOAD=<name>
# Ten interleaved pairs of PARENT (a `git archive` export under the
# git-ignored out/) against the working tree, the settings the driver uses
# (--seconds 12 --trace 0), alternating which side runs first so drift
# on a shared host lands on both; compare.py then judges the two sets.
PAIR_SEEDS ?= 7 8 9 10 11 12 13 14 15 16
PAIR_DIR := benchmarks/e2e/out/pair

# Folds the per-seed files into the two result sets compare.py reads,
# prints each pair on every end-to-end metric BENCHMARK.json declares,
# and counts the pairs the change won on each, in the direction that
# metric's `better` gives: the claim rule counts pairs won and the gate
# rejects a regression on any of them.
define PAIR_MERGE
import json, sys
out, seeds = sys.argv[1], sys.argv[2:]
sets = {"parent": [], "change": []}
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
wins = {metric["name"]: 0 for metric in metrics}
for seed in seeds:
    pair = {}
    for side, runs in sets.items():
        (run,) = json.load(open(f"{out}/{side}-{seed}.json"))["runs"]
        runs.append(run)
        pair[side] = [run["metrics"][name] for name in wins]
    for metric, parent, change in zip(metrics, pair["parent"], pair["change"]):
        higher = metric["better"] == "higher"
        wins[metric["name"]] += change > parent if higher else change < parent
    print(f"seed {seed}: " + "  ".join(
        f"{name} {parent:,.6g} -> {change:,.6g}"
        for name, parent, change in zip(wins, pair["parent"], pair["change"])
    ))
for metric in metrics:
    print(
        f"change ahead on {metric['name']} ({metric['better']} is better) "
        f"in {wins[metric['name']]} of {len(seeds)} pairs"
    )
for side, runs in sets.items():
    json.dump({"runs": runs}, open(f"{out}/{side}.json", "w"))
endef
export PAIR_MERGE

bench-pair:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || \
		{ echo "usage: make bench-pair PARENT=<ref> WORKLOAD=<name>"; exit 2; }
	rm -rf $(PAIR_DIR) && mkdir -p $(PAIR_DIR)/parent
	git archive $(PARENT) | tar -x -C $(PAIR_DIR)/parent
	@first=parent; second=change; \
	for seed in $(PAIR_SEEDS); do \
		for side in $$first $$second; do \
			if [ $$side = parent ]; then root=$(PAIR_DIR)/parent; else root=.; fi; \
			echo "== seed $$seed: $$side"; \
			(cd $$root && $(PYTHON) benchmarks/e2e/run.py --workload $(WORKLOAD) \
				--seed $$seed --seconds 12 --trace 0 \
				--out $(CURDIR)/$(PAIR_DIR)/$$side-$$seed.json) || exit 1; \
		done; \
		swap=$$first; first=$$second; second=$$swap; \
	done
	@$(PYTHON) -c "$$PAIR_MERGE" $(PAIR_DIR) $(PAIR_SEEDS)
	rm -rf $(PAIR_DIR)/parent
	$(PYTHON) benchmarks/e2e/compare.py $(PAIR_DIR)/parent.json $(PAIR_DIR)/change.json

# Developer entry points for the BioNav reproduction.

PYTHON ?= python

.PHONY: install test lint analyze analyze-sarif baseline bench bench-tables bench-smoke serve-bench bench-serving cluster-bench cluster-bench-smoke substrate-build bench-substrate bench-substrate-smoke bench-coldpath bench-coldpath-smoke examples docs demo clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) tools/lint.py

# Full static-analysis gate: lint rules, the repo-specific semantic
# rules, and the interprocedural packs (key-determinism taint,
# lock-chain, substrate-immutability) over the whole-program call graph.
# Fails on any finding not recorded in tools/analyzer/baseline.json, on
# baseline growth vs HEAD, or when the run blows the wall-time budget.
analyze:
	$(PYTHON) -m tools.analyzer --max-seconds 15

# Regenerate the committed analyzer baseline (records current findings
# so `make analyze` only fails on NEW ones; keep it empty if possible).
# Refuses to grandfather interprocedural findings — pass
# FORCE=--force explicitly if you really mean it.
baseline:
	$(PYTHON) -m tools.analyzer --write-baseline $(FORCE)

# SARIF export of the gate (for GitHub code scanning upload).
analyze-sarif:
	$(PYTHON) -m tools.analyzer --format sarif --output analyzer.sarif

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Fast benchmark subset for CI: the Figure 10 heuristic-latency curve, the
# opt-engine speedup gate (writes BENCH_opt_engine.json), the staged
# pipeline's cache-hit gate (writes BENCH_pipeline.json), the EXPAND
# hot-path gate — warm serving p99 and zero new cut misses (writes
# BENCH_expand_hotpath.json) — and the cold-path identity smoke
# (array-native tree bit-identical to the dict oracle on both backends;
# first EXPAND identical to the tests/oracles partition path).
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_fig10_heuristic_time.py benchmarks/bench_opt_engine.py benchmarks/bench_pipeline.py benchmarks/bench_expand_hotpath.py -q
	COLDPATH_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_coldpath.py -q

# Serving-runtime load smoke for CI: reduced client fleet, asserts the
# no-shed / no-lost-session invariants (skips the throughput gate).
serve-bench:
	SERVE_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_serving.py -q

# Full serving load bench: gates 1 -> 4 worker throughput scaling and
# rewrites BENCH_serving.json (including the ungated CPU-bound rows that
# record the single-process GIL ceiling).
bench-serving:
	$(PYTHON) -m pytest benchmarks/bench_serving.py -q

# Multiprocess cluster load smoke for CI: reduced 2-worker fleet,
# asserts the no-shed / no-lost-session / cross-worker-L2 invariants
# (skips the throughput gate).
cluster-bench-smoke:
	CLUSTER_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_cluster.py -q

# Full cluster load bench: measures 1 -> 4 process CPU-bound throughput
# scaling and rewrites BENCH_cluster.json; the >= 2.5x gate is enforced
# on machines with >= 4 cores.
cluster-bench:
	$(PYTHON) -m pytest benchmarks/bench_cluster.py -q

# Offline substrate build: 1M synthetic citations over the paper-scale
# (~48k concept) MeSH preset into build/substrate, printing the manifest
# digest and the build's own peak RSS.
substrate-build:
	$(PYTHON) -m repro.substrate.build --out build/substrate --citations 1000000

# Full substrate bench: two 1M-citation builds (same-seed digest gate),
# RSS-vs-disk ceiling, cold boolean-AND + navigation-tree latency;
# rewrites BENCH_substrate.json.
bench-substrate:
	$(PYTHON) -m pytest benchmarks/bench_substrate.py -q

# Substrate bench smoke for CI: same gates at 20k citations over a 2k
# hierarchy (does not rewrite the JSON).
bench-substrate-smoke:
	SUBSTRATE_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_substrate.py -q

# Full cold-path bench: one 1M-citation build, then legacy vs
# array-native hierarchy open / boolean-AND / navigation-tree build on
# the same directory, plus the first EXPAND (array vs tests/oracles
# partition, identity-gated, timed); gates the >=4x combined and >=10x
# hierarchy-open speedups and rewrites BENCH_coldpath.json.
bench-coldpath:
	$(PYTHON) -m pytest benchmarks/bench_coldpath.py -q

# Cold-path smoke for CI: identity gates only (tree, costs, first
# EXPAND), at 20k citations.
bench-coldpath-smoke:
	COLDPATH_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_coldpath.py -q

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran"

docs:
	$(PYTHON) tools/gen_api_docs.py

demo:
	$(PYTHON) -m repro.cli demo

clean:
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +

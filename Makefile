PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-baseline test chaos bench bench-smoke bench-record bench-ab recovery obs-demo sloc sloc-diff

# Byte-compile (catches syntax errors), then the repo's own AST linter:
# determinism / sim-time / aliasing / pyflakes-subset / metric-hygiene
# rules (catalog: docs/LINTS.md).  Fails on any error-severity finding
# that is neither `# repro: noqa[...]`-suppressed nor baselined.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	$(PYTHON) -m repro.analysis src tests benchmarks examples

# Deliberately re-grandfather the current findings.  Only for tree-wide
# sweeps (e.g. after adding a rule); new code should be fixed, not
# baselined.
lint-baseline:
	$(PYTHON) -m repro.analysis src tests benchmarks examples --update-baseline

# Tier-1: fast default suite (chaos-marked sweeps excluded via addopts).
test: lint
	$(PYTHON) -m pytest -x -q

# Extended seeded chaos/invariant-audit sweeps (slow, opt-in).
chaos:
	$(PYTHON) -m pytest -m chaos

bench:
	$(PYTHON) -m pytest benchmarks -q

# CI-sized pass over the substrate micro-benchmarks, the pipelined PBFT
# sweep, the cold-start recovery comparison, the explorer index-vs-scan
# equivalence, and the cascade-engine curve: REPRO_BENCH_SMOKE=1 shrinks
# the crypto benches, the pipeline workload, the synthetic chains, and
# the cascade worlds so the hot paths (depth > 1 consensus, snapshot+tail
# recovery, index-path queries, vectorized frontier rounds + the scalar
# oracle equivalence check) are exercised on every push without the
# statistical assertions (which need quiet hardware), the 10x explorer
# p95 gate (which needs the 100k chain), or the 20x cascade gate (which
# needs the 100k world).  The untraced end-to-end smoke run adds the five
# workloads' correctness gates (index vs. scan, the same trace/author from
# every peer's ledger, receipts on every peer, the recovery audit) — the
# checks that guard the shared commit path.  The traced external_screening
# run is the one workload the ingest path dominates: it checks that
# corpus.minhash_calls_per_article and provenance.candidates_scanned_per_call
# repeat exactly and that at most 10 % of the wall is unattributed; the
# traced newsroom_publish run asks the same of the grouped publish path
# (txs per block, messages and signatures per tx repeat exactly).  A1 adds
# the discovery recall gates and, on a 5k-article index, that the signature
# matrix answers every query exactly as the per-article scan does.
bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_micro_substrate.py \
		benchmarks/bench_a1_provenance.py \
		benchmarks/bench_pipeline.py \
		benchmarks/bench_recovery.py::test_cold_start_recovery \
		benchmarks/bench_explorer.py \
		benchmarks/bench_cascade.py \
		benchmarks/e2e/test_e2e_smoke.py::test_untraced_smoke_run \
		"benchmarks/e2e/test_e2e_smoke.py::test_traced_smoke_run[external_screening]" \
		"benchmarks/e2e/test_e2e_smoke.py::test_traced_smoke_run[newsroom_publish]" \
		-q --benchmark-disable

# The perf trajectory (ROADMAP aim 1): `make bench-record PR=<n>` runs the
# end-to-end benchmark full size, every workload untraced then traced, and
# writes the record to BENCH_<n>.json at the repo root (~6 min).
bench-record:
	$(PYTHON) tools/bench_record.py $(PR)

# The pairs behind a claim: `make bench-ab PARENT=<ref> W=<workload> PAIRS=<n>`
# runs that workload untraced, alternately in a `git archive` of PARENT
# (unpacked under $TMPDIR) and in this tree, prints every pair, then each
# side's median and quartiles and the pairs the change won, per end-to-end
# metric.  SEED=<s> picks the seed (default 0); PR=<n> also writes the
# result under the `ab` key of BENCH_<n>.json (about 12 s a pair).
PAIRS ?= 10
SEED ?= 0
bench-ab:
	$(PYTHON) tools/bench_ab.py --parent $(PARENT) --workload $(W) --pairs $(PAIRS) \
		--seed $(SEED) $(if $(PR),--pr $(PR))

# Crash-recovery: deep catch-up tests, the storage-engine suites
# (parametrized over the durable and sqlite backends, including the
# seeded disk-fault chaos sweep over both), and the recovery benchmarks
# (write benchmarks/latest_recovery.json).
recovery:
	$(PYTHON) -m pytest tests/chain/test_sync_recovery.py tests/chain/test_store.py \
		tests/chain/test_sqlite_store.py tests/chain/test_store_recovery.py \
		benchmarks/bench_recovery.py -q
	$(PYTHON) -m pytest tests/chain/test_store_recovery.py -q -m chaos

# Traced end-to-end demo: runs a small PBFT workload with a crash/restart,
# writes benchmarks/latest_trace.jsonl, and prints the per-phase report.
obs-demo:
	$(PYTHON) -m repro.cli report --demo --trace benchmarks/latest_trace.jsonl

# Code lines per package under src/ (not blank, not comment-only, not
# docstring): the count ROADMAP aim 2's "less code" gate compares.
sloc:
	$(PYTHON) tools/sloc.py src

# The same count against a git ref, per package: `make sloc-diff BASE=<ref>`
# (old files are read with `git show`; the delta a `simplicity` review asks for).
BASE ?= HEAD
sloc-diff:
	$(PYTHON) tools/sloc.py src --against $(BASE)

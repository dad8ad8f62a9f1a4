# Development entry points.  Everything runs from a bare checkout: src/ is
# put on sys.path by conftest.py (tests) or PYTHONPATH (direct invocations),
# so no editable install is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-slow bench-smoke bench-json bench-check backend-check event-check csr-check scenarios-check store-check docs-check docs-api docs-api-check campaigns-check asymptotics-check

## Tier-1 test suite (unit + property + integration).  Tests marked `slow`
## (the large batch-vs-scalar equivalence sweeps) are skipped here.  The
## second invocation is the doctest lane: the docstring examples on the
## declarative layers (ScenarioSpec, ResultStore, the campaign classes) are
## executable documentation and run under --doctest-modules.
test:
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest --doctest-modules -q \
		src/repro/backends/__init__.py \
		src/repro/scenarios/spec.py src/repro/scenarios/registry.py \
		src/repro/scenarios/sweeps.py \
		src/repro/store/result_store.py src/repro/analysis/tables.py \
		src/repro/campaigns

## Everything, including the slow-marked equivalence sweeps.
test-slow:
	$(PYTHON) -m pytest -x -q --run-slow

## Scaled-down benchmark pass: proves the harness and both batch fast paths
## (uniform AG and TAG) work without paying full benchmark sizes.  The
## speedup floors are lowered to match the smoke sizes; the full-size floors
## are asserted by `make bench-json`.  The full reproduction is
## `pytest benchmarks/<script> --benchmark-only` per script.
bench-smoke:
	REPRO_BENCH_BATCH_N=32 REPRO_BENCH_BATCH_TRIALS=8 REPRO_BENCH_BATCH_MIN_SPEEDUP=2 \
		$(PYTHON) -m pytest benchmarks/bench_batch_core.py --benchmark-only -q
	REPRO_BENCH_TAG_N=32 REPRO_BENCH_TAG_TRIALS=8 REPRO_BENCH_TAG_MIN_SPEEDUP=2 \
		$(PYTHON) -m pytest benchmarks/bench_batch_tag.py --benchmark-only -q
	$(PYTHON) -m repro experiment E1-uniform-ag --trials 2

## Full-size perf benchmarks with machine-readable results: asserts the >=5x
## speedup floors at n=128 and writes benchmarks/output/BENCH_*.json
## (timings, speedup, workload, git rev) for cross-revision tracking.
bench-json:
	$(PYTHON) -m pytest benchmarks/bench_batch_core.py benchmarks/bench_batch_tag.py \
		benchmarks/bench_backend_gf2.py benchmarks/bench_event_engine.py \
		--benchmark-only -q
	@ls -l benchmarks/output/BENCH_*.json

## Perf-trajectory guard: fails if any committed BENCH_*.json record's batch
## speedup sits below its asserted floor (or if no records exist at all).
bench-check:
	$(PYTHON) benchmarks/check_regression.py

## Compute-backend contract: the full conformance suite (every registered
## backend vs the numpy reference — kernels, eliminator traces, end-to-end
## scenario equivalence, typed q!=2 refusal, store invariance) plus a
## scaled-down run of the GF(2) backend benchmark proving gf2bit is faster
## *and* bit-identical on the all-to-all workload.  The full-size >=5x floor
## is asserted by `make bench-json` / the committed BENCH record.
backend-check:
	$(PYTHON) -m pytest tests/test_backend_conformance.py -q
	REPRO_BENCH_GF2_N=48 REPRO_BENCH_GF2_TRIALS=4 REPRO_BENCH_GF2_MIN_SPEEDUP=2 \
		$(PYTHON) -m pytest benchmarks/bench_backend_gf2.py --benchmark-only -q

## Event-driven engine contract: the full equivalence/refusal/dispatch suite
## (event vs scalar bit-identity over both time models, churn, rates, loss;
## single-problem eliminator fast paths; typed EngineError refusals), the
## block-draw reader's conformance with numpy's own draws, plus a
## scaled-down run of the crossover benchmark proving the event engine is
## faster than the lockstep batch engine *and* bit-identical to it.  The
## full-size >=1.5x floor at n=4096 is asserted by `make bench-json` / the
## committed BENCH record.
event-check:
	$(PYTHON) -m pytest tests/test_event_engine.py tests/test_rng_draws.py -q
	REPRO_BENCH_EVENT_MAX_N=512 REPRO_BENCH_EVENT_TRIALS=2 REPRO_BENCH_EVENT_MIN_SPEEDUP=1.2 \
		$(PYTHON) -m pytest benchmarks/bench_event_engine.py --benchmark-only -q

## Graph-free CSR pipeline contract: the builder equivalence matrix (every
## direct-CSR generator byte-identical to csr_adjacency of its networkx
## reference), pipeline bit-identity (materialize_csr == materialize, field
## for field), the typed refusals, plus a scaled-down run of the pipeline
## crossover benchmark.  At smoke sizes the RSS ratio tends to 1 (the
## interpreter baseline dominates), so both floors are lowered; the >=5x /
## >=2x full-size floors live in the committed BENCH_E13 record, guarded by
## `make bench-check`.
csr-check:
	$(PYTHON) -m pytest tests/test_csr_pipeline.py -q
	REPRO_BENCH_CSR_N=2048 REPRO_BENCH_CSR_TRIALS=2 \
	REPRO_BENCH_CSR_MIN_SPEEDUP=1.5 REPRO_BENCH_CSR_MIN_RSS_REDUCTION=0.9 \
		$(PYTHON) -m pytest benchmarks/bench_csr_pipeline.py --benchmark-only -q

## Scenario-registry health check: materialise and smoke-run (1 trial) every
## registered scenario through the CLI.
scenarios-check:
	$(PYTHON) -m repro scenario check

## Result-store guarantees: shard integrity / concurrency semantics and the
## resume contract (a sweep interrupted mid-way and resumed from its store is
## bit-identical to an uninterrupted run; a fully cached rerun computes
## nothing and is >= 10x faster than the cold run).
store-check:
	$(PYTHON) -m pytest tests/test_store.py tests/test_store_resume.py -q

## Documentation drift check: executes every fenced Python block in
## README.md and the quickstart example they mirror.
docs-check:
	$(PYTHON) -m pytest tests/test_docs.py -q

## Regenerate the Markdown API reference (docs/api/) for the public
## repro.scenarios / repro.store / repro.campaigns surfaces.
docs-api:
	$(PYTHON) tools/gen_api_docs.py

## Fail if docs/api/ drifted from the code (CI runs this via campaigns-check).
docs-api-check:
	$(PYTHON) tools/gen_api_docs.py --check

## Campaign-layer health check: a smoke-size built-in campaign end-to-end
## through a scratch store (cold run computes, immediate rerun must be fully
## cached), both report formats rendered, and the API-reference drift check.
campaigns-check:
	rm -rf benchmarks/output/campaigns-check
	$(PYTHON) -m repro campaign run table1 --trials 1 \
		--store benchmarks/output/campaigns-check/store \
		--report-dir benchmarks/output/campaigns-check/report
	$(PYTHON) -m repro campaign run table1 --trials 1 \
		--store benchmarks/output/campaigns-check/store \
		--report-dir benchmarks/output/campaigns-check/report \
		| grep -q "0 newly computed"
	test -s benchmarks/output/campaigns-check/report/report.md
	test -s benchmarks/output/campaigns-check/report/report.html
	$(PYTHON) -m repro campaign report table1 --trials 1 \
		--store benchmarks/output/campaigns-check/store \
		--report-dir benchmarks/output/campaigns-check/report-offline \
		--format md > /dev/null
	$(PYTHON) tools/gen_api_docs.py --check

## Asymptotics-campaign health check: a smoke-size decade sweep end-to-end
## through a scratch store (cold run computes, immediate rerun must be fully
## cached), both report formats rendered, plus a scaled-down run of the
## streaming-summary benchmark.  At smoke sizes the record-bytes
## ratio shrinks with n (full records carry n completion-round entries), so
## the bytes floor is lowered; the full-size >=50x floor lives in the
## committed BENCH_E14 record, guarded by `make bench-check`.
asymptotics-check:
	rm -rf benchmarks/output/asymptotics-check
	$(PYTHON) -m repro campaign run asymptotics --min-n 160 --max-n 1600 --trials 2 \
		--store benchmarks/output/asymptotics-check/store \
		--report-dir benchmarks/output/asymptotics-check/report
	$(PYTHON) -m repro campaign run asymptotics --min-n 160 --max-n 1600 --trials 2 \
		--store benchmarks/output/asymptotics-check/store \
		--report-dir benchmarks/output/asymptotics-check/report \
		| grep -q "0 newly computed"
	test -s benchmarks/output/asymptotics-check/report/report.md
	test -s benchmarks/output/asymptotics-check/report/report.html
	REPRO_BENCH_ASY_MIN_N=160 REPRO_BENCH_ASY_MAX_N=1600 REPRO_BENCH_ASY_TRIALS=2 \
	REPRO_BENCH_ASY_MIN_BYTES_RATIO=5 REPRO_BENCH_ASY_MIN_R2=0.5 \
		$(PYTHON) -m pytest benchmarks/bench_asymptotics.py --benchmark-only -q

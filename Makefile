# Development entry points.  Everything runs from a bare checkout: src/ is
# put on sys.path by conftest.py (tests) or PYTHONPATH (direct invocations),
# so no editable install is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-slow bench-smoke bench-json bench-check backend-check event-check csr-check scenarios-check store-check docs-check docs-api docs-api-check campaigns-check asymptotics-check

## Tier-1 test suite (unit + property + integration).  Tests marked `slow`
## (the long-running sweeps) are skipped here.  The
## second invocation is the doctest lane: the docstring examples on the
## declarative layers (ScenarioSpec, ResultStore, the campaign classes) are
## executable documentation and run under --doctest-modules.
test:
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest --doctest-modules -q \
		src/repro/backends/rows.py \
		src/repro/scenarios/spec.py src/repro/scenarios/registry.py \
		src/repro/scenarios/sweeps.py \
		src/repro/store/result_store.py src/repro/analysis/tables.py \
		src/repro/campaigns

## Everything, including the slow-marked equivalence sweeps.
test-slow:
	$(PYTHON) -m pytest -x -q --run-slow

## Scaled-down benchmark pass: proves the harness and the event engine's
## bit-identity with the scalar engine, for uniform AG (E9) and TAG (E10),
## without paying full benchmark sizes (smoke sizes write no BENCH record).
## The last steps run the `bounds`
## campaign (measured stopping times next to the paper's bounds) at 2 trials
## into a scratch store, check that an immediate rerun is fully cached, and
## that the report carries the Theorem 1 ratio column.  The full
## reproduction is `pytest benchmarks/<script> --benchmark-only` per script.
bench-smoke:
	REPRO_BENCH_BATCH_N=32 REPRO_BENCH_BATCH_TRIALS=8 \
		$(PYTHON) -m pytest benchmarks/bench_batch_core.py --benchmark-only -q
	REPRO_BENCH_TAG_N=32 REPRO_BENCH_TAG_TRIALS=8 \
		$(PYTHON) -m pytest benchmarks/bench_batch_tag.py --benchmark-only -q
	rm -rf benchmarks/output/bounds-smoke
	$(PYTHON) -m repro campaign run bounds --trials 2 \
		--store benchmarks/output/bounds-smoke/store \
		--report-dir benchmarks/output/bounds-smoke/report
	$(PYTHON) -m repro campaign run bounds --trials 2 \
		--store benchmarks/output/bounds-smoke/store \
		--report-dir benchmarks/output/bounds-smoke/report \
		> benchmarks/output/bounds-smoke/rerun.log
	grep -q "0 newly computed" benchmarks/output/bounds-smoke/rerun.log
	grep -q "ratio(theorem1)" benchmarks/output/bounds-smoke/report/report.md

## Full-size perf benchmarks with machine-readable results: asserts event vs
## scalar bit-identity at n=128 (E9 uniform AG, E10 TAG) and writes
## benchmarks/output/BENCH_*.json (timings, the event side's absolute
## trial_s / timeslot_us, workload, git rev) for cross-revision tracking;
## the committed values move to `previous`, which `make bench-check` gates.
bench-json:
	$(PYTHON) -m pytest benchmarks/bench_batch_core.py benchmarks/bench_batch_tag.py \
		--benchmark-only -q
	@ls -l benchmarks/output/BENCH_*.json

## Perf-trajectory guard: fails if any committed ratio record (E13, E14)
## sits below its asserted floor, if any record with absolute metrics (E9,
## E10 and the repository-benchmark BENCH_perf-<workload>.json) exceeds its
## previous value by more than the BENCHMARK.json bound, or if no records
## exist at all.
bench-check:
	$(PYTHON) benchmarks/check_regression.py

## RowEliminator and the RLNC decoder vs the one-shot row_reduce oracle: the
## conformance suite (generated RowEliminator traces with resets, encodes and
## augmented [C | C·X] problems over prime, binary-extension and
## odd-extension fields, each step held to row_reduce of the absorbed rows;
## row_reduce / rank / is_in_row_space against the incremental eliminator;
## typed BackendError / FieldError refusals) and the scalar decoder built on
## it.  Whole runs on the two engines are held to each other by event-check.
backend-check:
	$(PYTHON) -m pytest tests/test_backend_conformance.py tests/test_rlnc_decoder.py -q

## Event-driven engine contract: the full equivalence/refusal/dispatch suite
## for uniform AG (event vs scalar bit-identity over both time models,
## churn, rates, loss; eliminator reset; typed EngineError refusals), the generated equivalence for uniform AG, for TAG
## over the four spanning trees and for those trees run standalone, uniform
## AG and TAG trials that build no decoder on the event engine, the
## round-end hook against ProgressRecorder on the scalar engine, the engine rule
## (`select_engine`, single runs included), a `full-paper` campaign that
## never calls the scalar engine, and the block-draw reader's conformance
## with numpy's own draws.  Its absolute speed is the repository
## benchmark's `sparse-event` record, guarded by `make bench-check`.
event-check:
	$(PYTHON) -m pytest tests/test_event_engine.py tests/test_tag_event_engine.py \
		tests/test_rng_draws.py \
		tests/test_experiments_parallel.py::TestAutoEngineRule \
		tests/test_campaigns.py::TestFullPaperRunsOnlyOnTheEventEngine -q

## One-graph-type contract: generated builder conformance (every family's
## direct CSR build byte-identical to CSRGraph.from_networkx of its networkx
## oracle in tests/nx_topologies.py, same TopologyError text on invalid
## input), the CSRGraph container, the event engine replaying the scalar one
## on the process the same factory builds (loss, actions, placements, a user
## factory pinned to the event engine), plus a scaled-down run of the
## direct-build vs networkx-built benchmark.  At smoke sizes the RSS ratio
## tends to 1 (the interpreter baseline dominates), so both floors are
## lowered; the >=5x / >=2x full-size floors live in the committed BENCH_E13
## record, guarded by `make bench-check`.
csr-check:
	$(PYTHON) -m pytest tests/test_csr_pipeline.py -q
	REPRO_BENCH_CSR_N=2048 REPRO_BENCH_CSR_TRIALS=2 \
	REPRO_BENCH_CSR_MIN_SPEEDUP=1.5 REPRO_BENCH_CSR_MIN_RSS_REDUCTION=0.9 \
		$(PYTHON) -m pytest benchmarks/bench_csr_pipeline.py --benchmark-only -q

## Scenario-registry health check: materialise and smoke-run (1 trial) every
## registered scenario through the CLI.
scenarios-check:
	$(PYTHON) -m repro scenario check

## Result-store guarantees: shard integrity / concurrency semantics, the one
## admission rule for full and summary records (same-kind and summary-vs-full
## conflicts raise for put_many, put_summaries and import_file, conflicts
## inside one import file included; a full record serves summary reads), and
## the resume contract (a sweep interrupted mid-way and resumed from its store
## is bit-identical to an uninterrupted run; a fully cached rerun computes
## nothing and is >= 10x faster than the cold run).
store-check:
	$(PYTHON) -m pytest tests/test_store.py tests/test_store_summaries.py \
		tests/test_store_resume.py -q

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

# Developer entry points for the paper reproduction.
#
#   make test              - tier-1 test suite (the driver's gate)
#   make lint              - ruff check + reprolint invariant linter
#                            (+ advisory format check), as in CI
#   make typecheck         - mypy over runtime/ + executor/ (skips with a
#                            notice when mypy is not installed; advisory in CI)
#   make bench-smoke       - one fast benchmark as an end-to-end smoke check
#   make bench-parallel    - process-pool sweep with resume-skip assertion, as in CI
#   make bench-distributed - work-queue sweep with a killed worker, lease
#                            re-queue, resume and shard merge, as in CI
#   make bench-distributed-tcp - the same crash-recovery sweep over the TCP
#                            queue transport: no shared queue/store directory,
#                            HMAC-authenticated frames (REPRO_QUEUE_SECRET)
#   make bench-progress    - fast-cadence progress-telemetry sweep over the
#                            secured TCP transport (snapshot every 0.5 s)
#   make bench-executor    - row vs columnar engine on the full JOB workload;
#                            asserts byte-equivalence and writes the speedup
#                            to BENCH_executor_columnar.json
#   make bench-plan-serving - concurrent clients replaying random SQL against
#                            the keyed PlanServer; asserts byte-identical
#                            plans, a rejected unauthenticated client and the
#                            post-invalidate hit-rate drop, and writes
#                            qps/p50/p95/p99/hit-rate to BENCH_plan_serving.json
#                            (+ BENCH_plan_serving_stats.json server snapshot)
#   make fuzz-engines      - 1000 seeded random queries through the row
#                            engine, the columnar engine and a brute-force
#                            oracle; failing queries land in FUZZ_CORPUS
#   make golden-plans      - re-record tests/golden/plan_digests.json (sha256 of
#                            every pickled JOB/ext-JOB/STACK/random plan under
#                            each hint/config variant) and
#                            plan_digests_job_scale1.json (JOB on the perfbench
#                            database, job_spec(1.0)); only for a change that
#                            alters plans on purpose
#   make golden-searches   - re-record tests/golden/lqo_search_digests.json (plan
#                            encodings, and the plans and scored candidate
#                            matrices of neo/balsa/rtos/leon on a fixed split);
#                            only for a change that alters them on purpose
#   make perfbench         - the repo's layered benchmark (BENCHMARK.json):
#                            every workload, end-to-end + per-layer metrics,
#                            written under .perfbench_out/ (perfbench/README.md)
#   make perfbench-compare A=<dir|result.json> B=<dir|result.json>
#                          - judge change B against parent A by the
#                            BENCHMARK.json bounds
#   make perfbench-pairs A=<rev|dir> B=<rev|dir> W=<workload> [N=5]
#                          - N alternating runs of one workload at parent A and
#                            change B (git revisions, checked out as temporary
#                            worktrees, or checkout directories): per-metric
#                            medians, pairs won and the compare verdict
#   make bench             - every benchmark at reduced scale
#   make docs-check        - markdown link check over README + docs/, as in CI
#   make example           - the parallel+resume runtime demo
#
# Benchmarks honour REPRO_BENCH_SCALE / REPRO_BENCH_FULL / REPRO_BENCH_WORKERS /
# REPRO_BENCH_EXECUTOR / REPRO_BENCH_STORE (see benchmarks/conftest.py).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# Store directory of the bench-parallel resume check (temp dir by default).
BENCH_PARALLEL_STORE ?= $(shell mktemp -d /tmp/repro-store.XXXXXX)

# Sharded store of the bench-distributed crash-recovery check (the merged
# flat store lands next to it at <dir>-merged).
BENCH_DISTRIBUTED_STORE ?= $(shell mktemp -d /tmp/repro-dist.XXXXXX)

# Coordinator-local store of the TCP-transport crash-recovery check (workers
# never see this path: tasks and results travel over the socket).
BENCH_DISTRIBUTED_TCP_STORE ?= $(shell mktemp -d /tmp/repro-dist-tcp.XXXXXX)

# Store of the progress-telemetry sweep (bench-progress).
BENCH_PROGRESS_STORE ?= $(shell mktemp -d /tmp/repro-progress.XXXXXX)

# Failing-query corpus of the differential fuzz run (fuzz-engines); one JSON
# file per diverging query, empty on success.
FUZZ_CORPUS ?= $(shell mktemp -d /tmp/repro-fuzz-corpus.XXXXXX)

# Shared HMAC secret of the authenticated TCP sweeps (override to taste; the
# value only needs to match between coordinator and workers).
REPRO_QUEUE_SECRET ?= local-bench-secret

.PHONY: test lint typecheck docs-check bench-smoke bench-parallel bench-distributed bench-distributed-tcp bench-progress bench-executor bench-plan-serving fuzz-engines golden-plans golden-searches perfbench perfbench-compare perfbench-pairs bench example

test:
	$(PYTHON) -m pytest -x -q --durations=15

lint:
	ruff check .
	$(PYTHON) -m tools.reprolint src
	-ruff format --check .

typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --config-file mypy.ini src/repro/runtime src/repro/executor; \
	else \
		echo "typecheck: mypy not installed, skipping (pip install mypy to enable)"; \
	fi

docs-check:
	$(PYTHON) tools/check_docs_links.py

bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_figure3_splits.py -q

bench-parallel:
	REPRO_BENCH_WORKERS=2 REPRO_BENCH_EXECUTOR=process \
	REPRO_BENCH_STORE=$(BENCH_PARALLEL_STORE) \
	$(PYTHON) examples/parallel_experiments.py

bench-distributed:
	REPRO_BENCH_WORKERS=2 REPRO_BENCH_STORE=$(BENCH_DISTRIBUTED_STORE) \
	$(PYTHON) examples/distributed_sweep.py

bench-distributed-tcp:
	REPRO_BENCH_WORKERS=2 REPRO_BENCH_TRANSPORT=tcp \
	REPRO_QUEUE_SECRET=$(REPRO_QUEUE_SECRET) \
	REPRO_BENCH_STORE=$(BENCH_DISTRIBUTED_TCP_STORE) \
	$(PYTHON) examples/distributed_sweep.py

bench-progress:
	REPRO_BENCH_WORKERS=2 REPRO_BENCH_TRANSPORT=tcp REPRO_BENCH_PROGRESS=0.5 \
	REPRO_QUEUE_SECRET=$(REPRO_QUEUE_SECRET) \
	REPRO_BENCH_STORE=$(BENCH_PROGRESS_STORE) \
	$(PYTHON) examples/distributed_sweep.py

bench-executor:
	$(PYTHON) -m pytest benchmarks/bench_executor_columnar.py -q -s

bench-plan-serving:
	REPRO_QUEUE_SECRET=$(REPRO_QUEUE_SECRET) \
	$(PYTHON) -m pytest benchmarks/bench_plan_serving.py -q -s

fuzz-engines:
	REPRO_FUZZ_COUNT=1000 REPRO_FUZZ_CORPUS=$(FUZZ_CORPUS) \
	$(PYTHON) -m pytest tests/test_fuzz_engines.py -q

golden-plans:
	$(PYTHON) tools/record_plan_digests.py

golden-searches:
	$(PYTHON) tools/record_lqo_digests.py

perfbench:
	$(PYTHON) -m perfbench run

perfbench-compare:
	$(PYTHON) -m perfbench compare $(A) $(B)

N ?= 5
perfbench-pairs:
	$(PYTHON) tools/perfbench_pairs.py $(A) $(B) --workload $(W) --pairs $(N)

bench:
	$(PYTHON) -m pytest benchmarks -q

example:
	$(PYTHON) examples/parallel_experiments.py

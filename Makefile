# Developer entry points for the paper reproduction.
#
#   make test              - tier-1 test suite (the driver's gate)
#   make lint              - ruff check + reprolint invariant linter
#                            (+ advisory format check), as in CI
#   make typecheck         - mypy over runtime/ + executor/ (skips with a
#                            notice when mypy is not installed; advisory in CI)
#   make figures           - every figure and table of the paper at scale 0.35
#                            (python -m repro.experiments): prints each table
#                            and writes rows, summaries and simulated totals
#                            to BENCH_figures.json (host seconds kept apart)
#   make bench-parallel    - serial sweep with resume-skip assertion, as in CI
#   make bench-distributed - TCP work-queue sweep with HMAC-authenticated
#                            frames (REPRO_QUEUE_SECRET), a killed worker,
#                            lease re-queue, progress snapshot, resume and
#                            shard merge; no shared queue/store directory, as in CI
#   make bench-progress    - the same sweep at a fast progress-telemetry
#                            cadence (snapshot every 0.5 s)
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
#   make golden-executions - re-record tests/golden/execution_digests.json (sha256
#                            of the rows, simulated times, metrics, per-node rows
#                            and errors of every JOB/ext-JOB/STACK default plan
#                            run 1 cold + 2 hot, at scales 1.0 and 0.25); only
#                            for a change that alters execution on purpose
#   make golden-searches   - re-record tests/golden/lqo_search_digests.json (plan
#                            encodings, and the plans and scored candidate
#                            matrices of neo/balsa/leon on a fixed split);
#                            only for a change that alters them on purpose
#   make golden-runs       - re-record tests/golden/run_digests.json (sha256 of
#                            every registered method's experiment cell on a
#                            fixed split: its inference, planning and execution
#                            times, timeouts and training accounting); only
#                            for a change that alters the simulated clock on
#                            purpose
#   make golden-check      - only the byte-identity gates: plan, execution,
#                            LQO-search and run digests (a refactor's check
#                            that every recorded byte still holds)
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
#   make bench             - every benchmark (engines, runtime, plan serving)
#   make docs-check        - markdown link check over README + docs/, as in CI
#   make example           - the parallel+resume runtime demo
#
# Benchmarks honour REPRO_BENCH_SCALE / REPRO_BENCH_WORKERS /
# REPRO_BENCH_EXECUTOR / REPRO_BENCH_STORE (see benchmarks/conftest.py).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# Store directory of the bench-parallel resume check (temp dir by default).
BENCH_PARALLEL_STORE ?= $(shell mktemp -d /tmp/repro-store.XXXXXX)

# Coordinator-local sharded store of the bench-distributed crash-recovery
# check (workers never see this path: tasks and results travel over the
# socket; the merged flat store lands next to it at <dir>-merged).
BENCH_DISTRIBUTED_STORE ?= $(shell mktemp -d /tmp/repro-dist.XXXXXX)

# Store of the progress-telemetry sweep (bench-progress).
BENCH_PROGRESS_STORE ?= $(shell mktemp -d /tmp/repro-progress.XXXXXX)

# Failing-query corpus of the differential fuzz run (fuzz-engines); one JSON
# file per diverging query, empty on success.
FUZZ_CORPUS ?= $(shell mktemp -d /tmp/repro-fuzz-corpus.XXXXXX)

# Shared HMAC secret of the authenticated TCP sweeps (override to taste; the
# value only needs to match between coordinator and workers).
REPRO_QUEUE_SECRET ?= local-bench-secret

.PHONY: test lint typecheck docs-check figures bench-parallel bench-distributed bench-progress bench-executor bench-plan-serving fuzz-engines golden-check golden-plans golden-executions golden-searches golden-runs perfbench perfbench-compare perfbench-pairs bench example

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

# BLAS pinned to one thread: the learned models' bytes depend on the thread count.
figures:
	OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
	$(PYTHON) -m repro.experiments --scale 0.35 --out BENCH_figures.json

bench-parallel:
	REPRO_BENCH_STORE=$(BENCH_PARALLEL_STORE) \
	$(PYTHON) examples/parallel_experiments.py

bench-distributed:
	REPRO_BENCH_WORKERS=2 REPRO_BENCH_PROGRESS=1 \
	REPRO_QUEUE_SECRET=$(REPRO_QUEUE_SECRET) \
	REPRO_BENCH_STORE=$(BENCH_DISTRIBUTED_STORE) \
	$(PYTHON) examples/distributed_sweep.py

bench-progress:
	REPRO_BENCH_WORKERS=2 REPRO_BENCH_PROGRESS=0.5 \
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

GOLDEN_GATES = tests/test_optimizer.py::TestGoldenPlans tests/test_execution_digests.py \
	tests/test_search_loop.py tests/test_run_digests.py

golden-check:
	$(PYTHON) -m pytest -q $(GOLDEN_GATES)

golden-plans:
	$(PYTHON) tools/record_plan_digests.py

golden-executions:
	$(PYTHON) tools/record_execution_digests.py

golden-searches:
	$(PYTHON) tools/record_lqo_digests.py

golden-runs:
	$(PYTHON) tools/record_run_digests.py

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

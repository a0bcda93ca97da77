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
#   make bench-distributed - sweep on 2 forked workers fed over their pipes:
#                            a worker killed while it holds a task (its
#                            task is re-queued when its pipe reports EOF),
#                            progress snapshots, resume, shard merge and
#                            byte-equality with serial, as in CI
#   make bench-progress    - the same sweep at a faster progress-telemetry
#                            cadence (snapshot every 5 ms)
#   make fuzz-engines      - 1000 seeded inner-join queries (tests/sqlgen.py)
#                            through the row engine, the columnar engine and a
#                            brute-force oracle; failing queries land in
#                            FUZZ_CORPUS, or in a fresh /tmp/repro-fuzz-corpus.*
#                            made only when one fails
#   make golden-plans      - re-record tests/golden/plan_digests.json (sha256 of
#                            every pickled JOB/ext-JOB/STACK plan under
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
#   make docs-check        - markdown link check over README + docs/, as in CI
#   make example           - the parallel+resume runtime demo
#
# The sweep demos (bench-parallel, bench-distributed, bench-progress, example)
# honour REPRO_BENCH_STORE / REPRO_BENCH_WORKERS / REPRO_BENCH_EXECUTOR /
# REPRO_BENCH_PROGRESS (see examples/).  The bench-* recipes store into
# BENCH_*_STORE when it is set, and keep it; else the example makes a fresh
# /tmp/repro-* directory that a passing run removes again (a failing run
# leaves it).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# Store directories of the bench-parallel resume check, the bench-distributed
# crash-recovery check (coordinator-local and sharded: workers never see it;
# the merged flat store lands next to it at <dir>-merged) and the
# bench-progress sweep.  Empty: a temp directory the example makes itself.
BENCH_PARALLEL_STORE ?=
BENCH_DISTRIBUTED_STORE ?=
BENCH_PROGRESS_STORE ?=

# Failing-query corpus of the differential fuzz run (fuzz-engines); one JSON
# file per diverging query.  Empty: a fresh temp directory, made only when a
# query fails (tests/test_fuzz_engines.py).
FUZZ_CORPUS ?=

.PHONY: test lint typecheck docs-check figures bench-parallel bench-distributed bench-progress fuzz-engines golden-check golden-plans golden-executions golden-searches golden-runs perfbench perfbench-compare perfbench-pairs example

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
	REPRO_BENCH_WORKERS=2 REPRO_BENCH_PROGRESS=0.02 \
	REPRO_BENCH_STORE=$(BENCH_DISTRIBUTED_STORE) \
	$(PYTHON) examples/distributed_sweep.py

bench-progress:
	REPRO_BENCH_WORKERS=2 REPRO_BENCH_PROGRESS=0.005 \
	REPRO_BENCH_STORE=$(BENCH_PROGRESS_STORE) \
	$(PYTHON) examples/distributed_sweep.py

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

example:
	$(PYTHON) examples/parallel_experiments.py

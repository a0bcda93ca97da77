"""Record the golden execution digests checked by ``tests/test_execution_digests.py``.

Every JOB, ext-JOB and STACK query is planned without hints and executed under
the paper's protocol — caches dropped, then one cold and two hot runs through
``ExecutionEngine.runs`` — with the timing model's noise reseeded per query.
It is done on two pairs of databases: ``bench``, the perfbench instances
(``job_spec(1.0)`` / ``stack_spec(1.0)``, where ``prepared_hot_exec`` runs),
and ``test``, the 0.25-scale databases of ``tests/conftest.py``.  The two
scales give the joins different key domains and sizes, so they reach
different join kernels.

A digest is the sha256 of the ``repr`` of:

* the finalized rows,
* every run's ``execution_time_ms``,
* every run's ``OperatorMetrics``,
* ``node_actual_rows`` in plan-walk (pre-order) order,
* every run's ``timed_out`` flag and the evaluation's ``error``.

The file pins executor *output*, not plans, so it is recorded from the parent
commit of any PR that reworks the executor and must not change what it
returns or charges, and re-recorded (``make golden-executions``) only by a PR
that changes execution on purpose::

    PYTHONPATH=src python tools/record_execution_digests.py [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.executor.engine import ExecutionEngine, create_engine
from repro.experiments.common import job_spec, stack_spec
from repro.optimizer.planner import Planner
from repro.plans.physical import PlanNode
from repro.runtime.fingerprint import stable_seed
from repro.sql.binder import BoundQuery
from repro.storage.database import Database
from repro.workloads import build_workload

try:  # ``python tools/record_execution_digests.py`` puts tools/ itself on the path
    from tools.record_plan_digests import IMDB_ARGS, STACK_ARGS, build_databases
except ImportError:  # pragma: no cover - script invocation
    from record_plan_digests import IMDB_ARGS, STACK_ARGS, build_databases

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "execution_digests.json"

#: One cold and two hot runs: the protocol of every figure (§7.3, §8.6).
RUNS = 3

#: ``(workload name, database key)`` in recording order.
WORKLOADS = (("job", "imdb"), ("ext_job", "imdb"), ("stack", "stack"))

#: Scale of the perfbench databases (``prepared_hot_exec``).
BENCH_SCALE = 1.0


def build_bench_databases() -> dict[str, Database]:
    """The IMDB and STACK instances ``prepared_hot_exec`` executes on."""
    return {"imdb": job_spec(BENCH_SCALE).build(), "stack": stack_spec(BENCH_SCALE).build()}


def database_args() -> dict[str, dict[str, dict]]:
    """Section label → the generator arguments of each of its databases."""
    imdb, stack = job_spec(BENCH_SCALE), stack_spec(BENCH_SCALE)
    return {
        "bench": {
            "imdb": {"scale": imdb.scale, "seed": imdb.seed},
            "stack": {"scale": stack.scale, "seed": stack.seed},
        },
        "test": {"imdb": IMDB_ARGS, "stack": STACK_ARGS},
    }


#: Section label → builder of its databases.
BUILDERS = {"bench": build_bench_databases, "test": build_databases}


def execution_digest(engine: ExecutionEngine, query: BoundQuery, plan: PlanNode, key: str) -> str:
    """sha256 over everything the protocol's runs of ``plan`` return (module docstring)."""
    engine.timing.reseed(stable_seed("execution-digest", key))
    runs = engine.runs(query, plan, RUNS)
    engine.database.drop_caches()
    results = []
    for result in runs:
        results.append(result)
        if result.timed_out:
            break
    last = results[-1]
    payload = (
        last.rows,
        [result.execution_time_ms for result in results],
        [sorted(result.metrics.__dict__.items()) for result in results],
        [last.node_actual_rows.get(id(node)) for node in plan.walk()],
        [result.timed_out for result in results],
        last.error,
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def execution_digests(databases: dict[str, Database], kind: str = "columnar") -> dict[str, str]:
    """``{"<workload>/<query id>": digest}`` of every default plan of ``WORKLOADS``."""
    digests: dict[str, str] = {}
    for workload_name, db_key in WORKLOADS:
        database = databases[db_key]
        planner = Planner(database)
        engine = create_engine(database, planner.config, kind=kind)
        for query in build_workload(workload_name, database.schema).queries:
            key = f"{workload_name}/{query.query_id}"
            digests[key] = execution_digest(engine, query.bound, planner.plan(query.bound), key)
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    args_by_label = database_args()
    sections = []
    total = 0
    for label, build in BUILDERS.items():
        digests = execution_digests(build())
        total += len(digests)
        # One query per line, so a re-recording diffs query by query.
        lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(digest)}" for key, digest in digests.items())
        header = json.dumps({"databases": args_by_label[label]})[:-1]
        sections.append(f'{json.dumps(label)}: {header}, "digests": {{\n{lines}\n}}}}')
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(f'{{"runs": {RUNS},\n' + ",\n".join(sections) + "\n}\n", encoding="utf-8")
    print(f"recorded {total} execution digests in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

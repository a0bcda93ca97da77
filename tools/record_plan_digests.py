"""Record the golden plan digests checked by ``tests/test_optimizer.py``.

A digest is ``sha256(pickle.dumps(plan))`` together with the planner's
simulated ``planning_time_ms`` and ``strategy``.  Every JOB, ext-JOB and
STACK query is planned under each variant of :func:`variants`: no hints,
every Bao arm, a forced join order, a leading-prefix hint,
``join_collapse_limit=1`` and ``geqo=off`` — which together reach DP, GEQO,
greedy, forced-order and from-order planning.

A second file pins the JOB plans under the same variants on ``job_spec(1.0)``,
the database perfbench's ``job_cold_path`` and ``serve_miss`` plan on, whose
statistics the 0.25-scale test database never shows the planner.

The files pin plans *bytes*, not just plan shapes, so they are recorded from
the parent commit of any PR that must not change plans, and re-recorded
(``make golden-plans``) only by a PR that changes plans on purpose::

    PYTHONPATH=src python tools/record_plan_digests.py [--out FILE] [--bench-out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import sys
from pathlib import Path
from typing import Iterator

from repro.catalog.imdb import generate_imdb
from repro.catalog.stack import generate_stack
from repro.config import SIMULATION_CONFIG, PostgresConfig
from repro.errors import ReproError
from repro.experiments.common import job_spec
from repro.optimizer.planner import Planner
from repro.plans.hints import BAO_HINT_SETS, NO_HINTS, HintSet
from repro.plans.physical import JoinType
from repro.sql.binder import BoundQuery
from repro.storage.database import Database
from repro.workloads import build_workload

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "plan_digests.json"
BENCH_GOLDEN_PATH = GOLDEN_PATH.with_name("plan_digests_job_scale1.json")

#: Pinned so the digests do not move with the interpreter's default protocol.
PICKLE_PROTOCOL = 4

#: The databases of ``tests/conftest.py`` (``imdb_db`` / ``stack_db``).
IMDB_ARGS = {"scale": 0.25, "seed": 7}
STACK_ARGS = {"scale": 0.25, "seed": 11}

#: ``(workload name, database key)`` in recording order.
WORKLOADS = (("job", "imdb"), ("ext_job", "imdb"), ("stack", "stack"))

#: Scale of the benchmark database (``job_spec``: the JOB drivers' IMDB seed).
BENCH_SCALE = 1.0
BENCH_WORKLOADS = (("job", "imdb"),)


def build_databases() -> dict[str, Database]:
    """The two test databases, built exactly as the session fixtures build them."""
    return {
        "imdb": generate_imdb(config=SIMULATION_CONFIG, **IMDB_ARGS),
        "stack": generate_stack(config=SIMULATION_CONFIG, **STACK_ARGS),
    }


def build_bench_database() -> Database:
    """The IMDB instance of perfbench's ``job_cold_path`` and ``serve_miss``."""
    return job_spec(BENCH_SCALE).build()


def variants(query: BoundQuery) -> Iterator[tuple[str, dict, HintSet]]:
    """``(label, config overrides, hints)`` of every recorded planning variant."""
    yield "no_hints", {}, NO_HINTS
    for arm in BAO_HINT_SETS:
        yield f"bao:{arm.name}", {}, arm
    order = query.aliases[::-1]
    join_methods = {frozenset(order[:2]): JoinType.MERGE} if len(order) > 1 else {}
    yield "forced_order", {}, HintSet.from_join_order(order, join_methods=join_methods)
    yield "leading_prefix", {}, HintSet.from_leading_prefix(query.aliases[-2:])
    yield "join_collapse_limit=1", {"join_collapse_limit": 1}, NO_HINTS
    yield "geqo=off", {"geqo": False}, NO_HINTS


def digest_of(planner: Planner, query: BoundQuery, hints: HintSet) -> list:
    """``[sha256 hex, planning_time_ms, strategy]``, or ``["error", class name]``."""
    try:
        result = planner.plan_with_info(query, hints)
    except ReproError as exc:
        return ["error", type(exc).__name__]
    blob = pickle.dumps(result.plan, protocol=PICKLE_PROTOCOL)
    return [hashlib.sha256(blob).hexdigest(), result.planning_time_ms, result.strategy]


def plan_digests(
    databases: dict[str, Database], workloads: tuple[tuple[str, str], ...] = WORKLOADS
) -> dict[str, dict[str, list]]:
    """``{"<workload>/<query id>": {variant label: digest}}`` over ``workloads``."""
    digests: dict[str, dict[str, list]] = {}
    planners: dict[tuple[str, PostgresConfig], Planner] = {}
    for workload_name, db_key in workloads:
        database = databases[db_key]
        for query in build_workload(workload_name, database.schema).queries:
            entry = digests[f"{workload_name}/{query.query_id}"] = {}
            for label, overrides, hints in variants(query.bound):
                config = database.config.with_overrides(**overrides)
                planner = planners.get((db_key, config))
                if planner is None:
                    planner = planners[db_key, config] = Planner(database, config)
                entry[label] = digest_of(planner, query.bound, hints)
    return digests


def write_digests(path: Path, databases: dict, digests: dict[str, dict[str, list]]) -> None:
    header = {"pickle_protocol": PICKLE_PROTOCOL, "databases": databases}
    # One query per line, so a re-recording diffs query by query.
    lines = [f"{json.dumps(key)}: {json.dumps(entry)}" for key, entry in digests.items()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(header)[:-1] + ', "digests": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8"
    )
    plans = sum(len(entry) for entry in digests.values())
    print(f"recorded {plans} plan digests for {len(digests)} queries in {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    parser.add_argument("--bench-out", type=Path, default=BENCH_GOLDEN_PATH)
    args = parser.parse_args(argv)
    write_digests(
        args.out, {"imdb": IMDB_ARGS, "stack": STACK_ARGS}, plan_digests(build_databases())
    )
    bench = job_spec(BENCH_SCALE)
    write_digests(
        args.bench_out,
        {"imdb": {"scale": bench.scale, "seed": bench.seed}},
        plan_digests({"imdb": build_bench_database()}, BENCH_WORKLOADS),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

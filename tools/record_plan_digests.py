"""Record the golden plan digests checked by ``tests/test_optimizer.py``.

A digest is ``sha256(pickle.dumps(plan))`` together with the planner's
simulated ``planning_time_ms`` and ``strategy``.  Every JOB, ext-JOB, STACK
and ``"random"`` query is planned under each variant of :func:`variants`: no
hints, every Bao arm, a forced join order, a leading-prefix hint,
``join_collapse_limit=1`` and ``geqo=off`` — which together reach DP, GEQO,
greedy, forced-order, from-order and the outer-join fold.

The file pins plans *bytes*, not just plan shapes, so it is recorded from the
parent commit of any PR that must not change plans, and re-recorded
(``make golden-plans``) only by a PR that changes plans on purpose::

    PYTHONPATH=src python tools/record_plan_digests.py [--out FILE]
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
from repro.optimizer.planner import Planner
from repro.plans.hints import BAO_HINT_SETS, NO_HINTS, HintSet
from repro.plans.physical import JoinType
from repro.sql.binder import BoundQuery
from repro.storage.database import Database
from repro.workloads import build_workload

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "plan_digests.json"

#: Pinned so the digests do not move with the interpreter's default protocol.
PICKLE_PROTOCOL = 4

#: The databases of ``tests/conftest.py`` (``imdb_db`` / ``stack_db``).
IMDB_ARGS = {"scale": 0.25, "seed": 7}
STACK_ARGS = {"scale": 0.25, "seed": 11}

#: ``(workload name, database key)`` in recording order.
WORKLOADS = (("job", "imdb"), ("ext_job", "imdb"), ("random", "imdb"), ("stack", "stack"))


def build_databases() -> dict[str, Database]:
    """The two test databases, built exactly as the session fixtures build them."""
    return {
        "imdb": generate_imdb(config=SIMULATION_CONFIG, **IMDB_ARGS),
        "stack": generate_stack(config=SIMULATION_CONFIG, **STACK_ARGS),
    }


def variants(query: BoundQuery) -> Iterator[tuple[str, dict, HintSet]]:
    """``(label, config overrides, hints)`` of every recorded planning variant."""
    yield "no_hints", {}, NO_HINTS
    for arm in BAO_HINT_SETS:
        yield f"bao:{arm.name}", {}, arm
    # Outer-join aliases may only trail the core, in syntax order.
    core = list(query.core_aliases)
    order = core[::-1] + [edge.nullable_alias for edge in query.outer_edges]
    join_methods = {frozenset(order[:2]): JoinType.MERGE} if len(order) > 1 else {}
    yield "forced_order", {}, HintSet.from_join_order(order, join_methods=join_methods)
    yield "leading_prefix", {}, HintSet.from_leading_prefix(core[-2:])
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


def plan_digests(databases: dict[str, Database]) -> dict[str, dict[str, list]]:
    """``{"<workload>/<query id>": {variant label: digest}}`` over all four workloads."""
    digests: dict[str, dict[str, list]] = {}
    planners: dict[tuple[str, PostgresConfig], Planner] = {}
    for workload_name, db_key in WORKLOADS:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    digests = plan_digests(build_databases())
    header = {"pickle_protocol": PICKLE_PROTOCOL, "databases": {"imdb": IMDB_ARGS, "stack": STACK_ARGS}}
    # One query per line, so a re-recording diffs query by query.
    lines = [f"{json.dumps(key)}: {json.dumps(entry)}" for key, entry in digests.items()]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(header)[:-1] + ', "digests": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8"
    )
    plans = sum(len(entry) for entry in digests.values())
    print(f"recorded {plans} plan digests for {len(digests)} queries in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

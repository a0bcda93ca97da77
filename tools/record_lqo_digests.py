"""Record the golden LQO search digests checked by ``tests/test_search_loop.py``.

Two things are pinned byte for byte, on the test database of
``tests/conftest.py`` (``imdb_db``) and one ``LQOEnvironment(seed=0)``:

* ``encodings`` — for the plan encoder (``tree_conv``), a sha256 over
  ``plan_vector`` of every JOB plan under each planner variant of
  ``tools/record_plan_digests.py``;
* ``searches`` — per searching method (neo, balsa, leon) trained on a
  fixed split: the sha256 of every test query's pickled plan, and one sha256
  over every candidate matrix its model scored while planning them.

The file is recorded from the **parent** commit of any PR that reworks the
search loop or the encoders and must leave them byte-identical — it reads
nothing but public API (``create_optimizer``/``fit``/``plan_query``,
``plan_vector``, ``MLPRegressor.predict``, ``PairwiseRanker.score``) — and
re-recorded only by a PR that changes searched plans on purpose::

    PYTHONPATH=src python tools/record_lqo_digests.py [--out FILE] [--only METHOD ...]

``--only`` re-records the named methods and keeps the rest of the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.catalog.imdb import generate_imdb
from repro.config import SIMULATION_CONFIG
from repro.errors import ReproError
from repro.lqo import create_optimizer
from repro.lqo.base import LQOEnvironment
from repro.ml.nn import MLPRegressor, PairwiseRanker
from repro.optimizer.planner import Planner
from repro.plans.physical import PlanNode
from repro.storage.database import Database
from repro.workloads import build_job_workload
from repro.workloads.workload import Workload

try:  # ``python tools/record_lqo_digests.py`` puts tools/ itself on the path
    from tools.record_plan_digests import IMDB_ARGS, PICKLE_PROTOCOL, variants
except ImportError:  # pragma: no cover - script invocation
    from record_plan_digests import IMDB_ARGS, PICKLE_PROTOCOL, variants

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "lqo_search_digests.json"

#: Searching methods and the constructor arguments they are recorded under.
METHODS: dict[str, dict] = {
    "neo": {"training_iterations": 1},
    "balsa": {"training_iterations": 1},
    "leon": {},
}

#: The fixed split: trained models (nine experiences suffice) and test
#: queries from 4 to 17 relations, so LEON takes both its DP and its beam.
TRAIN_IDS = ("1a", "1b", "2a", "2b", "3a", "6a", "6b", "17a", "32a")
TEST_IDS = ("1c", "2c", "6c", "4b", "10a", "17b", "20a", "29a", "33c")


def variant_plans(database: Database, workload: Workload) -> Iterator[PlanNode]:
    """Every plan of ``workload`` under every recorded planner variant that plans."""
    planners: dict = {}
    for query in workload.queries:
        for _label, overrides, hints in variants(query.bound):
            config = database.config.with_overrides(**overrides)
            planner = planners.get(config)
            if planner is None:
                planner = planners[config] = Planner(database, config)
            try:
                yield planner.plan(query.bound, hints)
            except ReproError:
                pass  # a variant the query cannot take (recorded as "error" in the plan digests)


def encoding_digests(env: LQOEnvironment, plans: list[PlanNode]) -> dict[str, str]:
    """``{"tree_conv": sha256 over plan_vector of every plan}``."""
    sha = hashlib.sha256()
    for plan in plans:
        sha.update(env.plan_vector(plan).tobytes())
    return {"tree_conv": sha.hexdigest()}


@contextmanager
def scored_matrices() -> Iterator[list[np.ndarray]]:
    """Collect every matrix handed to a value model or ranker inside the block."""
    seen: list[np.ndarray] = []
    originals = {MLPRegressor: MLPRegressor.predict, PairwiseRanker: PairwiseRanker.score}

    def spy(original):
        def scored(self, matrix):
            seen.append(np.array(matrix))
            return original(self, matrix)

        return scored

    MLPRegressor.predict = spy(MLPRegressor.predict)
    PairwiseRanker.score = spy(PairwiseRanker.score)
    try:
        yield seen
    finally:
        MLPRegressor.predict = originals[MLPRegressor]
        PairwiseRanker.score = originals[PairwiseRanker]


def search_digest(database: Database, workload: Workload, method: str) -> dict:
    """``{"plans": {query id: sha256 of the pickled plan}, "scored": sha256, "matrices": n}``."""
    # Training latencies read the shared buffer pool: start every method cold,
    # so a digest does not depend on what ran on the database before.
    database.drop_caches()
    optimizer = create_optimizer(method, LQOEnvironment(database, seed=0), **METHODS[method])
    optimizer.fit([workload.by_id(query_id) for query_id in TRAIN_IDS])
    plans = {}
    with scored_matrices() as matrices:
        for query_id in TEST_IDS:
            plan = optimizer.plan_query(workload.by_id(query_id)).plan
            plans[query_id] = hashlib.sha256(pickle.dumps(plan, protocol=PICKLE_PROTOCOL)).hexdigest()
    sha = hashlib.sha256()
    for matrix in matrices:
        sha.update(repr((matrix.shape, matrix.dtype.str)).encode("ascii"))
        sha.update(matrix.tobytes())
    return {"plans": plans, "scored": sha.hexdigest(), "matrices": len(matrices)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    parser.add_argument("--only", nargs="+", choices=sorted(METHODS), default=None)
    args = parser.parse_args(argv)
    database = generate_imdb(config=SIMULATION_CONFIG, **IMDB_ARGS)
    workload = build_job_workload(database.schema)
    if args.only:
        document = json.loads(args.out.read_text(encoding="utf-8"))
    else:
        plans = list(variant_plans(database, workload))
        document = {
            "pickle_protocol": PICKLE_PROTOCOL,
            "database": IMDB_ARGS,
            "train": list(TRAIN_IDS),
            "test": list(TEST_IDS),
            "encoded_plans": len(plans),
            "encodings": encoding_digests(LQOEnvironment(database, seed=0), plans),
            "searches": {},
        }
    for method in args.only or METHODS:
        document["searches"][method] = search_digest(database, workload, method)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(document['searches'])} searches and {document['encoded_plans']} encoded plans in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

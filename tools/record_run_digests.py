"""Record the golden run digests checked by ``tests/test_run_digests.py``.

Every registered method runs one :class:`~repro.core.experiment.ExperimentRunner`
cell on the test database of ``tests/conftest.py`` (``imdb_db``) and the fixed
split of ``tools/record_lqo_digests.py``.  Per method the file pins the sha256
of ``json.dumps(MethodRunResult.to_dict(), sort_keys=True)`` — every query's
inference, planning and execution time, every timeout and the training
accounting — next to its summary row.  The plan digests pin plans only; these
pin the timing decomposition the figures report.  The cells go through DP,
GEQO, greedy (HybridQO prefixes), forced and hinted planning, and Bao's
inference-into-planning fold.

Recorded from the **parent** commit of any PR that moves simulated time
around and must leave it byte-identical; re-recorded only by a PR that
changes a formula or a constant of the clock on purpose::

    make golden-runs    # or: PYTHONPATH=src python tools/record_run_digests.py [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.catalog.imdb import generate_imdb
from repro.config import SIMULATION_CONFIG
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.metrics import MethodRunResult
from repro.core.splits import DatasetSplit, SplitSampling
from repro.lqo import available_methods
from repro.storage.database import Database
from repro.workloads import build_job_workload
from repro.workloads.workload import Workload

try:  # ``python tools/record_run_digests.py`` puts tools/ itself on the path
    from tools.record_lqo_digests import TEST_IDS, TRAIN_IDS
    from tools.record_plan_digests import IMDB_ARGS
except ImportError:  # pragma: no cover - script invocation
    from record_lqo_digests import TEST_IDS, TRAIN_IDS
    from record_plan_digests import IMDB_ARGS

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "run_digests.json"

#: Constructor arguments of the searching methods (one training iteration each).
OPTIMIZER_KWARGS: dict[str, dict] = {
    "neo": {"training_iterations": 1},
    "balsa": {"training_iterations": 1},
}


def result_digest(result: MethodRunResult) -> dict:
    """``{"sha256": digest of the result's JSON form, "summary": its summary row}``."""
    payload = json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")
    return {"sha256": hashlib.sha256(payload).hexdigest(), "summary": result.summary_row()}


def run_digest(database: Database, workload: Workload, method: str) -> dict:
    """One method's cell on the fixed split, started from cold caches."""
    split = DatasetSplit(workload.name, SplitSampling.RANDOM, 0, TRAIN_IDS, TEST_IDS)
    runner = ExperimentRunner(
        database, workload, experiment_config=ExperimentConfig(optimizer_kwargs=OPTIMIZER_KWARGS)
    )
    # Training latencies read the shared buffer pool: start every method cold,
    # so a digest does not depend on what ran on the database before.
    database.drop_caches()
    return result_digest(runner.run_method(method, split))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    database = generate_imdb(config=SIMULATION_CONFIG, **IMDB_ARGS)
    workload = build_job_workload(database.schema)
    document = {
        "database": IMDB_ARGS,
        "train": list(TRAIN_IDS),
        "test": list(TEST_IDS),
        "runs": {method: run_digest(database, workload, method) for method in available_methods()},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(document['runs'])} method runs in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

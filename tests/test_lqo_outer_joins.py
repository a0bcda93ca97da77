"""Every method plans outer-join queries as the planner does: a differential test.

On ``job_spec(0.1)`` and the registered ``random`` workload, each of the six
methods fits a split holding inner- and outer-join queries and then plans
all 16 outer-join queries.  Every plan keeps one LEFT/FULL join per outer
edge, folded in syntax order over an inner-join core, and it executes to
the rows of the native plan.  The learned searches plan the core and fold the
edges (``JoinSearch``), so their training rows describe the folded plan.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import job_spec
from repro.lqo import create_optimizer
from repro.lqo.base import LQOEnvironment
from repro.lqo.registry import MAIN_EVALUATION_METHODS
from repro.workloads import build_workload
from tests.test_outer_joins import assert_outer_folds_pinned

#: Inner- and outer-join queries of the split each method fits.
TRAIN_INNER, TRAIN_OUTER = 3, 3
#: Those of the split Neo's training rows are checked on: ten, so that its
#: value model is trained before its first search.
ROWS_INNER, ROWS_OUTER = 5, 5


@pytest.fixture(scope="module")
def random_setup():
    database = job_spec(0.1).build()
    workload = build_workload("random", database.schema)
    outer = [query for query in workload.queries if query.bound.outer_edges]
    inner = [query for query in workload.queries if not query.bound.outer_edges]
    assert len(outer) == 16
    env = LQOEnvironment(database, seed=0)
    native = {
        query.query_id: rows_of(env, query.bound, env.plan_with_hints(query.bound).plan) for query in outer
    }
    return database, inner, outer, native


def rows_of(env: LQOEnvironment, query, plan) -> list:
    result = env.engine.execute(query, plan)
    assert result.error is None, result.error
    return sorted(result.rows, key=repr)


@pytest.mark.parametrize("method", MAIN_EVALUATION_METHODS)
def test_every_method_plans_every_outer_join_query_as_the_native_plan_runs(random_setup, method):
    database, inner, outer, native = random_setup
    env = LQOEnvironment(database, seed=0)
    optimizer = create_optimizer(method, env)
    optimizer.fit(inner[:TRAIN_INNER] + outer[:TRAIN_OUTER])
    for query in outer:
        plan = optimizer.plan_query(query).plan
        assert_outer_folds_pinned(plan, query.bound)
        assert rows_of(env, query.bound, plan) == native[query.query_id], (method, query.query_id)


def test_neo_training_rows_describe_the_folded_plan(random_setup, monkeypatch):
    database, inner, outer, _ = random_setup
    train = inner[:ROWS_INNER] + outer[:ROWS_OUTER]
    env = LQOEnvironment(database, seed=0)
    optimizer = create_optimizer("neo", env, training_iterations=1)
    executed = []
    training_latency = env.training_latency

    def spying_training_latency(query, plan, *args, **kwargs):
        executed.append((query, plan))
        return training_latency(query, plan, *args, **kwargs)

    monkeypatch.setattr(env, "training_latency", spying_training_latency)
    optimizer.fit(train)
    monkeypatch.undo()
    assert optimizer._model.is_trained
    searched = [experience for experience in optimizer._buffer if experience.iteration > 0]
    assert len(searched) == len(train)
    outer_rows = 0
    for experience, (query, plan) in zip(searched, executed[-len(searched):]):
        expected = env.query_plan_vector(query, plan)
        assert experience.features.tobytes() == expected.tobytes(), experience.query_id
        if query.outer_edges:
            assert_outer_folds_pinned(plan, query)
            outer_rows += 1
    assert outer_rows == ROWS_OUTER

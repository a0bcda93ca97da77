"""Quickstart: build a database, plan a query classically and with Bao.

Run with ``python examples/quickstart.py``.
"""

from repro import quickstart_environment
from repro.core.splits import generate_split
from repro.executor.explain import explain_analyze_text
from repro.lqo import create_optimizer


def main() -> None:
    # 1. Synthetic IMDB + the 113-query JOB-style workload + an optimizer environment.
    context, env = quickstart_environment(scale=0.4)
    workload = context.workload
    print(context.database.describe())
    print()
    print(workload.describe())

    # 2. Plan and execute one query with the classical (PostgreSQL-style) optimizer.
    query = workload.by_id("2a")
    postgres = create_optimizer("postgres", env)
    postgres.fit([])
    planned = postgres.plan_query(query)
    measured = env.execute_plan(query.bound, planned.plan, runs=3, cold_start=True)
    print()
    print(f"--- PostgreSQL plan for {query.query_id} "
          f"(planning {planned.planning_time_ms:.2f} ms, "
          f"execution {measured.reported_execution_ms:.2f} ms) ---")
    print(explain_analyze_text(planned.plan, measured.result, planned.planning_time_ms))

    # 3. Train Bao on a random 80/20 split and plan the same query.
    split = generate_split(workload, "random", seed=0)
    bao = create_optimizer("bao", env, training_passes=1)
    report = bao.fit(split.train_queries(workload)[:30])  # a subset keeps the demo quick
    bao_planned = bao.plan_query(query)
    bao_measured = env.execute_plan(query.bound, bao_planned.plan, runs=3, cold_start=True)
    print()
    print(f"--- Bao ({report.training_time_s:.1f} s training, "
          f"chose hint set {bao_planned.metadata['chosen_arm']!r}, "
          f"execution {bao_measured.reported_execution_ms:.2f} ms) ---")
    print(bao_planned.plan.pretty())

    print()
    winner = "Bao" if bao_measured.reported_execution_ms < measured.reported_execution_ms else "PostgreSQL"
    print(f"Faster on {query.query_id}: {winner}")


if __name__ == "__main__":
    main()

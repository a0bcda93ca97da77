"""Claim-execute-ack worker of the distributed experiment runtime.

A coordinator's local workers are forks of the coordinator that call
:func:`run_worker` directly.  Workers on other hosts run this module against
the coordinator's TCP queue server (one or several per host)::

    REPRO_QUEUE_SECRET=<secret> PYTHONPATH=src python -m repro.runtime.worker tcp://coordinator:7077

The worker loops: claim the pending task with the lowest id, take the
database of the task's :class:`~repro.storage.spec.DatabaseSpec` from the
per-process registry (a fork inherits the coordinator's; a started worker
builds it on its first task), execute the grid cell and upload the
result inside the ack frame; the coordinator persists it into its local
store, so the worker shares **no** filesystem with it.  A heartbeat thread
renews the claim's lease while the task runs so the coordinator's expiry
sweep never re-queues a task that is merely slow; if this process is killed,
the heartbeat stops with it and the lease expires.  An idle worker waits on
the server, which answers as soon as there is work or a stop.

The worker exits once the coordinator signals stop, after the task it holds
(no claim succeeds after a stop; an unreachable coordinator counts as stop),
after ``--max-tasks`` tasks, or after ``--idle-timeout`` seconds without
work.  Sweep progress is the coordinator's to report
(``RuntimeConfig.progress_interval_s``).  Export ``REPRO_QUEUE_SECRET`` with
the coordinator's frame-signing secret — it is read from the environment
only, never from argv.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time

from repro.runtime.netqueue import NetWorkQueue
from repro.runtime.workqueue import ResultUpload, TaskClaim, WorkerQueueTransport


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _heartbeat(
    queue: WorkerQueueTransport, claim: TaskClaim, stop: threading.Event, interval_s: float
) -> None:
    while not stop.wait(interval_s):
        queue.renew(claim)


def run_worker(
    queue_url: str,
    worker_id: str | None = None,
    poll_interval_s: float = 0.2,
    idle_timeout_s: float | None = None,
    max_tasks: int | None = None,
    lease_renew_s: float = 5.0,
) -> int:
    """Drain tasks from the queue at ``queue_url`` until stopped; returns the number completed."""
    # Imported here so ``python -m repro.runtime.worker --help`` stays instant.
    from repro.runtime.parallel import execute_spec_payload_with_identity

    worker_id = worker_id or default_worker_id()
    with NetWorkQueue(queue_url) as queue:  # leaving the block closes the client
        completed = _worker_loop(
            queue, worker_id, poll_interval_s, idle_timeout_s, max_tasks, lease_renew_s,
            execute_spec_payload_with_identity,
        )
    print(f"[{worker_id}] exiting after {completed} task(s)", flush=True)
    return completed


def _worker_loop(
    queue: WorkerQueueTransport,
    worker_id: str,
    poll_interval_s: float,
    idle_timeout_s: float | None,
    max_tasks: int | None,
    lease_renew_s: float,
    execute,
) -> int:
    """Claim, ``execute`` (payload -> result, key, fingerprint) and ack until stopped."""
    completed = 0
    idle_since = time.monotonic()
    while max_tasks is None or completed < max_tasks:
        claim = queue.claim(worker_id)
        if claim is None:
            if queue.stop_requested():
                break
            if idle_timeout_s is not None and time.monotonic() - idle_since > idle_timeout_s:
                break
            queue.wait_for_work(poll_interval_s)
            continue
        idle_since = time.monotonic()
        stop_heartbeat = threading.Event()
        beat = threading.Thread(
            target=_heartbeat, args=(queue, claim, stop_heartbeat, lease_renew_s), daemon=True
        )
        beat.start()
        try:
            result, key, fingerprint = execute(claim.payload)
            upload = ResultUpload(key=key, fingerprint=fingerprint, result=result.to_dict())
        except Exception as exc:
            stop_heartbeat.set()
            beat.join()
            queue.fail(claim, worker_id, f"{type(exc).__name__}: {exc}")
            print(f"[{worker_id}] FAILED {claim.task_id}: {exc}", file=sys.stderr, flush=True)
            continue
        stop_heartbeat.set()
        beat.join()
        try:
            queue.ack(claim, worker_id, upload)
        except Exception as exc:
            # The coordinator rejected the ack (e.g. its result store is
            # unwritable).  Dying here would take every worker down one by one
            # with a misleading "all workers exited" sweep error; a failure
            # report carries the real cause to the coordinator instead, whose
            # retry budget turns a persistent rejection into a sweep abort.
            try:
                queue.fail(claim, worker_id, f"ack rejected: {type(exc).__name__}: {exc}")
            except Exception:  # pragma: no cover - transport also down
                pass
            print(f"[{worker_id}] ACK REJECTED {claim.task_id}: {exc}", file=sys.stderr, flush=True)
            continue
        completed += 1
        print(f"[{worker_id}] completed {claim.task_id}", flush=True)
    return completed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.worker",
        description="Claim and execute distributed experiment tasks from a coordinator's "
        "tcp://host:port work queue (REPRO_QUEUE_SECRET: the shared frame-signing secret).",
    )
    parser.add_argument("queue", help="the coordinator's tcp://host:port queue address")
    parser.add_argument("--worker-id", default=None, help="identity recorded with each ack "
                        "(default: <hostname>-<pid>)")
    parser.add_argument("--poll-interval", type=float, default=0.2, metavar="S",
                        help="longest wait on the coordinator between claim attempts when "
                        "idle; work or a stop ends a wait early (default 0.2)")
    parser.add_argument("--idle-timeout", type=float, default=None, metavar="S",
                        help="exit after this many idle seconds (default: wait for the stop signal)")
    parser.add_argument("--max-tasks", type=int, default=None, metavar="N",
                        help="exit after completing N tasks (default: unlimited)")
    parser.add_argument("--lease-renew", type=float, default=5.0, metavar="S",
                        help="heartbeat interval while executing; keep it well below the "
                        "coordinator's lease timeout (default 5)")
    args = parser.parse_args(argv)
    run_worker(
        args.queue,
        worker_id=args.worker_id,
        poll_interval_s=args.poll_interval,
        idle_timeout_s=args.idle_timeout,
        max_tasks=args.max_tasks,
        lease_renew_s=args.lease_renew,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())

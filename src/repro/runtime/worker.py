"""Claim-execute-ack worker of the distributed experiment runtime.

Run one of these per host (or several per host) against either a queue
directory on a shared filesystem or a coordinator's TCP queue server::

    PYTHONPATH=src python -m repro.runtime.worker /shared/sweep/store/queue
    PYTHONPATH=src python -m repro.runtime.worker tcp://coordinator:7077

The worker loops: atomically claim a task, rebuild the database from the
task's :class:`~repro.storage.spec.DatabaseSpec` (reusing the per-process
registry across tasks), execute the grid cell, deliver the result and ack.
How the result travels depends on the transport: file-queue workers persist
it into the payload's shared (possibly sharded) result store themselves,
while TCP workers — which share **no** filesystem with the coordinator —
upload it back inside the ack frame and the coordinator persists it locally.
A heartbeat thread renews the claim's lease while the task runs so the
coordinator's expiry sweep never re-queues a task that is merely slow; if
this process is killed, the heartbeat stops with it and the lease expires.

The worker exits when the coordinator signals stop and no work is claimable
(for TCP, an unreachable coordinator counts as stop), after ``--max-tasks``
tasks, or after ``--idle-timeout`` seconds without work.

``--shard N`` pins the worker's claim preference to one queue shard (its
starvation is what triggers the coordinator's work stealing); ``--progress
[S]`` prints a machine-readable JSON progress snapshot of the queue every S
seconds (default 5) to stdout.  Against a secured TCP coordinator, export
``REPRO_QUEUE_SECRET`` with the shared frame-signing secret — it is read from
the environment only, never from argv.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time

from repro.runtime.progress import SweepProgress
from repro.runtime.workqueue import (
    ResultUpload,
    TaskClaim,
    WorkerQueueTransport,
    WorkQueue,
    parse_queue_url,
)


#: First wait of an idle worker; each further empty-handed claim doubles it up
#: to the poll interval, and a successful claim starts over.  On the file
#: queue, which must be polled, work handed over mid-sweep (a steal, a
#: re-queued lease) is picked up in tens of milliseconds while a long-idle
#: worker polls no more often than it always did.  The TCP queue ends a wait
#: as soon as there is work or a stop (``wait_for_work``).
IDLE_BACKOFF_START_S = 0.01

#: Serializes every line this process writes to stdout/stderr: the progress
#: reporter thread and the claim loop share the streams, and two concurrent
#: ``print``s can tear a JSON snapshot line mid-write otherwise.
_PRINT_LOCK = threading.Lock()


def _emit(line: str, stream=None) -> None:
    with _PRINT_LOCK:
        print(line, file=stream if stream is not None else sys.stdout, flush=True)


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def open_queue(target: str) -> WorkerQueueTransport:
    """Open the worker-side transport for a queue directory or ``tcp://`` url."""
    address = parse_queue_url(target)
    if address.scheme == "tcp":
        # Imported lazily: file-queue workers never need the socket client.
        from repro.runtime.netqueue import NetWorkQueue

        return NetWorkQueue(target)
    return WorkQueue(address.path)


def _heartbeat(
    queue: WorkerQueueTransport, claim: TaskClaim, stop: threading.Event, interval_s: float
) -> None:
    while not stop.wait(interval_s):
        queue.renew(claim)


def run_worker(
    queue_target: str,
    worker_id: str | None = None,
    poll_interval_s: float = 0.2,
    idle_timeout_s: float | None = None,
    max_tasks: int | None = None,
    lease_renew_s: float = 5.0,
    shard: int | None = None,
    progress_interval_s: float | None = None,
) -> int:
    """Drain tasks from ``queue_target`` until stopped; returns the number completed."""
    # Imported here so ``python -m repro.runtime.worker --help`` stays instant.
    from repro.runtime.parallel import execute_spec_payload, execute_spec_payload_with_identity

    queue = open_queue(str(queue_target))
    worker_id = worker_id or default_worker_id()
    reporter: SweepProgress | None = None
    if progress_interval_s is not None:
        reporter = SweepProgress(
            queue,
            total=None,  # a worker cannot know the sweep's size, only its state
            interval_s=progress_interval_s,
            callback=lambda snapshot: _emit(snapshot.to_json()),
        ).start()
    try:
        completed = _worker_loop(
            queue, worker_id, poll_interval_s, idle_timeout_s, max_tasks, lease_renew_s, shard,
            execute_spec_payload, execute_spec_payload_with_identity,
        )
    finally:
        if reporter is not None:
            reporter.stop()
    _emit(f"[{worker_id}] exiting after {completed} task(s)")
    return completed


def _worker_loop(
    queue: WorkerQueueTransport,
    worker_id: str,
    poll_interval_s: float,
    idle_timeout_s: float | None,
    max_tasks: int | None,
    lease_renew_s: float,
    shard: int | None,
    execute_spec_payload,
    execute_spec_payload_with_identity,
) -> int:
    completed = 0
    idle_since = time.monotonic()
    first_sleep_s = min(IDLE_BACKOFF_START_S, poll_interval_s)
    sleep_s = first_sleep_s
    while max_tasks is None or completed < max_tasks:
        claim = queue.claim(worker_id, shard=shard)
        if claim is None:
            if queue.stop_requested():
                break
            if idle_timeout_s is not None and time.monotonic() - idle_since > idle_timeout_s:
                break
            queue.wait_for_work(sleep_s, shard)
            sleep_s = min(2.0 * sleep_s, poll_interval_s)
            continue
        idle_since = time.monotonic()
        sleep_s = first_sleep_s
        stop_heartbeat = threading.Event()
        beat = threading.Thread(
            target=_heartbeat, args=(queue, claim, stop_heartbeat, lease_renew_s), daemon=True
        )
        beat.start()
        try:
            if queue.wants_results:
                result, key, fingerprint = execute_spec_payload_with_identity(claim.payload)
                upload = ResultUpload(key=key, fingerprint=fingerprint, result=result.to_dict())
            else:
                execute_spec_payload(claim.payload)
                upload = None
        except Exception as exc:
            stop_heartbeat.set()
            beat.join()
            queue.fail(claim, worker_id, f"{type(exc).__name__}: {exc}")
            _emit(f"[{worker_id}] FAILED {claim.task_id}: {exc}", stream=sys.stderr)
            continue
        stop_heartbeat.set()
        beat.join()
        try:
            queue.ack(claim, worker_id, upload)
        except Exception as exc:
            # The coordinator rejected the ack (e.g. its result store is
            # unwritable).  Dying here would take every worker down one by one
            # with a misleading "all workers exited" sweep error; a failure
            # marker carries the real cause to the coordinator instead, whose
            # retry budget turns a persistent rejection into a sweep abort.
            try:
                queue.fail(claim, worker_id, f"ack rejected: {type(exc).__name__}: {exc}")
            except Exception:  # pragma: no cover - transport also down
                pass
            _emit(f"[{worker_id}] ACK REJECTED {claim.task_id}: {exc}", stream=sys.stderr)
            continue
        completed += 1
        _emit(f"[{worker_id}] completed {claim.task_id}")
    return completed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.worker",
        description="Claim and execute distributed experiment tasks from a work queue "
        "(shared directory or tcp://host:port coordinator).",
    )
    parser.add_argument("queue", help="queue directory on a shared filesystem, or the "
                        "coordinator's tcp://host:port queue address")
    parser.add_argument("--worker-id", default=None, help="identity written into ack markers "
                        "(default: <hostname>-<pid>)")
    parser.add_argument("--poll-interval", type=float, default=0.2, metavar="S",
                        help="longest pause between claim attempts when idle; the pause "
                        "starts at 10 ms and doubles up to this (default 0.2)")
    parser.add_argument("--idle-timeout", type=float, default=None, metavar="S",
                        help="exit after this many idle seconds (default: wait for the stop signal)")
    parser.add_argument("--max-tasks", type=int, default=None, metavar="N",
                        help="exit after completing N tasks (default: unlimited)")
    parser.add_argument("--lease-renew", type=float, default=5.0, metavar="S",
                        help="heartbeat interval while executing; keep it well below the "
                        "coordinator's lease timeout (default 5)")
    parser.add_argument("--shard", type=int, default=None, metavar="N",
                        help="preferred queue shard to claim from (starvation triggers the "
                        "coordinator's work stealing); default: claim from every shard")
    parser.add_argument("--progress", type=float, nargs="?", const=5.0, default=None,
                        metavar="S", help="print a machine-readable JSON progress snapshot "
                        "of the queue every S seconds (default 5 when the flag is given)")
    args = parser.parse_args(argv)
    run_worker(
        args.queue,
        worker_id=args.worker_id,
        poll_interval_s=args.poll_interval,
        idle_timeout_s=args.idle_timeout,
        max_tasks=args.max_tasks,
        lease_renew_s=args.lease_renew,
        shard=args.shard,
        progress_interval_s=args.progress,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())

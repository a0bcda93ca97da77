"""Progress telemetry for distributed sweeps.

A multi-hour sweep used to be a black box: the only signals were worker log
lines and the final result store.  This module turns the coordinator's own
bookkeeping into a machine-readable :class:`ProgressSnapshot` — cells
pending/claimed/done/failed, per-worker completion counts, overall and
recent throughput, and an ETA — without adding any new coordination state.

The coordinator's wait loop
(:meth:`~repro.runtime.parallel.ParallelExperimentRunner._feed_forks`) reads
its counters every ``RuntimeConfig.progress_interval_s`` seconds and once
more at the end of the sweep, builds each snapshot with
:func:`next_snapshot` and hands it to the runner's ``progress_callback``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ProgressSnapshot:
    """One observation of a sweep's state, with derived rates.

    ``total`` is the number of cells the sweep sends to its forks (the
    cells its store already held are not counted).  Throughputs are
    completed tasks per second: ``throughput_per_s`` since the last local
    worker was spawned, ``recent_throughput_per_s`` since the previous
    snapshot (the ETA uses the recent rate when it is positive — it adapts to
    workers joining or leaving — and falls back to the overall rate).
    """

    sequence: int
    elapsed_s: float
    pending: int
    claimed: int
    done: int
    failed: int
    total: int
    throughput_per_s: float
    recent_throughput_per_s: float
    eta_s: float | None
    workers: dict[str, int] = field(default_factory=dict)

    @property
    def remaining(self) -> int:
        return max(self.total - self.done, 0)

    def to_dict(self) -> dict:
        """JSON-ready form (the machine-readable surface; keys are stable)."""
        return {
            "sequence": self.sequence,
            "elapsed_s": round(self.elapsed_s, 3),
            "pending": self.pending,
            "claimed": self.claimed,
            "done": self.done,
            "failed": self.failed,
            "total": self.total,
            "remaining": self.remaining,
            "throughput_per_s": round(self.throughput_per_s, 4),
            "recent_throughput_per_s": round(self.recent_throughput_per_s, 4),
            "eta_s": None if self.eta_s is None else round(self.eta_s, 1),
            "workers": dict(sorted(self.workers.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def describe(self) -> str:
        """One human-readable line (the machine surface is ``to_dict``)."""
        eta = "eta --" if self.eta_s is None else f"eta {self.eta_s:.0f}s"
        parts = [
            f"[{self.done}/{self.total}]",
            f"{self.pending} pending",
            f"{self.claimed} claimed",
            f"{self.failed} failed",
            f"{self.throughput_per_s:.2f} tasks/s",
            eta,
        ]
        if self.workers:
            busiest = ", ".join(f"{w}:{n}" for w, n in sorted(self.workers.items()))
            parts.append(f"workers {busiest}")
        return " | ".join(parts)


def next_snapshot(
    *,
    pending: int,
    claimed: int,
    done: int,
    failed: int,
    workers: dict[str, int],
    total: int,
    elapsed_s: float,
    previous: ProgressSnapshot | None = None,
) -> ProgressSnapshot:
    """The snapshot of these counts that follows ``previous`` (``None``: the
    sweep's first).

    ``claimed`` counts the cells the forks hold, ``done`` and ``workers`` the
    cells they completed.  ``elapsed_s`` is the clock reading: seconds since
    the sweep's last local worker was spawned.  The recent rate covers the
    window since ``previous``; the first snapshot's recent rate is the
    overall one.
    """
    elapsed = max(elapsed_s, 1e-9)
    overall = done / elapsed
    if previous is None:
        recent = overall
    else:
        window = max(elapsed - previous.elapsed_s, 1e-9)
        recent = max(done - previous.done, 0) / window
    remaining = max(total - done, 0)
    if remaining == 0:
        eta: float | None = 0.0
    else:
        rate = recent if recent > 0 else overall
        eta = remaining / rate if rate > 0 else None
    return ProgressSnapshot(
        sequence=0 if previous is None else previous.sequence + 1,
        elapsed_s=elapsed,
        pending=pending,
        claimed=claimed,
        done=done,
        failed=failed,
        total=total,
        throughput_per_s=overall,
        recent_throughput_per_s=recent,
        eta_s=eta,
        workers=workers,
    )

"""What a sweep worker sends back for a finished task.

A forked worker answers each payload with a :class:`ResultUpload` on its
pipe (:func:`repro.runtime.parallel._serve_payloads`); the coordinator, the
store's one writer, saves it with
:meth:`~repro.runtime.result_store.ResultStore.save_raw`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.result_store import TaskKey


@dataclass(frozen=True)
class ResultUpload:
    """A finished task's result, sent back to the coordinator.

    Workers never write the store: the coordinator persists the upload into
    its local result store.
    """

    key: TaskKey
    fingerprint: str | None
    result: dict

"""Table 2: PostgreSQL configurations used across LQO publications."""

from __future__ import annotations

from repro.config import PRESET_TITLES, format_bytes, iter_presets

#: The configuration parameters Table 2 compares, in the paper's order.
TABLE2_PARAMETERS = (
    "host_ram",
    "geqo_threshold",
    "geqo",
    "work_mem",
    "shared_buffers",
    "temp_buffers",
    "effective_cache_size",
    "max_parallel_workers",
    "max_parallel_workers_per_gather",
    "max_worker_processes",
    "enable_bitmapscan",
    "enable_tidscan",
)

_BYTE_PARAMETERS = {
    "host_ram", "work_mem", "shared_buffers", "temp_buffers", "effective_cache_size",
}


def run() -> list[dict[str, object]]:
    """Regenerate Table 2: one row per parameter, one column per preset."""
    rows: list[dict[str, object]] = []
    presets = list(iter_presets())
    for parameter in TABLE2_PARAMETERS:
        row: dict[str, object] = {"parameter": parameter}
        for name, config in presets:
            value = getattr(config, parameter)
            if parameter in _BYTE_PARAMETERS:
                value = format_bytes(int(value))
            elif isinstance(value, bool):
                value = "on" if value else "off"
            row[PRESET_TITLES[name]] = value
        rows.append(row)
    return rows

"""Columnar storage, ordered indexes and the buffer pool of the simulated DBMS.

The storage layer keeps every table as dictionary-encoded numpy columns
(:class:`TableData`), maintains ordered per-column indexes for index scans and
index nested-loop joins, and models a page-level buffer pool
(:class:`BufferPool`) whose hit/miss behaviour drives the cold-vs-hot cache
latency effects studied in Sections 3.3.2, 7.3 and 8.6 of the paper.

Databases themselves are addressable by *recipe*: a :class:`DatabaseSpec`
(generator id + scale + seed + configuration) deterministically rebuilds an
instance, and the per-process :class:`DatabaseRegistry` memoizes those builds
so spec-based dispatch across worker processes never re-pickles table data.
"""

from repro.storage.table_data import TableData
from repro.storage.buffer_pool import BufferPool, BufferPoolStats
from repro.storage.index import OrderedIndex
from repro.storage.database import Database
from repro.storage.spec import DatabaseSpec
from repro.storage.registry import (
    DatabaseRegistry,
    get_process_registry,
    resolve_database,
)

__all__ = [
    "TableData",
    "BufferPool",
    "BufferPoolStats",
    "OrderedIndex",
    "Database",
    "DatabaseSpec",
    "DatabaseRegistry",
    "get_process_registry",
    "resolve_database",
]

"""Lineage composition: either end of the chain gives the same row ids.

``_Lineage.materialize`` composes left to right or right to left, by which
gathers fewer entries; re-indexing is associative, so both directions must
give equal arrays of equal dtype, on chains that grow (a join fanning out)
and shrink (a filter).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.columnar import _Lineage


def _compose(lineage: _Lineage, left_to_right: bool) -> np.ndarray:
    if left_to_right:
        acc = lineage.base
        for positions in lineage.chain:
            acc = acc[positions]
        return acc
    acc = lineage.chain[-1]
    for positions in reversed(lineage.chain[:-1]):
        acc = positions[acc]
    return lineage.base[acc]


class _Recorded(np.ndarray):
    """An array that logs ``(len(self), len(positions))`` of every gather made on it."""

    gathers: list[tuple[int, int]] = []

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            _Recorded.gathers.append((len(self), len(key)))
        return super().__getitem__(key)


@st.composite
def lineages(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, 1000, size=draw(st.integers(1, 40))).astype(np.int64)
    chain = []
    previous = base.size
    for _ in range(draw(st.integers(1, 4))):
        # Each level grows (fan-out) or shrinks (filter) the previous one.
        size = draw(st.integers(0, 3 * previous)) if previous else 0
        chain.append(rng.integers(0, max(previous, 1), size=size).astype(np.int64))
        previous = size
    return _Lineage(base, tuple(chain))


@settings(max_examples=300, deadline=None)
@given(lineages())
def test_both_directions_compose_to_the_same_row_ids(lineage):
    got = lineage.materialize()
    for left_to_right in (True, False):
        expected = _compose(lineage, left_to_right)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def test_a_fan_out_chain_composes_left_to_right():
    base = np.arange(50, dtype=np.int64)
    grown = np.repeat(np.arange(50, dtype=np.int64), 20)
    fanned = np.repeat(np.arange(grown.size, dtype=np.int64), 30)
    chain = tuple(a.view(_Recorded) for a in (np.arange(50, dtype=np.int64), grown, fanned))
    lineage = _Lineage(base.view(_Recorded), chain)
    expected = _compose(_Lineage(base, (np.arange(50, dtype=np.int64), grown, fanned)), False)
    _Recorded.gathers = []
    assert lineage.materialize().tobytes() == expected.tobytes()
    # Left to right: gathers of 50, 1,000 and 30,000 entries, not three of 30,000.
    assert [size for _, size in _Recorded.gathers] == [50, 1000, 30000]


def test_a_shrinking_chain_composes_right_to_left():
    base = np.arange(1000, dtype=np.int64)
    chain = tuple(
        a.view(_Recorded)
        for a in (np.arange(1000, dtype=np.int64)[::-1].copy(), np.arange(0, 1000, 10), np.arange(0, 100, 25))
    )
    lineage = _Lineage(base.view(_Recorded), chain)
    _Recorded.gathers = []
    assert lineage.materialize().tolist() == [999, 749, 499, 249]
    # Right to left: every gather is as long as the last array (4 entries).
    assert [size for _, size in _Recorded.gathers] == [4, 4, 4]

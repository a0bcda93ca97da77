"""Lineage composition: either end of the chain gives the same row ids.

``_Lineage.materialize`` composes left to right or right to left, by which
gathers fewer entries; re-indexing is associative and ``take_rows`` keeps
``NULL_ROW_ID`` absorbing, so both directions must give equal arrays of equal
dtype, on chains that grow (a join fanning out) and shrink (a filter).
"""

from __future__ import annotations

from operator import getitem

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.columnar import _Lineage
from repro.executor.operators import NULL_ROW_ID, take_rows


def _compose(lineage: _Lineage, left_to_right: bool) -> np.ndarray:
    take = take_rows if lineage.null_extended else getitem
    if left_to_right:
        acc = lineage.base
        for positions in lineage.chain:
            acc = take(acc, positions)
        return acc
    acc = lineage.chain[-1]
    for positions in reversed(lineage.chain[:-1]):
        acc = take(positions, acc)
    return take(lineage.base, acc)


@st.composite
def lineages(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    null_extended = draw(st.booleans())
    base = rng.integers(0, 1000, size=draw(st.integers(1, 40))).astype(np.int64)
    chain = []
    previous = base.size
    for _ in range(draw(st.integers(1, 4))):
        # Each level grows (fan-out) or shrinks (filter) the previous one.
        size = draw(st.integers(0, 3 * previous)) if previous else 0
        positions = rng.integers(0, max(previous, 1), size=size).astype(np.int64)
        if null_extended:
            positions[rng.random(size) < 0.2] = NULL_ROW_ID
        chain.append(positions)
        previous = size
    return _Lineage(base, tuple(chain), null_extended)


@settings(max_examples=300, deadline=None)
@given(lineages())
def test_both_directions_compose_to_the_same_row_ids(lineage):
    got = lineage.materialize()
    for left_to_right in (True, False):
        expected = _compose(lineage, left_to_right)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def test_a_fan_out_chain_composes_left_to_right(monkeypatch):
    calls = []

    def spy(values, positions):
        calls.append((len(values), len(positions)))
        return take_rows(values, positions)

    monkeypatch.setattr("repro.executor.columnar.take_rows", spy)
    base = np.arange(50, dtype=np.int64)
    grown = np.repeat(np.arange(50, dtype=np.int64), 20)
    grown[::7] = NULL_ROW_ID
    fanned = np.repeat(np.arange(grown.size, dtype=np.int64), 30)
    lineage = _Lineage(base, (np.arange(50, dtype=np.int64), grown, fanned), null_extended=True)
    assert lineage.materialize().tobytes() == _compose(lineage, False).tobytes()
    # Left to right: gathers of 50, 1,000 and 30,000 entries, not three of 30,000.
    assert [size for _, size in calls] == [50, 1000, 30000]

"""Hash container with on-insert combining."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.containers.combiners import ListCombiner, SumCombiner
from repro.containers.hash_container import HashContainer
from repro.errors import ContainerError


def fill(container, pairs, task_id=0):
    emitter = container.emitter(task_id)
    for k, v in pairs:
        emitter.emit(k, v)


class TestLifecycle:
    def test_emit_before_round_raises(self):
        c = HashContainer(SumCombiner())
        with pytest.raises(ContainerError):
            c.emitter(0).emit(b"k", 1)

    def test_emit_after_seal_raises(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        c.seal()
        with pytest.raises(ContainerError):
            c.emitter(0).emit(b"k", 1)

    def test_begin_round_after_seal_raises(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        c.seal()
        with pytest.raises(ContainerError):
            c.begin_round()

    def test_partitions_before_seal_raises(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        with pytest.raises(ContainerError):
            c.partitions(2)

    def test_persistence_across_rounds(self):
        # SupMR's core container requirement (section III.C)
        c = HashContainer(SumCombiner())
        c.begin_round()
        fill(c, [(b"w", 1)])
        c.begin_round()
        fill(c, [(b"w", 2)])
        c.seal()
        all_pairs = [p for part in c.partitions(1) for p in part]
        assert all_pairs == [(b"w", [3])]
        assert c.rounds == 2


class TestCombiningAndPartitions:
    def test_combines_on_insert(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        fill(c, [(b"a", 1), (b"a", 2), (b"b", 5)])
        c.seal()
        merged = dict(
            (k, v) for part in c.partitions(4) for k, v in part
        )
        assert merged == {b"a": [3], b"b": [5]}

    def test_list_combiner_keeps_all_values(self):
        c = HashContainer(ListCombiner())
        c.begin_round()
        fill(c, [(b"k", 1), (b"k", 2)])
        c.seal()
        (part,) = [p for p in c.partitions(1) if p]
        assert part == [(b"k", [1, 2])]

    def test_partition_count(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        fill(c, [(bytes([i]), 1) for i in range(50)])
        c.seal()
        parts = c.partitions(4)
        assert len(parts) == 4
        assert sum(len(p) for p in parts) == 50

    def test_partitioning_is_stable_across_instances(self):
        # stable_hash: the same keys land in the same partitions every time
        def build():
            c = HashContainer(SumCombiner())
            c.begin_round()
            fill(c, [(f"key{i}".encode(), 1) for i in range(30)])
            c.seal()
            return [sorted(k for k, _v in p) for p in c.partitions(3)]

        assert build() == build()

    def test_zero_partitions_raises(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        c.seal()
        with pytest.raises(ContainerError):
            c.partitions(0)

    def test_stats(self):
        c = HashContainer(SumCombiner())
        c.begin_round()
        fill(c, [(b"a", 1), (b"a", 1), (b"b", 1)])
        stats = c.stats()
        assert stats.emits == 3
        assert stats.distinct_keys == 2
        assert stats.rounds == 1
        assert len(c) == 2

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                              st.integers(min_value=-5, max_value=5))))
    def test_property_sums_match_naive(self, pairs):
        c = HashContainer(SumCombiner())
        c.begin_round()
        fill(c, pairs)
        c.seal()
        got = {k: v[0] for part in c.partitions(3) for k, v in part}
        expected: dict[int, int] = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        assert got == expected

"""drain()/absorb(): the container transport protocol the process backend uses.

Core invariant: for any sequence of emits split across worker-local
containers, ``drain`` in the workers + ``absorb`` in task order in the
parent must leave the parent container indistinguishable (partitions and
stats) from having run every emit directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.containers.array_container import ArrayContainer
from repro.containers.base import Container, ContainerDelta, ContainerStats
from repro.containers.combiners import (
    Combiner,
    CountCombiner,
    FirstCombiner,
    ListCombiner,
    MaxCombiner,
    MinCombiner,
    SumCombiner,
)
from repro.containers.fixed_array import FixedArrayContainer
from repro.containers.hash_container import HashContainer
from repro.errors import ContainerError
from repro.spill.container import SpillableContainer
from repro.spill.manager import SpillManager


def _direct(factory, emits):
    container = factory()
    container.begin_round()
    for task_id, key, value in emits:
        container.emitter(task_id).emit(key, value)
    container.seal()
    return container


def _via_transport(factory, emits, tasks):
    """Emit through per-task worker containers, then drain+absorb."""
    parent = factory()
    parent.begin_round()
    for task_id in tasks:
        worker = factory()
        worker.begin_round()
        for tid, key, value in emits:
            if tid == task_id:
                worker.emitter(tid).emit(key, value)
        worker.seal()
        parent.absorb(worker.drain())
    parent.seal()
    return parent


_EMITS = [
    (0, b"a", 1), (0, b"b", 2), (1, b"a", 3), (1, b"c", 4), (2, b"b", 5),
]


class TestCombinerMerge:
    def test_merges_match_folds(self):
        cases = [
            (SumCombiner(), [3, 1, 4, 1, 5]),
            (CountCombiner(), [7, 7, 7]),
            (MinCombiner(), [4, 2, 9]),
            (MaxCombiner(), [4, 2, 9]),
            (FirstCombiner(), [5, 6, 7]),
            (ListCombiner(), [1, 2, 3, 4]),
        ]
        for combiner, values in cases:
            whole = combiner.initial(values[0])
            for v in values[1:]:
                whole = combiner.update(whole, v)
            left = combiner.initial(values[0])
            for v in values[1:2]:
                left = combiner.update(left, v)
            right = combiner.initial(values[2])
            for v in values[3:]:
                right = combiner.update(right, v)
            assert combiner.merge(left, right) == whole, type(combiner).__name__

    def test_mergeless_combiner_cannot_be_instantiated(self):
        class Opaque(Combiner):
            def initial(self, value):
                """First value."""
                return value

            def update(self, state, value):
                """Keep state."""
                return state

        with pytest.raises(TypeError, match="merge"):
            Opaque()


class TestHashTransport:
    def test_round_trip_matches_direct(self):
        factory = lambda: HashContainer(SumCombiner())  # noqa: E731
        direct = _direct(factory, _EMITS)
        via = _via_transport(factory, _EMITS, tasks=[0, 1, 2])
        assert sorted(via.partitions(3), key=str) == sorted(
            direct.partitions(3), key=str
        )
        assert via.stats() == direct.stats()

    def test_emits_counter_preserves_precombine_count(self):
        factory = lambda: HashContainer(SumCombiner())  # noqa: E731
        via = _via_transport(factory, _EMITS, tasks=[0, 1, 2])
        assert via.stats().emits == len(_EMITS)

    def test_first_combiner_respects_task_order(self):
        factory = lambda: HashContainer(FirstCombiner())  # noqa: E731
        emits = [(0, b"k", "task0"), (1, b"k", "task1")]
        via = _via_transport(factory, emits, tasks=[0, 1])
        [[(_, values)]] = [p for p in via.partitions(1) if p]
        assert values == ["task0"]

    def test_kind_mismatch_raises(self):
        container = HashContainer(SumCombiner())
        container.begin_round()
        with pytest.raises(ContainerError, match="absorb"):
            container.absorb(ContainerDelta(kind="array", emits=0, items=[]))


class TestArrayTransport:
    def test_segment_structure_matches_direct(self):
        direct = _direct(ArrayContainer, _EMITS)
        via = _via_transport(ArrayContainer, _EMITS, tasks=[0, 1, 2])
        assert via.partitions(3) == direct.partitions(3)
        assert via.stats() == direct.stats()

    def test_empty_worker_segments_are_dropped(self):
        worker = ArrayContainer()
        worker.begin_round()
        worker.emitter(0)  # registered but never emits
        worker.emitter(1).emit(b"k", 1)
        worker.seal()
        delta = worker.drain()
        assert delta.items == [[(b"k", 1)]]


class TestFixedTransport:
    def test_round_trip_matches_direct(self):
        factory = lambda: FixedArrayContainer(8)  # noqa: E731
        emits = [(0, 1, 2), (0, 3, 1), (1, 1, 1), (1, 7, 4)]
        direct = _direct(factory, emits)
        via = _via_transport(factory, emits, tasks=[0, 1])
        assert via.partitions(2) == direct.partitions(2)
        assert np.array_equal(via.combined(), direct.combined())
        assert via.stats() == direct.stats()

    def test_cell_count_mismatch_raises(self):
        container = FixedArrayContainer(4)
        container.begin_round()
        bad = ContainerDelta(kind="fixed", emits=1, items=np.zeros(9))
        with pytest.raises(ContainerError, match="cells"):
            container.absorb(bad)


class TestSpillableAbsorb:
    def _spillable(self, inner_factory, budget):
        manager = SpillManager(budget_bytes=budget)
        return SpillableContainer(inner_factory, manager), manager

    def test_absorb_without_spill_matches_direct(self):
        factory = lambda: HashContainer(SumCombiner())  # noqa: E731
        container, manager = self._spillable(factory, budget=1 << 20)
        container.begin_round()
        worker = factory()
        worker.begin_round()
        for _tid, key, value in _EMITS:
            worker.emitter(0).emit(key, value)
        worker.seal()
        container.absorb(worker.drain())
        container.seal()
        parts = container.partitions(1)
        flat = sorted(kv for part in parts for kv in part)
        assert flat == [(b"a", [4]), (b"b", [7]), (b"c", [4])]
        assert manager.stats().runs == 0
        manager.cleanup()

    def test_absorb_past_budget_spills(self):
        factory = lambda: HashContainer(SumCombiner())  # noqa: E731
        container, manager = self._spillable(factory, budget=600)
        container.begin_round()
        worker = factory()
        worker.begin_round()
        for i in range(100):
            worker.emitter(0).emit(b"key-%03d" % i, i)
        worker.seal()
        container.absorb(worker.drain())
        container.seal()
        assert manager.stats().runs > 0
        parts = container.partitions(2)
        merged = dict(kv for part in parts for kv in part)
        assert len(merged) == 100
        assert merged[b"key-042"] == [42]
        manager.cleanup()

    def test_absorb_array_delta_recreates_segments(self):
        container, manager = self._spillable(ArrayContainer, budget=1 << 20)
        container.begin_round()
        worker = ArrayContainer()
        worker.begin_round()
        worker.emitter(0).emit(b"x", 1)
        worker.emitter(1).emit(b"y", 2)
        worker.seal()
        container.absorb(worker.drain())
        container.seal()
        # Two worker segments -> two inner segments -> round-robin parts.
        assert container.partitions(2) == [[(b"x", [1])], [(b"y", [2])]]
        manager.cleanup()

    def test_unknown_kind_raises(self):
        container, manager = self._spillable(ArrayContainer, budget=1 << 20)
        container.begin_round()
        with pytest.raises(ContainerError, match="cannot absorb"):
            container.absorb(ContainerDelta(kind="mystery", emits=0, items=()))
        manager.cleanup()


class TestBaseDefaults:
    def test_unported_container_refuses_transport(self):
        class Plain(Container):
            def emitter(self, task_id):
                """Unused."""
                raise NotImplementedError

            def partitions(self, n):
                """Unused."""
                return []

            def stats(self):
                """Unused."""
                return ContainerStats()

        plain = Plain()
        with pytest.raises(NotImplementedError, match="drain"):
            plain.drain()
        with pytest.raises(NotImplementedError, match="absorb"):
            plain.absorb(ContainerDelta(kind="hash", emits=0, items=[]))

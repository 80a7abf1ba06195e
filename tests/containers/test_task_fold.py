"""Per-task combining in HashContainer: fold order and handle lifecycle.

Each map task combines into a private dict; pending dicts fold into the
container in task-id order.  Whether the task dicts live in one shared
container (serial/thread backends) or in per-task worker containers
drained and absorbed in task order (process backend), the result must
equal a naive per-key fold over the emits in task order.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.inverted_index import make_inverted_index_job
from repro.containers.combiners import (
    CountCombiner,
    FirstCombiner,
    ListCombiner,
    MaxCombiner,
    MinCombiner,
    SumCombiner,
)
from repro.containers.hash_container import HashContainer
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.errors import ContainerError
from repro.util.hashing import stable_hash

COMBINERS = [
    SumCombiner, CountCombiner, MinCombiner, MaxCombiner, FirstCombiner,
    ListCombiner,
]

emit_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.sampled_from([b"a", b"b", b"c", b"d", b"e", b"f"]),
        st.integers(min_value=-9, max_value=9),
    ),
    max_size=60,
)


def _shared(combiner_cls, emits, n):
    """All tasks' handles on one container; emits arrive interleaved."""
    container = HashContainer(combiner_cls())
    container.begin_round()
    task_ids = sorted({tid for tid, _k, _v in emits}, reverse=True)
    handles = {tid: container.emitter(tid) for tid in task_ids}
    for tid, key, value in emits:
        handles[tid].emit(key, value)
    container.seal()
    return container.partitions(n)


def _absorbed(combiner_cls, emits, n):
    """One worker container per task, drained and absorbed in task order."""
    parent = HashContainer(combiner_cls())
    parent.begin_round()
    for task_id in sorted({tid for tid, _k, _v in emits}):
        worker = HashContainer(combiner_cls())
        worker.begin_round()
        handle = worker.emitter(task_id)
        for tid, key, value in emits:
            if tid == task_id:
                handle.emit(key, value)
        worker.seal()
        parent.absorb(worker.drain())
    parent.seal()
    return parent.partitions(n)


def _naive(combiner_cls, emits, n):
    """Per-key initial/update over the emits stably sorted by task id."""
    combiner = combiner_cls()
    states: dict = {}
    for _tid, key, value in sorted(emits, key=lambda e: e[0]):
        if key in states:
            states[key] = combiner.update(states[key], value)
        else:
            states[key] = combiner.initial(value)
    parts: list[list] = [[] for _ in range(n)]
    for key, state in states.items():
        parts[stable_hash(key) % n].append((key, combiner.finish(state)))
    return parts


class TestFoldProperty:
    @pytest.mark.parametrize("combiner_cls", COMBINERS,
                             ids=lambda c: c.__name__)
    @settings(max_examples=60, deadline=None)
    @given(emits=emit_lists, n=st.integers(min_value=1, max_value=4))
    def test_shared_absorbed_and_naive_agree(self, combiner_cls, emits, n):
        expected = _naive(combiner_cls, emits, n)
        assert _shared(combiner_cls, emits, n) == expected
        assert _absorbed(combiner_cls, emits, n) == expected

    def test_stats_count_every_emit(self):
        emits = [(1, b"a", 1), (0, b"a", 1), (1, b"b", 1), (0, b"c", 1)]
        container = HashContainer(SumCombiner())
        container.begin_round()
        handles = {tid: container.emitter(tid) for tid in (0, 1)}
        for tid, key, value in emits:
            handles[tid].emit(key, value)
        stats = container.stats()
        assert (stats.emits, stats.distinct_keys) == (4, 3)


class TestHandleLifecycle:
    def test_handle_taken_before_seal_raises_after_seal(self):
        container = HashContainer(SumCombiner())
        container.begin_round()
        handle = container.emitter(0)
        handle.emit(b"k", 1)
        container.seal()
        with pytest.raises(ContainerError):
            handle.emit(b"k", 1)
        # the refused emit left the folded state alone
        assert container.partitions(1) == [[(b"k", [1])]]

    def test_handle_from_an_ended_wave_raises(self):
        container = HashContainer(SumCombiner())
        container.begin_round()
        old = container.emitter(0)
        old.emit(b"k", 1)
        container.begin_round()
        with pytest.raises(ContainerError):
            old.emit(b"k", 1)
        container.emitter(1).emit(b"k", 2)
        container.seal()
        assert container.partitions(1) == [[(b"k", [3])]]


def test_concurrent_tasks_lose_no_emit():
    # More threads than cores and a tiny switch interval: a lost
    # registration or a shared-dict race would drop counts.
    container = HashContainer(SumCombiner())
    container.begin_round()

    def task(task_id: int) -> None:
        emitter = container.emitter(task_id)
        for i in range(2000):
            emitter.emit(i % 50, 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for future in [pool.submit(task, t) for t in range(32)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    container.seal()
    assert container.stats().emits == 32 * 2000
    totals = {k: v for part in container.partitions(3) for k, v in part}
    assert totals == {i: [32 * 40] for i in range(50)}


def _posting_order_reduce(key, values):
    """Keep raw posting order, so value interleaving would show."""
    yield (key, tuple(values))


@pytest.fixture(scope="module")
def index_input(tmp_path_factory: pytest.TempPathFactory):
    rng = random.Random(5)
    words = [b"w%02d" % i for i in range(40)]
    lines = [
        b"doc%04d\t" % doc + b" ".join(rng.choices(words, k=12))
        for doc in range(3000)
    ]
    path = tmp_path_factory.mktemp("index") / "docs.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


def test_inverted_index_thread_matches_serial(index_input):
    job = dataclasses.replace(
        make_inverted_index_job([index_input]),
        reduce_fn=_posting_order_reduce,
    )

    def run(backend: str):
        options = RuntimeOptions.baseline(num_mappers=4, num_reducers=2)
        return PhoenixRuntime(options.with_(executor_backend=backend)).run(job)

    serial = run("serial").output
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the mappers' emits finely
    try:
        for _ in range(5):
            assert run("thread").output == serial
    finally:
        sys.setswitchinterval(interval)

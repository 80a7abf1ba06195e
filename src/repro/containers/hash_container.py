"""Hash container: on-insert combining in per-task dicts (Phoenix++'s default).

Right when many emits collapse to few keys (word count), wasted on
unique keys (sort, paper section V.B).  ``emitter(task_id)`` registers a
private dict per map task, so an emit is one dict lookup plus
``Combiner.update``: no lock, no key hash, no open-check.  Pending dicts
fold into the one table with ``Combiner.merge`` in task-id order where
no task emits (``begin_round``, ``seal``, ``drain``, ``absorb``,
``stats``, ``len``), closing their handles — the same fold tree as the
process backend's drain/absorb.  Only ``partitions`` hashes keys, with
``stable_hash``, so placement matches across processes and hosts.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Any, Hashable, Iterable

from repro.containers.base import (
    Container,
    ContainerDelta,
    ContainerStats,
    Emitter,
)
from repro.containers.combiners import Combiner, ListCombiner
from repro.errors import ContainerError
from repro.util.hashing import stable_hash


class _Closed:
    """Stands in for a folded task dict: emitting through it fails."""

    def __contains__(self, key: Hashable) -> bool:
        raise ContainerError("emit after seal or after the task's wave ended")


_CLOSED = _Closed()
_by_task = attrgetter("task_id")


class _TaskEmitter(Emitter):
    __slots__ = ("local", "emits", "_initial", "_update")

    def __init__(self, container: "HashContainer", task_id: int) -> None:
        super().__init__(container, task_id)
        self.local: Any = {}
        self.emits = 0
        self._initial = container.combiner.initial
        self._update = container.combiner.update

    def emit(self, key: Hashable, value: Any) -> None:
        local = self.local
        if key in local:
            local[key] = self._update(local[key], value)
        else:
            local[key] = self._initial(value)
        self.emits += 1


class HashContainer(Container):
    """Hash of key -> combined state, fed by per-task dicts."""

    def __init__(self, combiner: Combiner | None = None) -> None:
        super().__init__()
        self.combiner = combiner or ListCombiner()
        self._table: dict[Hashable, Any] = {}
        self._pending: list[_TaskEmitter] = []
        self._lock = threading.Lock()
        self._emits = 0

    def begin_round(self) -> None:
        """Fold the ended wave's task dicts, then start a new wave."""
        self._fold()
        super().begin_round()

    def seal(self) -> None:
        """Fold every pending task dict (closing its handle); no more emits."""
        self._fold()
        super().seal()

    def emitter(self, task_id: int) -> Emitter:
        """Register a fresh private dict for one map task."""
        self._check_open()
        handle = _TaskEmitter(self, task_id)
        with self._lock:  # only registration locks
            self._pending.append(handle)
        return handle

    def _fold(self) -> None:
        # Stable sort: a task registered twice (a retry) keeps its place.
        with self._lock:
            pending, self._pending = self._pending, []
        for handle in sorted(pending, key=_by_task):
            local, handle.local = handle.local, _CLOSED
            self._emits += handle.emits
            if self._table:
                self._merge(local.items())
            else:
                self._table = local  # adopt: O(1) for a one-task worker

    def _merge(self, items: Iterable[tuple[Hashable, Any]]) -> None:
        table, merge = self._table, self.combiner.merge
        for key, state in items:
            table[key] = merge(table[key], state) if key in table else state

    def partitions(self, n: int) -> list[list[tuple[Hashable, Any]]]:
        """Reducer partitions by key hash; values are combiner-finished."""
        if n < 1:
            raise ContainerError("need at least one reducer partition")
        if not self.sealed:
            raise ContainerError("partitions() before seal()")
        parts: list[list[tuple[Hashable, Any]]] = [[] for _ in range(n)]
        finish = self.combiner.finish
        for key, state in self._table.items():
            parts[stable_hash(key) % n].append((key, finish(state)))
        return parts

    def drain(self) -> ContainerDelta:
        """Pack pre-finish (key, state) pairs: one per key, not per emit."""
        self._fold()
        items = list(self._table.items())
        return ContainerDelta(kind="hash", emits=self._emits, items=items)

    def absorb(self, delta: ContainerDelta) -> None:
        """Merge a worker's combined pairs into the table."""
        if delta.kind != "hash":
            raise ContainerError(
                f"HashContainer cannot absorb a {delta.kind!r} delta"
            )
        self._check_open()
        self._fold()
        self._merge(delta.items)
        self._emits += delta.emits

    def stats(self) -> ContainerStats:
        """Emit/key counters (pending task dicts fold first)."""
        self._fold()
        return ContainerStats(self._emits, len(self._table), self.rounds)

    def __len__(self) -> int:
        self._fold()
        return len(self._table)

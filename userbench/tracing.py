"""Spans around the public boundaries of each layer, for traced runs.

Nothing in ``src/`` changes.  In a traced run every interpreter the
benchmark starts (one-shot CLI, service runner) imports
``tracehook/sitecustomize.py``, which calls :func:`install`.  That wraps
the functions in :data:`BOUNDARIES` in place: the defining module or
class gets the wrapper, and so does every loaded ``repro`` module that
imported the function by name.

A span is ``(name, start, end, parent, counts)``, ``parent`` being the
index of the enclosing span in the same thread; ``start``/``end`` are
``time.perf_counter()`` readings, which on Linux come from
CLOCK_MONOTONIC and so compare across processes.  Spans stay in memory
and each process writes its own ``spans-<pid>.json`` when its
interpreter exits.  The benchmark runs one job at a time and stamps each
span with the job whose time window holds its start.

Only processes that leave through normal interpreter exit are recorded:
the CLI coordinator and the service runner.  Forked pool, shard and
agent workers end with ``os._exit`` and their spans are dropped (the
fork hook clears what they inherit), so every boundary here is timed
from the parent side: ``xfer.pack`` covers task frames the parent sends
and ``xfer.unpack`` result frames it receives, not the worker halves.

A boundary whose module or attribute no longer exists is listed as
absent, never an error, so deleting a code path leaves the benchmark
running.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable


def _frame_bytes(frame: tuple) -> int:
    # inline frames are (tag, blob, buffers); segment frames are
    # (tag, name, blob_len, buffer_lens)
    if len(frame) == 3:
        return len(frame[1]) + sum(len(b) for b in frame[2])
    return frame[2] + sum(frame[3])


def _pool_counts(args, kwargs, result) -> dict[str, int]:
    return {
        "tasks": len(args[1]),
        "skipped": len(result.skipped),
        "respawns": result.respawns,
        "lease_expiries": result.hangs,
        "redispatches": result.redispatches,
    }


def _pack_counts(args, kwargs, result) -> dict[str, int]:
    return {"frames": 1, "bytes": _frame_bytes(result)}


def _unpack_counts(args, kwargs, result) -> dict[str, int]:
    return {"frames": 1, "bytes": _frame_bytes(args[1])}


#: (span name, module, attribute path, counts(args, kwargs, result) or None)
BOUNDARIES: tuple[tuple[str, str, str, "Callable | None"], ...] = (
    ("chunking.plan", "repro.chunking.planner", "plan_chunks", None),
    ("pipeline.run", "repro.pipeline.double_buffer",
     "DoubleBufferedPipeline.run", None),
    ("pipeline.run", "repro.pipeline.prefetch", "PrefetchPipeline.run", None),
    ("pipeline.ingest", "repro.chunking.chunk", "Chunk.warm",
     lambda args, kwargs, result: {"bytes": args[0].length}),
    ("pipeline.ingest", "repro.chunking.chunk", "Chunk.load",
     lambda args, kwargs, result: {"bytes": len(result)}),
    ("execution.map_wave", "repro.core.execution", "run_mapper_wave",
     lambda args, kwargs, result: {"tasks": result}),
    ("execution.reduce", "repro.core.execution", "run_reducers", None),
    ("sortlib.merge", "repro.core.execution", "merge_outputs",
     lambda args, kwargs, result: {"pairs": len(result[0])}),
    ("containers.absorb", "repro.containers.hash_container",
     "HashContainer.absorb", None),
    ("containers.absorb", "repro.containers.array_container",
     "ArrayContainer.absorb", None),
    ("containers.partitions", "repro.containers.hash_container",
     "HashContainer.partitions", None),
    ("containers.partitions", "repro.containers.array_container",
     "ArrayContainer.partitions", None),
    ("pool.run_wave", "repro.resilience.supervisor", "WorkerPool.run_wave",
     _pool_counts),
    ("xfer.pack", "repro.xfer.transport", "ShmTransport.pack", _pack_counts),
    ("xfer.pack", "repro.xfer.transport", "PipeTransport.pack", _pack_counts),
    ("xfer.unpack", "repro.xfer.transport", "ShmTransport.unpack", _unpack_counts),
    ("xfer.unpack", "repro.xfer.transport", "PipeTransport.unpack", _unpack_counts),
    ("result.digest", "repro.core.result", "JobResult.output_digest", None),
    ("shard.run", "repro.shard.coordinator", "ShardedRuntime.run", None),
)


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[list[Any]] = []
        self.absent: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list[tuple[str, list]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, counts: "Callable | None") -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if any(open_name == name for open_name, _ in stack):
                return fn(*args, **kwargs)  # count a layer once, outermost
            parent = stack[-1][1] if stack else None
            span = [name, time.perf_counter(), None, parent, None]
            recorder.spans.append(span)
            stack.append((name, span))
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                try:
                    span[4] = counts(args, kwargs, result)
                except Exception:  # a count is optional; the call is not
                    span[4] = None
            return result

        traced.__wrapped_by_bench__ = True
        return traced

    def after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()

    def dump(self) -> None:
        if os.getpid() != self.pid:
            return
        done = [s for s in self.spans if s[2] is not None]
        index = {id(s): i for i, s in enumerate(done)}
        data = {
            "pid": self.pid,
            "argv": sys.argv,
            "absent": self.absent,
            "spans": [[name, start, end, index.get(id(parent)), counts]
                      for name, start, end, parent, counts in done],
        }
        path = self.out_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        os.replace(tmp, path)  # a reader never sees half a file


def _patch_function(module, attr: str, wrapper: Callable) -> None:
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def install(out_dir: Path, boundaries=BOUNDARIES) -> Recorder:
    """Wrap every boundary that exists; dump spans at interpreter exit."""
    recorder = Recorder(out_dir)
    for name, module_name, path, counts in boundaries:
        try:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            recorder.absent.append(f"{module_name}.{path}")
            continue
        if getattr(fn, "__wrapped_by_bench__", False):
            continue  # inherited from a class already wrapped
        wrapper = recorder.wrap(name, fn, counts)
        if owner is module:
            _patch_function(module, attr, wrapper)
        else:
            setattr(owner, attr, wrapper)
    os.register_at_fork(after_in_child=recorder.after_fork)
    atexit.register(recorder.dump)
    return recorder


# -- benchmark side --------------------------------------------------------


def load(out_dir: Path) -> tuple[list[dict], list[str]]:
    """Every span written under ``out_dir``, and the absent boundaries."""
    spans: list[dict] = []
    absent: set[str] = set()
    for path in sorted(out_dir.glob("spans-*.json")):
        data = json.loads(path.read_text())
        absent.update(data["absent"])
        pid = data["pid"]
        for i, (name, start, end, parent, counts) in enumerate(data["spans"]):
            spans.append({
                "id": f"{pid}:{i}", "name": name, "start": start, "end": end,
                "parent": None if parent is None else f"{pid}:{parent}",
                "counts": counts or {},
            })
    return spans, sorted(absent)


def assign_jobs(spans: list[dict], windows: list[tuple[str, float, float]]) -> None:
    """Stamp each span with the id of the job whose window holds its start."""
    for span in spans:
        span["job"] = next(
            (job for job, t0, t1 in windows if t0 <= span["start"] <= t1), None
        )


def per_job(spans: list[dict], job: str) -> dict[str, float]:
    """Seconds per span name, and summed counts as ``<name>.<count>``."""
    totals: dict[str, float] = {}
    for span in spans:
        if span["job"] != job:
            continue
        key = span["name"] + "_s"
        totals[key] = totals.get(key, 0.0) + span["end"] - span["start"]
        for count, value in span["counts"].items():
            ckey = f"{span['name']}.{count}"
            totals[ckey] = totals.get(ckey, 0) + value
    return totals

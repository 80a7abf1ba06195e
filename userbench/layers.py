"""The benchmark's metric vocabulary.

``END_TO_END`` is what a user of ``supmr`` waits on and pays for; it is
measured with tracing off.  ``PER_LAYER`` is what a traced run reports,
one row per metric: its unit, which direction is better, the end-to-end
metric it should move, and the workloads on which it should move it.
Later changes cite these names.  ``BENCHMARK.json`` lists the same
names and units; ``selftest.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS = ("wordcount", "terasort", "service", "multihost")

#: One sentence per workload on why it is in the benchmark.
WHY = {
    "wordcount": "one-shot Zipf word count: ingest, map, emit and combine "
                 "dominate; merge is idle",
    "terasort": "one-shot TeraGen sort: unique keys, no combining, large "
                "deltas through the transport; reduce and merge dominate",
    "service": "closed loop of small jobs through a warm daemon: runner "
               "spawn, import and protocol overhead dominate",
    "multihost": "wordcount sharded over two local agents: the only path "
                 "through the shard and net layers",
}


#: (name, unit); every one is better lower.  Bounds live in BENCHMARK.json.
END_TO_END = (
    ("job_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    workloads: tuple[str, ...]


_ALL = WORKLOADS
_RUNTIME = ("wordcount", "terasort")

PER_LAYER = (
    Layer("startup.import_s", "s", "lower", "job_s", _ALL),
    Layer("startup.modules_loaded", "count", "lower", "job_s", _ALL),
    Layer("chunking.plan_s", "s", "lower", "job_s", ("wordcount",)),
    Layer("pipeline.run_s", "s", "lower", "job_s", ("wordcount",)),
    Layer("pipeline.ingest_s", "s", "lower", "job_s", ("wordcount",)),
    Layer("pipeline.ingest_bytes", "bytes", "lower", "job_s", ("wordcount",)),
    Layer("pipeline.overlap_ratio", "ratio", "higher", "job_s", ("wordcount",)),
    Layer("execution.map_wave_s", "s", "lower", "job_s", ("wordcount",)),
    Layer("execution.map_tasks", "count", "lower", "cpu_s", ("wordcount",)),
    Layer("execution.reduce_s", "s", "lower", "job_s", ("terasort",)),
    Layer("containers.emits", "count", "lower", "cpu_s", _RUNTIME),
    Layer("containers.distinct_keys", "count", "lower", "cpu_s", _RUNTIME),
    Layer("containers.combine_ratio", "ratio", "higher", "cpu_s", _RUNTIME),
    Layer("containers.absorb_s", "s", "lower", "job_s", ("wordcount",)),
    Layer("containers.partitions_s", "s", "lower", "job_s", ("terasort",)),
    Layer("pool.run_wave_s", "s", "lower", "job_s", _RUNTIME),
    Layer("pool.tasks", "count", "lower", "job_s", _RUNTIME),
    Layer("pool.respawns", "count", "lower", "job_s", _RUNTIME),
    Layer("pool.lease_expiries", "count", "lower", "job_s", _RUNTIME),
    Layer("pool.redispatches", "count", "lower", "job_s", _RUNTIME),
    Layer("pool.dispatch_ratio", "ratio", "lower", "job_s", _RUNTIME),
    Layer("xfer.pack_s", "s", "lower", "job_s", ("terasort",)),
    Layer("xfer.unpack_s", "s", "lower", "job_s", ("terasort",)),
    Layer("xfer.frames", "count", "lower", "job_s", ("terasort",)),
    Layer("xfer.bytes", "bytes", "lower", "job_s", ("terasort",)),
    Layer("sortlib.merge_s", "s", "lower", "job_s", ("terasort",)),
    Layer("sortlib.merge_pairs", "count", "lower", "job_s", ("terasort",)),
    Layer("result.digest_s", "s", "lower", "job_s", ("terasort",)),
    Layer("service.submit_s", "s", "lower", "job_s", ("service",)),
    Layer("service.queue_s", "s", "lower", "job_s", ("service",)),
    Layer("service.run_s", "s", "lower", "job_s", ("service",)),
    Layer("service.runner_overhead_s", "s", "lower", "job_s", ("service",)),
    Layer("service.result_s", "s", "lower", "job_s", ("service",)),
    Layer("shard.run_s", "s", "lower", "job_s", ("multihost",)),
    Layer("shard.respawns", "count", "lower", "job_s", ("multihost",)),
    Layer("shard.exchange_refetches", "count", "lower", "job_s", ("multihost",)),
    Layer("net.overhead_s", "s", "lower", "job_s", ("multihost",)),
    Layer("net.host_losses", "count", "lower", "job_s", ("multihost",)),
    Layer("net.fallbacks", "count", "lower", "job_s", ("multihost",)),
    Layer("trace.overhead_ratio", "ratio", "lower", "job_s", _ALL),
)

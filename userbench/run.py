"""Benchmark for the paths a ``supmr`` user waits on.

Run from the root of a checkout::

    python3 userbench/run.py --workload wordcount --seed 1 --seconds 20 --trace 0

Workloads (see ``layers.WHY``): ``wordcount`` and ``terasort`` run the
one-shot CLI, ``service`` submits to a warm daemon, ``multihost`` shards
over two local agents.  Set-up (inputs from ``--seed``, reference
digest, daemon/agents answering) is done three times and its median is
``setup_s``.  Then jobs run one at a time for ``--seconds``.  Every
job's digest is checked against the benchmark's own reference, and
every job must leave no orphan process, ``/dev/shm/rxf*`` segment or
``repro-spill-*`` directory.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced jobs and reports the per-layer metrics of
``layers.PER_LAYER`` (see ``tracing.py`` for how spans are taken).
The last line of standard output is one JSON object; the lines before
it say the same for a reader, plus what the JSON has no room for.  A
full record, spans included, goes to ``.bench_out/``.

All files are written under ``.bench_work/`` (removed afterwards) and
``.bench_out/`` in the checkout; child processes get ``TMPDIR`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import checks
import jobs
import layers
import procs
import tracing

SETUP_REPEATS = 3
IMPORT_PROBES = 5
HERE = Path(__file__).resolve().parent

_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import repro.cli\n"
    "print(time.perf_counter() - t, len(sys.modules))\n"
)


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else unknown."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def import_probe(env: dict[str, str]) -> tuple[float, int]:
    """Median seconds for ``import repro.cli`` in a fresh interpreter, and
    the modules it leaves loaded."""
    times, modules = [], 0
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
            capture_output=True, text=True, timeout=jobs.JOB_TIMEOUT_S,
        ).stdout.split()
        times.append(float(out[0]))
        modules = int(out[1])
    return checks.median(times), modules


def job_layers(sample: jobs.Sample, spans: list[dict],
               import_s: float) -> dict[str, float]:
    """Per-layer values of one traced job, keyed by metric name."""
    raw = tracing.per_job(spans, sample.job)
    values = {k: v for k, v in raw.items() if k.endswith("_s")}
    report = sample.report or {}
    container = report.get("container", {})
    counters = report.get("counters", {})
    timings = report.get("timings", {})
    rounds = timings.get("rounds", [])
    map_total = sum(r["map_s"] for r in rounds)
    hidden = sum(min(r["ingest_s"], r["map_s"]) for r in rounds
                 if r["ingest_s"] > 0 and r["map_s"] > 0)
    emits = container.get("emits", 0)
    distinct = container.get("distinct_keys", 0)
    tasks = raw.get("pool.run_wave.tasks", 0)
    redispatches = raw.get("pool.run_wave.redispatches", 0)
    completed = tasks - raw.get("pool.run_wave.skipped", 0)
    values.update({
        "pipeline.ingest_bytes": raw.get("pipeline.ingest.bytes", 0),
        "pipeline.overlap_ratio": hidden / map_total if map_total else 0.0,
        "execution.map_tasks": counters.get("map_tasks", 0),
        "containers.emits": emits,
        "containers.distinct_keys": distinct,
        "containers.combine_ratio": emits / distinct if distinct else 0.0,
        "pool.tasks": tasks,
        "pool.respawns": raw.get("pool.run_wave.respawns", 0),
        "pool.lease_expiries": raw.get("pool.run_wave.lease_expiries", 0),
        "pool.redispatches": redispatches,
        "pool.dispatch_ratio":
            (tasks + redispatches) / completed if completed > 0 else 0.0,
        "xfer.frames": raw.get("xfer.pack.frames", 0)
            + raw.get("xfer.unpack.frames", 0),
        "xfer.bytes": raw.get("xfer.pack.bytes", 0)
            + raw.get("xfer.unpack.bytes", 0),
        "sortlib.merge_pairs": raw.get("sortlib.merge.pairs", 0),
        "shard.respawns": counters.get("shard_respawns", 0),
        "shard.exchange_refetches": counters.get("exchange_refetches", 0),
        "net.host_losses": counters.get("net_host_losses", 0),
        "net.fallbacks": 1 if counters.get("net_fallback") else 0,
    })
    if sample.phases:
        values.update(sample.phases)
    elif "total_s" in timings:
        # one-shot: what the job costs beyond the runtime and the import
        values["net.overhead_s"] = sample.wall_s - timings["total_s"] - import_s
    return values


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        self.args = args
        self.root = root
        self.work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
        self.tmp = self.work / "tmp"
        self.trace_dir = self.work / "trace"
        self.token = uuid.uuid4().hex
        src = str(root / "src")
        self.plain_env = dict(os.environ, PYTHONPATH=src, TMPDIR=str(self.tmp),
                              BENCH_TOKEN=self.token)
        self.plain_env.pop("BENCH_TRACE_DIR", None)
        env = dict(self.plain_env)
        if args.trace:
            env["PYTHONPATH"] = os.pathsep.join([str(HERE / "tracehook"), src])
            env["BENCH_TRACE_DIR"] = str(self.trace_dir)
        self.ctx = jobs.Context(self.work, env, args.seed)
        self.setup_s: list[float] = []
        self.samples: list[jobs.Sample] = []

    def run(self) -> dict:
        for d in (self.tmp, self.trace_dir):
            d.mkdir(parents=True, exist_ok=True)
        workload = jobs.WORKLOADS[self.args.workload](self.ctx)
        leaks = procs.LeakCheck(self.token, self.tmp)
        try:
            for i in range(SETUP_REPEATS):
                if i:
                    workload.teardown()
                t0 = time.perf_counter()
                workload.setup()
                self.setup_s.append(time.perf_counter() - t0)
            leaks.keep |= workload.keep_pids()
            self.measure(workload, leaks)
        finally:
            workload.teardown()
        left = leaks.settle()
        if left and self.samples and self.samples[-1].error is None:
            self.samples[-1].error = "left behind: " + "; ".join(left)
        return self.report(workload)

    def measure(self, workload, leaks: procs.LeakCheck) -> None:
        on = self.trace_dir / "on"
        min_jobs = 2 if self.args.trace else 1
        deadline = time.perf_counter() + self.args.seconds
        while len(self.samples) < min_jobs or time.perf_counter() < deadline:
            traced = bool(self.args.trace) and len(self.samples) % 2 == 0
            if traced:
                on.touch()
            else:
                on.unlink(missing_ok=True)
            sample = workload.job(f"job{len(self.samples)}")
            sample.traced = traced
            left = leaks.settle()
            if left and sample.error is None:
                sample.error = "left behind: " + "; ".join(left)
            self.samples.append(sample)

    def report(self, workload) -> dict:
        ok = [s for s in self.samples if s.error is None]
        timed = ok or self.samples
        walls = [s.wall_s for s in timed]
        record = {
            "env": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "commit": commit(self.root),
                "seed": self.args.seed,
                "workload": self.args.workload,
                "why": layers.WHY[self.args.workload],
                "seconds": self.args.seconds,
                "trace": self.args.trace,
            },
            "attempted": len(self.samples),
            "failed": len(self.samples) - len(ok),
            "failures": [f"{s.job}: {s.error}" for s in self.samples if s.error],
            "jobs": [{"job": s.job, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                      "rss_mb": s.rss_mb, "traced": s.traced, "error": s.error}
                     for s in self.samples],
            "setup_s": self.setup_s,
            "tail": checks.tail(walls),
        }
        if not self.args.trace:
            record["metrics"] = {
                "job_s": checks.median(walls),
                "cpu_s": checks.median([s.cpu_s for s in timed]),
                "peak_rss_mb": max([s.rss_mb for s in timed]
                                   + [workload.daemon_rss_mb]),
                "setup_s": checks.median(self.setup_s),
            }
            return record
        import_s, modules = import_probe(self.plain_env)
        spans, absent = tracing.load(self.trace_dir)
        traced = [s for s in ok if s.traced]
        tracing.assign_jobs(spans, [(s.job, s.start, s.end) for s in traced])
        per_job = [job_layers(s, spans, import_s) for s in traced]
        untraced = [s.wall_s for s in ok if not s.traced]
        metrics = {}
        for layer in layers.PER_LAYER:
            values = [v.get(layer.name, 0.0) for v in per_job]
            metrics[layer.name] = checks.median(values) if values else 0.0
        metrics["startup.import_s"] = import_s
        metrics["startup.modules_loaded"] = modules
        metrics["trace.overhead_ratio"] = (
            checks.median([s.wall_s for s in traced]) / checks.median(untraced)
            if traced and untraced else 0.0
        )
        record["metrics"] = metrics
        record["absent"] = absent
        record["idle"] = [
            layer.name for layer in layers.PER_LAYER
            if self.args.workload not in layer.workloads
            and metrics[layer.name] == 0
        ]
        record["spans"] = [s for s in spans if s["job"] is not None]
        return record


def emit(record: dict, units: dict[str, str]) -> None:
    """The reader's lines, then the one-line JSON result."""
    env = record["env"]
    print("env: " + json.dumps(env, sort_keys=True))
    for name, value in record["metrics"].items():
        print(f"{env['workload']:10s} {name:28s} {value:.6g} {units[name]}")
    n = record["attempted"]
    print(f"{env['workload']:10s} failed_ratio {record['failed']}/{n} = "
          f"{record['failed'] / n:.3g}")
    if record["tail"] is None:
        print(f"{env['workload']:10s} job_tail_s not reported: {n} job(s), "
              f"a tail needs more than {checks.TAIL_BEYOND}")
    else:
        pct, value, count = record["tail"]
        print(f"{env['workload']:10s} job_tail_s p{pct:.1f} = {value:.6g} s "
              f"over {count} jobs")
    for line in record["failures"]:
        print(f"FAILED {line}")
    if record.get("absent"):
        print("absent boundaries: " + ", ".join(record["absent"]))
    if record.get("idle"):
        print("not reached on this workload (reported as 0): "
              + ", ".join(record["idle"]))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": n,
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds through every teardown


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the root of a checkout with src/repro/cli.py",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    signal.signal(signal.SIGTERM, _terminate)
    bench = Bench(args, root)
    try:
        record = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    units = {name: unit for name, unit in layers.END_TO_END}
    units.update({layer.name: layer.unit for layer in layers.PER_LAYER})
    emit(record, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())

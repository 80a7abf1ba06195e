"""The four workloads: inputs, long-lived processes, and one job each.

Every job runs with ``--mappers 2 --reducers 2 --backend process``.  A
workload's ``setup`` makes its inputs from the seed with the
``repro.workloads`` generators, computes the reference digest with the
benchmark's own code, and starts the daemon or agents it needs, waiting
until they answer.  ``job`` runs one job and returns a :class:`Sample`;
it never raises for a job that fails, it records why.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks
import procs

JOB_TIMEOUT_S = 60.0
START_TIMEOUT_S = 30.0
RUNTIME_ARGS = ("--mappers", "2", "--reducers", "2", "--backend", "process")
TEXT_BYTES = 8 << 20
SERVICE_TEXT_BYTES = 1 << 20
SORT_RECORDS = 300_000
VOCAB_SIZE = 5000
VOCAB_SEED = 7
LINE_WORDS = 12


def write_text(path: Path, nbytes: int, seed: int) -> None:
    """``nbytes`` of Zipf(1.1) text, ``LINE_WORDS`` words a line.

    Built from ``repro.workloads``' vocabulary and sampler like
    ``generate_text_file``, except that the vocabulary is the same for
    every seed and only the word sequence follows ``seed``.  A
    vocabulary drawn per seed changes the length of the most frequent
    words, and with it the number of words in the file by up to 15%,
    which would swamp every run-to-run comparison.
    """
    from repro.workloads import ZipfSampler, make_vocabulary

    vocab = make_vocabulary(VOCAB_SIZE, seed=VOCAB_SEED)
    sampler = ZipfSampler(VOCAB_SIZE, 1.1, seed=seed)
    text = bytearray()
    while len(text) < nbytes:
        words = [vocab[r] for r in sampler.sample(LINE_WORDS * 4096).tolist()]
        for i in range(0, len(words), LINE_WORDS):
            text += b" ".join(words[i:i + LINE_WORDS]) + b"\n"
    del text[nbytes:]
    text[-1:] = b"\n"
    path.write_bytes(text)


@dataclass
class Sample:
    """One job as the benchmark saw it."""

    job: str
    start: float
    end: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    traced: bool = False
    report: dict[str, Any] | None = None
    #: Client-side phase times (service) keyed by per-layer metric name.
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Context:
    """What every workload shares within one benchmark run."""

    work: Path
    env: dict[str, str]
    seed: int

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro.cli", *args]


def _load_report(text: str) -> dict[str, Any]:
    report = json.loads(text)
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")
    return report


class Workload:
    """Inputs, long-lived processes and jobs of one workload.

    By default a job is a fresh ``supmr`` CLI interpreter whose
    ``--json`` report is checked against the reference digest.
    """

    app = "wordcount"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.input = ctx.work / "input.dat"
        self.expected = ""
        self.daemons: list = []  # long-lived processes, stopped in teardown
        self.daemon_rss_mb = 0.0

    def make_input(self) -> None:
        write_text(self.input, TEXT_BYTES, self.ctx.seed)

    def start_daemons(self) -> None:
        """Start and wait for the workload's long-lived processes."""

    def setup(self) -> None:
        self.make_input()
        self.expected = checks.reference_digest(self.app, self.input)
        self.start_daemons()

    def teardown(self) -> None:
        daemons, self.daemons = self.daemons, []
        for proc in daemons:
            rusage = procs.stop(proc)
            if rusage is not None:
                self.daemon_rss_mb = max(self.daemon_rss_mb,
                                         procs.rusage_rss_mb(rusage))

    def keep_pids(self) -> set[int]:
        return {p.pid for p in self.daemons}

    def job_args(self) -> list[str]:
        return ["wordcount", str(self.input), "--chunk-size", "1MB",
                *RUNTIME_ARGS, "--json"]

    def daemons_cpu_s(self) -> float:
        return sum(procs.proc_cpu_s(p.pid) for p in self.daemons)

    def job(self, name: str) -> Sample:
        out = self.ctx.work / f"{name}.json"
        err = self.ctx.work / f"{name}.err"
        cpu0 = self.daemons_cpu_s()
        sample = Sample(name, time.perf_counter())
        proc = procs.spawn(self.ctx.cli(*self.job_args()), self.ctx.env, out, err)
        code, rusage, timed_out = procs.reap(proc, JOB_TIMEOUT_S)
        if timed_out:
            sample.error = f"timed out after {JOB_TIMEOUT_S:.0f}s"
        elif code != 0:
            sample.error = f"exit {code}: {err.read_text()[-300:]}"
        else:
            try:
                sample.report = _load_report(out.read_text())
            except ValueError as exc:
                sample.error = f"unreadable report: {exc}"
            else:
                sample.error = self.check(sample.report)
        sample.end = time.perf_counter()
        sample.cpu_s = procs.rusage_cpu_s(rusage) + self.daemons_cpu_s() - cpu0
        sample.rss_mb = procs.rusage_rss_mb(rusage)
        return sample

    def check(self, report: dict[str, Any]) -> str | None:
        if report.get("digest") != self.expected:
            return f"digest {report.get('digest')} != reference {self.expected}"
        return None


class WordCount(Workload):
    pass


class TeraSort(Workload):
    app = "sort"

    def make_input(self) -> None:
        from repro.workloads import generate_terasort_file

        generate_terasort_file(self.input, SORT_RECORDS, seed=self.ctx.seed)

    def job_args(self) -> list[str]:
        return ["sort", str(self.input), "--chunk-size", "4MB",
                *RUNTIME_ARGS, "--json"]


class MultiHost(Workload):
    """WordCount with ``--shards 2`` placed on two local agents."""

    def start_daemons(self) -> None:
        from repro.net.remote import ping_agent

        addr_files = []
        for name in ("agent-a", "agent-b"):
            addr_file = self.ctx.work / f"{name}.addr"
            addr_file.unlink(missing_ok=True)
            log = self.ctx.work / f"{name}.log"
            self.daemons.append(procs.spawn(self.ctx.cli(
                "agent", "--listen", "127.0.0.1:0",
                "--workdir", str(self.ctx.work / name),
                "--addr-file", str(addr_file)), self.ctx.env, log, log))
            addr_files.append(addr_file)
        deadline = time.monotonic() + START_TIMEOUT_S
        addrs = []
        for proc, addr_file in zip(self.daemons, addr_files):
            while True:
                if proc.poll() is not None:
                    raise RuntimeError(f"agent exited with {proc.returncode}")
                if time.monotonic() > deadline:
                    raise RuntimeError("agent did not answer in time")
                text = addr_file.read_text().strip() if addr_file.exists() else ""
                if text:
                    try:
                        ping_agent(text)
                        break
                    except OSError:
                        pass
                time.sleep(0.02)
            addrs.append(text)
        self.peers = ",".join(addrs)

    def job_args(self) -> list[str]:
        return [*super().job_args(), "--shards", "2", "--peers", self.peers]

    def check(self, report: dict[str, Any]) -> str | None:
        counters = report.get("counters", {})
        if counters.get("net_fallback"):
            return f"fell back to local: {counters.get('net_fallback_reason')}"
        return super().check(report)


def _self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Service(Workload):
    """A warm ``supmr serve`` daemon; one client submits small wordcount
    jobs one after another, each with its own tag so every one runs."""

    client = None  # set once the daemon answers

    def make_input(self) -> None:
        write_text(self.input, SERVICE_TEXT_BYTES, self.ctx.seed)

    def start_daemons(self) -> None:
        from repro.errors import ReproError
        from repro.service.client import ServiceClient

        state = self.ctx.work / "service-state"
        log = self.ctx.work / "daemon.log"
        self.daemons.append(procs.spawn(self.ctx.cli(
            "serve", "--state-dir", str(state)), self.ctx.env, log, log))
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.daemons[0].poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.daemons[0].returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not answer in time")
            if (state / "endpoint.json").exists():
                try:
                    ServiceClient.from_state_dir(state, max_retries=0).ping()
                    break
                except (OSError, ValueError, ReproError):
                    pass
            time.sleep(0.02)
        self.client = ServiceClient.from_state_dir(state)

    def teardown(self) -> None:
        from repro.errors import ReproError

        if self.client is not None:
            with contextlib.suppress(OSError, ReproError):  # stop() kills it
                self.client.shutdown()
            self.client = None
        super().teardown()

    def job(self, name: str) -> Sample:
        from repro.errors import ReproError
        from repro.service.jobspec import ServiceJobSpec

        spec = ServiceJobSpec(
            app="wordcount", inputs=(str(self.input),), mappers=2,
            reducers=2, backend="process", chunk_size="1MB",
            tag=f"bench-{self.ctx.seed}-{name}",
        )
        seen: dict[str, float] = {}
        calls: dict[str, float] = {}
        client = self.client

        def timed(method: str):
            fn = getattr(client, method)

            def call(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    calls[method] = time.perf_counter() - t0
                    seen.setdefault(f"{method}_end", time.perf_counter())
            return call

        client.submit, client.result = timed("submit"), timed("result")
        cpu0 = self.daemons_cpu_s() + _self_cpu_s()
        sample = Sample(name, time.perf_counter())
        try:
            record, report = client.submit_and_wait(
                spec, timeout_s=JOB_TIMEOUT_S,
                on_transition=lambda r: seen.setdefault(
                    r.state, time.perf_counter()),
            )
        except ReproError as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
            with contextlib.suppress(ReproError):
                client.cancel(spec.job_id())
        else:
            sample.report = report
            if record.state != "done" or report is None:
                sample.error = f"job ended {record.state}: {record.error}"
            elif record.digest != self.expected:
                sample.error = (f"digest {record.digest} != reference "
                                f"{self.expected}")
            else:
                sample.error = self.check(report)
        finally:
            del client.submit, client.result
        sample.end = time.perf_counter()
        sample.cpu_s = self.daemons_cpu_s() + _self_cpu_s() - cpu0
        if sample.error is None:
            running = seen.get("running", seen["submit_end"])
            done = seen.get("done", running)
            sample.phases = {
                "service.submit_s": calls["submit"],
                "service.queue_s": running - seen["submit_end"],
                "service.run_s": done - running,
                "service.runner_overhead_s":
                    done - running - report["timings"]["total_s"],
                "service.result_s": calls["result"],
            }
        return sample


WORKLOADS = {
    "wordcount": WordCount,
    "terasort": TeraSort,
    "service": Service,
    "multihost": MultiHost,
}

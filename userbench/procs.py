"""Process plumbing for the benchmark: spawn, reap with rusage, CPU and
memory readings from ``/proc``, and the leak checks every job must pass.

Every process the benchmark starts gets ``BENCH_TOKEN`` in its
environment.  Forked workers inherit it, so after a job any live process
that still carries the token (other than the benchmark itself and the
daemon/agents it keeps on purpose) is an orphan, wherever it was
reparented to.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import threading
import time
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "rxf"
SPILL_PREFIX = "repro-spill-"


def spawn(argv: list[str], env: dict[str, str], out: Path,
          err: Path) -> subprocess.Popen:
    """Start ``argv`` as a process-group leader, output to files.

    Its own group lets a kill reach every process it forked.
    """
    with open(out, "ab") as out_fh, open(err, "ab") as err_fh:
        return subprocess.Popen(
            argv, env=env, stdout=out_fh, stderr=err_fh,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )


def kill_group(pid: int) -> None:
    """SIGKILL the process group led by ``pid`` (gone already is fine)."""
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


def reap(proc: subprocess.Popen, timeout_s: float):
    """Wait for ``proc`` for at most ``timeout_s``; returns
    ``(exit_code, rusage, timed_out)``.

    ``os.wait4`` gives the child's own rusage (its waited-for
    descendants included), which ``Popen.wait`` throws away.  On timeout
    the whole process group is killed and then reaped, so nothing the
    job started outlives it.
    """
    box: list = []
    waiter = threading.Thread(
        target=lambda: box.append(os.wait4(proc.pid, 0)), daemon=True
    )
    waiter.start()
    waiter.join(timeout_s)
    timed_out = waiter.is_alive()
    if timed_out:
        kill_group(proc.pid)
        waiter.join()
    _pid, status, rusage = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage, timed_out


def rusage_cpu_s(rusage) -> float:
    return rusage.ru_utime + rusage.ru_stime


def rusage_rss_mb(rusage) -> float:
    return rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def proc_cpu_s(pid: int) -> float:
    """utime+stime+cutime+cstime of a live process, in seconds."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    # Fields 14..17 of proc(5); index 0 here is field 3 (state).
    return sum(int(v) for v in fields[11:15]) / _CLK_TCK


def stop(proc: subprocess.Popen, term_timeout_s: float = 10.0):
    """SIGTERM ``proc``, reap it, and SIGKILL its group whatever happens.

    Returns the rusage of the reaped process, or ``None`` when it had
    already been reaped.
    """
    rusage = None
    try:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                proc.send_signal(signal.SIGTERM)
            _code, rusage, _timed_out = reap(proc, term_timeout_s)
    finally:
        kill_group(proc.pid)
    return rusage


def token_pids(token: str) -> dict[int, str]:
    """Live processes whose environment carries ``BENCH_TOKEN=token``,
    mapped to their command lines."""
    needle = f"BENCH_TOKEN={token}".encode()
    found: dict[int, str] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            environ = Path(entry.path, "environ").read_bytes()
            if needle not in environ.split(b"\0"):
                continue
            stat = Path(entry.path, "stat").read_text()
            if stat.rsplit(")", 1)[1].split()[0] == "Z":
                continue  # a zombie its parent has yet to reap holds nothing
            cmd = Path(entry.path, "cmdline").read_bytes()
        except OSError:
            continue
        found[int(entry.name)] = cmd.replace(b"\0", b" ").decode(
            errors="replace").strip()
    return found


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


class LeakCheck:
    """Finds what a job left behind: orphans, segments, spill dirs.

    ``keep`` are pids that are meant to stay up (daemon, agents).
    """

    def __init__(self, token: str, tmpdir: Path, keep: "set[int] | None" = None):
        self.token = token
        self.tmpdir = tmpdir
        self.keep = set(keep or ()) | {os.getpid()}
        self.shm_before = shm_segments()

    def leaks(self) -> list[str]:
        found = [
            f"orphan pid {pid}: {cmd}"
            for pid, cmd in sorted(token_pids(self.token).items())
            if pid not in self.keep
        ]
        found += [f"segment /dev/shm/{n}"
                  for n in sorted(shm_segments() - self.shm_before)]
        with contextlib.suppress(OSError):
            found += [f"spill dir {p}" for p in sorted(self.tmpdir.iterdir())
                      if p.name.startswith(SPILL_PREFIX)]
        return found

    def settle(self, grace_s: float = 5.0) -> list[str]:
        """Leaks still present after ``grace_s``, then removed.

        Workers are reaped and segments unlinked a moment after the job
        reports, so only what outlives the grace period counts.  What is
        found is killed or deleted so the next job starts clean.
        """
        deadline = time.monotonic() + grace_s
        found = self.leaks()
        while found and time.monotonic() < deadline:
            time.sleep(0.05)
            found = self.leaks()
        if found:
            for pid in token_pids(self.token):
                if pid not in self.keep:
                    with contextlib.suppress(ProcessLookupError, PermissionError):
                        os.kill(pid, signal.SIGKILL)
            for name in shm_segments() - self.shm_before:
                with contextlib.suppress(OSError):
                    (SHM_DIR / name).unlink()
            with contextlib.suppress(OSError):
                for p in self.tmpdir.iterdir():
                    if p.name.startswith(SPILL_PREFIX):
                        shutil.rmtree(p, ignore_errors=True)
        return found

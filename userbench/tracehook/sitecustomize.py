"""Turns span tracing on in interpreters the benchmark starts.

The benchmark puts this directory on ``PYTHONPATH`` only for traced
runs, with ``BENCH_TRACE_DIR`` in the environment.  Python imports
``sitecustomize`` at start-up, so the one-shot CLI and every service
runner the daemon spawns install the wrappers before their own code
runs.  Tracing is on for an interpreter only while the file
``$BENCH_TRACE_DIR/on`` exists when it starts, which lets the benchmark
alternate traced and untraced jobs under one daemon, and only for
``python -m repro...`` entry points: helper interpreters such as
multiprocessing's resource tracker stay untraced.
"""

import importlib.util
import os
import sys
from pathlib import Path


def _runs_repro() -> bool:
    argv = sys.orig_argv
    return any(a == "-m" and b.startswith("repro.")
               for a, b in zip(argv, argv[1:]))


_dir = os.environ.get("BENCH_TRACE_DIR")
if _dir and (Path(_dir) / "on").exists() and _runs_repro():
    _spec = importlib.util.spec_from_file_location(
        "_bench_tracing", Path(__file__).resolve().parent.parent / "tracing.py"
    )
    _tracing = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_tracing)
    _tracing.install(Path(_dir))

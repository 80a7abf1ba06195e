"""Naive reference outputs and the statistics the benchmark reports.

The reference code shares nothing with the program under test: word
counts come from ``collections.Counter`` over ``bytes.split()`` and the
sort from Python's stable ``sorted``.  Both are hashed the way
``JobResult.output_digest`` hashes output pairs (sha256 over
``repr((key, value))`` in output order), so a job's reported digest
must equal the reference exactly.
"""

from __future__ import annotations

import hashlib
import re
import statistics
from collections import Counter
from pathlib import Path
from typing import Iterable

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TAIL_BEYOND = 10


def digest_pairs(pairs: Iterable[tuple]) -> str:
    h = hashlib.sha256()
    for pair in pairs:
        h.update(repr(pair).encode())
    return h.hexdigest()


def wordcount_pairs(path: Path) -> list[tuple[bytes, int]]:
    counts = Counter(path.read_bytes().split())
    return sorted(counts.items())


def sort_pairs(path: Path, key_len: int = 10) -> list[tuple[bytes, bytes]]:
    records = [r for r in path.read_bytes().split(b"\r\n") if r]
    pairs = [(r[:key_len], r[key_len + 1:]) for r in records]
    pairs.sort(key=lambda kv: kv[0])
    return pairs


def reference_digest(app: str, path: Path) -> str:
    pairs = wordcount_pairs(path) if app == "wordcount" else sort_pairs(path)
    return digest_pairs(pairs)


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float], beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, n)``, or ``None`` when the sample is
    too small to have such a percentile.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    rank = n - beyond  # samples at or below the reported value
    return 100.0 * rank / n, ordered[rank - 1], n


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None

"""Shared helpers: checkout paths, percentiles, spans and result lines."""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Everything a run writes (data files, artifacts, spans, daemon logs).
OUT = ROOT / ".bench_out"


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first.

    String hashing is pinned, so set and dict orders (and the work that
    follows them) repeat from run to run; ``--seed`` stays the only
    source of variation between runs.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_dir(workload: str, seed: int) -> Path:
    path = OUT / f"{workload}-seed{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def iqm(values: Sequence[float]) -> float:
    """Interquartile mean: the mean of the middle half of a sample.

    The box's CPU speed switches between a fast and a slow state that
    each last seconds, so a run's samples are a mix of two modes.  A
    median jumps from one mode to the other as that mix crosses one
    half; this mean moves in proportion to it, and still ignores the
    rare stall in the outer quarters.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def rss_mb(pid: int) -> float:
    """Current resident set size of ``pid`` in MiB (from /proc)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


class Spans:
    """In-memory span recorder, written out once when the run ends.

    Every span always measures its duration (the caller needs it for the
    layer metrics); it is *kept* only when recording is enabled, so an
    untraced run pays two clock reads per span and nothing else.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request_id: int | None = None) -> Iterator["Timer"]:
        timer = Timer()
        index = None
        if self.enabled:
            index = self.add(name, timer.start, timer.start, request_id=request_id)
            self._stack.append(index)
            timer.span_id = index
        try:
            yield timer
        finally:
            timer.stop()
            if index is not None:
                self._stack.pop()
                self.records[index]["end"] = timer.end

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request_id: int | None = None,
    ) -> int:
        """Record a finished span; returns its id (its list position)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.records.append(
            {
                "id": len(self.records),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "request_id": request_id,
            }
        )
        return len(self.records) - 1

    def adopt(self, records: list[dict[str, Any]], parent: int) -> None:
        """Graft spans another process wrote under span ``parent``.

        ``perf_counter`` is the system-wide monotonic clock on Linux, so
        the child's start/end times line up with this process's.
        """
        offset = len(self.records)
        for record in records:
            own = record["parent"]
            self.add(
                record["name"], record["start"], record["end"],
                parent=parent if own is None else own + offset,
                request_id=record["request_id"],
            )

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"clock": "perf_counter", "spans": self.records}, handle)


class Timer:
    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.end = self.start
        self.span_id: int | None = None

    def stop(self) -> None:
        self.end = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Report:
    """Collects metrics for the final JSON line plus a readable table."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` failed operations and remember why."""
        if count:
            self.failed += count
            self.problems.append(why)

    def line(self, name: str, value: float, unit: str, n: int, note: str) -> None:
        """One human-readable row: an issue-level metric with its sample count."""
        print(f"  {name:<24} {value:>12.4f} {unit:<6} n={n:<6} {note}")

    def emit(self) -> None:
        for problem in self.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": self.failed == 0,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": self.metrics,
                }
            )
        )

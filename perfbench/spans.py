"""In-memory span recorder for the traced benchmark run.

A span covers one call into a layer of the package, made from the
benchmark's own replay code.  Each span keeps its name, start, end,
parent span and op id, plus integer counts and a failed flag; spans
stay in memory until the run ends, when ``summary`` folds them into
per-name self time.  Self time is a span's duration minus the time its
direct children cover.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "failed")

    def __init__(self, name: str, start: float, parent: int | None, op: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts: dict[str, int] = {}
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, 0.0, parent, self.op)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def child_time(self) -> list[float]:
        """Time covered by the direct children of each span."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.duration
        return covered

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: self_s, calls, failed and the summed counts
        (``max_*`` counts keep their maximum instead)."""
        covered = self.child_time()
        out: dict[str, dict[str, float]] = {}
        for record, below in zip(self.spans, covered):
            stats = out.setdefault(record.name, {"self_s": 0.0, "calls": 0, "failed": 0})
            stats["self_s"] += record.duration - below
            stats["calls"] += 1
            stats["failed"] += int(record.failed)
            for key, value in record.counts.items():
                if key.startswith("max_"):
                    stats[key] = max(stats.get(key, 0), value)
                else:
                    stats[key] = stats.get(key, 0) + value
        return out

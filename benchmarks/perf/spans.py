"""The benchmark's own in-memory span recorder.

The traced pass wraps every call the benchmark makes into a layer's public
functions in a span (name, start, end, parent, workload/repeat id).  Spans
stay in memory and are written once, when the traced process exits; a
disabled recorder hands out one shared no-op context so the untraced pass
pays nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_rec", "_row")

    def __init__(self, rec: "SpanRecorder", row: list) -> None:
        self._rec = rec
        self._row = row

    def __enter__(self):
        rec = self._rec
        self._row[1] = rec._stack[-1] if rec._stack else -1
        rec._stack.append(self._row[0])
        self._row[3] = time.perf_counter()
        return self._row

    def __exit__(self, *exc):
        self._row[4] = time.perf_counter()
        self._rec._stack.pop()
        return False


class SpanRecorder:
    """Records ``[sid, parent, name, start, end, attrs]`` rows."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.rows: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NULL
        row = [len(self.rows), -1, name, 0.0, 0.0, attrs]
        self.rows.append(row)
        return _Span(self, row)

    @staticmethod
    def self_times(rows: List[list]) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total time and self time [s].

        Self time is the span's duration minus the part its direct
        children cover (children never overlap: one thread records).
        """
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end, _attrs in rows:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for sid, _parent, name, start, end, _attrs in rows:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += (end - start) - child_time.get(sid, 0.0)
        return out

    def overhead_us(self, n: int = 2000) -> float:
        """Measured cost of one empty span [us], on a scratch recorder."""
        scratch = SpanRecorder(enabled=True)
        t0 = time.perf_counter()
        for _ in range(n):
            with scratch.span("empty"):
                pass
        return (time.perf_counter() - t0) / n * 1e6

    @staticmethod
    def write_rows(
        path: str, rows: List[list], workload: str, repeat: int,
        rank: Optional[int] = None,
    ) -> None:
        """Append spans as JSON lines (called once, when the process exits)."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in rows:
                fh.write(json.dumps({
                    "workload": workload, "repeat": repeat, "rank": rank,
                    "sid": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "attrs": attrs,
                }) + "\n")

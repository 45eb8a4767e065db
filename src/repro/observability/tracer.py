"""Structured tracing: hierarchical spans over the PIC step.

The paper's evaluation (Figs. 5-7) is built on per-kernel instrumentation
of the kind AMReX's TinyProfiler gives WarpX; this module is our
equivalent.  A :class:`Tracer` records **spans** — named, nested wall-clock
intervals (step → phase → kernel) carrying per-rank / per-box / per-level
attributes — and exports them either as Chrome ``trace_event`` JSON
(loadable in ``chrome://tracing`` / Perfetto) or as a compact JSONL stream
that :mod:`repro.observability.cli` summarizes post hoc.

Overhead discipline: a disabled tracer (:data:`NULL_TRACER`, the default
wired into the simulations) costs one attribute check or one no-op method
call per instrumentation point — no allocation, no clock read — so the
instrumentation can stay permanently in the step code.

All timestamps come from :func:`repro.diagnostics.timers.now` so spans and
:class:`~repro.diagnostics.timers.Timers` accumulations live on the same
clock axis (lint rule PIC004).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.diagnostics.timers import Timers, now
from repro.exceptions import ObservabilityError


class SpanRecord:
    """One finished span: an interval on the shared clock plus context.

    ``sid``/``parent`` encode the hierarchy (``parent`` is ``-1`` for a
    root span); ``rank`` is the simulated MPI rank the work belongs to
    (``None`` for rank-agnostic spans); ``attrs`` carries free-form
    context such as ``step``, ``box`` or ``level``.
    """

    __slots__ = ("sid", "parent", "name", "cat", "start", "end", "rank", "attrs")

    def __init__(
        self,
        sid: int,
        parent: int,
        name: str,
        cat: str,
        start: float = 0.0,
        end: float = 0.0,
        rank: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.cat = cat
        self.start = start
        self.end = end
        self.rank = rank
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "kind": "span",
            "sid": self.sid,
            "parent": self.parent,
            "name": self.name,
            "cat": self.cat,
            "ts": self.start,
            "dur": self.duration,
        }
        if self.rank is not None:
            d["rank"] = self.rank
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SpanRecord":
        try:
            rec = cls(
                sid=int(d["sid"]),
                parent=int(d["parent"]),
                name=str(d["name"]),
                cat=str(d.get("cat", "phase")),
                start=float(d["ts"]),
                rank=d.get("rank"),
                attrs=dict(d.get("attrs", {})),
            )
            rec.end = rec.start + float(d["dur"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(f"malformed span record {d!r}: {exc}") from exc
        return rec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, cat={self.cat!r}, "
            f"dur={self.duration:.3e}s, sid={self.sid}, parent={self.parent})"
        )


class _NullSpan:
    """The reusable no-op context manager a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens a span on enter and records it on exit."""

    __slots__ = ("_tracer", "_rec")

    def __init__(self, tracer: "Tracer", rec: SpanRecord) -> None:
        self._tracer = tracer
        self._rec = rec

    def __enter__(self) -> SpanRecord:
        rec = self._rec
        tracer = self._tracer
        rec.parent = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(rec.sid)
        rec.start = now()
        return rec

    def __exit__(self, *exc) -> bool:
        rec = self._rec
        rec.end = now()
        tracer = self._tracer
        tracer._stack.pop()
        tracer.records.append(rec)
        return False


class NullTracer:
    """A tracer that records nothing; every method is a cheap no-op.

    This is what the simulations hold by default, so the span calls in
    the step code are one dispatch away from free when tracing is off.
    """

    enabled = False
    records: List[SpanRecord] = []

    def span(self, name: str, cat: str = "phase", rank=None, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, rank=None, **attrs) -> None:
        return None

    def add_metrics_snapshot(self, snapshot, step=None) -> None:
        return None


#: the shared disabled tracer (identity-compared nowhere; safe to share)
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records hierarchical spans with near-zero cost when disabled.

    Parameters
    ----------
    enabled:
        When ``False`` the tracer behaves exactly like
        :data:`NULL_TRACER` (shared no-op span, nothing recorded) but can
        be re-enabled later.
    rank:
        Default rank stamped on spans that do not pass one explicitly.
    """

    def __init__(self, enabled: bool = True, rank: Optional[int] = None) -> None:
        self.enabled = bool(enabled)
        self.rank = rank
        self.records: List[SpanRecord] = []
        #: metrics snapshots interleaved with the spans (step-stamped)
        self.metric_records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_sid = 0

    # -- recording ---------------------------------------------------------
    def span(self, name: str, cat: str = "phase", rank=None, **attrs):
        """Open a span; use as ``with tracer.span("gather", box=3): ...``."""
        if not self.enabled:
            return _NULL_SPAN
        sid = self._next_sid
        self._next_sid += 1
        rec = SpanRecord(
            sid, -1, name, cat,
            rank=rank if rank is not None else self.rank,
            attrs=attrs or None,
        )
        return _SpanContext(self, rec)

    def instant(self, name: str, rank=None, **attrs) -> None:
        """Record a zero-duration marker (e.g. a load-balance event)."""
        if not self.enabled:
            return
        sid = self._next_sid
        self._next_sid += 1
        t = now()
        rec = SpanRecord(
            sid,
            self._stack[-1] if self._stack else -1,
            name,
            "instant",
            start=t,
            end=t,
            rank=rank if rank is not None else self.rank,
            attrs=attrs or None,
        )
        self.records.append(rec)

    def add_metrics_snapshot(self, snapshot: Dict[str, Any], step=None) -> None:
        """Attach a metrics snapshot to the trace stream (step-stamped)."""
        if not self.enabled:
            return
        self.metric_records.append(
            {"kind": "metrics", "step": step, "ts": now(), "data": dict(snapshot)}
        )

    def clear(self) -> None:
        self.records.clear()
        self.metric_records.clear()
        self._stack.clear()

    # -- export ------------------------------------------------------------
    def to_chrome(self, path: str) -> None:
        """Write the Chrome ``trace_event`` JSON (``chrome://tracing``).

        Spans become ``"ph": "X"`` complete events; the rank maps to the
        ``pid`` lane so a multi-rank trace renders one track per rank.
        """
        events = []
        for rec in self.records:
            pid = rec.rank if rec.rank is not None else 0
            event = {
                "name": rec.name,
                "cat": rec.cat,
                "ph": "i" if rec.cat == "instant" else "X",
                "ts": rec.start * 1e6,
                "pid": pid,
                "tid": pid,
                "args": dict(rec.attrs),
            }
            if rec.cat != "instant":
                event["dur"] = rec.duration * 1e6
            else:
                event["s"] = "p"
            events.append(event)
        with open(path, "w", encoding="utf8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

    def to_jsonl(self, path: str) -> None:
        """Write the compact JSONL stream (one record per line).

        Span and metrics records interleave; each line is a standalone
        JSON object tagged with ``"kind"`` so readers can route them.
        """
        with open(path, "w", encoding="utf8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.to_dict()) + "\n")
            for mrec in self.metric_records:
                fh.write(json.dumps(mrec) + "\n")


def read_jsonl(path: str) -> Tuple[List[SpanRecord], List[Dict[str, Any]]]:
    """Parse a JSONL trace back into (spans, metrics snapshots)."""
    spans: List[SpanRecord] = []
    metrics: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"{path}:{lineno}: invalid JSON in trace: {exc}"
                ) from exc
            kind = obj.get("kind")
            if kind == "span":
                spans.append(SpanRecord.from_dict(obj))
            elif kind == "metrics":
                metrics.append(obj)
            else:
                raise ObservabilityError(
                    f"{path}:{lineno}: unknown trace record kind {kind!r}"
                )
    return spans, metrics


def build_tree(spans: List[SpanRecord]) -> Dict[int, List[SpanRecord]]:
    """Children-by-parent index of a span list (roots under key ``-1``).

    Children keep recording order (exit order), which for the step/phase
    structure of the PIC loop is chronological within a parent.
    """
    children: Dict[int, List[SpanRecord]] = {}
    ids = {rec.sid for rec in spans}
    for rec in spans:
        parent = rec.parent if rec.parent in ids else -1
        children.setdefault(parent, []).append(rec)
    return children


@contextmanager
def phase_span(timers: Timers, tracer, name: str, **attrs) -> Iterator[None]:
    """One PIC phase: a :class:`Timers` accumulation wrapped in a span.

    The always-on timers and the opt-in span hierarchy see the same
    interval, so the phase table of
    :class:`~repro.observability.report.RunReport` and the trace agree on
    where the time went.
    """
    with tracer.span(name, cat="phase", **attrs):
        with timers.timer(name):
            yield

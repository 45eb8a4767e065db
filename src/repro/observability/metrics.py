"""Metrics registry: counters, gauges and histograms for the PIC stack.

Where the tracer answers "where did the time go", the registry answers
"how much work moved": particles pushed, bytes and messages per rank
pair, guard-cell fill volume, load-imbalance factor, retransmissions,
checkpoint bytes.  The shapes follow the Prometheus data model — a
metric is a *name* plus a sorted *label set* — but everything lives in
process and serializes to plain JSON.

Two sources feed it.  *Event* metrics are bumped where the event
happens (``particles.pushed``, ``step.seconds``).  *Views* are read from
accounting the program keeps anyway (the communicator's byte counters,
the halo-exchange totals): :meth:`MetricsRegistry.view` registers a
reader, and every snapshot reads it afresh, so a view always equals its
source — attached late, or after a checkpoint restore rolled the source
back — with no copy to keep in step.

Snapshot/delta semantics: :meth:`MetricsRegistry.snapshot` freezes every
metric into a JSON-serializable dict; :meth:`MetricsRegistry.delta`
subtracts a previous snapshot from the current one (counters and
histogram counts diff; gauges report their current value) so per-step or
per-phase accounting needs no manual bookkeeping.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ObservabilityError

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def metric_id(name: str, labels: Dict[str, Any]) -> str:
    """The flat ``name{k=v,...}`` identifier used in snapshots."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in _label_key(labels))
    return f"{name}{{{inner}}}"


def parse_metric_id(mid: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`metric_id`: ``"a{x=1}"`` -> ``("a", {"x": "1"})``."""
    if "{" not in mid:
        return mid, {}
    name, _, rest = mid.partition("{")
    if not rest.endswith("}"):
        raise ObservabilityError(f"malformed metric id {mid!r}")
    labels: Dict[str, str] = {}
    body = rest[:-1]
    if body:
        for part in body.split(","):
            k, sep, v = part.partition("=")
            if not sep:
                raise ObservabilityError(f"malformed metric id {mid!r}")
            labels[k] = v
    return name, labels


class Counter:
    """Monotonically increasing count (events, bytes, particles)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up; use a gauge")
        self.value += amount

    inc = add

    def to_value(self) -> float:
        return self.value


class Gauge:
    """A value that goes up and down (imbalance factor, live particles)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def to_value(self) -> float:
        return self.value


class Histogram:
    """Streaming distribution summary: count/sum/min/max + mean.

    Deliberately reservoir-free: ``step.seconds`` summarises the same
    laps :class:`~repro.core.simulation.StepDriver` appends to
    ``Timers.step_times``, and per-step *percentiles* come from that full
    history in :mod:`repro.observability.report`; the histogram covers
    quantities where only the aggregate shape matters (step and box
    costs).
    """

    kind = "histogram"
    __slots__ = ("count", "sum", "min", "max")

    def __init__(self) -> None:
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = float("inf")
        self.max: float = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_value(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.count,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: one row of a view: ``(kind, name, labels, value)``, kind "counter" or
#: "gauge"
ViewRow = Tuple[str, str, Dict[str, Any], float]


class MetricsRegistry:
    """The one place every subsystem registers what it measured.

    Metrics are created on first access (``registry.counter("comm.bytes",
    src=0, dst=1).add(n)``); re-requesting an existing name with a
    different kind is an :class:`~repro.exceptions.ObservabilityError` —
    a metric cannot silently change meaning mid-run.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}
        self._views: List[Callable[[], Iterable[ViewRow]]] = []

    def _get(self, kind: str, name: str, labels: Dict[str, Any]):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = _KINDS[kind]()
            self._metrics[key] = metric
        elif metric.kind != kind:
            raise ObservabilityError(
                f"metric {metric_id(name, labels)!r} already registered as "
                f"{metric.kind}, requested as {kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    def view(self, read: Callable[[], Iterable[ViewRow]]) -> None:
        """Register ``read``, a zero-argument callable yielding
        ``(kind, name, labels, value)`` rows: counters and gauges derived
        from state the program already keeps.  Every :meth:`snapshot`,
        :meth:`delta` and :meth:`metrics` calls it again, so nothing is
        copied per step and nothing can drift from its source."""
        self._views.append(read)

    def __len__(self) -> int:
        return sum(1 for _ in self.metrics())

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _, _ in self.metrics())

    def metrics(self) -> Iterable[Tuple[str, Dict[str, str], Any]]:
        """Iterate (name, labels, metric) in sorted id order, the rows of
        every view included (read now)."""
        items = dict(self._metrics)
        for read in self._views:
            for kind, name, labels, value in read():
                metric = _KINDS[kind]()
                metric.value = float(value)
                items[(name, _label_key(labels))] = metric
        for (name, lkey), metric in sorted(items.items()):
            yield name, dict(lkey), metric

    # -- snapshot / delta ---------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Freeze every metric into ``{metric_id: value}``.

        Counters and gauges flatten to numbers; histograms to their
        summary dict.  The result is JSON-serializable as-is.
        """
        out: Dict[str, Any] = {}
        for name, labels, metric in self.metrics():
            out[metric_id(name, labels)] = metric.to_value()
        return out

    def delta(self, previous: Dict[str, Any]) -> Dict[str, Any]:
        """Current snapshot minus ``previous`` (a prior :meth:`snapshot`).

        Counter values and histogram count/sum subtract; gauges keep
        their current value (a gauge *is* its latest reading).  Metrics
        absent from ``previous`` diff against zero.
        """
        out: Dict[str, Any] = {}
        for name, labels, metric in self.metrics():
            mid = metric_id(name, labels)
            prev = previous.get(mid)
            if metric.kind == "counter":
                out[mid] = metric.value - (float(prev) if prev is not None else 0.0)
            elif metric.kind == "gauge":
                out[mid] = metric.value
            else:
                cur = metric.to_value()
                if isinstance(prev, dict):
                    out[mid] = {
                        "count": cur["count"] - prev.get("count", 0),
                        "sum": cur["sum"] - prev.get("sum", 0.0),
                    }
                else:
                    out[mid] = {"count": cur["count"], "sum": cur["sum"]}
        return out

    # -- persistence --------------------------------------------------------
    def dump_json(self, path: str) -> None:
        with open(path, "w", encoding="utf8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)


#: metrics that are per-rank views of one global quantity: merge by max,
#: not sum (every rank reports the same imbalance / dead-rank / count of
#: collective operations it took part in)
DEFAULT_MAX_MERGE = ("lb.imbalance", "resilience.dead_ranks",
                     "comm.collectives", "lb.rebalances", "lb.boxes_moved")


def merge_snapshots(
    snapshots: Sequence[Dict[str, Any]],
    max_names: Sequence[str] = DEFAULT_MAX_MERGE,
) -> Dict[str, Any]:
    """Fold per-rank metric snapshots into one whole-simulation view.

    Numeric metrics sum across ranks — each rank observes only its own
    share of the work, so the sum is the loopback (all-ranks-local)
    value — except metrics whose *name* part is in ``max_names``, which
    are per-rank readings of the same global quantity and merge by max.
    Histogram summaries merge structurally (count/sum add, min/max fold,
    mean recomputed).
    """
    merged: Dict[str, Any] = {}
    for snap in snapshots:
        for mid, value in snap.items():
            if isinstance(value, dict):
                prev = merged.setdefault(
                    mid,
                    {"count": 0, "sum": 0.0,
                     "min": float("inf"), "max": float("-inf")},
                )
                prev["count"] += value.get("count", 0)
                prev["sum"] += value.get("sum", 0.0)
                if value.get("count", 0) > 0:
                    prev["min"] = min(prev["min"], value.get("min", 0.0))
                    prev["max"] = max(prev["max"], value.get("max", 0.0))
                continue
            name, _labels = parse_metric_id(mid)
            if name in max_names:
                merged[mid] = max(merged.get(mid, float("-inf")), value)
            else:
                merged[mid] = merged.get(mid, 0) + value
    for mid, value in merged.items():
        if isinstance(value, dict):
            if value["count"] == 0:
                merged[mid] = {"count": 0, "sum": 0.0, "min": 0.0,
                               "max": 0.0, "mean": 0.0}
            else:
                value["mean"] = value["sum"] / value["count"]
    return merged


def comm_matrix_from_snapshot(
    snapshot: Dict[str, Any], n_ranks: Optional[int] = None
):
    """Rebuild the rank-pair byte matrix from ``comm.pair_bytes`` metrics.

    Returns an ``(n_ranks, n_ranks)`` nested list (row = source rank) —
    plain lists so the CLI needs nothing beyond the JSON it read.
    """
    pairs: Dict[Tuple[int, int], float] = {}
    top = 0
    for mid, value in snapshot.items():
        name, labels = parse_metric_id(mid)
        if name != "comm.pair_bytes":
            continue
        try:
            src, dst = int(labels["src"]), int(labels["dst"])
        except (KeyError, ValueError) as exc:
            raise ObservabilityError(f"bad comm.pair_bytes labels in {mid!r}") from exc
        pairs[(src, dst)] = float(value)
        top = max(top, src + 1, dst + 1)
    n = n_ranks if n_ranks is not None else top
    matrix = [[0.0] * n for _ in range(n)]
    for (src, dst), nbytes in pairs.items():
        if src < n and dst < n:
            matrix[src][dst] = nbytes
    return matrix

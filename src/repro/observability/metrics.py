"""Metrics registry: the run's own books, read as metrics.

Where the tracer answers "where did the time go", the registry answers
"how much work moved": particles pushed, bytes and messages per rank
pair, guard-cell fill volume, load-imbalance factor, retransmissions,
checkpoint bytes.  The shapes follow the Prometheus data model — a
metric is a *name* plus a sorted *label set* — but everything lives in
process and serializes to plain JSON.

Every metric is a *view*: :meth:`MetricsRegistry.view` registers a reader
of accounting the program keeps anyway (the step clock's laps, the
communicator's byte counters, the recovery policy's totals), and every
snapshot reads it afresh.  Nothing is bumped or copied per step, so a
metric always equals its book — attached late, or after a checkpoint
restore rolled the book back.  A per-interval figure is the difference
of two snapshots.
"""

from __future__ import annotations

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


#: one row of a view: ``(kind, name, labels, value)``; kind "counter" or
#: "gauge" with a number, "histogram" with a :func:`summary` dict
ViewRow = Tuple[str, str, Dict[str, Any], Any]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """The value of a ``"histogram"`` row: count / sum / min / max / mean
    of ``values`` (all zeros when there are none)."""
    if not values:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
    total = float(sum(values))
    return {
        "count": len(values),
        "sum": total,
        "min": float(min(values)),
        "max": float(max(values)),
        "mean": total / len(values),
    }


class MetricsRegistry:
    """The views a run's metrics are read from.

    A view is a zero-argument callable yielding :data:`ViewRow` rows;
    :meth:`metrics` and :meth:`snapshot` call every view again, so a
    metric always equals its book.  Two rows under one metric id are an
    :class:`~repro.exceptions.ObservabilityError`: a metric has one
    source.
    """

    def __init__(self) -> None:
        self._views: List[Callable[[], Iterable[ViewRow]]] = []

    def view(self, read: Callable[[], Iterable[ViewRow]]) -> None:
        """Register ``read``, a view over state the program already keeps."""
        self._views.append(read)

    def metrics(self) -> List[ViewRow]:
        """Every view's rows, read now, in sorted id order."""
        rows: Dict[Tuple[str, LabelKey], ViewRow] = {}
        for read in self._views:
            for kind, name, labels, value in read():
                key = (name, _label_key(labels))
                if key in rows:
                    raise ObservabilityError(
                        f"metric {metric_id(name, labels)!r} is read by two "
                        f"views (as {rows[key][0]} and as {kind})"
                    )
                rows[key] = (kind, name, labels, value)
        return [rows[key] for key in sorted(rows)]

    def snapshot(self) -> Dict[str, Any]:
        """Freeze every metric into ``{metric_id: value}``: counters and
        gauges as floats, histograms as their summary dict.  The result
        is JSON-serializable as-is."""
        return {
            metric_id(name, labels):
                value if kind == "histogram" else float(value)
            for kind, name, labels, value in self.metrics()
        }


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

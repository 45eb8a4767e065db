"""Command-line trace summarizer: ``python -m repro.observability``.

Reads a JSONL trace written by :meth:`Tracer.to_jsonl
<repro.observability.tracer.Tracer.to_jsonl>` and renders what the
paper's evaluation would ask of a recorded run: where the time went (top
spans, per category and per rank), the rank-pair communication matrix,
and the load-imbalance timeline across the interleaved metrics
snapshots.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import ObservabilityError
from repro.observability.metrics import comm_matrix_from_snapshot, parse_metric_id
from repro.observability.report import render_comm_matrix
from repro.observability.tracer import SpanRecord, build_tree, read_jsonl


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability",
        description="Summarize a recorded JSONL trace of a PIC run.",
    )
    parser.add_argument("trace", help="trace file written by Tracer.to_jsonl")
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows in the top-span table (default 10)",
    )
    parser.add_argument(
        "--tree", action="store_true",
        help="also print the aggregated span hierarchy",
    )
    parser.add_argument(
        "--rank", type=int, default=None, metavar="R",
        help="restrict the span tables to one rank",
    )
    return parser


def summarize_spans(spans: Sequence[SpanRecord]) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name: total/self time, calls, category."""
    children = build_tree(list(spans))
    agg: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "calls": 0}
    )
    cats: Dict[str, str] = {}
    for rec in spans:
        if rec.cat == "instant":
            continue
        # a child's time is also inside its parent's total; "self" removes it
        child_time = sum(
            c.duration for c in children.get(rec.sid, []) if c.cat != "instant"
        )
        entry = agg[rec.name]
        entry["total"] += rec.duration
        entry["self"] += max(rec.duration - child_time, 0.0)
        entry["calls"] += 1
        cats[rec.name] = rec.cat
    for name, entry in agg.items():
        entry["cat"] = cats[name]
    return dict(agg)


def _render_top(agg: Dict[str, Dict[str, Any]], top: int) -> List[str]:
    wall = sum(e["self"] for e in agg.values())
    rows = sorted(agg.items(), key=lambda kv: -kv[1]["self"])[:top]
    width = max([len(name) for name, _ in rows], default=8)
    lines = ["top spans (by self time):"]
    lines.append(
        f"  {'name':<{width}s} {'cat':<8s} {'self':>10s} {'total':>10s} "
        f"{'share':>6s} {'calls':>7s}"
    )
    for name, e in rows:
        share = 100.0 * e["self"] / wall if wall > 0 else 0.0
        lines.append(
            f"  {name:<{width}s} {e['cat']:<8s} {e['self']:9.4f}s "
            f"{e['total']:9.4f}s {share:5.1f}% {int(e['calls']):7d}"
        )
    return lines


def _render_ranks(spans: Sequence[SpanRecord]) -> List[str]:
    per_rank: Dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec.cat == "step" and rec.rank is not None:
            per_rank[rec.rank] += rec.duration
    if not per_rank:
        return []
    lines = ["per-rank step time:"]
    peak = max(per_rank.values())
    for rank in sorted(per_rank):
        t = per_rank[rank]
        bar = "#" * max(int(round(24 * t / peak)), 1) if peak > 0 else ""
        lines.append(f"  rank {rank:3d} {t:9.4f}s |{bar}")
    return lines


def _render_tree(
    spans: Sequence[SpanRecord], max_children: int = 8
) -> List[str]:
    """Aggregated hierarchy: name-paths merged, child lists truncated."""
    children = build_tree(list(spans))

    # merge sibling spans of the same name under the same parent *name path*
    lines = ["span hierarchy (durations summed over repeats):"]

    def merge(records: List[SpanRecord]) -> Dict[str, Dict[str, Any]]:
        merged: Dict[str, Dict[str, Any]] = {}
        for rec in records:
            if rec.cat == "instant":
                continue
            e = merged.setdefault(rec.name, {"dur": 0.0, "calls": 0, "kids": []})
            e["dur"] += rec.duration
            e["calls"] += 1
            e["kids"].extend(children.get(rec.sid, []))
        return merged

    def walk(records: List[SpanRecord], depth: int) -> None:
        merged = merge(records)
        shown = sorted(merged.items(), key=lambda kv: -kv[1]["dur"])
        for name, e in shown[:max_children]:
            lines.append(
                f"  {'  ' * depth}{name:<24s} {e['dur']:9.4f}s "
                f"({e['calls']} calls)"
            )
            if e["kids"]:
                walk(e["kids"], depth + 1)
        if len(shown) > max_children:
            lines.append(f"  {'  ' * depth}... {len(shown) - max_children} more")

    walk(children.get(-1, []), 0)
    return lines


def _render_imbalance_timeline(
    metric_records: Sequence[Dict[str, Any]]
) -> List[str]:
    points = []
    for mrec in metric_records:
        data = mrec.get("data", {})
        for mid, value in data.items():
            name, _ = parse_metric_id(mid)
            if name == "lb.imbalance":
                points.append((mrec.get("step"), float(value)))
    if not points:
        return []
    lines = ["load-imbalance timeline (max/mean per snapshot):"]
    peak = max(v for _, v in points)
    for step, value in points:
        bar = "#" * max(int(round(24 * value / peak)), 1) if peak > 0 else ""
        label = f"step {step}" if step is not None else "snapshot"
        lines.append(f"  {label:>10s} {value:7.3f} |{bar}")
    return lines


def render_summary(
    spans: Sequence[SpanRecord],
    metric_records: Sequence[Dict[str, Any]],
    top: int = 10,
    tree: bool = False,
    rank: Optional[int] = None,
) -> str:
    if rank is not None:
        spans = [r for r in spans if r.rank == rank]
    lines: List[str] = [f"trace: {len(spans)} spans, {len(metric_records)} snapshots"]
    if spans:
        agg = summarize_spans(spans)
        lines.append("")
        lines.extend(_render_top(agg, top))
        rank_lines = _render_ranks(spans)
        if rank_lines:
            lines.append("")
            lines.extend(rank_lines)
        if tree:
            lines.append("")
            lines.extend(_render_tree(spans))
    if metric_records:
        latest = metric_records[-1].get("data", {})
        matrix = comm_matrix_from_snapshot(latest)
        if matrix:
            lines.append("")
            lines.append(render_comm_matrix(matrix))
        timeline = _render_imbalance_timeline(metric_records)
        if timeline:
            lines.append("")
            lines.extend(timeline)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        spans, metric_records = read_jsonl(args.trace)
    except OSError as exc:
        print(f"repro.observability: cannot read trace: {exc}", file=stream)
        return 2
    except ObservabilityError as exc:
        print(f"repro.observability: {exc}", file=stream)
        return 2
    try:
        print(
            render_summary(
                spans, metric_records, top=args.top, tree=args.tree, rank=args.rank
            ),
            file=stream,
        )
    except BrokenPipeError:  # downstream pager/head closed the pipe
        pass
    return 0

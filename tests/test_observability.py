"""Unit coverage for repro.observability: tracer spans + export formats,
the metrics registry's views and snapshots, report rendering, and
the trace-summarizing CLI."""

import io
import json

import numpy as np
import pytest

from repro.diagnostics.timers import Timers
from repro.exceptions import ObservabilityError
from repro.observability.cli import main as cli_main
from repro.observability.cli import render_summary, summarize_spans
from repro.observability.metrics import (
    MetricsRegistry,
    comm_matrix_from_snapshot,
    metric_id,
    parse_metric_id,
    summary,
)
from repro.observability.report import (
    RunReport,
    StepReport,
    percentiles,
    render_comm_matrix,
)
from repro.observability.tracer import (
    NULL_TRACER,
    SpanRecord,
    Tracer,
    _NULL_SPAN,
    build_tree,
    phase_span,
    read_jsonl,
)


# -- tracer ------------------------------------------------------------------

def make_step_trace():
    """One step with two phases, one nested kernel and an instant marker."""
    t = Tracer(enabled=True)
    with t.span("step", cat="step", step=0):
        with t.span("gather", species="electrons"):
            with t.span("interp", cat="kernel"):
                pass
        with t.span("push"):
            pass
        t.instant("lb_event", boxes_moved=2)
    return t


def tree_shape(spans):
    """(name, sorted child names) pairs — the structural fingerprint."""
    children = build_tree(list(spans))
    by_id = {r.sid: r for r in spans}
    return sorted(
        (r.name, sorted(c.name for c in children.get(r.sid, [])))
        for r in spans
    ), {r.sid: by_id[r.sid].name for r in spans}


def test_disabled_tracer_is_noop_and_allocation_free():
    t = Tracer(enabled=False)
    assert t.span("x") is _NULL_SPAN
    assert t.span("y") is t.span("z")  # one shared no-op object
    with t.span("x"):
        pass
    t.instant("marker")
    t.add_metrics_snapshot({"a": 1})
    assert t.records == []
    assert t.metric_records == []
    assert NULL_TRACER.enabled is False


def test_span_nesting_records_parent_links():
    t = make_step_trace()
    by_name = {r.name: r for r in t.records}
    assert by_name["step"].parent == -1
    assert by_name["gather"].parent == by_name["step"].sid
    assert by_name["interp"].parent == by_name["gather"].sid
    assert by_name["push"].parent == by_name["step"].sid
    assert by_name["lb_event"].parent == by_name["step"].sid
    assert by_name["lb_event"].cat == "instant"
    assert by_name["lb_event"].duration == 0.0
    assert by_name["gather"].attrs == {"species": "electrons"}
    # children exit before parents, so their intervals nest
    assert by_name["step"].start <= by_name["gather"].start
    assert by_name["gather"].end <= by_name["step"].end


def test_tracer_default_rank_is_stamped():
    t = Tracer(enabled=True, rank=3)
    with t.span("step", cat="step"):
        pass
    with t.span("other", rank=1):
        pass
    assert [r.rank for r in t.records] == [3, 1]


def test_clear_empties_tracer():
    t = make_step_trace()
    t.add_metrics_snapshot({"m": 1}, step=1)
    t.clear()
    assert t.records == [] and t.metric_records == []


def test_phase_span_feeds_timer_and_trace():
    timers, tracer = Timers(), Tracer(enabled=True)
    with phase_span(timers, tracer, "maxwell", level=0):
        pass
    assert timers.counts["maxwell"] == 1
    assert tracer.records[-1].name == "maxwell"
    assert tracer.records[-1].attrs == {"level": 0}


def test_jsonl_round_trip_preserves_span_tree(tmp_path):
    t = make_step_trace()
    t.add_metrics_snapshot({"lb.imbalance": 1.25}, step=5)
    path = str(tmp_path / "trace.jsonl")
    t.to_jsonl(path)

    spans, metrics = read_jsonl(path)
    assert tree_shape(spans)[0] == tree_shape(t.records)[0]
    assert len(spans) == len(t.records)
    for orig, back in zip(t.records, spans):
        assert back.name == orig.name and back.cat == orig.cat
        assert back.duration == pytest.approx(orig.duration)
        assert back.attrs == orig.attrs
    assert metrics == [
        {"kind": "metrics", "step": 5, "ts": pytest.approx(metrics[0]["ts"]),
         "data": {"lb.imbalance": 1.25}}
    ]


def test_read_jsonl_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(ObservabilityError, match="invalid JSON"):
        read_jsonl(str(path))


def test_read_jsonl_rejects_unknown_kind(tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_text('{"kind": "mystery"}\n')
    with pytest.raises(ObservabilityError, match="unknown trace record kind"):
        read_jsonl(str(path))


def test_span_record_from_dict_rejects_missing_fields():
    with pytest.raises(ObservabilityError, match="malformed span record"):
        SpanRecord.from_dict({"kind": "span", "sid": 0})


def test_chrome_export_is_valid_trace_event_json(tmp_path):
    t = Tracer(enabled=True)
    with t.span("step", cat="step", rank=2, step=0):
        pass
    t.instant("checkpoint", rank=2)
    path = str(tmp_path / "trace.json")
    t.to_chrome(path)

    with open(path) as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "i"]
    step = events[0]
    assert step["name"] == "step" and step["pid"] == 2 and step["tid"] == 2
    assert step["dur"] >= 0.0 and step["args"] == {"step": 0}
    assert events[1]["s"] == "p" and "dur" not in events[1]


def test_build_tree_orphans_become_roots():
    recs = [SpanRecord(7, 99, "orphan", "phase", 0.0, 1.0)]
    assert [r.name for r in build_tree(recs)[-1]] == ["orphan"]


# -- metrics -----------------------------------------------------------------

def rows_of(*rows):
    """A view yielding ``rows`` as they are when it is read."""
    return lambda: iter(rows)


def test_gauge_set_and_add():
    """A gauge reads its book's current value, whichever way it moved."""
    book = {"imbalance": 1.5}
    m = MetricsRegistry()
    m.view(lambda: iter([("gauge", "imbalance", {}, book["imbalance"])]))
    assert m.snapshot() == {"imbalance": 1.5}
    book["imbalance"] += -0.25
    assert m.snapshot() == {"imbalance": 1.25}


def test_histogram_summary():
    assert summary([4.0, 2.0, 6.0]) == {
        "count": 3, "sum": 12.0, "min": 2.0, "max": 6.0, "mean": 4.0
    }


def test_empty_histogram_is_all_zeros():
    assert summary([]) == {
        "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0
    }


def test_registry_identity_ignores_label_order():
    m = MetricsRegistry()
    m.view(rows_of(("counter", "comm.bytes", {"src": 0, "dst": 1}, 4)))
    m.view(rows_of(("counter", "comm.bytes", {"dst": 0, "src": 1}, 2)))
    assert m.snapshot() == {
        "comm.bytes{dst=0,src=1}": 2.0, "comm.bytes{dst=1,src=0}": 4.0,
    }
    m.view(rows_of(("counter", "comm.bytes", {"dst": 1, "src": 0}, 4)))
    with pytest.raises(ObservabilityError, match="read by two views"):
        m.snapshot()


def test_registry_kind_conflict_raises():
    m = MetricsRegistry()
    m.view(rows_of(("counter", "x", {}, 1)))
    m.view(rows_of(("gauge", "x", {}, 1)))
    with pytest.raises(ObservabilityError, match="as counter and as gauge"):
        m.snapshot()


def test_metric_id_round_trip():
    mid = metric_id("comm.pair_bytes", {"src": 0, "dst": 1})
    assert mid == "comm.pair_bytes{dst=1,src=0}"  # labels sort
    assert parse_metric_id(mid) == ("comm.pair_bytes", {"dst": "1", "src": "0"})
    assert parse_metric_id("plain") == ("plain", {})
    with pytest.raises(ObservabilityError):
        parse_metric_id("bad{unclosed")
    with pytest.raises(ObservabilityError):
        parse_metric_id("bad{novalue}")


def test_snapshot_and_delta_semantics():
    """Every snapshot reads the books afresh; a per-interval figure is the
    difference of two snapshots."""
    books = {"pushed": 100, "live": 50, "cost": [2.0]}
    m = MetricsRegistry()
    m.view(lambda: iter([
        ("counter", "pushed", {}, books["pushed"]),
        ("gauge", "live", {}, books["live"]),
        ("histogram", "cost", {}, summary(books["cost"])),
    ]))
    snap = m.snapshot()
    assert snap == {"cost": summary([2.0]), "live": 50.0, "pushed": 100.0}
    assert [kind for kind, *_ in m.metrics()] == ["histogram", "gauge", "counter"]

    books.update(pushed=125, live=40, cost=[2.0, 4.0])
    later = m.snapshot()
    assert later["pushed"] - snap["pushed"] == 25.0
    assert later["live"] == 40.0
    assert later["cost"]["count"] - snap["cost"]["count"] == 1
    assert later["cost"]["sum"] - snap["cost"]["sum"] == 4.0


def test_dump_json_is_loadable(tmp_path):
    m = MetricsRegistry()
    m.view(rows_of(("counter", "a", {"k": "v"}, 1),
                   ("histogram", "h", {}, summary([0.5]))))
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(m.snapshot(), sort_keys=True))
    assert json.loads(path.read_text()) == {"a{k=v}": 1.0, "h": summary([0.5])}


def test_comm_matrix_from_snapshot():
    m = MetricsRegistry()
    m.view(rows_of(
        ("counter", "comm.pair_bytes", {"src": 0, "dst": 1}, 1024),
        ("counter", "comm.pair_bytes", {"src": 1, "dst": 0}, 512),
        ("counter", "unrelated", {}, 9),
    ))
    matrix = comm_matrix_from_snapshot(m.snapshot())
    assert matrix == [[0.0, 1024.0], [512.0, 0.0]]
    padded = comm_matrix_from_snapshot(m.snapshot(), n_ranks=3)
    assert len(padded) == 3 and padded[0][1] == 1024.0
    with pytest.raises(ObservabilityError, match="bad comm.pair_bytes"):
        comm_matrix_from_snapshot({"comm.pair_bytes{src=x}": 1.0})


# -- report ------------------------------------------------------------------

def test_percentiles_empty_and_known():
    assert percentiles([]) == {"p50": 0.0, "p90": 0.0, "p99": 0.0}
    pct = percentiles(list(range(1, 101)))
    assert pct["p50"] == pytest.approx(50.5)
    assert pct["p99"] > pct["p90"] > pct["p50"]


def test_step_report_share_of_median():
    s = StepReport(4, wall=0.2, p50=0.1)
    assert s.index == 4 and s.share_of_p50 == pytest.approx(2.0)
    assert StepReport(0, 0.1, 0.0).share_of_p50 == 0.0


def make_run_timers():
    t = Timers()
    t.totals.update(maxwell=0.5, gather=0.3)
    t.counts.update(maxwell=1, gather=1)
    t.step_times.extend([0.01, 0.02, 0.01, 0.05])
    return t


def test_run_report_from_timers_render():
    report = RunReport.from_timers(make_run_timers())
    assert report.slowest_steps(1)[0].index == 3
    text = report.render()
    assert "== run report ==" in text
    assert "steps: 4" in text
    assert "p50=" in text and "p99=" in text
    assert "slowest steps: #3" in text
    assert "maxwell" in text and "us/call" in text
    # no distributed extras without comm/load data
    assert "rank balance" not in text and "comm bytes" not in text


def test_render_comm_matrix_humanizes_bytes():
    text = render_comm_matrix(np.array([[0.0, 2048.0], [100.0, 0.0]]))
    assert "2.0KiB" in text and "100B" in text
    assert "total 2.1KiB" in text and "hottest pair 2.0KiB" in text


# -- CLI ---------------------------------------------------------------------

def write_demo_trace(tmp_path):
    t = Tracer(enabled=True)
    for step in range(3):
        with t.span("step", cat="step", rank=0, step=step):
            with t.span("gather", rank=0):
                pass
            with t.span("maxwell", rank=0):
                pass
    t.add_metrics_snapshot(
        {"comm.pair_bytes{dst=1,src=0}": 2048.0, "lb.imbalance": 1.2}, step=2
    )
    path = str(tmp_path / "run.jsonl")
    t.to_jsonl(path)
    return t, path


def test_summarize_spans_self_excludes_children():
    tracer = Tracer(enabled=True)
    with tracer.span("step", cat="step"):
        with tracer.span("gather"):
            pass
    agg = summarize_spans(tracer.records)
    step, gather = agg["step"], agg["gather"]
    assert step["calls"] == 1 and gather["calls"] == 1
    assert step["self"] == pytest.approx(step["total"] - gather["total"])
    assert step["cat"] == "step"


def test_cli_renders_summary(tmp_path, capsys):
    _, path = write_demo_trace(tmp_path)
    rc = cli_main([path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trace: 9 spans, 1 snapshots" in out
    assert "top spans (by self time):" in out
    assert "per-rank step time:" in out
    assert "comm bytes (src -> dst):" in out
    assert "load-imbalance timeline" in out


def test_cli_tree_and_rank_filter(tmp_path):
    _, path = write_demo_trace(tmp_path)
    stream = io.StringIO()
    assert cli_main([path, "--tree", "--rank", "0"], stream=stream) == 0
    out = stream.getvalue()
    assert "span hierarchy" in out and "step" in out
    stream = io.StringIO()
    assert cli_main([path, "--rank", "7"], stream=stream) == 0
    assert "trace: 0 spans" in stream.getvalue()


def test_cli_missing_file_and_bad_trace(tmp_path):
    stream = io.StringIO()
    assert cli_main([str(tmp_path / "absent.jsonl")], stream=stream) == 2
    assert "cannot read trace" in stream.getvalue()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    stream = io.StringIO()
    assert cli_main([str(bad)], stream=stream) == 2
    assert "invalid JSON" in stream.getvalue()


def test_render_summary_on_empty_trace():
    assert render_summary([], []) == "trace: 0 spans, 0 snapshots"

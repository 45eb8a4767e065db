"""Unit coverage for the timer substrate: accumulation, stopwatches,
per-step lap history, and the phase table the run report renders."""

import re
import time

import pytest

from repro.diagnostics.timers import Stopwatch, Timers, now
from repro.observability.report import RunReport


def test_now_is_monotonic_float():
    a = now()
    b = now()
    assert isinstance(a, float)
    assert b >= a


def test_timer_accumulates_and_counts():
    t = Timers()
    for _ in range(3):
        with t.timer("gather"):
            pass
    assert t.counts["gather"] == 3
    assert t.totals["gather"] >= 0.0


def test_stopwatch_fills_elapsed():
    t = Timers()
    with t.stopwatch() as sw:
        assert isinstance(sw, Stopwatch)
        assert sw.elapsed == 0.0  # not measured until exit
        time.sleep(0.001)
    assert sw.elapsed > 0.0
    # a stopwatch hands its duration over and accumulates nothing
    assert t.totals == {}


def test_lap_builds_step_history():
    t = Timers()
    t.reset_lap()
    first = t.lap()
    second = t.lap()
    assert t.step_times == [first, second]
    assert first >= 0.0 and second >= 0.0


def filled(**totals):
    t = Timers()
    t.totals.update(totals)
    t.counts.update({name: 1 for name in totals})
    return t


def phase_table(t):
    """The rows of the run report's phase breakdown of ``t``."""
    text = RunReport.from_timers(t).render()
    return text.split("phase breakdown (top by total time):", 1)[1].splitlines()[1:]


ROW = r"^ +[\d.]+s +[\d.]+% +\d+ calls +[\d.]+us/call$"


def test_report_alignment_with_long_names():
    long_name = "a_very_long_phase_name_over_24_characters"
    lines = phase_table(filled(**{long_name: 2.0, "short": 1.0}))
    width = len(long_name)
    # every row pads the name to the longest name's width
    for line in lines:
        assert line[2 : 2 + width].rstrip() in (long_name, "short")
        assert re.match(ROW, line[2 + width :])


def test_report_sorted_by_total_and_shares_sum():
    lines = phase_table(filled(minor=1.0, major=3.0))
    assert "major" in lines[0] and "minor" in lines[1]
    shares = [float(re.search(r"([\d.]+)%", l).group(1)) for l in lines]
    assert sum(shares) == pytest.approx(100.0, abs=0.2)


def test_report_empty_timers():
    assert phase_table(Timers()) == []

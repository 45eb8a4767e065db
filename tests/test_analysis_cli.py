"""CLI behavior: JSON output, comm-log replay, rule selection."""

import io
import json
import os

import numpy as np
import pytest

from repro.analysis.cli import main
from repro.parallel.comm import SimComm

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "data", "comm_fixtures")
#: a recorded run with a drop nobody recovers (a replay RES001)
UNRECOVERED_LOG = os.path.join(FIXTURES, "unrecovered_drop.commlog.jsonl")


def run_cli(*argv):
    stream = io.StringIO()
    code = main(list(argv), stream=stream)
    return code, stream.getvalue()


BAD_SNIPPET = "import numpy as np\na = np.zeros(3)\n"

#: COMM001-005 went once exchange refused their bug classes at run time;
#: COMM006-010 with the static exchange verifier and the happens-before
#: replay before them
RETIRED_COMM_RULES = tuple(f"COMM{n:03d}" for n in range(1, 11))


# -- --format json -----------------------------------------------------------

def test_json_format_emits_structured_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    code, out = run_cli(str(bad), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["tool"] == "repro.analysis"
    assert payload["errors"] == 1 and payload["warnings"] == 0
    (finding,) = payload["findings"]
    assert finding["rule"] == "PIC002"
    assert finding["severity"] == "error"
    assert finding["path"].endswith("bad.py")
    assert finding["line"] == 2
    assert "dtype" in finding["message"]


def test_json_format_clean_tree(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("import numpy as np\na = np.zeros(3, dtype=np.float64)\n")
    code, out = run_cli(str(good), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["findings"] == []
    assert payload["errors"] == payload["warnings"] == 0


def test_text_format_stays_the_default(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    code, out = run_cli(str(bad))
    assert code == 1
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "PIC002" in out


# -- --comm-log replay -------------------------------------------------------

def test_comm_log_replay_flags_seeded_races(tmp_path):
    """The CI plant: a drop nobody recovers."""
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    code, out = run_cli(
        str(good), "--comm-log", UNRECOVERED_LOG, "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    rules = sorted(f["rule"] for f in payload["findings"])
    assert rules == ["RES001"]
    # event-index provenance: path is the log file, line the event seq
    for finding in payload["findings"]:
        assert finding["path"].endswith(".commlog.jsonl")
        assert finding["line"] >= 0


def test_comm_log_replay_of_a_recorded_clean_run(tmp_path):
    from repro.observability.commlog import write_comm_log

    comm = SimComm(2)
    outgoing = {(0, 1): np.zeros(4, dtype=np.float64)}
    with comm.exchange("halo:fold", [(0, 1)], outgoing):
        pass
    log_path = tmp_path / "run.commlog.jsonl"
    write_comm_log(comm, str(log_path))
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    code, out = run_cli(str(good), "--comm-log", str(log_path))
    assert code == 0
    assert "clean" in out


def test_missing_comm_log_is_an_analysis_error(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    code, out = run_cli(str(good), "--comm-log", str(tmp_path / "nope.jsonl"))
    assert code == 2


# -- --select partitioning ---------------------------------------------------

def test_select_replay_rule_skips_linting(tmp_path):
    # PIC002 violation present, but only RES001 selected
    src = tmp_path / "mod.py"
    src.write_text(BAD_SNIPPET)
    code, out = run_cli(
        str(src), "--comm-log", UNRECOVERED_LOG, "--select", "RES001"
    )
    assert code == 1
    assert "RES001" in out and "PIC002" not in out


def test_select_lint_rule_skips_replay(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(BAD_SNIPPET)
    code, out = run_cli(
        str(src), "--comm-log", UNRECOVERED_LOG, "--select", "PIC002"
    )
    assert code == 1
    assert "PIC002" in out and "RES001" not in out


def test_select_accepts_comma_lists(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(BAD_SNIPPET)
    code, out = run_cli(
        str(src), "--comm-log", UNRECOVERED_LOG, "--select", "PIC002,RES001"
    )
    assert code == 1
    assert "PIC002" in out and "RES001" in out


def test_select_unknown_rule_exits_2(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("x = 1\n")
    code, out = run_cli(str(src), "--select", "NOPE999")
    assert code == 2
    assert "NOPE999" in out
    # retired with the static exchange verifier, the happens-before
    # replay and the point-to-point / collective replay
    for retired in RETIRED_COMM_RULES:
        code, out = run_cli(str(src), "--select", retired)
        assert code == 2
        assert retired in out


# -- --list-rules covers every tier ------------------------------------------

def test_list_rules_names_static_and_replay_rules():
    """The static rules are the lint registry's; the exchange protocol is
    checked at run time, so no COMM rule is left, static or replayed."""
    code, out = run_cli("--list-rules")
    assert code == 0
    for rule_id in ("PIC002", "PIC008", "RES001", "RES002", "SAN004"):
        assert rule_id in out
    for retired in RETIRED_COMM_RULES:
        assert retired not in out
    assert "[static" not in out and "[replay]" in out


def test_list_rules_names_each_rule_once():
    """One line per rule id: the RES rules are the replay rules."""
    code, out = run_cli("--list-rules")
    assert code == 0
    lines = {}
    for line in out.splitlines():
        rule_id, rest = line.split(None, 1)
        assert rule_id not in lines, f"{rule_id} listed twice"
        lines[rule_id] = rest[: rest.index("]") + 1]
    assert lines["RES001"] == lines["RES002"] == "[replay]"
    assert [r for r, kind in lines.items() if kind == "[replay]"] == [
        "RES001", "RES002",
    ]

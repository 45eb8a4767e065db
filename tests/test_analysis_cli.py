"""CLI behavior: JSON output, baselines, comm-log replay, rule selection."""

import io
import json
import os

import numpy as np
import pytest

from repro.analysis.cli import main
from repro.parallel.comm import SimComm

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "data", "commstatic_fixtures")
BASELINE = os.path.join(HERE, "data", "analysis_baseline.json")


def run_cli(*argv):
    stream = io.StringIO()
    code = main(list(argv), stream=stream)
    return code, stream.getvalue()


BAD_SNIPPET = "import numpy as np\na = np.zeros(3)\n"


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


# -- --baseline --------------------------------------------------------------

def test_baseline_suppresses_known_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"findings": [{"rule": "PIC002", "path": "bad.py"}]}
    ))
    code, out = run_cli(str(bad), "--baseline", str(baseline))
    assert code == 0
    assert "clean" in out


def test_baseline_does_not_hide_new_rules(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "import time\n"
        "a = np.zeros(3)\n"
        "t = time.time()\n"
    )
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"findings": [{"rule": "PIC002", "path": "bad.py"}]}
    ))
    code, out = run_cli(str(bad), "--baseline", str(baseline))
    assert code == 1
    assert "PIC004" in out and "PIC002" not in out


def test_malformed_baseline_is_an_analysis_error(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text("[1, 2, 3]")
    code, out = run_cli(str(good), "--baseline", str(baseline))
    assert code == 2
    assert "baseline" in out


def test_shipped_baseline_is_empty():
    with open(BASELINE, encoding="utf-8") as handle:
        assert json.load(handle) == {"findings": []}


# -- --comm-log replay -------------------------------------------------------

def test_comm_log_replay_flags_seeded_races(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    code, out = run_cli(
        str(good),
        "--comm-log", os.path.join(FIXTURES, "nondet_fold.commlog.jsonl"),
        "--comm-log", os.path.join(FIXTURES, "fold_race.commlog.jsonl"),
        "--comm-log", os.path.join(FIXTURES, "phase_overlap.commlog.jsonl"),
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    rules = {f["rule"] for f in payload["findings"]}
    assert {"COMM007", "COMM009", "COMM010"} <= rules
    # event-index provenance: path is the log file, line the event seq
    for finding in payload["findings"]:
        assert finding["path"].endswith(".commlog.jsonl")
        assert finding["line"] >= 0


def test_comm_log_replay_of_a_recorded_clean_run(tmp_path):
    from repro.observability.commlog import write_comm_log

    comm = SimComm(2)
    comm.begin_phase("halo:fold", n_messages=1)
    comm.send(0, 1, np.zeros(4, dtype=np.float64), tag="halo:fold")
    comm.recv(0, 1, tag="halo:fold")
    comm.record_apply("halo:fold", 0)
    comm.record_apply("halo:fold", 1)
    comm.end_phase("halo:fold")
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

#: a PIC002 violation next to an exchange whose tag never resolves (COMM006)
UNRESOLVED_EXCHANGE = (
    "import numpy as np\n"
    "a = np.zeros(3)\n"
    "def f(comm, tags, pairs, out):\n"
    "    with comm.exchange(tags.pop(), pairs, out) as received:\n"
    "        return received\n"
)


def test_select_static_rule_skips_linting(tmp_path):
    # PIC002 violation present, but only COMM007 selected
    src = tmp_path / "mod.py"
    src.write_text(
        "import numpy as np\n"
        "a = np.zeros(3)\n"
        "def f(comm, pairs, out):\n"
        "    with comm.exchange('t', pairs, out) as received:\n"
        "        return received\n"
        "def g(comm, pairs, out):\n"
        "    with comm.exchange('t', pairs, out) as received:\n"
        "        return received\n"
    )
    code, out = run_cli(str(src), "--select", "COMM007")
    assert code == 1
    assert "COMM007" in out and "PIC002" not in out


def test_select_lint_rule_skips_commstatic(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(UNRESOLVED_EXCHANGE)
    code, out = run_cli(str(src), "--select", "PIC002")
    assert code == 1
    assert "PIC002" in out and "COMM006" not in out


def test_select_accepts_comma_lists(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(UNRESOLVED_EXCHANGE)
    code, out = run_cli(str(src), "--select", "PIC002,COMM006")
    assert code == 1
    assert "PIC002" in out and "COMM006" in out


def test_select_unknown_rule_exits_2(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("x = 1\n")
    code, out = run_cli(str(src), "--select", "NOPE999")
    assert code == 2
    assert "NOPE999" in out


# -- --list-rules covers every tier ------------------------------------------

def test_list_rules_names_static_and_replay_rules():
    code, out = run_cli("--list-rules")
    assert code == 0
    for rule_id in ("PIC002", "PIC008", "COMM006", "COMM007", "COMM009",
                    "COMM010", "RES001", "SAN004"):
        assert rule_id in out
    assert "COMM008" not in out
    assert "[static]" in out and "[replay]" in out

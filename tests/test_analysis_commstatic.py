"""The static schedule verifier: seeded-bug fixtures and the shipped tree."""

import os

import pytest

from repro.analysis.commstatic import check_schedule, extract_schedule

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_REPRO = os.path.join(os.path.dirname(HERE), "src", "repro")
FIXTURES = os.path.join(HERE, "data", "commstatic_fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def findings_for(name):
    return check_schedule([fixture(name)])


def rule_ids(findings):
    return [f.rule for f in findings]


# -- each seeded bug is caught with file:line provenance ---------------------

def test_unmatched_send_is_comm006():
    findings = findings_for("unmatched_send.py")
    assert "COMM006" in rule_ids(findings)
    orphan = [f for f in findings if "orphan" in f.message]
    assert orphan and orphan[0].path.endswith("unmatched_send.py")
    assert orphan[0].line > 0
    assert "never be delivered" in orphan[0].message
    # the never-satisfied recv is the dual finding
    assert any("block forever" in f.message for f in findings)


def test_tag_collision_is_comm007():
    findings = findings_for("tag_collision.py")
    assert rule_ids(findings) == ["COMM007"]
    assert "halo:fold" in findings[0].message
    # provenance names both declaration sites
    assert "tag_collision.py" in findings[0].message
    assert findings[0].line > 0


def test_deadlocking_schedule_is_comm008():
    findings = findings_for("deadlock_schedule.py")
    assert rule_ids(findings) == ["COMM008"]
    assert "deadlock" in findings[0].message
    assert findings[0].path.endswith("deadlock_schedule.py")


def test_buffer_race_is_comm010():
    findings = findings_for("buffer_race.py")
    assert rule_ids(findings) == ["COMM010"]
    assert "alias 'scratch'" in findings[0].message
    # the finding anchors at the mutation, the message names the send line
    assert "sent at line" in findings[0].message


def test_clean_schedule_has_zero_findings():
    assert findings_for("clean_schedule.py") == []


# -- comm.exchange: one call is a phase declaration + a send + a recv site ----

def test_two_exchange_sites_on_one_tag_is_comm007():
    findings = findings_for("exchange_tag_collision.py")
    assert rule_ids(findings) == ["COMM007"]
    assert "ex:fold" in findings[0].message
    assert "exchange_tag_collision.py" in findings[0].message


def test_outgoing_buffer_written_inside_the_open_phase_is_comm010():
    """Flagged through the alias while the ``with`` body runs; the same
    write after the body (the fixture has one) is not."""
    findings = findings_for("exchange_buffer_race.py")
    assert rule_ids(findings) == ["COMM010"]
    assert "alias 'staging'" in findings[0].message
    assert "'outgoing'" in findings[0].message
    with open(fixture("exchange_buffer_race.py")) as handle:
        flagged = handle.read().splitlines()[findings[0].line - 1]
    assert flagged.strip() == "staging[0] = 1.0"


def test_tag_passed_explicitly_over_a_default_is_extracted():
    """The ``halo:sources`` blind spot: a defaulted tag parameter also
    takes what a call site passes for it."""
    schedule = extract_schedule([fixture("exchange_explicit_tag.py")])
    assert schedule.tags() == ["fx:fields", "fx:sources"]
    for phase in schedule.phases:
        assert phase.func == "_run"
        assert phase.n_sends == 1 and phase.n_recvs == 1
    assert {(f.kind, f.tag) for f in schedule.flows} == {
        (kind, tag)
        for kind in ("send", "recv")
        for tag in ("fx:fields", "fx:sources")
    }
    assert findings_for("exchange_explicit_tag.py") == []


def test_rebound_parameter_ignores_its_callers(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def f(comm, pairs, out, tag='a'):\n"
        "    tag = 'b'\n"
        "    with comm.exchange(tag, pairs, out) as received:\n"
        "        return received\n"
        "def g(comm, pairs, out):\n"
        "    f(comm, pairs, out, tag='c')\n"
    )
    assert extract_schedule([str(src)]).tags() == ["b"]


def test_tag_constant_follows_a_from_import(tmp_path):
    """How ``distributed.py`` spells ``halo:sources``: a constant imported
    from the module that defines the wrapper."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "tags.py").write_text("PREFIX = 'im'\n")
    (pkg / "driver.py").write_text(
        "from pkg.tags import PREFIX\n"
        "def f(comm, pairs, out):\n"
        "    with comm.exchange(PREFIX + ':x', pairs, out) as received:\n"
        "        return received\n"
    )
    assert extract_schedule([str(tmp_path)]).tags() == ["im:x"]


def test_unresolvable_exchange_tag_is_one_warning(tmp_path):
    src = tmp_path / "dynamic.py"
    src.write_text(
        "def f(comm, tags, pairs, out):\n"
        "    with comm.exchange(tags.pop(), pairs, out) as received:\n"
        "        return received\n"
    )
    (finding,) = check_schedule([str(src)])
    assert finding.rule == "COMM006" and finding.severity == "warning"
    assert "exchange" in finding.message


def test_unresolvable_tag_is_a_warning(tmp_path):
    src = tmp_path / "dynamic.py"
    src.write_text(
        "def f(comm, tags, payload):\n"
        "    comm.send(0, 1, payload, tag=tags.pop())\n"
        "    comm.recv(0, 1, tag=tags.pop())\n"
    )
    findings = check_schedule([str(src)])
    assert {f.rule for f in findings} == {"COMM006"}
    assert all(f.severity == "warning" for f in findings)
    assert "unverifiable" in findings[0].message


# -- value tracking: tags resolved through constants and parameters ----------

def test_tag_propagates_through_module_constant_and_default(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "PREFIX = 'fx'\n"
        "def exchange(comm, payload, tag=PREFIX + ':halo'):\n"
        "    comm.begin_phase(tag, n_messages=1)\n"
        "    comm.send(0, 1, payload, tag=tag)\n"
        "    comm.recv(0, 1, tag=tag)\n"
        "    comm.end_phase(tag)\n"
    )
    schedule = extract_schedule([str(src)])
    assert [p.tag for p in schedule.phases] == ["fx:halo"]
    assert {f.tag for f in schedule.flows} == {"fx:halo"}
    assert check_schedule([str(src)]) == []


def test_tag_propagates_through_bare_parameter_from_callers(tmp_path):
    """The _run_exchange shape: a helper with a bare tag parameter gets
    its values from the call sites of its wrappers."""
    src = tmp_path / "mod.py"
    src.write_text(
        "def _helper(comm, payload, tag):\n"
        "    comm.send(0, 1, payload, tag=tag)\n"
        "    comm.recv(0, 1, tag=tag)\n"
        "def fold(comm, payload, tag='x:fold'):\n"
        "    _helper(comm, payload, tag)\n"
        "def fill(comm, payload, tag='x:fill'):\n"
        "    _helper(comm, payload, tag)\n"
    )
    schedule = extract_schedule([str(src)])
    send_tags = {f.tag for f in schedule.flows if f.kind == "send"}
    assert send_tags == {"x:fold", "x:fill"}
    assert check_schedule([str(src)]) == []


def test_literal_ranks_are_inferred(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def f(comm, payload):\n"
        "    comm.send(2, 3, payload, tag='t')\n"
        "    comm.recv(2, 3, tag='t')\n"
    )
    schedule = extract_schedule([str(src)])
    send = [f for f in schedule.flows if f.kind == "send"][0]
    assert (send.src, send.dst) == (2, 3)


def test_non_comm_receivers_are_ignored(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def f(socket, payload):\n"
        "    socket.send(0, 1, payload, tag='raw')\n"
    )
    schedule = extract_schedule([str(src)])
    assert schedule.n_sites == 0
    assert check_schedule([str(src)]) == []


@pytest.mark.parametrize(
    "send, mutation, named",
    [
        # bound to a name first, buffer scribbled on directly
        ("msg = Message([(0,)], [buf, other])\n"
         "    comm.send(0, 1, msg, tag='t')", "buf[0] = 1.0", "'buf'"),
        # built inline, scribbled on through an alias, buffers= keyword
        ("comm.send(0, 1, Message([(0,)], buffers=(other, buf)), tag='t')",
         "scratch.fill(2.0)", "alias 'scratch'"),
    ],
)
def test_comm010_sees_through_message_construction(
    tmp_path, send, mutation, named
):
    """A buffer handed to ``Message(...)`` is in flight once the message
    is sent: the alias tracking follows it through the wrapper."""
    src = tmp_path / "wrapped.py"
    src.write_text(
        "import numpy as np\n"
        "def f(comm):\n"
        "    buf = np.zeros(8, dtype=np.float64)\n"
        "    other = np.ones(8, dtype=np.float64)\n"
        "    scratch = buf\n"
        f"    {send}\n"
        f"    {mutation}\n"
        "    return comm.recv(0, 1, tag='t')\n"
    )
    findings = check_schedule([str(src)])
    assert rule_ids(findings) == ["COMM010"]
    assert named in findings[0].message
    # the same code with the mutation after the receive is clean
    src.write_text(src.read_text().replace(
        f"    {mutation}\n    return comm.recv(0, 1, tag='t')\n",
        f"    got = comm.recv(0, 1, tag='t')\n    {mutation}\n    return got\n",
    ))
    assert check_schedule([str(src)]) == []


def test_syntax_errors_are_skipped_not_fatal(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    (tmp_path / "ok.py").write_text(
        "def f(comm, p):\n"
        "    comm.send(0, 1, p, tag='t')\n"
        "    comm.recv(0, 1, tag='t')\n"
    )
    schedule = extract_schedule([str(tmp_path)])
    assert schedule.n_files == 1  # the broken file is the linter's problem


# -- the whole fixture directory, as CI runs it ------------------------------

def test_fixture_suite_catches_every_seeded_bug():
    findings = check_schedule([FIXTURES])
    by_file = {}
    for f in findings:
        by_file.setdefault(os.path.basename(f.path), set()).add(f.rule)
    assert by_file.get("unmatched_send.py") == {"COMM006"}
    assert by_file.get("tag_collision.py") == {"COMM007"}
    assert by_file.get("deadlock_schedule.py") == {"COMM008"}
    assert by_file.get("buffer_race.py") == {"COMM010"}
    assert by_file.get("exchange_tag_collision.py") == {"COMM007"}
    assert by_file.get("exchange_buffer_race.py") == {"COMM010"}
    assert "clean_schedule.py" not in by_file
    assert "exchange_explicit_tag.py" not in by_file


# -- the shipped tree: extraction finds the real schedule and verifies clean -

def test_shipped_tree_schedule_is_clean():
    """Acceptance: zero static findings over src/repro."""
    assert check_schedule([SRC_REPRO]) == []


def test_shipped_tree_extracts_the_four_phases():
    """The extractor must see the real schedule, not vacuously pass:
    all five phases (the id still says four: until ``comm.exchange`` the
    extractor never saw ``halo:sources``, which the driver passes
    explicitly over ``exchange_halos``'s default) — the three halo
    phases resolved through _run_exchange's bare tag parameter,
    particle redistribution, and LB migration."""
    schedule = extract_schedule([SRC_REPRO])
    assert schedule.tags() == [
        "halo:fields", "halo:fold", "halo:sources", "lb:migrate", "particles",
    ]
    for phase in schedule.phases:
        assert phase.n_sends >= 1 and phase.n_recvs >= 1
    halo = [p for p in schedule.phases if p.tag.startswith("halo:")]
    assert {p.func for p in halo} == {"_run_exchange"}
    assert all(p.path.endswith("parallel/halo.py") for p in halo)

"""The static schedule verifier: seeded-bug fixtures and the shipped tree."""

import os

import pytest

from repro.analysis.commstatic import check_schedule, extract_schedule
from repro.analysis.linter import lint_paths

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

@pytest.mark.parametrize(
    "name", ["unmatched_send.py", "deadlock_schedule.py", "buffer_race.py"]
)
def test_raw_primitive_plant_is_pic008(name):
    """An orphaned send, a recv posted first and a buffer scribbled on in
    flight can only be written with the raw primitives, and every raw
    call on a communicator is PIC008 — the schedule verifier sees none."""
    findings = lint_paths([fixture(name)], select=["PIC008"])
    assert findings and set(rule_ids(findings)) == {"PIC008"}
    for primitive in ("send", "recv", "begin_phase", "end_phase"):
        assert any(f"raw {primitive}()" in f.message for f in findings)
    assert all(f.path.endswith(name) and f.line > 0 for f in findings)
    assert findings_for(name) == []


def test_tag_collision_is_comm007():
    findings = findings_for("tag_collision.py")
    assert rule_ids(findings) == ["COMM007"]
    assert "halo:fold" in findings[0].message
    # provenance names both declaration sites
    assert "tag_collision.py" in findings[0].message
    assert findings[0].line > 0


def test_clean_schedule_has_zero_findings():
    assert findings_for("clean_schedule.py") == []


# -- comm.exchange: one call is one phase of its caller ----------------------

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


# -- value tracking: tags resolved through constants and parameters ----------

def test_tag_propagates_through_module_constant_and_default(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "PREFIX = 'fx'\n"
        "def exchange(comm, pairs, out, tag=PREFIX + ':halo'):\n"
        "    with comm.exchange(tag, pairs, out) as received:\n"
        "        return received\n"
    )
    schedule = extract_schedule([str(src)])
    assert [p.tag for p in schedule.phases] == ["fx:halo"]
    assert check_schedule([str(src)]) == []


def test_tag_propagates_through_bare_parameter_from_callers(tmp_path):
    """The _run_exchange shape: a helper with a bare tag parameter gets
    its values from the call sites of its wrappers."""
    src = tmp_path / "mod.py"
    src.write_text(
        "def _helper(comm, pairs, out, tag):\n"
        "    with comm.exchange(tag, pairs, out) as received:\n"
        "        return received\n"
        "def fold(comm, pairs, out, tag='x:fold'):\n"
        "    _helper(comm, pairs, out, tag)\n"
        "def fill(comm, pairs, out, tag='x:fill'):\n"
        "    _helper(comm, pairs, out, tag)\n"
    )
    schedule = extract_schedule([str(src)])
    assert schedule.tags() == ["x:fill", "x:fold"]
    assert {p.func for p in schedule.phases} == {"_helper"}
    assert check_schedule([str(src)]) == []


def test_non_comm_receivers_are_ignored(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def f(pool, pairs, out):\n"
        "    with pool.exchange('raw', pairs, out) as received:\n"
        "        return received\n"
    )
    schedule = extract_schedule([str(src)])
    assert schedule.n_sites == 0
    assert check_schedule([str(src)]) == []


@pytest.mark.parametrize(
    "outgoing, mutation, named",
    [
        # bound to a name first, buffer scribbled on directly
        ("msg = Message([(0,)], [buf, other])\n"
         "    outgoing = {(0, 1): msg}", "buf[0] = 1.0", "'buf'"),
        # built inline, scribbled on through an alias, buffers= keyword
        ("outgoing = {(0, 1): Message([(0,)], buffers=(other, buf))}",
         "scratch.fill(2.0)", "alias 'scratch'"),
    ],
    ids=["named-message", "inline-message-via-alias"],
)
def test_comm010_sees_through_message_construction(
    tmp_path, outgoing, mutation, named
):
    """A buffer handed to ``Message(...)`` is in flight once the message
    is in ``outgoing``: the alias tracking follows it through the
    wrapper and the dict."""
    src = tmp_path / "wrapped.py"
    src.write_text(
        "import numpy as np\n"
        "def f(comm):\n"
        "    buf = np.zeros(8, dtype=np.float64)\n"
        "    other = np.ones(8, dtype=np.float64)\n"
        "    scratch = buf\n"
        f"    {outgoing}\n"
        "    with comm.exchange('t', [(0, 1)], outgoing) as received:\n"
        f"        {mutation}\n"
        "    return received\n"
    )
    findings = check_schedule([str(src)])
    assert rule_ids(findings) == ["COMM010"]
    assert named in findings[0].message
    # the same code with the mutation after the phase closed is clean
    src.write_text(src.read_text().replace(
        f"        {mutation}\n    return received\n",
        f"        got = received\n    {mutation}\n    return got\n",
    ))
    assert check_schedule([str(src)]) == []


def test_syntax_errors_are_skipped_not_fatal(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    (tmp_path / "ok.py").write_text(
        "def f(comm, pairs, out):\n"
        "    with comm.exchange('t', pairs, out) as received:\n"
        "        return received\n"
    )
    schedule = extract_schedule([str(tmp_path)])
    assert schedule.n_files == 1  # the broken file is the linter's problem
    assert schedule.tags() == ["t"]


# -- the whole fixture directory, as CI runs it ------------------------------

def test_fixture_suite_catches_every_seeded_bug():
    findings = check_schedule([FIXTURES]) + lint_paths(
        [FIXTURES], select=["PIC008"]
    )
    by_file = {}
    for f in findings:
        by_file.setdefault(os.path.basename(f.path), set()).add(f.rule)
    assert by_file == {
        "buffer_race.py": {"PIC008"},
        "deadlock_schedule.py": {"PIC008"},
        "unmatched_send.py": {"PIC008"},
        "tag_collision.py": {"COMM007"},
        "exchange_tag_collision.py": {"COMM007"},
        "exchange_buffer_race.py": {"COMM010"},
    }
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
    halo = [p for p in schedule.phases if p.tag.startswith("halo:")]
    assert {p.func for p in halo} == {"_run_exchange"}
    assert all(p.path.endswith("parallel/halo.py") for p in halo)

"""Rule coverage against the real modules the rules were written for.

Two claims, both against ``parallel/halo.py`` and ``core/load_balance.py``
rather than synthetic snippets:

* every registered lint rule passes the shipped module — rule by rule,
  so a regression names its rule — and its exchange phases run on
  declared tags and replay clean; and
* the rules are not vacuous there: mutating the actual module source in
  the way each rule forbids (stripping a dtype, demoting a repro error
  to a builtin, reading the wall clock; an untimed particle pass in
  ``core/simulation.py``) produces the expected finding.

The runtime sanitizers get the same treatment: SAN001/SAN003/SAN004 are
exercised against a real pairwise halo exchange, not a hand-built grid.
"""

import os
import re

import numpy as np
import pytest

from repro.analysis.commcheck import check_comm
from repro.analysis.linter import lint_paths, registered_rules
from repro.analysis.sanitize import Sanitizer
from repro.exceptions import SanitizerError
from repro.grid.yee import FIELD_COMPONENTS, YeeGrid
from repro.parallel.box import chop_domain
from repro.parallel.comm import PHASE_TAGS, SimComm
from repro.parallel.halo import (
    assemble_global,
    exchange_halos,
    fold_sources_pairwise,
    neighbor_overlaps,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_REPRO = os.path.join(os.path.dirname(HERE), "src", "repro")
HALO = os.path.join(SRC_REPRO, "parallel", "halo.py")
LOAD_BALANCE = os.path.join(SRC_REPRO, "core", "load_balance.py")
SIMULATION = os.path.join(SRC_REPRO, "core", "simulation.py")

ALL_RULE_IDS = sorted(rule.rule_id for rule in registered_rules())


def read_source(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def rule_ids(findings):
    return [f.rule for f in findings]


# -- the shipped modules pass every rule, one rule at a time -----------------

@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_halo_module_passes_rule(rule_id):
    assert lint_paths([HALO], select=[rule_id]) == []


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_load_balance_module_passes_rule(rule_id):
    assert lint_paths([LOAD_BALANCE], select=[rule_id]) == []


def test_halo_module_schedule_verifies_standalone():
    """Both halo phases run on their declared tags with only halo.py's
    own defaults, and the recorded traffic replays clean."""
    _, boxes, grids, comm, _ = exchanged_setup()
    fold = neighbor_overlaps(
        boxes, (16, 16), guards=3, periodic_axes=(0, 1), kind="fold"
    )
    fold_sources_pairwise(
        comm, grids, boxes, fold, [i % 2 for i in range(len(boxes))], guards=3
    )
    tags = {e.tag for e in comm.log if e.kind == "send"}
    assert tags == {PHASE_TAGS["fields"], PHASE_TAGS["fold"]}
    report = check_comm(comm)
    assert report.ok, report.format()


# -- and the rules are not vacuous on them: mutate the real source -----------

def test_stripping_dtypes_from_load_balance_trips_pic002(tmp_path):
    source = read_source(LOAD_BALANCE)
    # strip the dtype only from the allocators PIC002 governs, not from
    # np.asarray/np.full coercions that happen to name a dtype too
    pattern = re.compile(r"(np\.(?:zeros|empty)\([^)]*?), dtype=np\.\w+\)")
    mutated, n_stripped = pattern.subn(r"\1)", source)
    assert n_stripped >= 4  # the module really allocates this way
    path = tmp_path / "load_balance.py"
    path.write_text(mutated)
    findings = lint_paths([str(path)], select=["PIC002"])
    assert rule_ids(findings) == ["PIC002"] * n_stripped


def test_demoting_repro_errors_in_halo_trips_pic003(tmp_path):
    source = read_source(HALO)
    n_raises = source.count("raise DecompositionError")
    assert n_raises >= 3
    path = tmp_path / "halo.py"
    path.write_text(
        source.replace("raise DecompositionError", "raise ValueError")
    )
    findings = lint_paths([str(path)], select=["PIC003"])
    assert rule_ids(findings) == ["PIC003"] * n_raises
    assert all("ValueError" in f.message for f in findings)


def test_wall_clock_read_in_load_balance_trips_pic004(tmp_path):
    source = read_source(LOAD_BALANCE)
    path = tmp_path / "load_balance.py"
    path.write_text(source + "\nimport time\n_T0 = time.time()\n")
    findings = lint_paths([str(path)], select=["PIC004"])
    assert rule_ids(findings) == ["PIC004"]
    assert findings[0].line == len(source.splitlines()) + 3


def test_per_particle_loop_added_to_hot_copy_trips_pic001(tmp_path):
    """halo.py itself is not a hot module; the same source installed as a
    kernel module with a per-particle scan added is what PIC001 exists
    to reject."""
    source = read_source(HALO)
    appended = (
        "\ndef scan(positions):\n"
        "    for p in range(positions.shape[0]):\n"
        "        pass\n"
    )
    cold = tmp_path / "halo.py"
    cold.write_text(source + appended)
    assert lint_paths([str(cold)], select=["PIC001"]) == []
    hot = tmp_path / "gather.py"
    hot.write_text(source + appended)
    findings = lint_paths([str(hot)], select=["PIC001"])
    assert rule_ids(findings) == ["PIC001"]
    assert findings[0].line == len(source.splitlines()) + 3


def test_raw_send_added_to_halo_trips_pic008(tmp_path):
    """halo.py runs every phase through comm.exchange; one raw send next
    to them would skip the tag check."""
    source = read_source(HALO)
    path = tmp_path / "halo.py"
    path.write_text(
        source
        + "\ndef _leak(comm, payload):\n"
        + "    comm.send(0, 1, payload, tag='halo:orphan')\n"
    )
    findings = lint_paths([str(path)], select=["PIC008"])
    assert rule_ids(findings) == ["PIC008"]
    assert findings[0].line == len(source.splitlines()) + 3
    assert findings[0].severity == "error"


def test_untimed_advance_in_subcycle_loop_trips_pic006(tmp_path):
    """The merged driver is still scanned: an untimed particle pass
    planted in the MR substep loop of simulation.py is reported."""
    source = read_source(SIMULATION)
    anchor = "        for k, patch in subcycled:\n"
    assert source.count(anchor) == 1
    head = source[: source.index(anchor)]
    assert head[head.rindex("    def "):].startswith(
        "    def _advance_subcycled_patches("
    )
    line = head.count("\n") + 1
    path = tmp_path / "simulation.py"
    path.write_text(source.replace(
        anchor,
        "        advance_particles(self.grid, None, self.kernel_set)\n" + anchor,
    ))
    findings = lint_paths([str(path)], select=["PIC006"])
    assert rule_ids(findings) == ["PIC006"]
    assert findings[0].line == line
    assert "_advance_subcycled_patches()" in findings[0].message


# -- the sanitizers, against a real pairwise exchange ------------------------

def exchanged_setup(n=16, max_grid=8, guards=3, n_ranks=2, seed=11):
    domain = YeeGrid((n, n), (0.0, 0.0), (float(n), float(n)), guards=guards)
    boxes = chop_domain((n, n), max_grid)
    grids = []
    rng = np.random.default_rng(seed)
    for b in boxes:
        bg = YeeGrid(
            b.shape, tuple(map(float, b.lo)), tuple(map(float, b.hi)),
            guards=guards,
        )
        for comp in FIELD_COMPONENTS:
            view = bg.fields[comp][bg.valid_slices(comp)]
            view[...] = rng.uniform(-1.0, 1.0, size=view.shape)
        grids.append(bg)
    overlaps = neighbor_overlaps(
        boxes, (n, n), guards=guards, periodic_axes=(0, 1), kind="fill"
    )
    rank_of_box = [i % n_ranks for i in range(len(boxes))]
    comm = SimComm(n_ranks)
    stats = exchange_halos(
        comm, grids, boxes, overlaps, rank_of_box, guards=guards
    )
    return domain, boxes, grids, comm, stats


def test_san003_passes_on_assembled_exchange():
    domain, boxes, grids, comm, stats = exchanged_setup()
    assert stats.messages > 0
    assemble_global(
        domain, grids, boxes, FIELD_COMPONENTS, periodic_axes=(0, 1)
    )
    san = Sanitizer()
    for axis in (0, 1):
        san.check_guard_consistency(domain, axis, step=0)


def test_san003_catches_guard_scribble_after_exchange():
    domain, boxes, grids, comm, _ = exchanged_setup()
    assemble_global(
        domain, grids, boxes, FIELD_COMPONENTS, periodic_axes=(0, 1)
    )
    domain.fields["Ex"][0, 4] += 1.0  # a kernel wrote outside its region
    with pytest.raises(SanitizerError, match="SAN003"):
        Sanitizer().check_guard_consistency(domain, 0, step=0)


def test_san004_passes_on_drained_exchange_comm():
    _, _, _, comm, _ = exchanged_setup()
    assert comm.pending() == 0
    Sanitizer().check_comm_quiescent(comm, step=0)  # must not raise


def test_san004_catches_undelivered_message():
    _, _, _, comm, _ = exchanged_setup()
    comm.send(0, 1, np.zeros(4, dtype=np.float64), tag="halo:stray")
    with pytest.raises(SanitizerError, match="SAN004"):
        Sanitizer().check_comm_quiescent(comm, step=1)


def test_san001_catches_nan_carried_by_the_exchange():
    """A NaN deposited in one box's valid region crosses into a
    neighbor's guards through the exchange; SAN001 must flag the
    receiving box, not only the source."""
    domain, boxes, grids, comm, _ = exchanged_setup(seed=7)
    grids[0].fields["Ex"][grids[0].valid_slices("Ex")][0, 0] = np.nan
    overlaps = neighbor_overlaps(
        boxes, (16, 16), guards=3, periodic_axes=(0, 1), kind="fill"
    )
    exchange_halos(
        comm, grids, boxes, overlaps, [i % 2 for i in range(len(boxes))],
        guards=3,
    )
    poisoned = [
        i for i, bg in enumerate(grids)
        if not np.isfinite(bg.fields["Ex"]).all()
    ]
    assert len(poisoned) > 1  # the NaN really traveled
    san = Sanitizer()
    with pytest.raises(SanitizerError, match="SAN001"):
        for i in poisoned:
            san.check_fields_finite(grids[i], step=0, components=("Ex",))

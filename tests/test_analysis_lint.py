"""One pass/fail fixture pair per lint rule, plus driver and CLI behavior."""

import os
import subprocess
import sys

import pytest

from repro.analysis.cli import main
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.linter import (
    collect_pragmas,
    lint_paths,
    registered_rules,
)
from repro.exceptions import AnalysisError

SRC_REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


def lint_snippet(tmp_path, name, source, select=None):
    path = tmp_path / name
    path.write_text(source)
    return lint_paths([str(path)], select=select)


def rule_ids(findings):
    return [f.rule for f in findings]


# -- PIC001: per-particle loops in hot modules -----------------------------

def test_pic001_flags_per_particle_loop(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "deposit.py",
        "def kernel(positions):\n"
        "    for p in range(positions.shape[0]):\n"
        "        pass\n",
        select=["PIC001"],
    )
    assert rule_ids(findings) == ["PIC001"]
    assert findings[0].line == 2


def test_pic001_flags_loop_over_assigned_count(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "gather.py",
        "def kernel(x):\n"
        "    n = x.shape[0]\n"
        "    for p in range(n):\n"
        "        pass\n",
        select=["PIC001"],
    )
    assert rule_ids(findings) == ["PIC001"]


def test_pic001_allows_chunked_and_vectorized(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "pusher.py",
        "def kernel(x):\n"
        "    n = x.shape[0]\n"
        "    for start in range(0, n, 4096):\n"
        "        pass\n"
        "    for d in range(3):\n"
        "        pass\n",
        select=["PIC001"],
    )
    assert findings == []


def test_pic001_ignores_non_hot_modules(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "diagnostics.py",
        "def slow(x):\n"
        "    for p in range(x.shape[0]):\n"
        "        pass\n",
        select=["PIC001"],
    )
    assert findings == []


def test_pic001_pragma_on_def_suppresses(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "deposit.py",
        "def reference(x):  # repro: allow(PIC001)\n"
        "    for p in range(x.shape[0]):\n"
        "        pass\n",
        select=["PIC001"],
    )
    assert findings == []


# -- PIC002: explicit dtype -------------------------------------------------

def test_pic002_flags_missing_dtype(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "alloc.py",
        "import numpy as np\n"
        "a = np.zeros((4, 4))\n"
        "b = np.empty(3)\n",
        select=["PIC002"],
    )
    assert rule_ids(findings) == ["PIC002", "PIC002"]
    assert [f.line for f in findings] == [2, 3]


def test_pic002_accepts_keyword_and_positional_dtype(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "alloc.py",
        "import numpy as np\n"
        "a = np.zeros((4, 4), dtype=np.float64)\n"
        "b = np.empty(3, np.float32)\n"
        "c = np.zeros_like(a)\n",
        select=["PIC002"],
    )
    assert findings == []


# -- PIC003: exception discipline -------------------------------------------

def test_pic003_flags_builtin_raises(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "mod.py",
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('bad')\n"
        "    raise RuntimeError\n",
        select=["PIC003"],
    )
    assert rule_ids(findings) == ["PIC003", "PIC003"]
    assert "ValueError" in findings[0].message


def test_pic003_allows_repro_errors_and_reraise(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "mod.py",
        "from repro.exceptions import ConfigurationError\n"
        "def f(x):\n"
        "    try:\n"
        "        raise ConfigurationError('bad')\n"
        "    except ConfigurationError:\n"
        "        raise\n"
        "def g():\n"
        "    raise NotImplementedError\n",
        select=["PIC003"],
    )
    assert findings == []


def test_pic003_protocol_exceptions_only_in_dunders(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "mod.py",
        "class A:\n"
        "    def __getattr__(self, name):\n"
        "        raise AttributeError(name)\n"
        "    def lookup(self, name):\n"
        "        raise KeyError(name)\n",
        select=["PIC003"],
    )
    assert rule_ids(findings) == ["PIC003"]
    assert findings[0].line == 5


# -- PIC004: wall-clock discipline ------------------------------------------

def test_pic004_flags_direct_clock_reads(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "kernel.py",
        "import time\n"
        "import time as _t\n"
        "from time import perf_counter\n"
        "a = time.time()\n"
        "b = _t.perf_counter()\n"
        "c = perf_counter()\n",
        select=["PIC004"],
    )
    assert rule_ids(findings) == ["PIC004"] * 3
    assert [f.line for f in findings] == [4, 5, 6]


def test_pic004_exempts_the_timers_module(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "timers.py",
        "import time\n"
        "now = time.perf_counter()\n",
        select=["PIC004"],
    )
    assert findings == []


# -- PIC005: __all__ consistency --------------------------------------------

def test_pic005_flags_phantom_export(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "mod.py",
        "def real():\n"
        "    pass\n"
        "__all__ = ['real', 'phantom']\n",
        select=["PIC005"],
    )
    assert rule_ids(findings) == ["PIC005"]
    assert "phantom" in findings[0].message


def test_pic005_flags_unlisted_reexport_in_init(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from collections import OrderedDict, defaultdict\n"
        "__all__ = ['OrderedDict']\n"
    )
    findings = lint_paths([str(pkg)], select=["PIC005"])
    assert rule_ids(findings) == ["PIC005"]
    assert "defaultdict" in findings[0].message


def test_pic005_flags_init_without_dunder_all(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from collections import OrderedDict\n")
    findings = lint_paths([str(pkg)], select=["PIC005"])
    assert rule_ids(findings) == ["PIC005"]
    assert "no literal __all__" in findings[0].message


def test_pic005_resolves_repro_internal_imports(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro.sub import thing\n"
        "__all__ = ['thing']\n"
    )
    (pkg / "sub.py").write_text("other = 1\n")
    findings = lint_paths([str(pkg)], select=["PIC005"])
    assert any(
        f.rule == "PIC005" and "does not define 'thing'" in f.message
        for f in findings
    )


def test_pic005_passes_consistent_init(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro.sub import thing\n"
        "__all__ = ['thing']\n"
    )
    (pkg / "sub.py").write_text("thing = 1\n")
    assert lint_paths([str(pkg)], select=["PIC005"]) == []


# -- PIC006: untimed kernel-phase calls in step drivers ----------------------

def test_pic006_flags_untimed_kernel_call_in_driver(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "simulation.py",
        "class Sim:\n"
        "    def _step_body(self):\n"
        "        self._deposit(self.sp, x_old, x_new, vel)\n",
        select=["PIC006"],
    )
    assert rule_ids(findings) == ["PIC006"]
    assert "_deposit()" in findings[0].message
    assert findings[0].line == 3


def test_pic006_accepts_timed_call(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "distributed.py",
        "class Sim:\n"
        "    def _step_body(self):\n"
        "        with self.timers.timer('fold'):\n"
        "            fold_sources_pairwise(self)\n"
        "        with self._phase('redistribute'):\n"
        "            redistribute_particles(self.per_box)\n"
        "        with self.tracer.span('box'), self.timers.stopwatch() as sw:\n"
        "            advance_particles(self.kernel_set, bg, x, u, w)\n",
        select=["PIC006"],
    )
    assert findings == []


def test_pic006_timed_context_covers_nested_statements(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "simulation.py",
        "class Sim:\n"
        "    def _step_body(self):\n"
        "        with self._phase('deposit'):\n"
        "            for sp in self.species:\n"
        "                if sp.n:\n"
        "                    self._deposit(sp)\n",
        select=["PIC006"],
    )
    assert findings == []


def test_pic006_flags_untimed_call_inside_untimed_loop(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "simulation.py",
        "class Sim:\n"
        "    def _advance_subcycled_patches(self):\n"
        "        for patch in self.patches:\n"
        "            self._smooth_sources(patch.fine)\n",
        select=["PIC006"],
    )
    assert rule_ids(findings) == ["PIC006"]


def test_pic006_ignores_hook_bodies_and_other_modules(tmp_path):
    # the hook method itself is exempt: its call sites are what must be timed
    findings = lint_snippet(
        tmp_path,
        "simulation.py",
        "class Sim:\n"
        "    def _deposit(self, sp, x_old, x_new, vel):\n"
        "        deposit_current_esirkepov(self.grid, x_old, x_new, vel)\n",
        select=["PIC006"],
    )
    assert findings == []
    # and non-driver modules are out of scope entirely
    findings = lint_snippet(
        tmp_path,
        "helpers.py",
        "def _step_body(self):\n"
        "    self._deposit(self.sp)\n",
        select=["PIC006"],
    )
    assert findings == []


def test_pic006_advance_particles_is_a_kernel_phase_call(tmp_path):
    # the box-level particle pass must be timed by an enclosing context,
    # in every driver method, the per-level one included
    untimed = lint_snippet(
        tmp_path,
        "distributed.py",
        "class Sim:\n"
        "    def _advance_levels(self, sp, periodic):\n"
        "        advance_particles(self.kernel_set, self.grid, x, u, w)\n",
        select=["PIC006"],
    )
    assert rule_ids(untimed) == ["PIC006"]
    assert "advance_particles()" in untimed[0].message
    assert "_advance_levels()" in untimed[0].message
    timed = lint_snippet(
        tmp_path,
        "simulation.py",
        "class Sim:\n"
        "    def _advance_levels(self, sp, periodic):\n"
        "        with self._phase('particles'):\n"
        "            advance_particles(self.kernel_set, self.grid, x, u, w)\n"
        "            self._deposit(sp, x_old, x_new, vel)\n",
        select=["PIC006"],
    )
    assert timed == []


def test_pic006_box_advance_and_smoothing_must_be_timed(tmp_path):
    # the per-box physics: timed by the call site only; no argument makes
    # a call time itself
    findings = lint_snippet(
        tmp_path,
        "distributed.py",
        "class Sim:\n"
        "    def _step_body(self):\n"
        "        advance_particles(self.kernel_set, bg, x, u, w)\n"
        "        advance_particles(self.kernel_set, bg, x, u, w, phase=None)\n"
        "        advance_particles(\n"
        "            self.kernel_set, bg, x, u, w, phase=self._phase)\n"
        "        self._smooth_sources(bg)\n",
        select=["PIC006"],
    )
    assert [(f.line, f.message.split("(")[0].split()[-1]) for f in findings] == [
        (3, "advance_particles"), (4, "advance_particles"),
        (5, "advance_particles"), (7, "_smooth_sources"),
    ]


def test_pic006_pragma_suppresses(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "simulation.py",
        "class Sim:\n"
        "    def _step_body(self):\n"
        "        self._deposit(self.sp)  # repro: allow(PIC006)\n",
        select=["PIC006"],
    )
    assert findings == []


def test_pic006_clean_on_real_drivers():
    for rel in ("core/simulation.py", "parallel/distributed.py"):
        path = os.path.join(SRC_REPRO, rel)
        assert lint_paths([path], select=["PIC006"]) == []


# -- PIC007: hard-coded float64 in kernel-phase code --------------------------

def test_pic007_flags_dtype_keyword_and_positional(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "deposit.py",
        "import numpy as np\n"
        "def kernel(grid):\n"
        "    a = np.zeros(4, dtype=np.float64)\n"
        "    b = np.empty((3, 3), np.double)\n"
        "    c = np.arange(5, dtype='float64')\n"
        "    d = np.asarray(grid, float)\n",
        select=["PIC007"],
    )
    assert rule_ids(findings) == ["PIC007"] * 4
    assert [f.line for f in findings] == [3, 4, 5, 6]


def test_pic007_allows_derived_dtypes(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "gather.py",
        "import numpy as np\n"
        "def kernel(grid, arr):\n"
        "    a = np.zeros(grid.shape, dtype=grid.dtype)\n"
        "    b = np.empty_like(arr)\n"
        "    c = np.zeros(4, dtype=np.float32)\n"
        "    d = np.arange(5)\n",
        select=["PIC007"],
    )
    assert findings == []


def test_pic007_scoped_to_kernel_phase_modules(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "diagnostics.py",
        "import numpy as np\n"
        "def moments():\n"
        "    return np.zeros(4, dtype=np.float64)\n",
        select=["PIC007"],
    )
    assert findings == []


def test_pic007_tracks_numpy_alias(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "shapes.py",
        "import numpy\n"
        "def weights():\n"
        "    return numpy.ones(3, dtype=numpy.float64)\n",
        select=["PIC007"],
    )
    assert rule_ids(findings) == ["PIC007"]


def test_pic007_pragma_documents_dp_by_design(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "yee.py",
        "import numpy as np\n"
        "def coords(n):  # repro: allow(PIC007)\n"
        "    return np.arange(n, dtype=np.float64)\n"
        "def other(n):\n"
        "    return np.arange(n, dtype=np.float64)"
        "  # repro: allow(PIC007)\n",
        select=["PIC007"],
    )
    assert findings == []


def test_pic007_clean_on_real_kernel_phase_modules():
    for rel in ("particles/gather.py", "particles/deposit.py",
                "particles/shapes.py", "particles/kernels.py",
                "particles/compiled.py", "grid/yee.py", "grid/psatd.py",
                "grid/pml.py", "grid/maxwell.py", "grid/stencils.py"):
        path = os.path.join(SRC_REPRO, rel)
        assert lint_paths([path], select=["PIC007"]) == [], rel


# -- PIC008: raw message primitives on a communicator ------------------------

def test_pic008_flags_raw_primitives_on_a_communicator(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "ping.py",
        "def ping(comm, sim, p):\n"
        "    sim.comm.send(0, 1, p, tag='t')\n"
        "    comm.recv(0, 1, tag='t')\n",
        select=["PIC008"],
    )
    assert rule_ids(findings) == ["PIC008"] * 2
    assert [f.line for f in findings] == [2, 3]


def test_pic008_allows_exchange_self_and_other_receivers(tmp_path):
    """``SimComm`` builds ``exchange`` from the primitives on ``self``."""
    findings = lint_snippet(
        tmp_path,
        "comm.py",
        "class SimComm:\n"
        "    def exchange(self, tag, pairs, outgoing):\n"
        "        self.send(0, 1, outgoing[(0, 1)], tag=tag)\n"
        "def step(comm, sock, pairs, out):\n"
        "    sock.send(b'x')\n"
        "    comm.pending()\n"
        "    with comm.exchange('t', pairs, out) as received:\n"
        "        return received\n",
        select=["PIC008"],
    )
    assert findings == []


#: the seeded communication bugs (raw plants and run-time plants)
COMM_FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "comm_fixtures"
)

#: the plants only raw primitives can write: PIC008 is their one check
RAW_PLANTS = ["unmatched_send.py", "deadlock_schedule.py", "buffer_race.py"]


@pytest.mark.parametrize("name", RAW_PLANTS)
def test_raw_primitive_plant_is_pic008(name):
    """An orphaned send, a recv posted first and a buffer scribbled on in
    flight can only be written with the raw primitives, and every raw
    call on a communicator is PIC008."""
    findings = lint_paths([os.path.join(COMM_FIXTURES, name)], select=["PIC008"])
    assert findings and set(rule_ids(findings)) == {"PIC008"}
    for primitive in ("send", "recv"):
        assert any(f"raw {primitive}()" in f.message for f in findings)
    assert all(f.path.endswith(name) and f.line > 0 for f in findings)


def test_fixture_suite_catches_every_seeded_bug():
    """The CI fixture step: PIC008 over the whole directory flags the
    three raw plants (2 raw calls each) and nothing else — the tag and
    buffer plants fail at run time (``tests/test_comm_plants.py``)."""
    findings = lint_paths([COMM_FIXTURES], select=["PIC008"])
    assert sorted({os.path.basename(f.path) for f in findings}) == sorted(RAW_PLANTS)
    assert len(findings) == 6


def test_import_repro_leaves_the_static_analyzer_unloaded():
    """The drivers import ``repro.analysis.sanitize``; the package must
    not drag the linter and the replay checker in with it."""
    code = (
        "import sys, repro\n"
        "import repro.analysis.sanitize\n"
        "mods = ('linter', 'commcheck', 'dataflow')\n"
        "print([m for m in mods if 'repro.analysis.' + m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC_REPRO))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


# -- driver / pragmas / CLI --------------------------------------------------

def test_collect_pragmas_parses_rule_lists():
    pragmas = collect_pragmas(
        "x = 1  # repro: allow(PIC001, PIC004)\n"
        "y = 2  # unrelated comment\n"
    )
    assert pragmas == {1: {"PIC001", "PIC004"}}


def test_line_pragma_suppresses_finding(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "alloc.py",
        "import numpy as np\n"
        "a = np.zeros(3)  # repro: allow(PIC002)\n",
        select=["PIC002"],
    )
    assert findings == []


def test_unknown_rule_id_raises():
    with pytest.raises(AnalysisError):
        lint_paths([SRC_REPRO], select=["NOPE999"])


def test_registered_rules_cover_documented_ids():
    ids = {rule.rule_id for rule in registered_rules()}
    assert {"PIC001", "PIC002", "PIC003", "PIC004", "PIC005"} <= ids


def test_sort_findings_orders_by_path_line_rule():
    unordered = [
        Finding(rule="B", message="", path="b.py", line=2),
        Finding(rule="A", message="", path="a.py", line=9),
        Finding(rule="A", message="", path="b.py", line=2),
    ]
    ordered = sort_findings(unordered)
    assert [(f.path, f.line, f.rule) for f in ordered] == [
        ("a.py", 9, "A"), ("b.py", 2, "A"), ("b.py", 2, "B"),
    ]


def test_cli_exit_codes_and_report(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\na = np.zeros(3)\n")
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PIC002" in out and "1 error(s)" in out

    good = tmp_path / "good.py"
    good.write_text("import numpy as np\na = np.zeros(3, dtype=np.float64)\n")
    assert main([str(good)]) == 0
    assert "clean" in capsys.readouterr().out

    assert main(["--list-rules"]) == 0
    assert "PIC001" in capsys.readouterr().out

    assert main([str(tmp_path / "missing_dir")]) == 2


def test_shipped_tree_is_clean():
    """The acceptance gate: the repository's own source passes every rule."""
    assert main([SRC_REPRO, "--quiet"]) == 0


def test_findings_format_is_clickable():
    f = Finding(rule="PIC002", message="msg", path="x.py", line=7)
    assert f.format() == "x.py:7: [error] PIC002 msg"
    assert f.severity == Severity.ERROR

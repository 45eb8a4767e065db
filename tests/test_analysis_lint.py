"""One pass/fail fixture pair per lint rule, plus driver and CLI behavior."""

import os

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
        "        fields = self._gather(self.sp)\n",
        select=["PIC006"],
    )
    assert rule_ids(findings) == ["PIC006"]
    assert "_gather()" in findings[0].message
    assert findings[0].line == 3


def test_pic006_accepts_timed_call(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "distributed.py",
        "class Sim:\n"
        "    def _finish_step(self):\n"
        "        with self.timers.timer('fold'):\n"
        "            fold_sources_global(self)\n"
        "        with self._phase('redistribute'):\n"
        "            redistribute_particles(self.per_box)\n"
        "        with self.tracer.span('box'), self.timers.stopwatch() as sw:\n"
        "            self._advance_on(bg, sp, phase=None)\n",
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
        "mr_simulation.py",
        "class Sim:\n"
        "    def _advance_subcycled_patches(self):\n"
        "        for patch in self.patches:\n"
        "            self._advance_fields(patch)\n",
        select=["PIC006"],
    )
    assert rule_ids(findings) == ["PIC006"]


def test_pic006_ignores_hook_bodies_and_other_modules(tmp_path):
    # the hook method itself is exempt: its call sites are what must be timed
    findings = lint_snippet(
        tmp_path,
        "simulation.py",
        "class Sim:\n"
        "    def _gather(self, sp):\n"
        "        return gather_fields(self.grid, sp)\n",
        select=["PIC006"],
    )
    assert findings == []
    # and non-driver modules are out of scope entirely
    findings = lint_snippet(
        tmp_path,
        "helpers.py",
        "def _step_body(self):\n"
        "    self._gather(self.sp)\n",
        select=["PIC006"],
    )
    assert findings == []


def test_pic006_advance_particles_is_a_kernel_phase_call(tmp_path):
    # the box-level particle pass must be timed: by an enclosing context ...
    untimed = lint_snippet(
        tmp_path,
        "distributed.py",
        "class Sim:\n"
        "    def _advance_species(self, sp):\n"
        "        advance_particles(self.grid, sp, self.kernel_set)\n",
        select=["PIC006"],
    )
    assert rule_ids(untimed) == ["PIC006"]
    assert "advance_particles()" in untimed[0].message
    # ... or by itself, when it is handed the driver's phase factory
    self_timed = lint_snippet(
        tmp_path,
        "simulation.py",
        "class Sim:\n"
        "    def _advance_species(self, sp):\n"
        "        advance_particles(self.grid, sp, phase=self._phase)\n"
        "    def _finish_step(self):\n"
        "        with self._phase('particles'):\n"
        "            advance_particles(self.grid, self.sp)\n",
        select=["PIC006"],
    )
    assert self_timed == []


def test_pic006_box_advance_and_smoothing_must_be_timed(tmp_path):
    # the base-class physics: timed by the call site or by a phase factory;
    # phase=None says "my caller is timed", so outside a context it is not
    findings = lint_snippet(
        tmp_path,
        "distributed.py",
        "class Sim:\n"
        "    def _step_body(self):\n"
        "        self._advance_on(bg, sp)\n"
        "        self._advance_on(bg, sp, phase=None)\n"
        "        self._advance_on(bg, sp, phase=self._phase)\n"
        "        self._smooth_sources(bg)\n",
        select=["PIC006"],
    )
    assert [(f.line, f.message.split("(")[0].split()[-1]) for f in findings] == [
        (3, "_advance_on"), (4, "_advance_on"), (6, "_smooth_sources"),
    ]


def test_pic006_pragma_suppresses(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "simulation.py",
        "class Sim:\n"
        "    def _step_body(self):\n"
        "        self._gather(self.sp)  # repro: allow(PIC006)\n",
        select=["PIC006"],
    )
    assert findings == []


def test_pic006_clean_on_real_drivers():
    for rel in ("core/simulation.py", "core/mr_simulation.py",
                "parallel/distributed.py"):
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

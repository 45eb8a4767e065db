"""Smoke test of the benchmark itself.

Not in the tier-1 ``testpaths``: run explicitly with
``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (about a minute).
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from .metrics import END_TO_END, PER_LAYER, UNITS
from .report import quiet_steps
from .workloads import WORKLOADS

PKG_DIR = Path(__file__).resolve().parent
ROOT = PKG_DIR.parent.parent
MAIN = str(PKG_DIR / "__main__.py")
WORKLOAD_NAMES = (
    "uniform_compiled", "hybrid_mr", "psatd_galilean", "decomp_yee_mp2",
    "decomp_psatd_loopback",
)


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run of all five workloads plus the traced pass."""
    out = tmp_path_factory.mktemp("perf") / "record.json"
    t0 = time.perf_counter()
    done = _run(MAIN, "--smoke", "--seed", "5", "--out", str(out))
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    return record, elapsed, done.stdout, out


def test_smoke_is_quick_and_healthy(smoke):
    record, elapsed, _stdout, _path = smoke
    assert elapsed < 60.0
    assert tuple(record["workloads"]) == WORKLOAD_NAMES
    for name, rec in record["workloads"].items():
        assert rec["failed"] == 0, (name, rec["failures"])
        assert rec["attempted"] >= 40
    prov = record["provenance"]
    for key in ("git_sha", "seed", "nproc", "usable_cores", "python", "numpy",
                "compiled_backend"):
        assert key in prov


def test_every_named_metric_is_present_with_its_unit(smoke):
    record, _elapsed, stdout, _path = smoke
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for workload, rec in record["workloads"].items():
        assert set(rec["end_to_end"]) == {n for n, _u, _b in END_TO_END}
        for name, entry in rec["end_to_end"].items():
            assert name_ok.match(name)
            assert entry["unit"] == UNITS[name]
            assert entry["value"] > 0, (workload, name)
            assert len(entry["per_repeat"]) >= 2
        assert list(rec["per_layer"]) == [n for n, _u, _b in PER_LAYER]
        for name, value in rec["per_layer"].items():
            assert name_ok.match(name)
            if value is None:  # an isolated probe failed: the reason is kept
                assert rec["nulls"][name]
            else:
                assert isinstance(value, (int, float))
            assert f"{name} " in stdout  # printed by name, next to its unit
        assert rec["nulls"] == {}, (workload, rec["nulls"])


def test_layers_show_where_they_should(smoke):
    record, *_ = smoke
    layers = {w: r["per_layer"] for w, r in record["workloads"].items()}
    assert layers["psatd_galilean"]["grid.fft_cells_over_valid"] == 1.0
    assert layers["decomp_psatd_loopback"]["grid.fft_cells_over_valid"] > 1.5
    assert layers["decomp_psatd_loopback"]["parallel.guard_cells"] == 12
    assert layers["decomp_yee_mp2"]["parallel.wait_ms_per_step"] > 0
    assert layers["decomp_yee_mp2"]["parallel.msgs_per_step"] > 0
    assert layers["decomp_yee_mp2"]["diagnostics.decomp_vs_mono_linf"] < 1e-10
    assert layers["hybrid_mr"]["core.mr_fine_cells"] > 0
    assert layers["hybrid_mr"]["core.mr_active_step_ms"] > 0
    assert layers["uniform_compiled"]["core.mixed_step_ratio"] > 0
    # a layer a workload does not exercise did no work there
    assert layers["uniform_compiled"]["parallel.msgs_per_step"] == 0
    assert layers["psatd_galilean"]["core.mr_fine_cells"] == 0


def test_phases_sum_to_the_step_within_the_glue(smoke):
    record, *_ = smoke
    for workload, rec in record["workloads"].items():
        table = rec["phase_table"]
        share = sum(table["phases_ms"].values()) / table["step_ms_mean"]
        assert 0.5 < share <= 1.0 + 1e-9, (workload, share)
        if workload != "decomp_yee_mp2":  # there glue_frac is the worst rank's
            assert 1.0 - share == pytest.approx(
                rec["per_layer"]["core.glue_frac"], abs=1e-9
            )


def test_benchmark_json_matches_the_catalogue():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/perf"]
    # two workloads are measured by the full report but not gated
    assert [w["name"] for w in doc["workloads"]] == [
        n for n in WORKLOAD_NAMES if WORKLOADS[n].gated
    ] == ["uniform_compiled", "hybrid_mr", "decomp_psatd_loopback"]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in doc["end_to_end"])


def test_quiet_steps_keep_the_fastest_timing_of_each_step():
    # a disturbed stretch in one repeat (steps 1-2 of the first) is taken out
    # by the other; the step that is slow in every repeat (a sort) stays slow
    runs = [{"step_s": [0.10, 0.15, 0.16, 0.30]}, {"step_s": [0.12, 0.10, 0.11, 0.31]}]
    assert quiet_steps(runs) == [0.10, 0.10, 0.11, 0.30]
    # a repeat that raised before its first timed step has nothing to offer
    assert quiet_steps(runs + [{"step_s": []}]) == [0.10, 0.10, 0.11, 0.30]


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_result_line(tmp_path, trace):
    done = _run(MAIN, "--workload", "psatd_galilean", "--seed", "2", "--seconds", "1",
                "--trace", str(trace), "--smoke", "--out", str(tmp_path / "r.json"))
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [n for n, _u, _b in expected]
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == UNITS[name]


def test_a_poisoned_field_counts_as_failed_steps(tmp_path):
    env_path = f"{PKG_DIR.parent}:{ROOT / 'src'}"
    done = subprocess.run(
        [sys.executable, "-m", "perf.worker", "repeat", "--workload",
         "uniform_compiled", "--smoke", "1", "--poison", "1", "--outdir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": env_path, "PATH": "/usr/local/bin:/usr/bin:/bin",
             "TMPDIR": str(tmp_path)},
    )
    assert done.returncode == 0, done.stderr[-2000:]
    run = json.loads(done.stdout.strip().splitlines()[-1])
    assert run["failed"] > 0 and run["failures"]
    assert run["failed"] / run["attempted"] > 0


def test_compare_applies_the_bounds(smoke, tmp_path):
    record, *_ = smoke
    # steady synthetic repeats, so only the doctored pairings can trip
    base = json.loads(json.dumps(record))
    for rec in base["workloads"].values():
        for entry in rec["end_to_end"].values():
            entry["per_repeat"] = [f * entry["value"] for f in (0.99, 1.0, 1.01)]
    slower = json.loads(json.dumps(base))
    entry = slower["workloads"]["hybrid_mr"]["end_to_end"]["step_ms_p50"]
    entry["value"] *= 2.0
    entry["per_repeat"] = [2.0 * v for v in entry["per_repeat"]]
    noisy = slower["workloads"]["psatd_galilean"]["end_to_end"]["fom"]
    noisy["per_repeat"] = [f * noisy["value"] for f in (0.5, 1.0, 1.5)]
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    for path, doc in ((path_a, base), (path_b, slower)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    same = _run(MAIN, "--compare", str(path_a), str(path_a))
    assert same.returncode == 0
    assert "REGRESSED" not in same.stdout and "unresolved" not in same.stdout
    worse = _run(MAIN, "--compare", str(path_a), str(path_b))
    assert worse.returncode == 1
    lines = {tuple(line.split()[:2]): line for line in worse.stdout.splitlines()}
    assert "REGRESSED" in lines[("hybrid_mr", "step_ms_p50")]
    assert "unresolved" in lines[("psatd_galilean", "fom")]
    assert lines[("uniform_compiled", "step_ms_p50")].endswith("ok")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PKG_DIR, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("benchmarks/perf/__main__.py", "--workload", "hybrid_mr", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""Orchestrator: fresh worker processes in, named metrics and one record out.

Three ways in:

* ``--workload W --seed N --seconds S --trace 0|1`` — the ``BENCHMARK.json``
  contract: one workload, one JSON object as the last line of stdout
  (end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
* no ``--trace`` — the full report: machine probes once, then every workload
  (or ``--workload W``) with its untraced repeats plus the traced pass,
  written to one JSON record.  ``--smoke`` does the same on tiny decks.
* ``--compare A.json B.json`` — apply the ``BENCHMARK.json`` bounds to two records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

PKG = __package__ or "perf"
PKG_DIR = Path(__file__).resolve().parent
#: the sys.path entry from which this package imports under its current name
PKG_PATH = PKG_DIR.parents[PKG.count(".")]
ROOT = PKG_DIR.parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / ".bench_build" / "perf"
WORKER_TIMEOUT_S = 170
#: per-repeat raw values kept in the record
RAW_KEYS = (
    "repeat", "traced", "import_s", "setup_s", "rss_mb", "step_s", "attempted",
    "failed", "failures", "energy_drift_rel", "gauss_residual", "checks", "hybrid",
)


class WorkerError(RuntimeError):
    """A worker process died or timed out."""


def _worker(role: str, outdir: Path, timeout: float = WORKER_TIMEOUT_S, **flags) -> Dict[str, Any]:
    """Run one worker process to completion and parse its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PKG_PATH), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # the compiled-kernel cache lives under tempfile.gettempdir(): keep it
    # (and every other temporary file) inside the checkout
    env["TMPDIR"] = str(outdir / "tmp")
    cmd = [sys.executable, "-m", f"{PKG}.worker", role, "--outdir", str(outdir)]
    for key, value in flags.items():
        cmd += [f"--{key}", str(value)]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{role} worker timed out after {timeout}s") from exc
    if done.returncode != 0:
        raise WorkerError(
            f"{role} worker exited {done.returncode}: {done.stderr.strip()[-800:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(
    name: str, seed: int, seconds: float, plain: int, traced: bool,
    smoke: bool, outdir: Path, machine: Dict[str, Any],
) -> Dict[str, Any]:
    """All repeats of one workload -> its record (metrics + raw values)."""
    from . import report
    from .workloads import WORKLOADS

    spec = WORKLOADS[name]
    common = dict(workload=name, seed=seed, seconds=seconds, smoke=int(smoke))
    runs: List[Dict[str, Any]] = []
    crashes: List[str] = []
    for i in range(plain):
        # the invocation-level twin checks ride on one repeat: the traced
        # one when there is one, else the first
        try:
            runs.append(_worker("repeat", outdir, repeat=i,
                                checks=int(i == 0 and not traced), **common))
        except WorkerError as exc:
            crashes.append(str(exc))
    traced_run = None
    if traced:
        # no per-layer metrics without it, so a crash here is not absorbed
        traced_run = _worker("repeat", outdir, repeat=plain, traced=1,
                             checks=1, **common)
    if not runs:
        raise WorkerError(f"{name}: no repeat completed: {crashes}")

    every = runs + ([traced_run] if traced_run else [])
    record: Dict[str, Any] = {
        "workload": name,
        "why": spec.why,
        "seed": seed,
        "smoke": smoke,
        "steps_per_repeat": runs[0]["planned_steps"],
        "particles": runs[0]["n0"],
        "end_to_end": report.end_to_end(runs),
        # a crashed repeat counts as one attempted, failed unit
        "attempted": sum(r["attempted"] for r in every) + len(crashes),
        "failed": sum(r["failed"] for r in every) + len(crashes),
        "failures": [f for r in every for f in r["failures"]] + crashes,
        "repeats": [{k: r[k] for k in RAW_KEYS if k in r} for r in every],
    }
    source = traced_run if traced_run and traced_run["step_s"] else runs[0]
    n = len(source["step_s"])
    # one process's phases against that process's own step time (rank 0 of
    # a multi-process run), so the table sums to the step it sits next to
    record["phase_table"] = {
        "source": "traced" if source is traced_run else "untraced",
        "phases_ms": {k: v / n * 1e3 for k, v in source["rank_phases"][0].items()},
        "step_ms_mean": source["rank_step_total_s"][0] / n * 1e3,
    }
    if traced_run and "probes" in traced_run:
        layer, nulls = report.per_layer(spec, runs, traced_run, machine)
        record["per_layer"] = layer
        record["nulls"] = nulls
        record["cross_checks"] = {
            k: v for k, v in traced_run["probes"].items() if k.startswith("direct_")
        }
        record["span_self"] = traced_run["span_self"]
    return record


def provenance(seed: int, machine: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cores": machine.get("usable_cores"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiled_backend": machine.get("compiled_backend"),
        "machine": machine,
    }


def contract_line(record: Dict[str, Any], trace: bool) -> str:
    """The driver's result object, printed as the last line of stdout."""
    if trace:
        from .metrics import UNITS

        metrics = {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in record["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["end_to_end"].items()
        }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this workload only")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only source of randomness")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measuring time of one run, shared by its repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract mode: 0 end-to-end, 1 per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny decks, every workload and the traced pass in <60 s")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--out", help="where to write the JSON record")
    args = parser.parse_args(argv)

    if args.compare:
        from . import report

        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
        return report.compare(args.compare[0], args.compare[1], bounds)

    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from . import report
    from .workloads import WORKLOADS, repeats_per_run

    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    contract = args.trace is not None
    if contract and len(names) != 1:
        parser.error("--trace needs --workload")
    outdir = Path(args.out).resolve().parent if args.out else DEFAULT_OUT
    (outdir / "tmp").mkdir(parents=True, exist_ok=True)

    try:
        # fill the kernel cache and the .pyc files before any setup_s is taken
        _worker("warm", outdir, timeout=800)
        traced = not contract or bool(args.trace)
        machine: Dict[str, Any] = {}
        if traced:
            machine = _worker("machine", outdir, timeout=300, smoke=int(args.smoke))
        records = {}
        for name in names:
            plain = repeats_per_run(WORKLOADS[name], args.seconds)
            if contract and args.trace:
                # --seconds covers the run: one of its repeats is the traced one
                plain -= 1
            elif args.smoke and not contract:
                plain = 2
            records[name] = measure(name, args.seed, args.seconds, plain, traced,
                                    args.smoke, outdir, machine)
            report.print_workload(records[name])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if contract:
        print(contract_line(records[names[0]], bool(args.trace)))
        return 0
    record = {"provenance": provenance(args.seed, machine), "workloads": records}
    out = Path(args.out) if args.out else outdir / f"record-seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"\nrecord written to {out}")
    return 0 if all(r["failed"] == 0 for r in records.values()) else 1

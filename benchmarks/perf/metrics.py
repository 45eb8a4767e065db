"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names (``test_perf_smoke.py`` checks the
two agree).  A per-layer metric whose layer a workload does not exercise
reads 0 there (the layer did no work); a probe that raised reads ``null``
and its reason is kept next to it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better) of the gated end-to-end metrics, per workload
END_TO_END: List[Tuple[str, str, str]] = [
    ("step_ms_p50", "ms", "lower"),
    ("fom", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

#: (name, unit, better) of the ungated per-layer metrics of the traced pass
PER_LAYER: List[Tuple[str, str, str]] = [
    # failed steps over steps attempted; 0 on a healthy tree, so it cannot
    # carry a relative bound and is reported here and as attempted/failed
    ("failed_frac", "ratio", "lower"),
    # -- particles
    ("particles.gather_ns_pp", "ns", "lower"),
    ("particles.push_ns_pp", "ns", "lower"),
    ("particles.deposit_ns_pp", "ns", "lower"),
    ("particles.bc_ns_pp", "ns", "lower"),
    ("particles.sort_ms_per_call", "ms", "lower"),
    ("particles.pushed_per_step", "count", "higher"),
    ("particles.gather_gbs_computed", "GB/s", "higher"),
    ("particles.deposit_gbs_computed", "GB/s", "higher"),
    ("particles.deposit_stream_frac", "ratio", "higher"),
    ("particles.compiled_build_s", "s", "lower"),
    # -- grid
    ("grid.maxwell_ns_per_cell", "ns", "lower"),
    ("grid.fft_cells_over_valid", "ratio", "lower"),
    ("grid.source_bc_ms_per_step", "ms", "lower"),
    ("grid.field_bc_ms_per_step", "ms", "lower"),
    ("grid.zero_sources_ms_per_step", "ms", "lower"),
    ("grid.maxwell_gbs_computed", "GB/s", "higher"),
    # -- laser
    ("laser.antenna_ms_per_step", "ms", "lower"),
    # -- core
    ("core.step_ms_p90", "ms", "lower"),
    ("core.step_ms_max", "ms", "lower"),
    ("core.wall_s", "s", "lower"),
    ("core.import_s", "s", "lower"),
    ("core.glue_frac", "ratio", "lower"),
    ("core.mr_active_step_ms", "ms", "lower"),
    ("core.mr_removed_step_ms", "ms", "lower"),
    ("core.window_step_ms", "ms", "lower"),
    ("core.mr_finalize_ms_per_step", "ms", "lower"),
    ("core.window_ms_per_step", "ms", "lower"),
    ("core.mr_fine_cells", "count", "lower"),
    ("core.mixed_step_ratio", "ratio", "lower"),
    # -- parallel
    ("parallel.box_particles_ns_pp", "ns", "lower"),
    ("parallel.fold_ms_per_step", "ms", "lower"),
    ("parallel.halo_sources_ms_per_step", "ms", "lower"),
    ("parallel.halo_fields_ms_per_step", "ms", "lower"),
    ("parallel.redistribute_ms_per_step", "ms", "lower"),
    ("parallel.comm_frac", "ratio", "lower"),
    ("parallel.us_per_msg", "us", "lower"),
    ("parallel.rank_imbalance", "ratio", "lower"),
    ("parallel.msgs_per_step", "count", "lower"),
    ("parallel.wire_bytes_per_step", "B", "lower"),
    ("parallel.halo_payload_bytes_per_step", "B", "lower"),
    ("parallel.particles_migrated_per_step", "count", "lower"),
    ("parallel.boxes", "count", "lower"),
    ("parallel.guard_cells", "count", "lower"),
    ("parallel.wait_ms_per_step", "ms", "lower"),
    ("parallel.deliver_ms_per_step", "ms", "lower"),
    ("parallel.mp_speedup_vs_loopback", "ratio", "higher"),
    ("parallel.decomp_over_mono", "ratio", "lower"),
    ("parallel.pingpong_alpha_us", "us", "lower"),
    ("parallel.pingpong_beta_us_per_mib", "us/MiB", "lower"),
    # -- diagnostics
    ("diagnostics.energy_drift_rel", "ratio", "lower"),
    ("diagnostics.gauss_residual", "ratio", "lower"),
    ("diagnostics.decomp_vs_mono_linf", "ratio", "lower"),
    ("diagnostics.checkpoint_write_ms", "ms", "lower"),
    ("diagnostics.checkpoint_read_ms", "ms", "lower"),
    ("diagnostics.checkpoint_bytes", "B", "lower"),
    # -- observability
    ("observability.tracer_overhead_frac", "ratio", "lower"),
    ("observability.spans_per_step", "count", "lower"),
    ("observability.bench_span_us", "us", "lower"),
    # -- perfmodel
    ("perfmodel.stream_triad_gbs", "GB/s", "higher"),
    ("perfmodel.llc_bytes", "B", "higher"),
    ("perfmodel.usable_cores", "count", "higher"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
BETTER: Dict[str, str] = {name: b for name, _, b in END_TO_END + PER_LAYER}
